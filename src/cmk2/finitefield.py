"""Finite-field oracle: exact point counts and Frobenius-vs-CM checks.

Everything here uses the curve alone (its group law, Hasse's bound,
exhaustive scans), so it stays independent of the analytic and character
layers it cross-checks.  Desk-scale primes only.

Point counts.  Let E: y^2 = f(x) = x^3 + A x + B over F_p, d the least
quadratic nonresidue mod p, and E': y^2 = x^3 + A d^2 x + B d^3 the
quadratic twist.  The right side of E' at d x is (d x)^3 + A d^3 x +
B d^3 = d^3 f(x), and (d^3 f(x) / p) = -(f(x) / p), so the
1 + (f(x) / p) points of E above x and the 1 - (f(x) / p) points of E'
above d x add up to 2 for every x, and #E + #E' = 2p + 2.  Hasse puts both counts in I = [p + 1 - w, p + 1 + w],
w = floor(2 sqrt(p)), which is symmetric about p + 1.

- An x with f(x) a nonzero square gives the point (x, sqrt(f(x))) of E;
  one with f(x) a nonsquare gives (d x, sqrt(d^3 f(x))) on E'.
- Each point narrows the candidates, which start as all of I.  #E kills
  every point of E, and #E' = 2p + 2 - #E every point of E', so a point
  P of E keeps the N with [N]P = O, one of E' the N with
  [2p + 2 - N]P = O, and #E survives every narrowing.  What is left is
  the N in I with ord(P) | N for each point of E so far and
  ord(P) | 2p + 2 - N for each of E'.  When that is one N, it is #E: a
  proof, not a sample.  Uniqueness is the test, not the orders' size: at
  p = 457 on y^2 = x^3 + 16, the orders on E have lcm 78 < 84 = 2w, yet
  468 is the only multiple of 78 in [416, 500].
- One point's survivors are one class modulo its order.  With the
  candidates N_k = s + k t (k = 0 .. n - 1) and R = [t]P, [N_k]P = O
  exactly when [k]R = -[s]P, and the k that solve this, if any, are one
  class modulo r = ord(R).  So they form a progression of step r t.  (On
  E', N_k - 2p - 2 takes the place of N_k.)
- Baby-step giant-step finds that class.  The baby steps [j]R,
  j = 1 .. m with m = floor(sqrt(n / 2)) + 1, are stored by x.  Every
  index lies within m of a giant-step index c = m, 3m + 1, 5m + 2, ...,
  and [N_c]P = [j]R or -[j]R leaves the index c - j or c + j.  The scan
  goes on past the first survivor: the next one lies r indices later,
  which gives r, and where the progression holds no second, the first is
  the only one.
- A repeat among the baby steps gives r exactly, not a multiple of it,
  which would skip true candidates.  For 1 <= i < j, [j]R and [i]R share
  an x exactly when j = +-i mod r.  Below r, j = i mod r is impossible
  and j = -i mod r needs i + j = r.  So the first j with [j]R = O or an x
  seen before is floor(r/2) + 1: [j]R = O with j = r when r <= 2, and
  [j]R = -[r - j]R otherwise.  The steps before it hold every nonzero
  multiple of R up to sign, so one look-up of [s]P finds the class.
- CM groups often have a small exponent (at p = 1201 on y^2 = x^3 - x,
  E(F_p) has exponent 48, with three multiples in I), so E alone may
  never decide; the twist does.  For p > 229, E or E' always has a
  point whose order has one multiple in I (Cremona and Sutherland, "On
  a theorem of Mestre and Schoof", J. Theor. Nombres Bordeaux 22, 2010).
- The points come from x = 0, 1, ..., p - 1 in turn, and E has
  1 + (f(x) / p) points above x.  So where no x leaves one N, the end of
  the loop is the x-scan #E = p + 1 + sum of (f(x) / p).  Cremona and
  Sutherland bound how soon the loop returns, not its correctness.

Frobenius from one generator.  At d = -4 (B = 0), [i](x, y) = (-x, i y)
with i in F_p, so Frobenius, which fixes F_p, commutes with [i], and so
do [pi] and [pi-bar]: all three are O-linear maps of E(F_{p^2}).  The
comparison therefore needs one point P with O P = E(F_{p^2}).  The
counts come from `count_points` alone: N_1 = #E(F_p), t = p + 1 - N_1 and
N_2 = #E(F_{p^2}) = (p + 1)^2 - t^2.

- Certificate.  For m in O with N(m) = N_2, suppose [m]P = O and
  [m/q]P != O for each prime q of (m).  Then ann_O(P) = (m): it contains
  (m), and an ideal strictly larger would divide some (m/q).  So
  O P = O/(m) has N_2 points, and O P is all of E(F_{p^2}).
- Candidates.  Over F_{p^2} Frobenius is phi^2, with phi = u pi or u pi-bar
  for a unit u (phi has norm p), so #E(F_{p^2}) = N(phi^2 - 1).  The m
  tried are the distinct ideals (c^2 - 1), c = u pi and u pi-bar, of norm
  N_2.  The unit associates cover the quartic twists, such as
  y^2 = x^3 + 2x, whose Frobenius is neither pi nor pi-bar.
- Search.  Points are drawn for each candidate in turn until one is not
  killed by m, which rules the candidate out, or one certifies.  This
  ends: E(F_{p^2}) = O/(phi^2 - 1) (Lenstra, "Complex multiplication
  structure of elliptic curves", J. Number Theory 56, 1996), so one
  candidate is the annihilator (m*).  A candidate (m) != (m*) of the same
  norm kills only the points of O/(m*) that form O/gcd(m, m*), at most
  half of them, so each draw rules it out with probability at least 1/2.
  On (m*) the generators have density the product of 1 - 1/N(q) over
  the primes q of (m*), which is positive.  Lenstra's theorem is needed
  only for the search to end; the comparison does not rely on it, since
  it proves its own generator.
- A wrong count.  The candidates are (+-c^2 - 1), c = pi or pi-bar, and
  none is a proper multiple of another: two with the same c differ by 2,
  two conjugate ones have one norm, and (c^2 - 1) | (-c-bar^2 - 1) would
  make p^2 + 1 - T divide 2T, T = tr(c^2) = tr(c)^2 - 2p < 2p.  That
  needs T = 0, where the norms are equal, or p^2 + 1 <= 3T < 6p, so
  p = 5 and T = 9, which is no tr(c)^2 - 10.  So where count_points is
  wrong and N_2 is not N(m*), the draws rule out every candidate of
  norm N_2, and the search raises.
- Comparison.  An O-linear map that agrees with Frobenius at P agrees on
  O P, so [pi] (or [pi-bar]) is Frobenius on all of E(F_{p^2}) exactly
  when it is at P.  The argument uses the curve alone, never the
  character the oracle checks.
- Points are drawn from a generator seeded by p, so reports are
  deterministic.  Square roots in F_{p^2} come from one in F_p (`Fp2.sqrt`).

The Frobenius comparison runs over E(F_{p^2}), not E(F_p).  On E(F_p)
Frobenius is the identity, so the candidate that is Frobenius matches
there, and the other one matches too whenever it fixes E(F_p) as well.
For y^2 = x^3 - x and the character at conductor (1+i)^3 both match on
E(F_p) at p = 5, 13, 17, 41, 61 and 113, while at p = 29, 37, 53, 73,
89, 97, 101 and 109 one of them moves some point of E(F_p).  So E(F_p)
does not separate the candidates in general.  E(F_{p^2}) does: with
pi = a + b i, [pi] and [pi-bar] agree only on the kernel of
pi - pi-bar = 2bi, which has 4b^2 < 4p points, while #E(F_{p^2}) >=
(p - 1)^2 exceeds that for p > 5 (at p = 5, 32 against 16).
"""

from __future__ import annotations

import random
from math import isqrt

from .qfield import QuadElement, QuadIdeal, factor_ideal, is_rational_prime


def count_points(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b: the one candidate in the Hasse
    interval that the points on E and its twist leave, or the x-scan
    p + 1 + sum of (f(x) / p) (see the module docstring)."""
    _check_good_reduction(p, a, b)
    lo, hi = _hasse_interval(p)
    total = 2 * p + 2  # #E + #E'
    d = _least_nonresidue(p)
    twist_a, d3 = a * d * d % p, d * d * d % p
    cands = range(lo, hi + 1)
    legendre = 0  # sum of (f(x) / p) over the x so far
    for x in range(p):
        f = ((x * x + a) * x + b) % p
        if f == 0:
            continue  # a point of order 2 says little
        if pow(f, (p - 1) // 2, p) == 1:
            legendre += 1
            cands = _narrow((x, sqrt_mod_p(f, p)), cands, a, p)
        else:
            legendre -= 1
            P = (d * x % p, sqrt_mod_p(d3 * f, p))
            cands = _narrow(P, cands, twist_a, p, total)
        if len(cands) == 1:
            return cands[0]
        if not cands:
            raise ArithmeticError(f"no group order at {p} kills the points "
                                  f"so far on the curve and its twist")
    return p + 1 + legendre


def _check_good_reduction(p: int, a: int, b: int) -> None:
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not prime")
    # the discriminant is -16 (4a^3 + 27b^2): every such model is singular at 2
    if p == 2 or (4 * a ** 3 + 27 * b ** 2) % p == 0:
        raise ValueError(f"bad reduction at {p}")


def _hasse_interval(p: int) -> tuple[int, int]:
    w = isqrt(4 * p)  # floor(2 sqrt(p))
    return p + 1 - w, p + 1 + w


def _narrow(P, cands: range, a: int, p: int, total: int = 0) -> range:
    """The N in the progression `cands` with [total - N]P = O, themselves a
    progression: with total 0 the N that kill P, a point of E; with total
    2p + 2 those whose twist count 2p + 2 - N kills P, a point of E'.
    Baby-step giant-step over all of `cands`, with R = [cands.step]P, up to
    the second survivor or a repeat among the baby steps, either of which
    gives R's order (see the module docstring)."""
    start, step = cands.start - total, cands.step  # [N_k - total]P = [start]P + [k]R
    R = _mul(step, P, a, p)
    m = isqrt(len(cands) // 2) + 1
    baby = {}  # x of [j]R -> (j, y) for 1 <= j <= m, no x twice
    order = B = None
    for j in range(1, m + 1):
        B = _add(B, R, a, p)
        if B is None:  # [j]R = O, so R has order j <= 2
            order = j
            break
        if B[0] in baby:  # the first repeat: [j]R = -[i]R, R has order j + i
            order = j + baby[B[0]][0]
            break
        baby[B[0]] = (j, B[1])

    def survivors(c, T):
        """The k with |k - c| <= m and [N_k - total]P = O, given T = [N_c - total]P."""
        if T is None:
            return [c]
        if T[0] not in baby:
            return []
        j, y = baby[T[0]]  # T = [j]R leaves c - j, T = -[j]R leaves c + j
        return [c - j, c + j] if y == 0 else [c - j if y == T[1] else c + j]

    if order is not None:  # the baby steps hold every multiple of R up to sign
        hits = survivors(0, _mul(start, P, a, p))
        return cands[hits[0] % order::order] if hits else cands[:0]
    stride = _add(_add(B, B, a, p), R, a, p)  # [2m + 1]R
    T = _mul(start + m * step, P, a, p)
    hits = []
    for c in range(m, len(cands) + m, 2 * m + 1):
        hits += survivors(c, T)
        if len(hits) > 1:  # consecutive survivors lie R's order apart
            return cands[hits[0]::hits[1] - hits[0]]
        T = _add(T, stride, a, p)
    return cands[hits[0]:hits[0] + 1] if hits else cands[:0]


def _add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + a x + b over F_p, affine, None the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _mul(k: int, P, a: int, p: int):
    """[k]P by double-and-add, as [-k](-P) for k < 0."""
    if k < 0:
        k, P = -k, P and (P[0], -P[1] % p)
    R = None
    while k:
        if k & 1:
            R = _add(R, P, a, p)
        k >>= 1
        if k:
            P = _add(P, P, a, p)
    return R


def _least_nonresidue(p: int) -> int:
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    return z


def sqrt_mod_p(a: int, p: int):
    """A square root of a mod a prime p, or None: Tonelli-Shanks."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # p - 1 = q 2^s with q odd; r^2 = a t throughout, and step k leaves t of
    # order dividing 2^(k-1), so t = 1 at the end
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    b = pow(_least_nonresidue(p), q, p)  # of order 2^s
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    for k in range(s - 1, 0, -1):
        # b has order 2^(k+1); where t has order exactly 2^k, so has b^2
        if pow(t, 1 << (k - 1), p) != 1:
            r, t = r * b % p, t * b * b % p
        b = b * b % p
    return r


class Fp2:
    """F_p(s) with s^2 = nr, nr the least quadratic nonresidue mod p."""

    def __init__(self, p: int):
        if p == 2 or not is_rational_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self.nr = _least_nonresidue(p)

    def make(self, a: int, b: int = 0):
        return (a % self.p, b % self.p)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        return (-x[0] % self.p, -x[1] % self.p)

    def mul(self, x, y):
        # (a + bs)(c + ds) = ac + bd*nr + (ad + bc)s
        return (
            (x[0] * y[0] + x[1] * y[1] * self.nr) % self.p,
            (x[0] * y[1] + x[1] * y[0]) % self.p,
        )

    def frobenius(self, x):
        # x -> x^p; s^p = -s since nr^((p-1)/2) = -1
        return (x[0], -x[1] % self.p)

    def sqrt(self, x):
        """A square root of x = u + v s, or None.  For v != 0 a root X + Y s
        has X^2 + nr Y^2 = u and 2 X Y = v, so X^2 and nr Y^2 are the roots
        (u +- r)/2 of T^2 - u T + nr v^2/4, with r^2 = u^2 - nr v^2 the norm
        of x; their product nr v^2/4 is a nonsquare, so exactly one of them
        is a square, and that one is X^2."""
        p, nr = self.p, self.nr
        u, v = x
        if v == 0:
            r = sqrt_mod_p(u, p)
            if r is not None:
                return (r, 0)
            # a nonsquare u is nr times a square w^2, and (w s)^2 = nr w^2
            return (0, sqrt_mod_p(u * pow(nr, -1, p), p))
        r = sqrt_mod_p(u * u - nr * v * v, p)
        if r is None:
            return None  # x is a square exactly when its norm is
        half = (p + 1) // 2
        X = sqrt_mod_p((u + r) * half, p)
        if X is None:
            X = sqrt_mod_p((u - r) * half, p)
        return (X, v * pow(2 * X, -1, p) % p)


class CurveOverFp2:
    """y^2 = x^3 + A x + B with A, B in the prime subfield; group law over F_p^2."""

    def __init__(self, p: int, a: int, b: int):
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            raise ValueError(f"bad reduction at {p}")
        self.F = Fp2(p)
        self.a = self.F.make(a)
        self.b = self.F.make(b)

    def neg(self, P):
        if P is None:
            return None
        return (P[0], self.F.neg(P[1]))

    def add(self, P, Q):
        """P + Q, computed inline on the coordinate pairs (u, v) = u + v*s."""
        if P is None:
            return Q
        if Q is None:
            return P
        p, nr = self.F.p, self.F.nr
        (x1u, x1v), (y1u, y1v) = P
        (x2u, x2v), (y2u, y2v) = Q
        if P[0] == Q[0]:
            if (y1u + y2u) % p == 0 and (y1v + y2v) % p == 0:
                return None
            # doubling: lambda = (3 x1^2 + A) / (2 y1); A lies in F_p
            nu = (3 * (x1u * x1u + nr * x1v * x1v) + self.a[0]) % p
            nv = 6 * x1u * x1v % p
            du, dv = 2 * y1u, 2 * y1v
        else:
            nu, nv = y2u - y1u, y2v - y1v
            du, dv = x2u - x1u, x2v - x1v
        # 1/(du + dv s) = (du - dv s) / (du^2 - nr dv^2)
        n = (du * du - nr * dv * dv) % p
        if n == 0:
            raise ZeroDivisionError("inverting zero in F_p^2")
        ninv = pow(n, -1, p)
        iu, iv = du * ninv % p, -dv * ninv % p
        lu, lv = (nu * iu + nr * nv * iv) % p, (nu * iv + nv * iu) % p
        x3u = (lu * lu + nr * lv * lv - x1u - x2u) % p
        x3v = (2 * lu * lv - x1v - x2v) % p
        eu, ev = x1u - x3u, x1v - x3v
        return ((x3u, x3v),
                ((lu * eu + nr * lv * ev - y1u) % p, (lu * ev + lv * eu - y1v) % p))

    def smul(self, k: int, P):
        if k < 0:
            return self.neg(self.smul(-k, P))
        R = None
        Q = P
        while True:
            if k & 1:
                R = self.add(R, Q)
            k >>= 1
            if not k:
                return R
            Q = self.add(Q, Q)

    def frobenius(self, P):
        if P is None:
            return None
        return (self.F.frobenius(P[0]), self.F.frobenius(P[1]))

    def random_point(self, rng: random.Random):
        """A point of E(F_p^2) above an x drawn from `rng`, redrawn until
        x^3 + A x + B is a square."""
        F = self.F
        while True:
            x = (rng.randrange(F.p), rng.randrange(F.p))
            y = F.sqrt(F.add(F.mul(F.add(F.mul(x, x), self.a), x), self.b))
            if y is not None:
                return (x, y)


def cm_i_value(p: int) -> int:
    """The canonical square root of -1 mod p (the smaller of the two)."""
    r = sqrt_mod_p(p - 1, p)
    if r is None:
        raise ValueError(f"-1 is not a square mod {p}; p is not split")
    return min(r, p - r)


def _check_cm(pi: QuadElement, curve: CurveOverFp2, i_val: int) -> None:
    """Reject the cases the (-x, i*y) formula for [i] does not cover.

    With B = 0, (-x, i*y) lies on the curve for every point exactly when
    i^2 = -1 mod p, so that one check stands for the whole map.
    """
    if pi.field.d != -4:
        raise ValueError("CM automorphism shortcut implemented for d = -4 only")
    if curve.b != curve.F.make(0):
        raise ValueError("the (-x, iy) automorphism needs B = 0")
    if (i_val * i_val + 1) % curve.F.p:
        raise ArithmeticError(f"{i_val} is not a square root of -1 mod {curve.F.p}")


def cm_apply(pi: QuadElement, P, curve: CurveOverFp2, i_val: int):
    """[x + y*i]P on a j=1728 curve (B = 0): [i](x,y) = (-x, i*y)."""
    _check_cm(pi, curve, i_val)
    if P is None:
        return None
    p = curve.F.p
    (xu, xv), (yu, yv) = P
    iP = ((-xu % p, -xv % p), (i_val * yu % p, i_val * yv % p))
    return curve.add(curve.smul(pi.x, P), curve.smul(pi.y, iP))


def frobenius_equals_cm(p: int, a: int, b: int, pi: QuadElement) -> dict:
    """Compare Frobenius with [pi] and [pi-bar] on all of E(F_p^2), at one
    certified O-module generator (see the module docstring).

    Returns a report naming which endomorphism matched.  Exactly one of
    the two must match on the full extension group; over F_p alone both
    can match (see the module docstring).
    """
    curve = CurveOverFp2(p, a, b)
    i_val = cm_i_value(p)
    _check_cm(pi, curve, i_val)
    prime_count = count_points(p, a, b)
    t = p + 1 - prime_count
    ext_count = (p + 1) ** 2 - t * t
    P = _certified_generator(curve, i_val, pi, ext_count)
    frob = curve.frobenius(P)
    return _report(p, i_val, ext_count, prime_count, pi,
                   lambda cand: frob == cm_apply(cand, P, curve, i_val))


def _certified_generator(curve: CurveOverFp2, i_val: int, pi: QuadElement,
                         ext_count: int):
    """A point P with ann_O(P) = (c^2 - 1) of norm ext_count, c a unit
    times pi or pi-bar; ArithmeticError where no candidate has one.  Each
    candidate gets points until one is not killed by c^2 - 1 or one
    certifies; the module docstring shows that this ends."""
    rng = random.Random(curve.F.p)
    tried = set()
    for c in (u * s for s in (pi, pi.conjugate()) for u in pi.field.units()):
        m = c * c - 1
        ideal = QuadIdeal(m)
        if m.norm() != ext_count or ideal in tried:
            continue
        tried.add(ideal)
        primes = None
        while True:
            P = curve.random_point(rng)
            if cm_apply(m, P, curve, i_val) is not None:
                break  # a generator's annihilator kills every point
            if primes is None:
                primes = [q.gen for q, _ in factor_ideal(ideal)]
            if _certifies(curve, i_val, P, m, primes):
                return P
    raise ArithmeticError(f"no candidate annihilator of norm {ext_count} "
                          f"has a generator at p = {curve.F.p}")


def _certifies(curve: CurveOverFp2, i_val: int, P, m: QuadElement, primes) -> bool:
    """Whether ann_O(P) = (m), given the generators of the primes of (m):
    [m]P = O and [m/q]P != O for each prime q."""
    return (cm_apply(m, P, curve, i_val) is None
            and all(cm_apply(m.exact_div(q), P, curve, i_val) is not None
                    for q in primes))


def _report(p: int, i_val: int, ext_count: int, prime_count: int,
            pi: QuadElement, matches) -> dict:
    """The Frobenius report, with matches(cand) deciding whether [cand] is
    Frobenius on E(F_p^2)."""
    report = {
        "p": p,
        "i_mod_p": i_val,
        "ext_count": ext_count,
        "prime_count": prime_count,
    }
    for tag, cand in (("pi", pi), ("pi_bar", pi.conjugate())):
        report[tag + "_matches"] = matches(cand)
    report["exactly_one"] = report["pi_matches"] != report["pi_bar_matches"]
    if report["pi_matches"]:
        matched = pi
    elif report["pi_bar_matches"]:
        matched = pi.conjugate()
    else:
        matched = None
    if matched is not None:
        report["matched_trace"] = matched.trace()
        report["norm_of_pi_minus_1"] = (matched - 1).norm()
    return report
