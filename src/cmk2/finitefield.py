"""Finite-field oracle: exhaustive point counts and Frobenius-vs-CM checks.

Everything here is deliberately naive (x-scans, square tables, repeated
addition) so it stays independent of the analytic and character layers
it cross-checks.  Desk-scale primes only.

Orbits.  Three scans walk the orbits of an automorphism of the curve
instead of every x or every point, and stay exhaustive: each orbit is
counted or compared whole.  The arguments use the curve's automorphism
only, never the character the oracle checks; every other (p, A, B)
keeps the full scan.

- Point counts, B = 0 mod p and p = 1 mod 4.  f(x) = x^3 + Ax is odd, so
  f(-x) = -f(x), and -1 is a square mod p, so v and -v have equally many
  square roots.  Hence x and -x count alike: the scan counts x = 0 once
  and each x in 1..(p-1)/2 twice.
- Point counts, A = 0 mod p and p = 1 mod 3.  f(x) = x^3 + B depends on
  x^3 only.  x -> x^3 is 3-to-1 from F_p^* onto its (p-1)/3 cubes, the
  powers of g^3 for a primitive root g, since 3 divides the order of the
  cyclic group F_p^*.  So the nonzero x contribute three times the square
  counts of c + B summed over the cubes c; x = 0 adds its own.
- Frobenius at d = -4 (B = 0).  [i](x, y) = (-x, i y) with i in F_p, so
  Frobenius, which fixes F_p, commutes with [i]; and [pi] = [a] + [b][i]
  commutes with [i] for every a + b i.  So Frob(P) = [pi]P implies
  Frob([i]^k P) = [i]^k Frob(P) = [i]^k [pi] P = [pi][i]^k P: one point of
  each <[i]>-orbit decides the orbit.  The comparison runs at each
  orbit's least point under tuple order; the point counts still come from
  the full enumeration.

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

from .qfield import QuadElement, factor_int, is_rational_prime


def count_points(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b by exhaustive x-scan, over the
    orbits of x -> -x or x -> zeta_3 x where the curve has them."""
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not prime")
    # the discriminant is -16 (4a^3 + 27b^2): every such model is singular at 2
    if p == 2 or (4 * a ** 3 + 27 * b ** 2) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    # counts[v] = #{y : y^2 = v}; y and -y are distinct for y != 0
    counts = [0] * p
    counts[0] = 1
    for y in range(1, (p + 1) // 2):
        counts[y * y % p] = 2
    if b % p == 0 and p % 4 == 1:
        return 1 + counts[0] + 2 * sum([counts[(x * x + a) * x % p]
                                        for x in range(1, (p + 1) // 2)])
    if a % p == 0 and p % 3 == 1:
        g3 = pow(_primitive_root(p), 3, p)
        over_cubes, c = 0, 1
        for _ in range((p - 1) // 3):
            over_cubes += counts[(c + b) % p]
            c = c * g3 % p
        return 1 + counts[b % p] + 3 * over_cubes
    return 1 + sum([counts[((x * x + a) * x + b) % p] for x in range(p)])


def _primitive_root(p: int) -> int:
    """The least generator of F_p^*, for an odd prime p."""
    quotients = [(p - 1) // q for q, _ in factor_int(p - 1)]
    g = 2
    while any(pow(g, e, p) == 1 for e in quotients):
        g += 1
    return g


def sqrt_mod_p(a: int, p: int):
    """A square root of a mod p, or None. Brute scan; p is desk-scale."""
    a %= p
    for r in range((p + 1) // 2 + 1):
        if r * r % p == a:
            return r
    return None


class Fp2:
    """F_p(s) with s^2 = nr, nr the least quadratic nonresidue mod p."""

    def __init__(self, p: int):
        if p == 2 or not is_rational_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        nr = 2
        while pow(nr, (p - 1) // 2, p) == 1:
            nr += 1
        self.nr = nr

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

    def inv(self, x):
        # conjugate over F_p: norm = a^2 - nr b^2
        n = (x[0] * x[0] - self.nr * x[1] * x[1]) % self.p
        if n == 0:
            raise ZeroDivisionError("inverting zero in F_p^2")
        ninv = pow(n, self.p - 2, self.p)
        return (x[0] * ninv % self.p, -x[1] * ninv % self.p)

    def frobenius(self, x):
        # x -> x^p; s^p = -s since nr^((p-1)/2) = -1
        return (x[0], -x[1] % self.p)

    def elements(self):
        for a in range(self.p):
            for b in range(self.p):
                yield (a, b)


class CurveOverFp2:
    """y^2 = x^3 + A x + B with A, B in the prime subfield; group law over F_p^2."""

    INF = None

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

    def points_ext(self):
        """All points of E(F_p^2), exhaustively, on coordinate pairs
        (u, v) = u + v*s; points with the same x keep the order of their y."""
        p, nr, a, b = self.F.p, self.F.nr, self.a[0], self.b[0]
        sq: dict = {}
        for u in range(p):
            for v in range(p):
                sq.setdefault(((u * u + nr * v * v) % p, 2 * u * v % p),
                              []).append((u, v))
        pts = [None]
        for u in range(p):
            for v in range(p):
                # x^2 = uu + vv s, then x^3 + A x + B with A, B in F_p
                uu, vv = u * u + nr * v * v, 2 * u * v
                rhs = ((uu * u + nr * vv * v + a * u + b) % p,
                       (uu * v + vv * u + a * v) % p)
                for y in sq.get(rhs, ()):
                    pts.append(((u, v), y))
        return pts

    def points_prime(self, pts=None):
        """E(F_p) as the Frobenius-fixed subgroup (b-coordinates zero) of
        `pts`, an enumeration of E(F_p^2); by default a fresh points_ext()."""
        if pts is None:
            pts = self.points_ext()
        return [P for P in pts if P is None or (P[0][1] == 0 and P[1][1] == 0)]

    def frobenius(self, P):
        if P is None:
            return None
        return (self.F.frobenius(P[0]), self.F.frobenius(P[1]))


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


def _least_in_orbit(P, p: int) -> bool:
    """Whether P is the least, under tuple order, of its <[i]>-orbit
    (x, y), (-x, i y), (x, -y), (-x, -i y) on a curve with B = 0.  For
    x != 0 that is x < -x and y <= -y; x = 0 forces y = 0, a fixed point."""
    x, y = P
    return x <= (-x[0] % p, -x[1] % p) and y <= (-y[0] % p, -y[1] % p)


def frobenius_equals_cm(p: int, a: int, b: int, pi: QuadElement) -> dict:
    """Exhaustively compare Frobenius with [pi] and [pi-bar] on E(F_p^2),
    at one point of each <[i]>-orbit (see the module docstring).

    Returns a report naming which endomorphism matched.  Exactly one of
    the two must match on the full extension group; over F_p alone both
    can match (see the module docstring).
    """
    curve = CurveOverFp2(p, a, b)
    i_val = cm_i_value(p)
    _check_cm(pi, curve, i_val)
    pts = curve.points_ext()
    report = {
        "p": p,
        "i_mod_p": i_val,
        "ext_count": len(pts),
        "prime_count": len(curve.points_prime(pts)),
    }
    for tag, cand in (("pi", pi), ("pi_bar", pi.conjugate())):
        report[tag + "_matches"] = all(
            curve.frobenius(P) == cm_apply(cand, P, curve, i_val)
            for P in pts if P is not None and _least_in_orbit(P, p))
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
