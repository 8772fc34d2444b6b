"""Finite-field oracle: exhaustive point counts and Frobenius-vs-CM checks.

Everything here is deliberately naive (x-scans, square tables, repeated
addition) so it stays independent of the analytic and character layers
it cross-checks.  Desk-scale primes only.

The Frobenius comparison runs over E(F_{p^2}), not E(F_p): on E(F_p)
both candidate endomorphisms pi and pi-bar restrict to the identity
map (Frobenius fixes F_p-points), so the quadratic extension is the
smallest field that separates them.
"""

from __future__ import annotations

from .qfield import QuadElement, is_rational_prime


def count_points(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + a x + b by exhaustive x-scan."""
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
    return 1 + sum([counts[((x * x + a) * x + b) % p] for x in range(p)])


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
        assert is_rational_prime(p) and p > 2
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

    def rhs(self, x):
        """x^3 + A x + B."""
        F = self.F
        return F.add(F.add(F.mul(F.mul(x, x), x), F.mul(self.a, x)), self.b)

    def on_curve(self, P) -> bool:
        return P is None or self.F.mul(P[1], P[1]) == self.rhs(P[0])

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
        """All points of E(F_p^2), exhaustively."""
        F = self.F
        sq: dict = {}
        for e in F.elements():
            sq.setdefault(F.mul(e, e), []).append(e)
        pts = [None]
        for a in range(F.p):
            for b in range(F.p):
                x = (a, b)
                for y in sq.get(self.rhs(x), []):
                    pts.append((x, y))
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


def cm_apply(pi: QuadElement, P, curve: CurveOverFp2, i_val: int):
    """[x + y*i]P on a j=1728 curve (B = 0): [i](x,y) = (-x, i*y).

    With B = 0, (-x, i*y) lies on the curve for every point exactly when
    i^2 = -1 mod p, so that one check stands for the whole map.
    """
    if pi.field.d != -4:
        raise ValueError("CM automorphism shortcut implemented for d = -4 only")
    if curve.b != curve.F.make(0):
        raise ValueError("the (-x, iy) automorphism needs B = 0")
    if (i_val * i_val + 1) % curve.F.p:
        raise ArithmeticError(f"{i_val} is not a square root of -1 mod {curve.F.p}")
    if P is None:
        return None
    iP = ((curve.F.neg(P[0])), curve.F.mul(curve.F.make(i_val), P[1]))
    return curve.add(curve.smul(pi.x, P), curve.smul(pi.y, iP))


def frobenius_equals_cm(p: int, a: int, b: int, pi: QuadElement) -> dict:
    """Exhaustively compare Frobenius with [pi] and [pi-bar] on E(F_p^2).

    Returns a report naming which endomorphism matched.  Exactly one of
    the two must match on the full extension group; matching over F_p
    alone would be vacuous (both act as the identity there).
    """
    curve = CurveOverFp2(p, a, b)
    i_val = cm_i_value(p)
    pts = curve.points_ext()
    report = {
        "p": p,
        "i_mod_p": i_val,
        "ext_count": len(pts),
        "prime_count": len(curve.points_prime(pts)),
    }
    for tag, cand in (("pi", pi), ("pi_bar", pi.conjugate())):
        ok = True
        for P in pts:
            if curve.frobenius(P) != cm_apply(cand, P, curve, i_val):
                ok = False
                break
        report[tag + "_matches"] = ok
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
