"""Lattice arithmetic in mpmath, kept as test oracles for the fixed-point
kernel: the embedding of exact coordinates, the R-linear quasi-period map
and sigma's translation factor, each evaluated the direct way; the
kernel's series summed the direct way, from powers; and the kernel's
rounding rule in Fraction arithmetic, with the conversion of
int/Fraction plane coordinates to the (X, Y, D) every evaluation point
is; a torsion point's lift, read in Fractions; the Jacobi theta
function theta_1 and its first three derivatives, summed in one pass;
the residue inverse by Euler's theorem, with phi by the multiplicative
formula; #E(F_p) by the x-scan; and E(F_p^2) and F_p^2 enumerated, with
the Frobenius report from every point of E(F_p^2)."""

import math
from fractions import Fraction

import mpmath as mp

from cmk2.finitefield import (CurveOverFp2, _check_cm, _check_good_reduction, _report,
                              cm_apply, cm_i_value)
from cmk2.qfield import factor_ideal, gcd_elements


def frac(v):
    """An int or Fraction at the current precision."""
    v = Fraction(v)
    return mp.mpf(v.numerator) / v.denominator


def embed(lat, r, s):
    """r + s*tau for int/Fraction plane coordinates."""
    with lat.context():
        return frac(r) + frac(s) * lat.tau


def eta_linear(lat, r, s):
    """The R/Q-linear extension r*eta(1) + s*eta(omega) of the quasi-period map."""
    with lat.context():
        return frac(r) * lat.eta1 + frac(s) * lat.eta_omega


def sigma_value(lat, *args):
    """sigma at the kernel's arguments as a number: its product form
    through the lattice's one conversion, fold."""
    return lat.fold([(lat.sigma(*args), 1)])


def translation_sign(m: int, n: int) -> int:
    """eps(m + n*omega) = (-1)^(m + n + m*n); sigma's sign under translation."""
    return -1 if (m + n + m * n) % 2 else 1


def translation_factor(lat, m: int, n: int, z):
    """Full factor: sigma(z + mu) = factor * sigma(z), mu = m + n*omega."""
    with lat.context():
        mu = m + n * lat.tau
        return translation_sign(m, n) * mp.exp(eta_linear(lat, m, n) * (z + mu / 2))


def power_sums(lat, head, derivs, guard):
    """The kernel's series sums, _series' (sums, e), the direct way: from
    the head (bits, uc, us, rp, rm), taken as exact, at bits + guard, with
    u = exp(i a) and r = exp(b) raised to each power k = 2n+1 and
    sin(k v) = sin(k a) cosh(k b) + i cos(k a) sinh(k b) at v = a + i b."""
    bits, uc, us, rp, rm = head
    bits += guard
    uc, us, rp, rm = (v << guard for v in (uc, us, rp, rm))
    uc2, us2 = (uc * uc - us * us) >> bits, (2 * uc * us) >> bits
    rp2, rm2 = (rp * rp) >> bits, (rm * rm) >> bits
    sums = [[0, 0] for _ in range(derivs + 1)]
    for k, c, shift in lat._table:
        shift += bits
        ch, sh = rp + rm, rp - rm  # 2 cosh(k b), 2 sinh(k b)
        # 2 c_n sin(k v) and 2 c_n cos(k v); derivative j takes
        # (-1)^(j//2) k^j times the sine (even j) or the cosine (odd j)
        trig = ((c * (us * ch) >> shift, c * (uc * sh) >> shift),
                (c * (uc * ch) >> shift, -(c * (us * sh) >> shift)))
        w = 1
        for j in range(derivs + 1):
            re, im = trig[j % 2]
            sign = -w if j & 2 else w
            sums[j][0] += sign * re
            sums[j][1] += sign * im
            w *= k
        uc, us = (uc * uc2 - us * us2) >> bits, (uc * us2 + us * uc2) >> bits
        rp, rm = (rp * rp2) >> bits, (rm * rm2) >> bits
    return sums, -bits - 1


def coords(x, y):
    """(X, Y, D) with x + y*omega = (X + Y*omega)/D in lowest terms, for
    int/Fraction x and y: the point as the kernel and evaluate take it."""
    x, y = Fraction(x), Fraction(y)
    D = math.lcm(x.denominator, y.denominator)
    return x.numerator * (D // x.denominator), y.numerator * (D // y.denominator), D


def lift(P):
    """The plane coordinates (X/D, Y/D) of a torsion point's canonical lift,
    as Fractions; as a sort key, the reference order of torsion points."""
    return Fraction(P.X, P.D), Fraction(P.Y, P.D)


def reduced(lat, x, y):
    """lat.reduce at int/Fraction x, y, with the offset back as Fractions:
    (x0, y0, m, n), x + y*omega = (x0 + y0*omega) + (m + n*omega)."""
    X0, Y0, L, m, n = lat.reduce(*coords(x, y))
    return Fraction(X0, L), Fraction(Y0, L), m, n


def reduce_reference(t, x, y):
    """The rounding rule in Fraction arithmetic, for a field whose omega
    has trace t: n = round(y), m = round(x + (y - n) t/2), ties to even
    (Python's round); returns (x0, y0, m, n) like `reduced`."""
    n = round(y)
    m = round(x + (y - n) * Fraction(t, 2))
    return x - m, y - n, m, n


def theta1_derivatives(z, q):
    """(theta_1, theta_1', theta_1'', theta_1''') at z for the nome q, at
    the current precision, in one pass over the series
    theta_1(z) = 2 q^(1/4) sum_n (-1)^n q^(n(n+1)) sin(k z), k = 2n+1,
    with 2i sin(k z) = u^k - u^-k and 2 cos(k z) = u^k + u^-k, u = e^(iz),
    and derivative j taking (-1)^(j//2) k^j times the sine (even j) or the
    cosine (odd j).  The terms' logs are concave in n, so the sum stops at
    the first term past the largest that falls below 2^-prec of it."""
    up, um = mp.expj(z), mp.expj(-z)  # u^k, u^-k
    u2, v2, q2 = up * up, um * um, q * q
    a, step = mp.mpc(1), q2  # (-1)^n q^(n(n+1)), q^(2n+2)
    sums = [0, 0, 0, 0]
    eps, largest, k = mp.ldexp(1, -mp.mp.prec), 0, 1
    while True:
        s, c = a * up, a * um
        s, c = s - c, s + c
        sums[0] += s
        sums[1] += k * c
        sums[2] -= k * k * s
        sums[3] -= k ** 3 * c
        size = k ** 3 * (abs(s) + abs(c))
        if size > largest:
            largest = size
        elif size < eps * largest:
            break
        a, step = -a * step, step * q2
        up, um, k = up * u2, um * v2, k + 2
    q4 = mp.root(q, 4)
    return (-1j * q4 * sums[0], q4 * sums[1], -1j * q4 * sums[2], q4 * sums[3])


def euler_phi(ideal):
    """Order of (O_K/ideal)^* by the multiplicative formula over the
    prime factorization: the product of N(P)^(v-1) (N(P) - 1)."""
    phi = 1
    for prime, v in factor_ideal(ideal):
        phi *= prime.norm ** (v - 1) * (prime.norm - 1)
    return phi


def euler_inverse(alpha, modulus):
    """The canonical representative of alpha^(phi(modulus) - 1) modulo
    modulus, alpha's inverse by Euler's theorem; 1 modulo the unit ideal,
    and ValueError where alpha is no unit modulo the modulus."""
    if modulus.is_one():
        return modulus.field.one()
    if alpha.is_zero() or gcd_elements(alpha, modulus.gen).norm() != 1:
        raise ValueError(f"{alpha} is not invertible modulo {modulus}")
    e, out, base = euler_phi(modulus) - 1, modulus.field.one(), modulus.reduce(alpha)
    while e:
        if e & 1:
            out = modulus.reduce(out * base)
        base = modulus.reduce(base * base)
        e >>= 1
    return out


def scan_count(p, a, b):
    """#E(F_p) for y^2 = x^3 + a x + b by exhaustive x-scan."""
    _check_good_reduction(p, a, b)
    # counts[v] = #{y : y^2 = v}; y and -y are distinct for y != 0
    counts = [0] * p
    counts[0] = 1
    for y in range(1, (p + 1) // 2):
        counts[y * y % p] = 2
    return 1 + sum([counts[((x * x + a) * x + b) % p] for x in range(p)])


def fp2_elements(F):
    """Every element of the Fp2 field F, as coordinate pairs (a, b)."""
    for a in range(F.p):
        for b in range(F.p):
            yield (a, b)


def fp2_inv(F, x):
    """x^-1 in the Fp2 field F, through the conjugate over F_p: the norm
    is a^2 - nr b^2."""
    n = (x[0] * x[0] - F.nr * x[1] * x[1]) % F.p
    if n == 0:
        raise ZeroDivisionError("inverting zero in F_p^2")
    ninv = pow(n, F.p - 2, F.p)
    return (x[0] * ninv % F.p, -x[1] * ninv % F.p)


def points_ext(curve):
    """All points of E(F_p^2) on a CurveOverFp2, exhaustively, on
    coordinate pairs (u, v) = u + v*s; points with the same x keep the
    order of their y."""
    p, nr, a, b = curve.F.p, curve.F.nr, curve.a[0], curve.b[0]
    sq: dict = {}
    for u in range(p):
        for v in range(p):
            sq.setdefault(((u * u + nr * v * v) % p, 2 * u * v % p), []).append((u, v))
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


def points_prime(curve, pts=None):
    """E(F_p) as the Frobenius-fixed subgroup (b-coordinates zero) of
    `pts`, an enumeration of E(F_p^2); by default a fresh points_ext."""
    if pts is None:
        pts = points_ext(curve)
    return [P for P in pts if P is None or (P[0][1] == 0 and P[1][1] == 0)]


def frobenius_exhaustive(p, a, b, pi):
    """frobenius_equals_cm's report from every point of E(F_p^2)."""
    curve = CurveOverFp2(p, a, b)
    i_val = cm_i_value(p)
    _check_cm(pi, curve, i_val)
    pts = points_ext(curve)
    return _report(p, i_val, len(pts), len(points_prime(curve, pts)), pi,
                   lambda cand: all(curve.frobenius(P) == cm_apply(cand, P, curve, i_val)
                                    for P in pts))
