"""Arbitrary-precision analytic layer for the lattice model C/O_K.

The lattice is always normalized to Z + Z*tau, tau = omega_hat the
complex embedding of the integral basis generator, which is exactly the
ring of integers for the nine class-number-one fields.  Quantities
provided: Weierstrass sigma (in product form, see fold), p, p', zeta,
the quasi-periods eta(1) and eta(omega), the invariants g2 and g3, and
exp_eta, the exponential of the quasi-period map at exact points.

One theta kernel serves sigma, zeta, p, p', eta(1), g2 and g3.  Each
lattice computes, once, a table of c_n = (-1)^n q^(n(n+1)), n = 0..N, at
the fixed nome q = exp(i pi tau); c_n is real for every normalized
lattice.

- Reduction: every function takes a point as integers over one positive
  denominator, z = (X + Y*omega)/D, and picks the lattice point
  mu = m + n*omega by integer rounding (`reduce`, ties to even),
  n = round(Y/D) and m = round((2X + t(Y - nD))/(2D)), t the trace of
  omega, so the offset z0 = z - mu has |Re z0| <= 1/2 and
  |Im z0| <= Im(tau)/2 exactly.  z0 goes on over its least denominator,
  z0 = (X0 + Y0*omega)/L; nothing is embedded as a float.  As
  eta(mu) = eta1 mu - 2 pi i n (Legendre),
  sigma(z) = eps(mu) exp(eta1 z^2/2 - 2 pi i n (z - mu/2)) sigma(z0) and
  zeta(z) = eta1 z - 2 pi i n + pi theta_1'(pi z0) / theta_1(pi z0);
  p and p' are periodic.
- Exponential: exp_eta(zeta, xi, h) = exp(eta1 zeta - 2 pi i xi + pi i h)
  for exact zeta, xi in K and rational h.  Its real part and the angle
  eta1 Im(zeta) are integers over 2^bits from per-lattice fixed-point
  constants; the rest of the angle, pi (h - 2 Re xi), is pi times a
  rational and is reduced exactly, mod 2, with its quarter turns taken
  out as powers of i.  So eps(mu) is an exact sign and a real z gives an
  exactly real sigma.  It returns integers (re, im, e), the value
  (re + i im) 2^e, for callers that go on in fixed point.  sigma does not
  call it: it returns sigma in product form, the exact exponent of its
  exponential as exp_eta's integers and its series in fixed point, and
  `fold` turns a product of such factors into one number.  It sums the
  exponents times their powers over one denominator and calls exp_eta
  once, and takes one power of the series per distinct |power|.  A
  summed zeta is at most sum |m| |w|^2/2 and a summed xi at most
  sum |m| |n| |w - mu/2| over the factors sigma(w)^m; for an elliptic
  function's value the zeta parts cancel exactly (see divisors), and xi
  is about 2^14 at the scale-5000 powers of `verify-e1 --m "(2+i)^3"`.
- Series: theta_1^(j)(pi z0) / (2 q^(1/4)) is the sum of
  c_n k^j (d/dv)^j sin(k v) at v = pi z0 = a + i b, k = 2n+1, summed in
  integer fixed point.  The series head, (cos, sin)(a) and exp(+-b),
  gives 2 sin v and 2 cos v in four products, and the odd multiples T_k,
  2 sin(k v) or 2 cos(k v), follow from the three-term recurrence
  T_(k+2) = C T_k - T_(k-2), C = 2 cos 2v = (2 cos v)^2 - 2, started at
  T_(-1) = -T_1 for the sine and +T_1 for the cosine.  A term costs one
  complex product at the working width and c_n T_k; the cosine runs
  only for a derivative (zeta, p and p'), and nothing is formed past
  the last table term.  sigma(X, Y, D, R, S, E) is sigma at z - u for
  z = (X + Y*omega)/D and u = (R + S*omega)/E (u = 0 by default, as for
  zeta, p and p').  With z_c and u_c their canonical points in [0, 1)^2,
  z0 = z_c - u_c - mu' for an exact mu' = m' + n'*omega, n' in
  {-1, 0, 1}, so exp(i pi z0) is a product of per-point phases, the
  cosine, sine and exp(+-pi Im p) of a canonical point p in lowest
  terms, and of (-1)^m' i^(-t n') e^(nu n'), nu = pi Im(tau), exact
  quarter turns times a per-lattice constant.  Each phase is memoized,
  so every offset of one point shares it: its angle pi (2X + tY)/(2D)
  is split like the one above, and p = 0 has the exact phase 1.  The
  q^(1/4) cancels in every quotient (sigma divides by
  theta_1'(0) / (2 q^(1/4)) = sum k c_n), so no branch of it is chosen,
  and eta1 = (pi^2/3) sum k^3 c_n / sum k c_n.
  A real z0 has exp(+-b) = 1 exactly, so 2 sin v, 2 cos v and C are
  real, and the plain four-product complex multiply keeps every T_k and
  its sums exactly real (a three-product form would not).
- Invariants: with the moments d_j = sum k^j c_n, the sine series is
  z - a z^3 + b z^5 - c z^7 + ..., a = eta1/2, b = pi^4 d5 / (120 d1),
  c = pi^6 d7 / (5040 d1).  Times exp(a z^2) it is sigma's Laurent
  series z - g2 z^5/240 - g3 z^7/840 + ..., so g2 = 120 a^2 - 240 b and
  g3 = 840 (c - a b) + 280 a^3, both exactly real.
- Guard bits: N is fixed per lattice by the worst case
  |Im z0| = Im(tau)/2, where term n is at most
  (2n+1)^3 exp(-nu (n^2 - 1/2)); the series stops once the next term
  falls below 2^-(prec + GUARD_BITS).  The fixed point runs at
  bits = prec + GUARD_BITS + g, g covering the largest term exp(nu/2)
  and the rounding of N+1 weighted terms, the recurrence's included
  (see the error budget).  Each c_n keeps that many
  significant bits whatever its size, and an offset within 2^-b of 0,
  read off the exact norm of z0, gets b more bits, so sigma keeps its
  relative precision near its zero.  The phases run at
  pb >= bits + ceil(nu/ln 2) + 16, rounded up to a multiple of 64: a
  factor exp(-pi Im p) or e^-nu can be as small as e^-nu, which turns an
  ulp at pb into e^nu ulp of relative error, so a near-zero offset takes
  a higher bucket instead of a wrong phase.
- Error budget: each constant is rounded once to an integer over
  2^bits, and each `>>` or `//` costs one ulp, 2^-bits; a rational
  multiplier k scales a constant's rounding to |k| ulp.  So exp_eta's
  exponent is off by about |zeta| + 2|xi| + 3 ulp, its value by that
  relative error, and its pi*rational phase is exact.  A summed
  exponent costs log2(|zeta| + 2|xi|) of the g + GUARD_BITS bits between
  the working width and the returned precision: 14 bits for |xi| near
  2^14 and 30 at the scale k = 163^3 * 164 of `certify-tame --d -163
  --m "(1-2*w)^3"`, both inside them.  sigma rounds its series to
  nearest at prec + GUARD_BITS bits, and fold each product to
  2 bitlen|k| bits more; a power k multiplies its base's relative error
  by k.  Each phase product costs at most 2 ulp at pb bits, times e^nu
  from the small factors, a relative error the pb rule keeps below
  2^-(bits + 16); the series head then costs one ulp more, its `>>` to
  bits, so it stays within 2 ulp of the one-point head; each of its four
  integers is within 1.5 ulp of exact.  So 2 sin v and 2 cos v are within
  10 e^|b| ulp, and C within 42 e^(2|b|) ulp.  Each recurrence step
  costs one ulp a component, and C's error dC adds |dC| |T_(k-2)|, at
  most 86 e^(k|b|) ulp in all; an error injected at step j reaches
  T_(j+2m) times U_m(cos 2v), the Chebyshev polynomial of the second
  kind, with |U_m| <= (m+1) e^(2m|b|), a bound it nears at b = 0 with
  Re z0 near 0 or 1/2.  Summed over the steps, T_k (k = 2n+1) is within
  43 (n+1)^2 e^(k|b|) ulp, and derivative j's sum within
  sum_n k^j (1 + 43 (n+1)^2 |c_n| e^(k|b|)) ulp a component, the 1 from
  the `>>` of c_n T_k.  g still covers that: |c_n| e^(k|b|) is at most
  exp(-nu (n^2 - 1/2)), (n+1)^2 e^(-nu n^2) < 0.27 for n >= 1 at every
  field (nu >= 2.72), and sum_n k^3 <= 0.52 (N+1)(2N+1)^3 with N >= 1,
  so the bound is below 8 e^(nu/2) (N+1)(2N+1)^3 ulp, inside g's
  factor 16.

Exact points: every entry point, exp_eta too, takes integers over one
positive denominator, and scaling them all by one factor changes no
value, so callers may use any common denominator.  `memo(key, compute)`
keeps each value a run computes at a lattice (fixed-point constants,
point phases, sigma at exact offsets, lazy constants, shared stages) as
long as the lattice lives; `sigma` is the kernel, which runs its series
once per call and returns it with its exponential's exact exponent.  At
a lattice point sigma has no series: its exponential alone is its
leading coefficient eps(mu) exp(eta1 mu^2/2 - pi i n mu); zeta, p and
p' raise PoleError there.

Constants: pi, ln 2, exp and cos/sin are `cmk2.dyadic`'s fixed-point
functions, each within one ulp at the width asked for (that module
states their error budget), and sqrt|d| is an integer square root, so
every constant above is an integer over 2^bits.  The coefficient table's
c_n = exp(-nu n(n+1)) is 2^-(j+1) exp(ln 2 - r) with
nu n(n+1) = j ln 2 + r, from nu and ln 2 at W + 32 bits, W the table's
significant bits: nu n(n+1) and j ln 2 are each off by under 2^11 ulp
there, so c_n is within 2^-20 of its last bit.  `_fixed` computes at
32 bits more than it returns, so each of its integers, e^-nu included
(relative error e^nu ulp, as for any fixed-point value that small), is
within one ulp of its truncation.

Precision contract: an instance is pinned to a binary precision, and
every value it returns is a Dyadic at prec + GUARD_BITS bits.  A Dyadic
carries its own precision and each operation on it rounds there, so
values combine anywhere, with no context to set.  The lattice also holds
the run's tolerance `lat.tol`, and `within(residual)`, residual < tol,
is every numeric check's acceptance.
"""

from __future__ import annotations

import math

from .dyadic import I, Dyadic, cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed
from .qfield import QuadField

GUARD_BITS = 48
MIN_PREC = 64

# the default numeric tolerance, 10^-25 at 256 bits
DEFAULT_TOL = Dyadic.ratio(1, 10 ** 25, 256)


class PoleError(ArithmeticError):
    """Evaluation requested at a zero/pole."""


def _round(num: int, den: int) -> int:
    """The integer nearest num/den for den > 0; a tie rounds to the even one."""
    q, r = divmod(2 * num + den, 2 * den)
    return q - 1 if r == 0 and q % 2 else q


def _quarter_turns(num: int, den: int):
    """(q, rest) with pi num/den = q pi/2 + pi rest/(2 den), 0 <= q < 4 and
    0 <= rest < den: exp(pi i num/den) is i^q exp(pi i rest/(2 den))
    exactly, its angle reduced mod 2 pi."""
    q, rest = divmod(2 * num, den)
    return q % 4, rest


def _turn(c: int, s: int, q: int):
    """i^q (c + i s), exactly."""
    for _ in range(q % 4):
        c, s = -s, c
    return c, s


def _cos_sin(angle: int, q: int, bits: int):
    """i^q (cos + i sin)(angle) for a fixed-point angle over 2^bits, as
    two integers over 2^bits; angle 0 gives exactly i^q."""
    c, s = cos_sin_fixed(angle, bits) if angle else (1 << bits, 0)
    return _turn(c, s, q)


# --- complex fixed point: (re, im, e) is (re + i im) 2^e, re and im integers ---


def _trim(re: int, im: int, e: int, bits: int) -> tuple:
    """(re, im, e) with the larger mantissa rounded to `bits` bits, to
    nearest (half an ulp)."""
    s = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if s <= 0:
        return re, im, e
    half = 1 << (s - 1)
    return (re + half) >> s, (im + half) >> s, e + s


def _mul(a: tuple, b: tuple, bits: int) -> tuple:
    (ar, ai, ae), (br, bi, be) = a, b
    return _trim(ar * br - ai * bi, ar * bi + ai * br, ae + be, bits)


def _ratio(a: tuple, b: tuple, bits: int) -> tuple:
    """a / b = a conj(b) / |b|^2, its quotient to `bits` bits."""
    (ar, ai, ae), (br, bi, be) = a, b
    n2 = br * br + bi * bi
    re, im = ar * br + ai * bi, ai * br - ar * bi
    k = max(0, bits + n2.bit_length() - max(abs(re).bit_length(), abs(im).bit_length()))
    return (re << k) // n2, (im << k) // n2, ae - be - k


def _product(values: list, bits: int) -> tuple:
    """The product of the values, 1 for none."""
    out = values[0] if values else (1, 0, 0)
    for v in values[1:]:
        out = _mul(out, v, bits)
    return out


def _power(g: tuple, m: int, bits: int) -> tuple:
    """g^m for m >= 1 by left-to-right square-and-multiply."""
    out = g
    for bit in bin(m)[3:]:
        out = _mul(out, out, bits)
        if bit == "1":
            out = _mul(out, g, bits)
    return out


def _canonical(X: int, Y: int, D: int):
    """(Xc, Yc, Dc, a, b) with (X + Y*omega)/D = (Xc + Yc*omega)/Dc + a + b*omega,
    0 <= Xc, Yc < Dc and Dc least: the point's representative in [0, 1)^2."""
    a, Xc = divmod(X, D)
    b, Yc = divmod(Y, D)
    g = math.gcd(Xc, Yc, D)
    return Xc // g, Yc // g, D // g, a, b


class AnalyticLattice:
    """C/O_K at a fixed binary precision, with the run's tolerance."""

    def __init__(self, field: QuadField, prec: int = 256, tol=DEFAULT_TOL):
        if prec < MIN_PREC:
            raise ValueError(f"precision below {MIN_PREC} bits is not supported")
        self.field = field
        self.prec = prec
        self.tol = tol
        self._t, self._n = field.trace_omega, field.norm_omega
        self._memo: dict = {}
        self._init_constants()

    def memo(self, key, compute):
        """compute() under key, once per lattice: kernel values, constants,
        shared stage reports, and relation runs with their elements.  Keys
        and values hold no lattice, so the memo makes no reference cycle.
        Entries live as long as the lattice: in library use, each fresh
        random point adds some."""
        try:
            return self._memo[key]
        except KeyError:
            out = self._memo[key] = compute()
            return out

    def within(self, residual) -> bool:
        """The acceptance rule of every numeric check: residual < tol."""
        return bool(residual < self.tol)

    # --- constants ---------------------------------------------------------

    def _init_constants(self):
        """tau, eta1, eta(omega), g2 and g3 at prec + GUARD_BITS bits, and
        `one`, the complex 1 there, which makes an int value a number."""
        prec = self.prec + GUARD_BITS
        self.one = Dyadic(1, 0, 0, prec, True)
        self._init_table()
        d1, d3, d5, d7 = (Dyadic(self._table_moment(j), 0, -self._top, prec, False)
                          for j in (1, 3, 5, 7))
        pi = self._pi = Dyadic(pi_fixed(prec + 16), 0, -prec - 16, prec, False)
        pi2 = pi * pi
        self.tau = (self._t + Dyadic(-self.field.d, 0, 0, prec, False).sqrt() * I) / 2
        self.eta1 = pi2 / 3 * d3 / d1
        self.eta_omega = self.eta1 * self.tau - 2 * pi * I
        a = self.eta1 / 2
        b = pi2 * pi2 * d5 / (120 * d1)
        c = pi2 * pi2 * pi2 * d7 / (5040 * d1)
        self.g2 = 120 * a * a - 240 * b
        self.g3 = 840 * (c - a * b) + 280 * a * a * a

    def _nu(self, bits: int) -> int:
        """nu = pi Im(tau) = pi sqrt|d| / 2 over 2^bits, within 10 ulp."""
        return pi_fixed(bits) * math.isqrt(-self.field.d << 2 * bits) >> (bits + 1)

    def _init_table(self):
        """The table of (k, C_n, s_n), k = 2n+1, with c_n = C_n / 2^s_n.

        c_n = (-1)^(n + t n(n+1)/2) exp(-nu n(n+1)), nu = pi Im(tau), is
        stored to W significant bits (s_n = W + e_n, e_n ~ log2 1/|c_n|),
        so the growth exp(nu k/2) of the k-th power of a reduced argument
        never meets an absolute rounding of c_n.  N and W follow the
        guard-bit rule of the module docstring.
        """
        target, t = self.prec + GUARD_BITS, self._t
        nu_bits = self._nu(64) / (1 << 64) / math.log(2)

        def term_bits(n):  # -log2 of the bound on term n
            return nu_bits * (n * n - 0.5) - 3 * math.log2(2 * n + 1)

        top = 0
        while term_bits(top + 1) < target + 1:  # the tail is < 2x its head
            top += 1
        g = math.ceil(nu_bits / 2 + math.log2((top + 1) * (2 * top + 1) ** 3)) + 4
        self._wbits = target + g
        self._nu_bits = math.ceil(nu_bits)
        # |c_n| = exp(-x), x = nu n(n+1), is 2^-(j+1) exp(ln 2 - r) with
        # x = j ln 2 + r, 0 <= r < ln 2, from nu and ln 2 at 32 bits more
        w = self._wbits + 32
        nu, ln2 = self._nu(w), ln2_fixed(w)
        table = []
        for n in range(top + 1):
            e = math.floor(nu_bits * n * (n + 1))
            j, r = divmod(nu * n * (n + 1), ln2)
            mag = exp_fixed(ln2 - r, w) >> (w + j + 1 - self._wbits - e)
            sign = -1 if (n + t * n * (n + 1) // 2) % 2 else 1
            table.append((2 * n + 1, sign * mag, self._wbits + e))
        self._table = tuple(table)
        self._top = max(shift for _k, _c, shift in table)

    def _table_moment(self, j: int) -> int:
        """sum over the table of (2n+1)^j c_n, exactly, over 2^_top."""
        return sum(k ** j * c << (self._top - shift) for k, c, shift in self._table)

    def _fixed(self, bits: int):
        """(pi, ln 2, nu, eta1, eta1 Im(tau), 1/(pi d1), e^nu, e^-nu) as
        integers over 2^bits, nu = pi Im(tau); computed at 32 bits more,
        once per lattice and bit count."""
        def compute():
            w = bits + 32
            pi, ln2, nu = pi_fixed(w), ln2_fixed(w), self._nu(w)
            im_tau = math.isqrt(-self.field.d << 2 * w) // 2
            d1, d3 = self._table_moment(1), self._table_moment(3)  # over 2^_top
            eta1 = (pi * pi >> w) * d3 // (3 * d1)
            k, r = divmod(nu, ln2)  # e^nu = 2^k exp(r), e^-nu = 2^-(k+1) exp(ln 2 - r)
            return tuple(v >> 32 for v in (
                pi, ln2, nu, eta1, eta1 * im_tau >> w, (1 << 2 * w + self._top) // (pi * d1),
                exp_fixed(r, w) << k, exp_fixed(ln2 - r, w) >> (k + 1)))
        return self.memo(("fixed", bits), compute)

    # --- exact reduction ---------------------------------------------------------

    def reduce(self, X: int, Y: int, D: int):
        """(X0, Y0, L, m, n) with (X + Y*omega)/D = (X0 + Y0*omega)/L + m + n*omega,
        L least: n = round(Y/D) and m = round((2X + t(Y - nD))/(2D)), t the
        trace of omega, ties to even.  Exact."""
        n = _round(Y, D)
        m = _round(2 * X + self._t * (Y - n * D), 2 * D)
        X0, Y0 = X - m * D, Y - n * D
        g = math.gcd(X0, Y0, D)
        return X0 // g, Y0 // g, D // g, m, n

    def _pole_free_series(self, X, Y, D, name: str, derivs: int):
        """(_series at z0 as Dyadics, reduce's tuple) for a function with a
        pole at every lattice point."""
        reduced = self.reduce(X, Y, D)
        if not (reduced[0] or reduced[1]):
            raise PoleError(f"{name} has a pole at the lattice point "
                            f"{self.field.element(*reduced[3:])}")
        sums, e = self._series((X, Y, D), (0, 0, 1), reduced, derivs)
        prec = self.prec + GUARD_BITS
        return [Dyadic(re, im, e, prec, True) for re, im in sums], reduced

    def _extra_bits(self, X: int, Y: int, L: int) -> int:
        """At least -log2|z0| for z0 = (X + Y*omega)/L, from the exact norm
        (X^2 + tXY + nY^2)/L^2; 0 once |z0| >= 1."""
        nrm = X * X + self._t * X * Y + self._n * Y * Y
        return max(0, (2 * L.bit_length() - nrm.bit_length() + 1) // 2)

    # --- the exponential of the quasi-period map --------------------------------

    def exp_eta(self, zx: int, zy: int, xx: int, xy: int, hn: int, den: int):
        """(re, im, e) with (re + i im) 2^e = exp(eta1 zeta - 2 pi i xi + pi i h),
        zeta = (zx + zy*omega)/den, xi = (xx + xy*omega)/den and h = hn/den.
        Its real part is eta1 Re(zeta) + 2 nu xi_y, its angle
        eta1 Im(tau) zeta_y plus pi (h - 2 Re(xi)), that part split exactly
        by _quarter_turns."""
        bits = self._wbits
        pi, ln2, nu, eta1, eta1_im = self._fixed(bits)[:5]
        t = self._t
        re = (eta1 * (2 * zx + t * zy) + 4 * nu * xy) // (2 * den)
        q, rest = _quarter_turns(hn - 2 * xx - t * xy, den)
        angle = (2 * eta1_im * zy + pi * rest) // (2 * den)
        k, r = divmod(re, ln2)  # exp(re) = 2^k exp(r), 0 <= r < ln 2
        mag = exp_fixed(r, bits)
        c, s = _cos_sin(angle, q, bits)
        return mag * c, mag * s, k - 2 * bits

    # --- transcendental functions ----------------------------------------------

    def _phase(self, X: int, Y: int, D: int, pb: int):
        """(cos, sin)(pi Re p) and exp(+-pi Im p) at the point
        p = (X + Y*omega)/D, canonical and in lowest terms in use, as four
        integers over 2^pb, through the memo; the angle pi (2X + tY)/(2D)
        is split by _quarter_turns, and p = 0 gives exactly (1, 0, 1, 1)."""
        def compute():
            pi, ln2, nu = self._fixed(pb)[:3]
            q, rest = _quarter_turns(2 * X + self._t * Y, 2 * D)
            c, s = _cos_sin(pi * rest // (4 * D), q, pb)
            e, b = divmod(nu * Y // D, ln2)  # exp(pi Im p) = 2^e exp(b)
            rp = exp_fixed(b, pb) if Y else 1 << pb
            rp = rp << e if e >= 0 else rp >> -e
            return c, s, rp, (1 << 2 * pb) // rp
        return self.memo(("phase", X, Y, D, pb), compute)

    def _head(self, z: tuple, u: tuple, reduced: tuple):
        """(bits, uc, us, rp, rm): the series' bit count at reduce's offset
        z0 of z - u, for the points z and u as (X, Y, D), and
        (cos, sin)(pi Re z0) and exp(+-pi Im z0) over 2^bits.

        With z_c and u_c the canonical points of z and u,
        z0 = z_c - u_c - mu', mu' = m' + n'*omega exact and n' in {-1, 0, 1},
        so exp(i pi z0) is the phase of z_c times the conjugate phase of
        u_c times (-1)^m' i^(-t n') e^(nu n'), the last from _fixed.  The
        phases are taken at pb >= bits + ceil(nu/ln 2) + 16 bits, rounded
        up to a multiple of 64, as a factor exp(-pi Im) or e^-nu turns
        their last bit into up to e^nu of relative error.
        """
        X0, Y0, L, m, n = reduced
        bits = self._wbits + self._extra_bits(X0, Y0, L)
        pb = -(-(bits + self._nu_bits + 16) // 64) * 64
        (Xz, Yz, Dz, az, bz), (Xu, Yu, Du, au, bu) = _canonical(*z), _canonical(*u)
        m, n = m - az + au, n - bz + bu
        cz, sz, pz, mz = self._phase(Xz, Yz, Dz, pb)
        cu, su, pu, mu = self._phase(Xu, Yu, Du, pb)
        drop = 2 * pb - bits
        uc, us = _turn((cz * cu + sz * su) >> drop, (sz * cu - cz * su) >> drop,
                       -2 * m - self._t * n)
        if not Y0:  # a real offset has r = 1 exactly
            return bits, uc, us, 1 << bits, 1 << bits
        rp, rm = pz * mu, mz * pu  # over 2^(2 pb)
        e_nu, e_minus_nu = self._fixed(pb)[6:]
        up, down = (e_nu, e_minus_nu) if n < 0 else (e_minus_nu, e_nu)
        for _ in range(abs(n)):  # times e^(-nu n') and e^(nu n')
            rp, rm = (rp * up) >> pb, (rm * down) >> pb
        return bits, uc, us, rp >> drop, rm >> drop

    def _series(self, z: tuple, u: tuple, reduced: tuple, derivs: int):
        """(sums, e): theta_1^(j)(pi z0) / (2 q^(1/4)) = (re_j + i im_j) 2^e
        at reduce's offset z0 of z - u (see _head), for j = 0..derivs, as
        integer pairs.

        The sum over the table of c_n k^j (d/dv)^j sin(k v) at
        v = pi z0 = a + i b, k = 2n+1.  The head gives
        2 sin v = sin a (2 cosh b) + i cos a (2 sinh b) and
        2 cos v = cos a (2 cosh b) - i sin a (2 sinh b), and the odd
        multiples T_k, 2 sin(k v) or 2 cos(k v), follow from
        T_(k+2) = C T_k - T_(k-2), C = 2 cos 2v = (2 cos v)^2 - 2, started at
        T_(-1) = -T_1 for the sine and +T_1 for the cosine: one complex
        product a term, and the cosine only once a derivative needs it.
        """
        bits, uc, us, rp, rm = self._head(z, u, reduced)
        ch, sh = rp + rm, rp - rm  # 2 cosh b, 2 sinh b
        sr, si = us * ch >> bits, uc * sh >> bits  # 2 sin v
        cr, ci = uc * ch >> bits, -(us * sh >> bits)  # 2 cos v
        Cr, Ci = (cr * cr - ci * ci >> bits) - (2 << bits), cr * ci >> bits - 1
        sr0, si0, cr0, ci0 = -sr, -si, cr, ci  # T_(-1)
        sums = [[0, 0] for _ in range(derivs + 1)]
        for n, (k, c, shift) in enumerate(self._table):
            if n:  # T_k from T_(k-2) and T_(k-4), over 2^bits
                sr, si, sr0, si0 = ((Cr * sr - Ci * si >> bits) - sr0,
                                    (Cr * si + Ci * sr >> bits) - si0, sr, si)
                if derivs:
                    cr, ci, cr0, ci0 = ((Cr * cr - Ci * ci >> bits) - cr0,
                                        (Cr * ci + Ci * cr >> bits) - ci0, cr, ci)
            # 2 c_n sin(k v) goes to the sums of the even derivatives and
            # 2 c_n cos(k v) to the odd ones, derivative j with the weight
            # (-1)^(j//2) k^j
            sine = c * sr >> shift, c * si >> shift
            sums[0][0] += sine[0]
            sums[0][1] += sine[1]
            if derivs:
                trig = sine, (c * cr >> shift, c * ci >> shift)
                w = 1
                for j in range(1, derivs + 1):
                    w *= k
                    re, im = trig[j % 2]
                    sign = -w if j & 2 else w
                    sums[j][0] += sign * re
                    sums[j][1] += sign * im
        return sums, -bits - 1

    def sigma(self, X, Y, D, R=0, S=0, E=1):
        """Weierstrass sigma at w = z - u, z = (X + Y*omega)/D and
        u = (R + S*omega)/E, in product form (exponent, series): the
        exact exponent of eps(mu) exp(eta1 w^2/2 - 2 pi i n (w - mu/2)),
        mu = m + n*omega the lattice point reduce takes from w, as
        exp_eta's integers (zx, zy, xx, xy, h, den), and the reduced series
        times 1/(pi d1) as (re, im, e), rounded to prec + GUARD_BITS bits.
        At a lattice point the series is None: the exponential alone is sigma's
        leading coefficient there.  `fold` turns products into numbers."""
        F = math.lcm(D, E)
        reduced = self.reduce(X * (F // D) - R * (F // E), Y * (F // D) - S * (F // E), F)
        X0, Y0, L, m, n = reduced
        Xw, Yw, den = X0 + m * L, Y0 + n * L, 2 * L * L
        # zeta = w^2/2 and xi = n (w - mu/2), both over 2 L^2; omega^2 = t omega - n
        exponent = (Xw * Xw - self._n * Yw * Yw, (2 * Xw + self._t * Yw) * Yw,
                    n * L * (2 * Xw - m * L), n * L * (2 * Yw - n * L),
                    (m + n + m * n) % 2 * den, den)
        if not (X0 or Y0):
            return exponent, None
        ((c, s),), e = self._series((X, Y, D), (R, S, E), reduced, 0)
        inv = self._fixed(self._wbits)[5]
        return exponent, _trim(c * inv, s * inv, e - self._wbits, self.prec + GUARD_BITS)

    def fold(self, terms):
        """prod p^k over the pairs (p, k) of terms, p a product (exponent,
        series) as sigma returns it, as one Dyadic.  The exponents times k are
        summed exactly over one denominator and taken by one exp_eta; the
        series are grouped by |k|, and each group's quotient, k > 0 over
        k < 0, is raised to |k| once, in complex fixed point cut to
        prec + GUARD_BITS + 2 bitlen|k| bits, as each squaring doubles the
        relative error before it.  It is rounded once, to a complex Dyadic
        at prec + GUARD_BITS bits."""
        acc, den, groups = [0] * 5, 1, {}
        for (exponent, series), k in terms:
            if not k:
                continue
            *num, d = exponent
            common = math.lcm(den, d)
            a, b = common // den, k * (common // d)
            acc = [x * a + y * b for x, y in zip(acc, num)]
            den = common
            if series is not None:
                groups.setdefault(abs(k), ([], []))[k < 0].append(series)
        acc[4] %= 2 * den
        out = self.exp_eta(*acc, den) if any(acc) else (1, 0, 0)
        for k, (up, down) in groups.items():
            bits = self.prec + GUARD_BITS + 2 * k.bit_length()
            g = _product(up, bits)
            if down:
                g = _ratio(g, _product(down, bits), bits)
            out = _mul(out, _power(g, k, bits), bits)
        return Dyadic(*out, self.prec + GUARD_BITS, True)

    def zeta(self, X, Y, D):
        """Weierstrass zeta: eta1 z - 2 pi i n plus the series quotient."""
        (t0, t1), (X, Y, L, m, n) = self._pole_free_series(X, Y, D, "zeta", 1)
        bits = self._wbits
        pi, _ln2, _nu, eta1, eta1_im = self._fixed(bits)[:5]
        Xz, Yz = X + m * L, Y + n * L
        linear = Dyadic(eta1 * (2 * Xz + self._t * Yz) // (2 * L),
                        eta1_im * Yz // L - 2 * pi * n, -bits, self.prec + GUARD_BITS, True)
        return linear + self._pi * t1 / t0

    def wp(self, X, Y, D):
        (t0, t1, t2), _ = self._pole_free_series(X, Y, D, "wp", 2)
        return -self.eta1 - self._pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0)

    def wp_prime(self, X, Y, D):
        (t0, t1, t2, t3), _ = self._pole_free_series(X, Y, D, "wp'", 3)
        num = t3 * t0 * t0 - 3 * t2 * t1 * t0 + 2 * t1 ** 3
        return -self._pi ** 3 * num / t0 ** 3
