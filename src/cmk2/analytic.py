"""Arbitrary-precision analytic layer for the lattice model C/O_K.

The lattice is always normalized to Z + Z*tau, tau = omega_hat the
complex embedding of the integral basis generator, which is exactly the
ring of integers for the nine class-number-one fields.  Quantities
provided: Weierstrass sigma, p, p', zeta, the quasi-periods eta(1) and
eta(omega), the invariants g2 and g3, and the sign character eps(mu) +
exponential factor governing sigma under lattice translation.

One theta kernel serves sigma, zeta, p, p', eta(1), g2 and g3.  Each
lattice computes, once, a table of c_n = (-1)^n q^(n(n+1)), n = 0..N, at
the fixed nome q = exp(i pi tau); c_n is real for every normalized
lattice.

- Reduction: every function takes the exact int/Fraction coordinates
  (x, y) of z = x + y*omega and picks the lattice point mu = m + n*omega
  by integer rounding, n = round(y) and m = round(x + (y - n) t/2)
  with t the trace of omega, so the offset z0 = z - mu has
  |Re z0| <= 1/2 and |Im z0| <= Im(tau)/2 exactly.  Only z0 is
  embedded.  sigma folds eps(mu) exp(eta(mu)(z0 + mu/2)) and
  exp(eta1 z0^2 / 2) into one exp; zeta adds eta(mu); p and p' are
  periodic.
- Series: theta_1^(j)(pi z0) / (2 q^(1/4)) is the sum of
  c_n k^j (d/dv)^j sin(k v) at v = pi z0, k = 2n+1, summed in integer
  fixed point from the powers of exp(i pi Re z0) and exp(pi Im z0).
  The q^(1/4) cancels in every quotient (sigma divides by
  theta_1'(0) / (2 q^(1/4)) = sum k c_n), so no branch of it is chosen,
  and eta1 = (pi^2/3) sum k^3 c_n / sum k c_n.  A real z0 gives an
  exactly real sine series.
- Invariants: with the moments d_j = sum k^j c_n, the sine series is
  z - a z^3 + b z^5 - c z^7 + ..., a = eta1/2, b = pi^4 d5 / (120 d1),
  c = pi^6 d7 / (5040 d1).  Times exp(a z^2) it is sigma's Laurent
  series z - g2 z^5/240 - g3 z^7/840 + ..., so g2 = 120 a^2 - 240 b and
  g3 = 840 (c - a b) + 280 a^3, both exactly real.
- Guard bits: N is fixed per lattice by the worst case
  |Im z0| = Im(tau)/2, where term n is at most
  (2n+1)^3 exp(-nu (n^2 - 1/2)), nu = pi Im(tau); the series stops once
  the next term falls below 2^-(prec + GUARD_BITS).  The fixed point
  runs at prec + GUARD_BITS + g bits, g covering the largest term
  exp(nu/2) and the rounding of N+1 weighted terms.  Each c_n keeps
  that many significant bits whatever its size, and an argument within
  2^-b of 0 gets b more bits, so sigma keeps its relative precision
  near its zero.

Exact points: each lattice remembers the last SIGMA_MEMO_SIZE values of
`sigma(x, y)`, since elliptic-function products meet the same exact
offsets again within a few hundred calls.  At a lattice point (z0 = 0)
the series factor is 1, so sigma returns its leading coefficient
eps(mu) exp(eta(mu) mu/2) there instead of the zero; zeta, p and p'
raise PoleError there.

Precision contract: an instance is pinned to a binary precision; every
method computes under a guarded working precision and returns values at
that precision.  Nothing here mutates global mpmath state outside a
workprec block.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import to_fixed

from .qfield import QuadField

GUARD_BITS = 48
MIN_PREC = 64
SIGMA_MEMO_SIZE = 128

# the default numeric tolerance, held well past the 53-bit default context
with mp.workprec(256):
    DEFAULT_TOL = mp.mpf(10) ** -25


class PoleError(ArithmeticError):
    """Evaluation requested at a zero/pole."""


class AnalyticLattice:
    """C/O_K at a fixed binary precision."""

    def __init__(self, field: QuadField, prec: int = 256):
        if prec < MIN_PREC:
            raise ValueError(f"precision below {MIN_PREC} bits is not supported")
        self.field = field
        self.prec = prec
        self._half_trace = Fraction(field.trace_omega, 2)
        self._init_constants()
        # the per-lattice memo sits in front of the class's sigma, which
        # then runs only on a miss
        self.sigma = functools.lru_cache(SIGMA_MEMO_SIZE)(self.sigma)

    def context(self):
        """Working-precision context; combining returned values must happen
        inside one of these or the global (53-bit) precision rounds them."""
        return mp.workprec(self.prec + GUARD_BITS)

    # --- constants ---------------------------------------------------------

    def _init_constants(self):
        with mp.workprec(self.prec + GUARD_BITS):
            t = self.field.trace_omega
            self.tau = (t + mp.mpc(0, 1) * mp.sqrt(-self.field.d)) / 2
            self._init_table(t, self.tau.imag)
            d1, d3, d5, d7 = (self._table_moment(j) for j in (1, 3, 5, 7))
            self._pi_d1 = mp.pi * d1
            self.eta1 = (mp.pi ** 2 / 3) * d3 / d1
            self.eta_omega = self.eta1 * self.tau - 2 * mp.pi * mp.mpc(0, 1)
            a = self.eta1 / 2
            b = mp.pi ** 4 * d5 / (120 * d1)
            c = mp.pi ** 6 * d7 / (5040 * d1)
            self.g2 = 120 * a * a - 240 * b
            self.g3 = 840 * (c - a * b) + 280 * a ** 3

    def _init_table(self, t: int, im_tau):
        """The table of (k, C_n, s_n), k = 2n+1, with c_n = C_n / 2^s_n.

        c_n = (-1)^(n + t n(n+1)/2) exp(-nu n(n+1)), nu = pi Im(tau), is
        stored to W significant bits (s_n = W + e_n, e_n ~ log2 1/|c_n|),
        so the growth exp(nu k/2) of the k-th power of a reduced argument
        never meets an absolute rounding of c_n.  N and W follow the
        guard-bit rule of the module docstring.
        """
        target = self.prec + GUARD_BITS
        nu_bits = float(mp.pi * im_tau) / math.log(2)

        def term_bits(n):  # -log2 of the bound on term n
            return nu_bits * (n * n - 0.5) - 3 * math.log2(2 * n + 1)

        top = 0
        while term_bits(top + 1) < target + 1:  # the tail is < 2x its head
            top += 1
        g = math.ceil(nu_bits / 2 + math.log2((top + 1) * (2 * top + 1) ** 3)) + 4
        self._wbits = target + g
        table = []
        with mp.workprec(self._wbits + 16):
            nu = mp.pi * im_tau
            for n in range(top + 1):
                e = math.floor(nu_bits * n * (n + 1))
                mag = to_fixed(mp.exp(-nu * n * (n + 1))._mpf_, self._wbits + e)
                sign = -1 if (n + t * n * (n + 1) // 2) % 2 else 1
                table.append((2 * n + 1, sign * mag, self._wbits + e))
        self._table = tuple(table)

    def _table_moment(self, j: int):
        """sum over the table of (2n+1)^j c_n, exactly, as an mpf."""
        top = max(shift for _k, _c, shift in self._table)
        acc = sum(k ** j * c << (top - shift) for k, c, shift in self._table)
        return mp.mpf((acc, -top))

    # --- exact reduction and embedding -----------------------------------------

    def reduce(self, x, y):
        """(x0, y0, m, n) with x + y*omega = (x0 + y0*omega) + (m + n*omega)
        for int/Fraction x, y: n = round(y), m = round(x + (y - n) t/2),
        t the trace of omega.  Exact; a tie rounds to the even integer."""
        n = round(y)
        m = round(x + (y - n) * self._half_trace)
        return x - m, y - n, m, n

    def embed_coords(self, r, s):
        """r + s*tau for int/Fraction plane coordinates."""
        with mp.workprec(self.prec + GUARD_BITS):
            return self._frac(r) + self._frac(s) * self.tau

    @staticmethod
    def _frac(v):
        """An int or Fraction at the working precision."""
        if isinstance(v, int):
            return mp.mpf(v)
        if isinstance(v, Fraction):
            return mp.mpf(v.numerator) / v.denominator
        raise TypeError(f"coordinates are int or Fraction, not {type(v).__name__}")

    # --- quasi-period machinery ----------------------------------------------

    def eta_linear(self, r, s):
        """The R/Q-linear extension r*eta(1) + s*eta(omega) of the quasi-period map."""
        with mp.workprec(self.prec + GUARD_BITS):
            return self._frac(r) * self.eta1 + self._frac(s) * self.eta_omega

    @staticmethod
    def translation_sign(m: int, n: int) -> int:
        """eps(m + n*omega) = (-1)^(m + n + m*n); sigma's sign under translation."""
        return -1 if (m + n + m * n) % 2 else 1

    # --- transcendental functions ----------------------------------------------

    def _offset(self, x, y):
        """(z0, m, n): the embedded reduced offset of x + y*omega and its
        lattice point m + n*omega."""
        x0, y0, m, n = self.reduce(x, y)
        return self.embed_coords(x0, y0), m, n

    def _series(self, z0, derivs: int) -> list:
        """theta_1^(j)(pi z0) for j = 0..derivs, each divided by 2 q^(1/4).

        With x = exp(i pi z0) = u/r, u = exp(i pi Re z0), r = exp(pi Im z0),
        the j-th derivative is sum c_n k^j (d/dv)^j sin(k v) at
        v = pi z0 = a + i b, k = 2n+1, summed in integer fixed point from the powers u^k and
        r^(+-k); sin(k v) = sin(k a) cosh(k b) + i cos(k a) sinh(k b).  A
        real z0 has r = 1 exactly, so its sine sums are exactly real.
        Near the zero at z0 = 0 the powers carry -log2|z0| more bits, so
        the result keeps its relative precision.
        """
        bits = self._wbits + (max(0, -mp.mag(z0)) if z0 else 0)
        with mp.workprec(bits + 16):
            cos_a, sin_a = mp.cos_sin(mp.pi * z0.real)
            r = mp.exp(mp.pi * z0.imag)
        uc, us = to_fixed(cos_a._mpf_, bits), to_fixed(sin_a._mpf_, bits)
        rp = to_fixed(r._mpf_, bits)
        rm = (1 << 2 * bits) // rp
        uc2, us2 = (uc * uc - us * us) >> bits, (2 * uc * us) >> bits
        rp2, rm2 = (rp * rp) >> bits, (rm * rm) >> bits
        sums = [[0, 0] for _ in range(derivs + 1)]
        for k, c, shift in self._table:
            shift += bits
            ch, sh = rp + rm, rp - rm  # 2 cosh(k b), 2 sinh(k b)
            # 2 c_n sin(k v), and 2 c_n cos(k v) once a derivative needs it;
            # derivative j takes (-1)^(j//2) k^j times the sine (even j) or
            # the cosine (odd j)
            trig = [(c * (us * ch) >> shift, c * (uc * sh) >> shift)]
            if derivs:
                trig.append((c * (uc * ch) >> shift, -(c * (us * sh) >> shift)))
            w = 1
            for j in range(derivs + 1):
                re, im = trig[j % 2]
                sign = -w if j & 2 else w
                sums[j][0] += sign * re
                sums[j][1] += sign * im
                w *= k
            uc, us = (uc * uc2 - us * us2) >> bits, (uc * us2 + us * uc2) >> bits
            rp, rm = (rp * rp2) >> bits, (rm * rm2) >> bits
        return [mp.mpc(mp.mpf((re, -bits - 1)), mp.mpf((im, -bits - 1)))
                for re, im in sums]

    def sigma(self, x, y):
        """Weierstrass sigma at x + y*omega: the reduced series times one
        exponential eps(mu) exp(eta(mu) (z0 + mu/2) + eta1 z0^2 / 2),
        mu = m + n*tau.  At a lattice point the series factor is 1: the
        value is sigma's leading coefficient eps(mu) exp(eta(mu) mu / 2)."""
        with mp.workprec(self.prec + GUARD_BITS):
            z0, m, n = self._offset(x, y)
            mu = m + n * self.tau
            expo = self.eta_linear(m, n) * (z0 + mu / 2) + self.eta1 * z0 * z0 / 2
            out = self.translation_sign(m, n) * mp.exp(expo)
            if not z0:  # exactly zero only at a lattice point
                return out
            (t0,) = self._series(z0, 0)
            return out * t0 / self._pi_d1

    def _pole_free_offset(self, x, y, name: str):
        """_offset for a function with a pole at every lattice point."""
        z0, m, n = self._offset(x, y)
        if not z0:
            raise PoleError(f"{name} has a pole at the lattice point "
                            f"{self.field.element(x, y)}")
        return z0, m, n

    def zeta(self, x, y):
        with mp.workprec(self.prec + GUARD_BITS):
            z0, m, n = self._pole_free_offset(x, y, "zeta")
            t0, t1 = self._series(z0, 1)
            return self.eta1 * z0 + mp.pi * t1 / t0 + self.eta_linear(m, n)

    def wp(self, x, y):
        with mp.workprec(self.prec + GUARD_BITS):
            t0, t1, t2 = self._series(self._pole_free_offset(x, y, "wp")[0], 2)
            return -self.eta1 - mp.pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0)

    def wp_prime(self, x, y):
        with mp.workprec(self.prec + GUARD_BITS):
            t0, t1, t2, t3 = self._series(self._pole_free_offset(x, y, "wp'")[0], 3)
            num = t3 * t0 * t0 - 3 * t2 * t1 * t0 + 2 * t1 ** 3
            return -mp.pi ** 3 * num / t0 ** 3
