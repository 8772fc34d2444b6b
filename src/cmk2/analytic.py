"""Arbitrary-precision analytic layer for the lattice model C/O_K.

All transcendental evaluation funnels through theta functions at the
period ratio tau = omega_hat, the complex embedding of the integral
basis generator.  The lattice is always normalized to Z + Z*tau, which
is exactly the ring of integers for the nine class-number-one fields.

Quantities provided: Weierstrass sigma, p, p', zeta, the quasi-periods
eta(1) and eta(omega), the invariants g2 and g3, and the sign character
eps(mu) + exponential factor governing sigma under lattice translation.

Precision contract: an instance is pinned to a binary precision; every
method computes under a guarded working precision and returns values at
that precision.  Nothing here mutates global mpmath state outside a
workprec block.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .qfield import QuadElement, QuadField

GUARD_BITS = 48
MIN_PREC = 64

# the default numeric tolerance, held well past the 53-bit default context
with mp.workprec(256):
    DEFAULT_TOL = mp.mpf(10) ** -25


def _divisor_power_sum(n: int, k: int) -> int:
    s = 0
    for d in range(1, n + 1):
        if n % d == 0:
            s += d ** k
    return s


class AnalyticLattice:
    """C/O_K at a fixed binary precision."""

    def __init__(self, field: QuadField, prec: int = 256):
        if prec < MIN_PREC:
            raise ValueError(f"precision below {MIN_PREC} bits is not supported")
        self.field = field
        self.prec = prec
        self._cache: dict = {}
        self._init_constants()

    def context(self):
        """Working-precision context; combining returned values must happen
        inside one of these or the global (53-bit) precision rounds them."""
        return mp.workprec(self.prec + GUARD_BITS)

    # --- constants ---------------------------------------------------------

    def _init_constants(self):
        with mp.workprec(self.prec + GUARD_BITS):
            t = self.field.trace_omega
            tau = (t + mp.mpc(0, 1) * mp.sqrt(-self.field.d)) / 2
            q = mp.exp(mp.mpc(0, 1) * mp.pi * tau)
            th1p = mp.jtheta(1, 0, q, 1)
            th1ppp = mp.jtheta(1, 0, q, 3)
            eta1 = -(mp.pi ** 2 / 3) * th1ppp / th1p
            eta_om = eta1 * tau - 2 * mp.pi * mp.mpc(0, 1)
            self._cache.update(tau=tau, q=q, th1p=th1p, eta1=eta1, eta_om=eta_om)
            self._cache["g2"], self._cache["g3"] = self._eisenstein_invariants(q)

    def _eisenstein_invariants(self, q):
        # g2 = (4 pi^4 / 3) E4, g3 = (8 pi^6 / 27) E6 in the nome q2 = q^2
        q2 = q * q
        eps = mp.mpf(2) ** (-(self.prec + GUARD_BITS))
        e4 = mp.mpf(1)
        e6 = mp.mpf(1)
        qn = mp.mpc(1)
        n = 0
        while True:
            n += 1
            qn = qn * q2
            if n > 4 and abs(qn) * n ** 6 < eps:
                break
            if n > 10000:
                raise RuntimeError("Eisenstein series failed to converge")
            e4 = e4 + 240 * _divisor_power_sum(n, 3) * qn
            e6 = e6 - 504 * _divisor_power_sum(n, 5) * qn
        g2 = (4 * mp.pi ** 4 / 3) * e4
        g3 = (8 * mp.pi ** 6 / 27) * e6
        return g2, g3

    @property
    def tau(self):
        return self._cache["tau"]

    @property
    def eta1(self):
        return self._cache["eta1"]

    @property
    def eta_omega(self):
        return self._cache["eta_om"]

    @property
    def g2(self):
        return self._cache["g2"]

    @property
    def g3(self):
        return self._cache["g3"]

    # --- embeddings ----------------------------------------------------------

    def embed(self, elem: QuadElement):
        """Complex embedding x + y*tau (exact coordinates honored)."""
        return self.embed_coords(elem.x, elem.y)

    def embed_coords(self, r, s):
        """r + s*tau for rational (or float) plane coordinates."""
        with mp.workprec(self.prec + GUARD_BITS):
            return self._frac(r) + self._frac(s) * self.tau

    @staticmethod
    def _frac(v):
        if isinstance(v, Fraction):
            return mp.mpf(v.numerator) / v.denominator
        return mp.mpf(v)

    # --- quasi-period machinery ----------------------------------------------

    def eta_linear(self, r, s):
        """The R/Q-linear extension r*eta(1) + s*eta(omega) of the quasi-period map."""
        with mp.workprec(self.prec + GUARD_BITS):
            return self._frac(r) * self.eta1 + self._frac(s) * self.eta_omega

    @staticmethod
    def translation_sign(m: int, n: int) -> int:
        """eps(m + n*omega) = (-1)^(m + n + m*n); sigma's sign under translation."""
        return -1 if (m + n + m * n) % 2 else 1

    def translation_factor(self, m: int, n: int, z):
        """Full factor: sigma(z + mu) = factor * sigma(z), mu = m + n*omega."""
        with mp.workprec(self.prec + GUARD_BITS):
            mu = m + n * self.tau
            eta_mu = self.eta_linear(m, n)
            return self.translation_sign(m, n) * mp.exp(eta_mu * (z + mu / 2))

    # --- transcendental functions ----------------------------------------------

    def sigma(self, z):
        with mp.workprec(self.prec + GUARD_BITS):
            z = mp.mpmathify(z)
            th = mp.jtheta(1, mp.pi * z, self._cache["q"])
            return mp.exp(self.eta1 * z * z / 2) * th / (mp.pi * self._cache["th1p"])

    def _thetas(self, z, n: int):
        """z and the derivatives theta_1^(k)(pi z), k = 0..n, at the nome."""
        z = mp.mpmathify(z)
        u, q = mp.pi * z, self._cache["q"]
        return z, [mp.jtheta(1, u, q, k) for k in range(n + 1)]

    def zeta(self, z):
        with mp.workprec(self.prec + GUARD_BITS):
            z, (t0, t1) = self._thetas(z, 1)
            return self.eta1 * z + mp.pi * t1 / t0

    def wp(self, z):
        with mp.workprec(self.prec + GUARD_BITS):
            _, (t0, t1, t2) = self._thetas(z, 2)
            return -self.eta1 - mp.pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0)

    def wp_prime(self, z):
        with mp.workprec(self.prec + GUARD_BITS):
            _, (t0, t1, t2, t3) = self._thetas(z, 3)
            num = t3 * t0 * t0 - 3 * t2 * t1 * t0 + 2 * t1 ** 3
            return -mp.pi ** 3 * num / t0 ** 3

    # --- lattice hygiene --------------------------------------------------------

    def nearest_lattice_point(self, z) -> tuple[int, int]:
        """(m, n) with m + n*omega nearest-ish to z (coordinate rounding)."""
        with mp.workprec(self.prec + GUARD_BITS):
            z = mp.mpmathify(z)
            n = mp.im(z) / mp.im(self.tau)
            ni = int(mp.nint(n))
            m = mp.re(z) - ni * mp.re(self.tau)
            mi = int(mp.nint(m))
            return mi, ni

    def distance_to_lattice(self, z):
        with mp.workprec(self.prec + GUARD_BITS):
            z = mp.mpmathify(z)
            m, n = self.nearest_lattice_point(z)
            return abs(z - (m + n * self.tau))

    def reduce_to_fundamental(self, z):
        """Translate z by a lattice point into [0,1) x [0,1) coordinates."""
        with mp.workprec(self.prec + GUARD_BITS):
            z = mp.mpmathify(z)
            s = mp.im(z) / mp.im(self.tau)
            n = int(mp.floor(s))
            r = mp.re(z) - s * mp.re(self.tau)
            m = int(mp.floor(r))
            return z - (m + n * self.tau)
