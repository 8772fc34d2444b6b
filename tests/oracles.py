"""Lattice arithmetic in mpmath, kept as test oracles for the fixed-point
kernel: the embedding of exact coordinates, the R-linear quasi-period map
and sigma's translation factor, each evaluated the direct way."""

from fractions import Fraction

import mpmath as mp


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


def translation_sign(m: int, n: int) -> int:
    """eps(m + n*omega) = (-1)^(m + n + m*n); sigma's sign under translation."""
    return -1 if (m + n + m * n) % 2 else 1


def translation_factor(lat, m: int, n: int, z):
    """Full factor: sigma(z + mu) = factor * sigma(z), mu = m + n*omega."""
    with lat.context():
        mu = m + n * lat.tau
        return translation_sign(m, n) * mp.exp(eta_linear(lat, m, n) * (z + mu / 2))
