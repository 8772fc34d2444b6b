import functools
import inspect
import math
import random
import textwrap
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cmk2 import analytic
from cmk2.analytic import AnalyticLattice
from cmk2.divisors import build_g_a, times
from cmk2.qfield import QuadField
from oracles import (coords, embed, eta_linear, frac, power_sums, reduce_reference,
                     reduced, sigma_value, theta1_derivatives, translation_factor,
                     translation_sign, workprec)

GAUSS = QuadField(-4)
EISEN = QuadField(-3)
DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


@pytest.fixture(scope="module")
def lat():
    return AnalyticLattice(GAUSS, 256)


def rand_z(lat, rng, margin=0.05):
    # exact coordinates of a point of the fundamental domain staying away
    # from the lattice
    while True:
        x, y = Fraction(rng.random()), Fraction(rng.random())
        X0, Y0, L = coords(*reduced(lat, x, y)[:2])
        if lat.field.element(X0, Y0).norm() > Fraction(margin) ** 2 * L * L:
            return x, y


# --- independent oracles -----------------------------------------------------


def _lattice_points(field, radius):
    # complex embeddings of lattice points within |z| <= radius, excluding 0
    t = field.trace_omega
    wim = (-field.d) ** 0.5 / 2
    wre = t / 2
    span = int(radius / min(wim, 1.0)) + 2
    m, n = np.mgrid[-span:span + 1, -span:span + 1]
    z = m + n * wre + 1j * (n * wim)
    mask = (np.abs(z) <= radius) & ~((m == 0) & (n == 0))
    return z[mask]


def _eisenstein_direct(field, weight, radius):
    z = _lattice_points(field, radius)
    return np.sum(z ** (-weight))


def test_g2_g3_against_direct_sums():
    # g2 = 60 G4, g3 = 140 G6; float64 lattice sums with O(R^-2) tails
    for field in (GAUSS, EISEN, QuadField(-7)):
        L = AnalyticLattice(field, 128)
        g2_direct = 60 * _eisenstein_direct(field, 4, 220.0)
        g3_direct = 140 * _eisenstein_direct(field, 6, 220.0)
        with workprec(L):
            assert abs(complex(L.g2) - g2_direct) < 0.05
            assert abs(complex(L.g3) - g3_direct) < 0.05


def test_sigma_against_direct_product(lat):
    # sigma(z) = z prod over the half lattice of (1 - z^2/l^2) exp(z^2/l^2)
    pts = _lattice_points(GAUSS, 150.0)
    half = pts[(pts.imag > 0) | ((pts.imag == 0) & (pts.real > 0))]
    rng = random.Random(3)
    for _ in range(3):
        zc = complex(rng.random() - 0.5, rng.random() - 0.5)
        if abs(zc) < 0.1:
            zc += 0.3
        w = zc * zc / (half * half)
        direct = zc * np.prod((1 - w) * np.exp(w))
        # omega = i, so the coordinates of zc are its real and imaginary parts
        got = complex(sigma_value(lat, *coords(Fraction(zc.real), Fraction(zc.imag))))
        assert abs(got - direct) < 1e-3 * abs(direct)


def test_eta1_square_lattice_is_pi(lat):
    with workprec(lat):
        assert abs(lat.eta1 - mp.pi) < mp.mpf(10) ** -70


def test_wp_laurent_normalization(lat):
    # z^2 * wp(z) -> 1 and z^3 * wp'(z) -> -2 pin the classical scaling
    with workprec(lat):
        x = Fraction(1, 10 ** 9)
        z = embed(lat, x, 0)
        assert abs(z * z * lat.wp(*coords(x, 0)) - 1) < 1e-15
        assert abs(z ** 3 * lat.wp_prime(*coords(x, 0)) + 2) < 1e-15
        # sigma(z)/z -> 1: lead coefficient 1 at the origin
        assert abs(sigma_value(lat, *coords(x, 0)) / z - 1) < 1e-15


def test_differential_equation_residual():
    rng = random.Random(17)
    for d in (-4, -3, -8, -19, -163):
        L = AnalyticLattice(QuadField(d), 256)
        with workprec(L):
            for _ in range(5):
                z = rand_z(L, rng)
                wp, wpp = L.wp(*coords(*z)), L.wp_prime(*coords(*z))
                res = abs(wpp ** 2 - (4 * wp ** 3 - L.g2 * wp - L.g3))
                assert res < mp.mpf(10) ** -70


def test_wp_even_wpprime_odd(lat):
    rng = random.Random(23)
    with workprec(lat):
        for _ in range(5):
            x, y = rand_z(lat, rng)
            assert abs(lat.wp(*coords(x, y)) - lat.wp(*coords(-x, -y))) < mp.mpf(10) ** -70
            assert abs(lat.wp_prime(*coords(x, y)) + lat.wp_prime(*coords(-x, -y))) < mp.mpf(10) ** -70


def test_special_invariant_vanishing():
    with workprec(AnalyticLattice(GAUSS, 256)):
        assert abs(AnalyticLattice(GAUSS, 256).g3) < mp.mpf(10) ** -70
        assert abs(AnalyticLattice(EISEN, 256).g2) < mp.mpf(10) ** -70


def test_cm_rotation():
    # multiplication by a unit u with uL = L: wp(u z) = u^-2 wp(z)
    rng = random.Random(5)
    for field in (GAUSS, EISEN):
        L = AnalyticLattice(field, 192)
        with workprec(L):
            u = L.tau  # omega itself is a unit here
            for _ in range(4):
                z = coords(*rand_z(L, rng))
                uz = times(field.omega(), z)
                assert abs(u * u * L.wp(*uz) - L.wp(*z)) < mp.mpf(10) ** -45


def test_half_period_theta_constant_crosscheck(lat):
    # e_i = wp at half periods: symmetric functions recover g2, g3
    half = Fraction(1, 2)
    with workprec(lat):
        e1 = lat.wp(*coords(half, 0))
        e2 = lat.wp(*coords(0, half))
        e3 = lat.wp(*coords(half, half))
        assert abs(e1 + e2 + e3) < mp.mpf(10) ** -70
        assert abs(-4 * (e1 * e2 + e1 * e3 + e2 * e3) - lat.g2) < mp.mpf(10) ** -70
        assert abs(4 * e1 * e2 * e3 - lat.g3) < mp.mpf(10) ** -70
        # wp' vanishes at 2-torsion
        assert abs(lat.wp_prime(*coords(half, 0))) < mp.mpf(10) ** -70


def test_quasi_period_jumps(lat):
    with workprec(lat):
        x, y = Fraction(3, 7), Fraction(2, 5)
        tol = mp.mpf(10) ** -70
        assert abs(lat.zeta(*coords(x + 1, y)) - lat.zeta(*coords(x, y)) - lat.eta1) < tol
        assert abs(lat.zeta(*coords(x, y + 1)) - lat.zeta(*coords(x, y)) - lat.eta_omega) < tol
        # Legendre relation is structural: eta1*tau - eta_omega = 2 pi i
        assert abs(lat.eta1 * lat.tau - lat.eta_omega - 2 * mp.pi * mp.mpc(0, 1)) == 0


def test_sigma_translation_factor_exhaustive(lat):
    with workprec(lat):
        x, y = Fraction(1, 3), Fraction(2, 7)
        z = embed(lat, x, y)
        sz = sigma_value(lat, *coords(x, y))
        for m in range(-2, 3):
            for n in range(-2, 3):
                lhs = sigma_value(lat, *coords(x + m, y + n))
                rhs = translation_factor(lat, m, n, z) * sz
                assert abs(lhs - rhs) < mp.mpf(10) ** -60 * max(1, abs(lhs))


def test_translation_sign_values():
    ts = translation_sign
    assert ts(0, 0) == 1
    assert ts(1, 0) == -1
    assert ts(0, 1) == -1
    assert ts(1, 1) == -1
    assert ts(2, 0) == 1
    assert ts(2, 1) == -1  # m+n+mn = 5
    assert ts(-1, -1) == -1
    assert ts(2, 2) == 1  # 2+2+4 = 8


def test_precision_scaling_of_residual():
    # doubling precision must crush the DE residual far beyond 1e10
    rng = random.Random(11)
    z = (Fraction(rng.random()), Fraction(rng.random()))
    res = {}
    for prec in (128, 256):
        L = AnalyticLattice(GAUSS, prec)
        with workprec(L):
            wp, wpp = L.wp(*coords(*z)), L.wp_prime(*coords(*z))
            res[prec] = abs(wpp ** 2 - (4 * wp ** 3 - L.g2 * wp - L.g3))
    with workprec(AnalyticLattice(GAUSS, 256)):
        assert res[256] < res[128] * mp.mpf(10) ** -30


def test_embed_and_reduce(lat):
    with workprec(lat):
        e = GAUSS.parse("3-2*i")
        z = embed(lat, e.x, e.y)
        assert abs(z - (3 - 2j)) < mp.mpf(10) ** -70
    assert reduced(lat, e.x, e.y) == (0, 0, 3, -2)
    # exact ties round to the even integer; in Q(sqrt(-3)) m rounds
    # x + (y - n)/2, the real coordinate left after removing n
    half = Fraction(1, 2)
    assert reduced(lat, Fraction(7, 2), Fraction(-5, 2)) == (-half, -half, 4, -2)
    eisen = AnalyticLattice(EISEN, 64)
    assert reduced(eisen, Fraction(1, 4), half) == (Fraction(1, 4), half, 0, 0)
    assert reduced(eisen, Fraction(5, 4), Fraction(3, 2)) == (Fraction(1, 4), -half, 1, 2)
    # the offset lies in the cell |Re| <= 1/2, |Im| <= Im(tau)/2
    rng = random.Random(31)
    for d in DISCRIMINANTS:
        L = AnalyticLattice(QuadField(d), 64)
        for _ in range(50):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            y = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            x0, y0, m, n = reduced(L, x, y)
            assert (x0 + m, y0 + n) == (x, y)
            assert abs(y0) <= half and abs(x0 + y0 * L.field.trace_omega / 2) <= half


def _reduce_mismatches():
    """(d, x, y, k) wherever the integer reduce, at the point's least
    denominator (k = 1) and at six times it, differs from the Fraction
    reference or returns an offset that is not in lowest terms.  Seeded
    rationals at all nine fields, with exact ties: y at a half, the real
    coordinate x + (y - round(y)) t/2 at a half, and both at once."""
    rng = random.Random(97)
    half = Fraction(1, 2)

    def rational():
        return Fraction(rng.randint(-400, 400), rng.randint(1, 40))

    bad = []
    for d in DISCRIMINANTS:
        L = AnalyticLattice(QuadField(d), 64)
        t = L.field.trace_omega
        points = [(rational(), rational()) for _ in range(60)]
        for _ in range(20):
            y, y_tie = rational(), rng.randint(-5, 5) + half
            x_tie = [rng.randint(-5, 5) + half - (v - round(v)) * Fraction(t, 2)
                     for v in (y, y_tie)]
            points += [(rational(), y_tie), (x_tie[0], y), (x_tie[1], y_tie)]
        for x, y in points:
            want = reduce_reference(t, x, y)
            X, Y, D = coords(x, y)
            for k in (1, 6):
                X0, Y0, L0, m, n = L.reduce(k * X, k * Y, k * D)
                if ((Fraction(X0, L0), Fraction(Y0, L0), m, n) != want
                        or math.gcd(X0, Y0, L0) != 1):
                    bad.append((d, x, y, k))
    return bad


def test_integer_reduce_matches_fraction_reference():
    assert _reduce_mismatches() == []


def test_integer_reduce_fault_control(monkeypatch):
    # ties rounded up in place of to even: both kinds of field must show it
    monkeypatch.setattr(analytic, "_round", lambda num, den: (2 * num + den) // (2 * den))
    bad = _reduce_mismatches()
    assert {QuadField(d).trace_omega for d, *_ in bad} == {0, 1}


def test_eta_linear_matches_lattice_values(lat):
    with workprec(lat):
        assert abs(eta_linear(lat, 1, 0) - lat.eta1) == 0
        assert abs(eta_linear(lat, 0, 1) - lat.eta_omega) == 0
        got = eta_linear(lat, Fraction(1, 2), Fraction(-3, 4))
        want = lat.eta1 / 2 - 3 * lat.eta_omega / 4
        assert abs(got - want) < mp.mpf(10) ** -70


# --- the fixed-nome kernel against the theta formula ---------------------------


def _nome(field):
    """tau = omega's embedding and the nome q = e^(i pi tau), at the
    current precision."""
    tau = (field.trace_omega + mp.mpc(0, 1) * mp.sqrt(-field.d)) / 2
    return tau, mp.exp(mp.mpc(0, 1) * mp.pi * tau)


def _theta_formula(field, prec):
    """(sigma, zeta, wp, wp') by theta_1 (the oracle's one-pass series) at
    the nome of the field's lattice, evaluated at `prec` bits; the
    kernel's reference.  At a lattice point mu = m + n*omega: (sigma's
    leading coefficient eps(mu) exp(eta(mu) mu / 2), None, None, None),
    since zeta, wp and wp' have a pole there."""
    with mp.workprec(prec):
        tau, q = _nome(field)
        _, th1p, _, th1ppp = theta1_derivatives(mp.mpc(0), q)
        eta1 = -(mp.pi ** 2 / 3) * th1ppp / th1p

    def at(x, y):
        with mp.workprec(prec):
            z = frac(x) + frac(y) * tau
            if isinstance(x, int) and isinstance(y, int):
                eta_mu = x * eta1 + y * (eta1 * tau - 2 * mp.pi * mp.mpc(0, 1))
                return translation_sign(x, y) * mp.exp(eta_mu * z / 2), None, None, None
            t0, t1, t2, t3 = theta1_derivatives(mp.pi * z, q)
            return (mp.exp(eta1 * z * z / 2) * t0 / (mp.pi * th1p),
                    eta1 * z + mp.pi * t1 / t0,
                    -eta1 - mp.pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0),
                    -mp.pi ** 3 * (t3 * t0 * t0 - 3 * t2 * t1 * t0 + 2 * t1 ** 3) / t0 ** 3)

    return at


THETA_TIE_BITS = 320


def test_theta_oracle_agrees_with_jtheta():
    # the one-pass theta_1 series against mp.jtheta at 0 (the derivatives
    # 1 and 3 that eta1 and sigma's normalization take; jtheta's even
    # ones are rounding noise there), in the cell and 7 units out
    points = ((0, 0), (Fraction(1, 3), Fraction(2, 7)), (Fraction(-20, 3), Fraction(45, 7)))
    for d in DISCRIMINANTS:
        with mp.workprec(THETA_TIE_BITS):
            tau, q = _nome(QuadField(d))
            for x, y in points:
                z = mp.pi * (frac(x) + frac(y) * tau)
                got = theta1_derivatives(z, q)
                for j in ((1, 3) if x == 0 else range(4)):
                    want = mp.jtheta(1, z, q, j)
                    assert abs(got[j] - want) < mp.ldexp(abs(want), 16 - THETA_TIE_BITS), \
                        (d, x, y, j)


# where _agreement_data puts its kinds of points
FAR = slice(1, 100, 2)
NEAR = slice(106, 114)
LATTICE = slice(114, None)
LATTICE_POINTS = ((0, 0), (1, 0), (0, 1), (1, 1), (-7, 7), (3, -5), (7, 2),
                  (-4, -6), (6, 0), (-5, -7))


@functools.cache
def _agreement_data(d, prec):
    """Seeded exact points (x, y) and the formula's values there: 100
    points, half in the cell around 0 and half up to 7 lattice units out
    (FAR, the odd indices); then 6 rounding ties: y = 1/2 mod 1, and a
    real coordinate x + (y - round(y)) t/2 of exactly 1/2 mod 1 (both at
    once would include (1 + i)/2 in Q(i), a zero of wp, where a relative
    error means nothing); then 8 offsets of about 2^-100 from lattice
    points up to 7 units out (NEAR), which need the extra bits near
    sigma's zero; then LATTICE_POINTS, where sigma gives its leading
    coefficient, with signs eps(mu) of both kinds."""
    field = QuadField(d)
    rng = random.Random(1000 * -d + prec)
    points = []
    for i in range(100):
        far = 7 if i % 2 else 0
        points.append(tuple(Fraction(rng.uniform(-0.5, 0.5)) + rng.randint(-far, far)
                            for _ in range(2)))
    half, half_trace = Fraction(1, 2), Fraction(field.trace_omega, 2)
    for k in (-3, 0, 2):
        x, y = (Fraction(rng.uniform(-0.5, 0.5)) + k for _ in range(2))
        points.append((x, k + half))
        points.append((k + half - (y - round(y)) * half_trace, y))
    for _ in range(8):
        points.append(tuple(rng.randint(-7, 7) + Fraction(rng.uniform(-1, 1)) / 2 ** 100
                            for _ in range(2)))
    points.extend(LATTICE_POINTS)
    formula = _theta_formula(field, prec + 256)
    return tuple(points), tuple(formula(x, y) for x, y in points)


def _worst_log2_errors(lat, points, wants):
    """log2 of the largest relative error of sigma, zeta, wp and wp', each;
    a function is called only where its reference is not None."""
    worst = [mp.mpf(0)] * 4
    sigma = functools.partial(sigma_value, lat)
    for (x, y), want in zip(points, wants):
        for j, (fn, w) in enumerate(zip((sigma, lat.zeta, lat.wp, lat.wp_prime), want)):
            if w is not None:
                got = fn(*coords(x, y))
                with mp.workprec(lat.prec + 256):
                    worst[j] = max(worst[j], abs(got - w) / abs(w))
    with mp.workprec(64):
        return [mp.log(v, 2) if v else -mp.inf for v in worst]


@pytest.mark.parametrize("prec", (256, 512))
def test_kernel_agrees_with_theta_formula(prec):
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), prec)
        assert max(_worst_log2_errors(lat, *_agreement_data(d, prec))) < -prec, d


def test_kernel_agreement_fails_without_last_term():
    # fault control: a table one term short must miss 2^-prec somewhere
    worst = []
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), 512)
        lat._table = lat._table[:-1]
        worst.extend(_worst_log2_errors(lat, *_agreement_data(d, 512)))
    assert max(worst) >= -512


def test_kernel_agreement_fails_without_reduction():
    # fault control: with the reduction skipped (m = n = 0) the series
    # runs at the unreduced far points, beyond the range its table
    # covers; sigma, zeta, wp and wp' must each fail, so none of them
    # reduces by a rule of its own
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), 256)
        lat.reduce = lambda X, Y, D: (X, Y, D, 0, 0)
        points, wants = _agreement_data(d, 256)
        errors = _worst_log2_errors(lat, points[FAR], wants[FAR])
        assert min(errors) >= -256, (d, errors)


@pytest.mark.parametrize("prec", (256, 512))
def test_kernel_agreement_fails_without_extra_bits(prec):
    # fault control: without the extra bits near z0 = 0 the offsets of
    # 2^-100 lose about 100 bits of sigma's relative precision
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), prec)
        lat._extra_bits = lambda X, Y, L: 0
        points, wants = _agreement_data(d, prec)
        assert _worst_log2_errors(lat, points[NEAR], wants[NEAR])[0] >= -prec, d


def test_kernel_agreement_fails_with_phase_mod_1(monkeypatch):
    # fault control: the pi*rational phase reduced mod 1 (half turns
    # dropped) loses the sign eps(mu) of the leading coefficients
    monkeypatch.setattr(analytic, "_quarter_turns",
                        lambda num, den: (2 * num // den % 2, 2 * num % den))
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), 256)
        points, wants = _agreement_data(d, 256)
        assert _worst_log2_errors(lat, points[LATTICE], wants[LATTICE])[0] >= -256, d


# --- the series recurrence against the direct power sums ------------------------

# the analytic docstring's error budget: T_k, k = 2n+1, is within
# 43 (n+1)^2 e^(k|b|) ulp, and each c_n T_k costs one ulp more
RECURRENCE_ULP = 43


def _recurrence_points(d, prec):
    """Seeded offsets (x, y) for the recurrence: 20 in the cell, 4 on its
    edge Im z0 = Im(tau)/2, where e^|b| is largest, 4 within 2^-60 of 0,
    which take extra bits, and real offsets with Re z0 near 0 and near
    1/2, where U_m(cos 2v) grows like m + 1."""
    rng = random.Random(31 * -d + prec)

    def cell():
        return Fraction(rng.uniform(-0.5, 0.5))

    half = Fraction(1, 2)
    points = [(cell(), cell()) for _ in range(20)]
    points += [(cell(), half) for _ in range(4)]
    points += [(cell() / 2 ** 60, cell() / 2 ** 60) for _ in range(4)]
    for e in (Fraction(1, 2 ** 40), Fraction(1, 1000), Fraction(1, 10)):
        points += [(e, 0), (half - e, 0), (e - half, 0)]
    return points + [(half, 0)]


def _series_excess(lat, points):
    """The largest ratio, over the points, derivatives 0..3 and both
    components, of |_series - power_sums| to the docstring's bound
    sum_n k^j (1 + 43 (n+1)^2 |c_n| e^(k|b|)), in ulp of the sums; the
    power sums run from the same head with 64 guard bits, so their own
    rounding does not count."""
    guard, worst = 64, 0.0
    for x, y in points:
        z = coords(x, y)
        reduced_z = lat.reduce(*z)
        head = lat._head(z, (0, 0, 1), reduced_z)
        got, _ = lat._series(z, (0, 0, 1), reduced_z, 3)
        want, _ = power_sums(lat, head, 3, guard)
        bits, rp, rm = head[0], head[3], head[4]
        log_s = math.log(max(rp, rm)) - bits * math.log(2)  # |b|
        for j in range(4):
            bound = sum(k ** j * (1 + RECURRENCE_ULP * (n + 1) ** 2 *
                                  math.exp(math.log(abs(c)) - shift * math.log(2) + k * log_s))
                        for n, (k, c, shift) in enumerate(lat._table))
            for g, w in zip(got[j], want[j]):
                worst = max(worst, abs((g << guard) - w) / 2 ** guard / bound)
    return worst


@pytest.mark.parametrize("prec", (256, 512))
def test_series_recurrence_within_its_bound(prec):
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), prec)
        assert _series_excess(lat, _recurrence_points(d, prec)) <= 1, d


def _with_series_text(lat, old, new):
    """lat with the text old of _series' source replaced by new."""
    source = textwrap.dedent(inspect.getsource(AnalyticLattice._series))
    assert source.count(old) == 1
    scope = {}
    exec(source.replace(old, new), vars(analytic), scope)
    lat._series = types.MethodType(scope["_series"], lat)
    return lat


def test_kernel_agreement_fails_with_sine_started_at_plus_t1():
    # fault control: the sine's recurrence started at T_(-1) = +T_1 gives
    # 2 sin(3v) - 2 T_1 for T_3; sigma misses 2^-prec at every field, and
    # the sums leave the recurrence's bound
    for d in DISCRIMINANTS:
        lat = _with_series_text(AnalyticLattice(QuadField(d), 256),
                                "= -sr, -si, cr, ci", "= sr, si, cr, ci")
        points, wants = _agreement_data(d, 256)
        assert _worst_log2_errors(lat, points[FAR], wants[FAR])[0] >= -256, d
        assert _series_excess(lat, _recurrence_points(d, 256)[:4]) > 1, d


def test_real_argument_gives_real_values(lat):
    with workprec(lat):
        for x in (Fraction("0.3"), Fraction("-0.45"), Fraction("3.3")):
            z = coords(x, 0)
            for value in (sigma_value(lat, *z), lat.zeta(*z), lat.wp(*z), lat.wp_prime(*z)):
                assert mp.im(value) == 0


# --- the lattice memo of sigma at exact points ---------------------------------

# the lattice offsets run sigma's z0 = 0 branch
EXACT_OFFSETS = ((Fraction(1, 3), Fraction(1, 5)), (Fraction(-2, 7), Fraction(3, 2)),
                 (Fraction(5, 4), 0), (0, Fraction(1, 2)), (2, -1), (0, 0),
                 (1, 0), (0, 1), (-1, 3), (3, 2))


def _memo_sigma(lat, x, y):
    """sigma at x + y*omega through the lattice memo, under the key
    elliptic-function products use, as a number."""
    return lat.fold([(lat.memo(("sigma", *coords(x, y)), lambda: lat.sigma(*coords(x, y))), 1)])


@pytest.mark.parametrize("d", (-4, -3, -163))
def test_sigma_memo_is_bit_identical(d, monkeypatch):
    runs = []
    kernel = AnalyticLattice.sigma
    monkeypatch.setattr(AnalyticLattice, "sigma",
                        lambda lat, *c: runs.append(c) or kernel(lat, *c))
    K = QuadField(d)
    warm = AnalyticLattice(K, 256)
    cold = [_memo_sigma(warm, x, y)._mpc_ for x, y in EXACT_OFFSETS]
    again = [_memo_sigma(warm, x, y)._mpc_ for x, y in EXACT_OFFSETS]
    assert runs == [coords(x, y) for x, y in EXACT_OFFSETS]  # the second round reads the memo
    fresh = AnalyticLattice(K, 256)
    assert cold == again == [sigma_value(fresh, *coords(x, y))._mpc_ for x, y in EXACT_OFFSETS]


def _memo_sharing_errors(lo, hi):
    """Offsets where the second lattice, after the first has filled its
    memo, returns anything but its own fresh value."""
    for x, y in EXACT_OFFSETS:
        _memo_sigma(lo, x, y)
    return [(x, y) for x, y in EXACT_OFFSETS
            if _memo_sigma(hi, x, y)._mpc_ != sigma_value(hi, *coords(x, y))._mpc_]


def test_sigma_memo_is_per_lattice():
    assert _memo_sharing_errors(AnalyticLattice(GAUSS, 256),
                                AnalyticLattice(GAUSS, 512)) == []


def test_memo_sharing_fault_control():
    # one module-global memo keyed only on its key hands the 512-bit
    # lattice the 256-bit values
    shared = {}

    def global_memo(key, compute):
        if key not in shared:
            shared[key] = compute()
        return shared[key]

    lo, hi = AnalyticLattice(GAUSS, 256), AnalyticLattice(GAUSS, 512)
    lo.memo = hi.memo = global_memo
    assert _memo_sharing_errors(lo, hi)


# --- the two-point form sigma(z, u) = sigma(z - u) --------------------------------


@functools.cache
def _two_point_data(d, prec):
    """Seeded pairs (z, u) of exact points (x, y), and at each pair the
    one-point form's sigma(z - u) and series head, from a lattice no fault
    touches: 16 pairs in [0, 1)^2, 16 with coordinates up to 10 in size,
    and 64 with z - u within 2^-(40 + j), j = 0..63, of a lattice point,
    so the extra bits near sigma's zero take every value mod 64; these
    have Im u at 3/4 or more, where exp(-pi Im u) is smallest."""
    rng = random.Random(7 * -d + prec)

    def canonical():
        return Fraction(rng.random()), Fraction(rng.random())

    def far():
        return tuple(Fraction(rng.uniform(-10, 10)) for _ in range(2))

    pairs = [(canonical(), canonical()) for _ in range(16)] + [(far(), far()) for _ in range(16)]
    for j in range(64):
        u = Fraction(rng.random()), Fraction(rng.uniform(0.75, 1))
        z = tuple(c + rng.randint(-3, 3) + Fraction(rng.uniform(-1, 1)) / 2 ** (40 + j) for c in u)
        pairs.append((z, u))
    lat = AnalyticLattice(QuadField(d), prec)
    wants = []
    for (zx, zy), (ux, uy) in pairs:
        w = coords(zx - ux, zy - uy)
        wants.append((sigma_value(lat, *w), lat._head(w, (0, 0, 1), lat.reduce(*w))))
    return tuple(pairs), tuple(wants)


def _two_point_errors(lat, pairs, wants):
    """(log2 of sigma(z, u)'s largest relative error against sigma(z - u),
    the largest difference of their series heads in units of 2^-bits)."""
    worst, ulps = mp.mpf(0), 0
    for ((zx, zy), (ux, uy)), (want, head) in zip(pairs, wants):
        z, u = coords(zx, zy), coords(ux, uy)
        got = sigma_value(lat, *z, *u)
        got_head = lat._head(z, u, lat.reduce(*coords(zx - ux, zy - uy)))
        assert got_head[0] == head[0]  # the same bit count
        ulps = max(ulps, *(abs(a - b) for a, b in zip(got_head[1:], head[1:])))
        with mp.workprec(lat.prec + 64):
            worst = max(worst, abs(got - want) / abs(want))
    with mp.workprec(64):
        return (mp.log(worst, 2) if worst else -mp.inf), ulps


@pytest.mark.parametrize("prec", (256, 512))
def test_two_point_sigma_agrees_with_one_point(prec):
    # the phase products cost at most 2 ulp of the series head, so sigma
    # agrees to far below 2^-prec
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), prec)
        err, ulps = _two_point_errors(lat, *_two_point_data(d, prec))
        assert err < -prec and ulps <= 2, (d, err, ulps)


def test_two_point_fault_phase_at_unreduced_point(monkeypatch):
    # fault control: the phase of z and u taken where they are, up to 10
    # lattice units out, in place of at their canonical points; exp(-pi Im)
    # there leaves too few bits, and sigma misses 2^-prec
    monkeypatch.setattr(analytic, "_canonical", lambda X, Y, D: (X, Y, D, 0, 0))
    errors = [_two_point_errors(AnalyticLattice(QuadField(d), 256), *_two_point_data(d, 256))[0]
              for d in DISCRIMINANTS]
    assert max(errors) >= -256


@pytest.mark.parametrize("prec", (256, 512))
def test_two_point_fault_phase_bits_without_nu(prec):
    # fault control: pb without its ceil(nu/ln 2) term (29 bits at
    # d = -163) loses bits of the head wherever pb - bits falls below that
    lat = AnalyticLattice(QuadField(-163), prec)
    lat._nu_bits = 0
    assert _two_point_errors(lat, *_two_point_data(-163, prec))[1] > 2


def test_two_point_fault_without_nu_shift():
    # fault control: e^(-+nu n') dropped, the offset's lattice shift in the
    # omega direction is lost at every field
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), 256)
        fixed = lat._fixed
        lat._fixed = lambda bits, fixed=fixed: fixed(bits)[:6] + (1 << bits, 1 << bits)
        assert _two_point_errors(lat, *_two_point_data(d, 256))[0] >= -256, d


def test_fresh_sample_adds_one_phase_entry():
    # a lattice that holds the lifts' phases: a k-lift function at a fresh
    # sample adds at most k sigma entries and the sample's one phase entry,
    # which all k offsets share (their bit counts share a bucket at d = -4)
    K = QuadField(-4)
    lat = AnalyticLattice(K, 256)
    f = build_g_a(K, 3)
    rng = random.Random(19)
    samples = [coords(Fraction(rng.random()), Fraction(rng.random())) for _ in range(3)]
    f.evaluate(lat, samples[0])
    for z in samples[1:]:
        before = set(lat._memo)
        f.evaluate(lat, z)
        added = [key[0] for key in set(lat._memo) - before]
        assert added.count("sigma") <= len(f.lifts) and added.count("phase") == 1
        assert len(added) == added.count("sigma") + 1
