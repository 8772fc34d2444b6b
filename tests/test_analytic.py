import functools
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from cmk2.analytic import SIGMA_MEMO_SIZE, AnalyticLattice
from cmk2.qfield import QuadField

GAUSS = QuadField(-4)
EISEN = QuadField(-3)
DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


@pytest.fixture(scope="module")
def lat():
    return AnalyticLattice(GAUSS, 256)


def rand_z(lat, rng, margin=0.05):
    # a point of the fundamental domain staying away from the lattice
    while True:
        z = lat.embed_coords(rng.random(), rng.random())
        with lat.context():
            if lat.distance_to_lattice(z) > margin:
                return z


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
        with L.context():
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
        with lat.context():
            got = complex(lat.sigma(mp.mpc(zc)))
        assert abs(got - direct) < 1e-3 * abs(direct)


def test_eta1_square_lattice_is_pi(lat):
    with lat.context():
        assert abs(lat.eta1 - mp.pi) < mp.mpf(10) ** -70


def test_wp_laurent_normalization(lat):
    # z^2 * wp(z) -> 1 and z^3 * wp'(z) -> -2 pin the classical scaling
    with lat.context():
        z = mp.mpf(10) ** -9
        assert abs(z * z * lat.wp(z) - 1) < 1e-15
        assert abs(z ** 3 * lat.wp_prime(z) + 2) < 1e-15
        # sigma(z)/z -> 1: lead coefficient 1 at the origin
        assert abs(lat.sigma(z) / z - 1) < 1e-15


def test_differential_equation_residual():
    rng = random.Random(17)
    for d in (-4, -3, -8, -19, -163):
        L = AnalyticLattice(QuadField(d), 256)
        with L.context():
            for _ in range(5):
                z = rand_z(L, rng)
                wp, wpp = L.wp(z), L.wp_prime(z)
                res = abs(wpp ** 2 - (4 * wp ** 3 - L.g2 * wp - L.g3))
                assert res < mp.mpf(10) ** -70


def test_wp_even_wpprime_odd(lat):
    rng = random.Random(23)
    with lat.context():
        for _ in range(5):
            z = rand_z(lat, rng)
            assert abs(lat.wp(z) - lat.wp(-z)) < mp.mpf(10) ** -70
            assert abs(lat.wp_prime(z) + lat.wp_prime(-z)) < mp.mpf(10) ** -70


def test_special_invariant_vanishing():
    with AnalyticLattice(GAUSS, 256).context():
        assert abs(AnalyticLattice(GAUSS, 256).g3) < mp.mpf(10) ** -70
        assert abs(AnalyticLattice(EISEN, 256).g2) < mp.mpf(10) ** -70


def test_cm_rotation():
    # multiplication by a unit u with uL = L: wp(u z) = u^-2 wp(z)
    rng = random.Random(5)
    for field in (GAUSS, EISEN):
        L = AnalyticLattice(field, 192)
        with L.context():
            u = L.tau if field.d == -4 else L.tau  # omega itself is a unit here
            for _ in range(4):
                z = rand_z(L, rng)
                assert abs(u * u * L.wp(u * z) - L.wp(z)) < mp.mpf(10) ** -45


def test_half_period_theta_constant_crosscheck(lat):
    # e_i = wp at half periods: symmetric functions recover g2, g3
    with lat.context():
        e1 = lat.wp(mp.mpf(1) / 2)
        e2 = lat.wp(lat.tau / 2)
        e3 = lat.wp((1 + lat.tau) / 2)
        assert abs(e1 + e2 + e3) < mp.mpf(10) ** -70
        assert abs(-4 * (e1 * e2 + e1 * e3 + e2 * e3) - lat.g2) < mp.mpf(10) ** -70
        assert abs(4 * e1 * e2 * e3 - lat.g3) < mp.mpf(10) ** -70
        # wp' vanishes at 2-torsion
        assert abs(lat.wp_prime(mp.mpf(1) / 2)) < mp.mpf(10) ** -70


def test_quasi_period_jumps(lat):
    with lat.context():
        z = lat.embed_coords(Fraction(3, 7), Fraction(2, 5))
        tol = mp.mpf(10) ** -70
        assert abs(lat.zeta(z + 1) - lat.zeta(z) - lat.eta1) < tol
        assert abs(lat.zeta(z + lat.tau) - lat.zeta(z) - lat.eta_omega) < tol
        # Legendre relation is structural: eta1*tau - eta_omega = 2 pi i
        assert abs(lat.eta1 * lat.tau - lat.eta_omega - 2 * mp.pi * mp.mpc(0, 1)) == 0


def test_sigma_translation_factor_exhaustive(lat):
    with lat.context():
        z = lat.embed_coords(Fraction(1, 3), Fraction(2, 7))
        sz = lat.sigma(z)
        for m in range(-2, 3):
            for n in range(-2, 3):
                lhs = lat.sigma(z + m + n * lat.tau)
                rhs = lat.translation_factor(m, n, z) * sz
                assert abs(lhs - rhs) < mp.mpf(10) ** -60 * max(1, abs(lhs))


def test_translation_sign_values():
    ts = AnalyticLattice.translation_sign
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
    zc = (rng.random(), rng.random())
    res = {}
    for prec in (128, 256):
        L = AnalyticLattice(GAUSS, prec)
        with L.context():
            z = L.embed_coords(*zc)
            wp, wpp = L.wp(z), L.wp_prime(z)
            res[prec] = abs(wpp ** 2 - (4 * wp ** 3 - L.g2 * wp - L.g3))
    with AnalyticLattice(GAUSS, 256).context():
        assert res[256] < res[128] * mp.mpf(10) ** -30


def test_embed_and_reduce(lat):
    with lat.context():
        e = GAUSS.parse("3-2*i")
        z = lat.embed(e)
        assert abs(z - (3 - 2j)) < mp.mpf(10) ** -70
        assert lat.nearest_lattice_point(z) == (3, -2)
        assert lat.distance_to_lattice(z) < mp.mpf(10) ** -70


def test_eta_linear_matches_lattice_values(lat):
    with lat.context():
        assert abs(lat.eta_linear(1, 0) - lat.eta1) == 0
        assert abs(lat.eta_linear(0, 1) - lat.eta_omega) == 0
        got = lat.eta_linear(Fraction(1, 2), Fraction(-3, 4))
        want = lat.eta1 / 2 - 3 * lat.eta_omega / 4
        assert abs(got - want) < mp.mpf(10) ** -70


# --- the fixed-nome kernel against the theta formula ---------------------------


def _theta_formula(field, prec):
    """(sigma, zeta, wp) by mp.jtheta at the nome of the field's lattice,
    evaluated at `prec` bits; the kernel's reference."""
    with mp.workprec(prec):
        tau = (field.trace_omega + mp.mpc(0, 1) * mp.sqrt(-field.d)) / 2
        q = mp.exp(mp.mpc(0, 1) * mp.pi * tau)
        th1p = mp.jtheta(1, 0, q, 1)
        eta1 = -(mp.pi ** 2 / 3) * mp.jtheta(1, 0, q, 3) / th1p

    def at(z):
        with mp.workprec(prec):
            t0, t1, t2 = (mp.jtheta(1, mp.pi * z, q, k) for k in range(3))
            return (mp.exp(eta1 * z * z / 2) * t0 / (mp.pi * th1p),
                    eta1 * z + mp.pi * t1 / t0,
                    -eta1 - mp.pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0))

    return at


@functools.cache
def _agreement_data(d, prec, count=100):
    # seeded points: half in the cell around 0, half up to 7 lattice units out
    lat = AnalyticLattice(QuadField(d), prec)
    rng = random.Random(1000 * -d + prec)
    points = []
    for i in range(count):
        far = 7 if i % 2 else 0
        points.append(lat.embed_coords(rng.uniform(-0.5, 0.5) + rng.randint(-far, far),
                                       rng.uniform(-0.5, 0.5) + rng.randint(-far, far)))
    formula = _theta_formula(lat.field, prec + 256)
    return tuple(points), tuple(formula(z) for z in points)


def _worst_log2_error(lat, points, wants):
    """log2 of the largest relative error of sigma, zeta and wp."""
    worst = mp.mpf(0)
    for z, want in zip(points, wants):
        got = (lat.sigma(z), lat.zeta(z), lat.wp(z))
        with mp.workprec(lat.prec + 256):
            for g, w in zip(got, want):
                worst = max(worst, abs(g - w) / abs(w))
    with mp.workprec(64):
        return mp.log(worst, 2) if worst else -mp.inf


@pytest.mark.parametrize("prec", (256, 512))
def test_kernel_agrees_with_theta_formula(prec):
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), prec)
        assert _worst_log2_error(lat, *_agreement_data(d, prec)) < -prec, d


def test_kernel_agreement_fails_without_last_term():
    # fault control: a table one term short must miss 2^-prec somewhere
    worst = []
    for d in DISCRIMINANTS:
        lat = AnalyticLattice(QuadField(d), 512)
        lat._table = lat._table[:-1]
        worst.append(_worst_log2_error(lat, *_agreement_data(d, 512)))
    assert max(worst) >= -512


def test_real_argument_gives_real_values(lat):
    with lat.context():
        for x in (mp.mpf("0.3"), mp.mpf("-0.45"), mp.mpf("3.3")):
            for value in (lat.sigma(x), lat.zeta(x), lat.wp(x)):
                assert mp.im(value) == 0


# --- the per-lattice memo of sigma at exact points ---------------------------

EXACT_OFFSETS = ((Fraction(1, 3), Fraction(1, 5)), (Fraction(-2, 7), Fraction(3, 2)),
                 (Fraction(5, 4), 0), (0, Fraction(1, 2)), (2, -1), (0, 0))


def _fresh_sigma(lat, x, y):
    """sigma at x + y*omega without the memo; its leading coefficient at a
    lattice point."""
    if isinstance(x, int) and isinstance(y, int):
        return lat.translation_factor(x, y, 0)
    return lat.sigma(lat.embed_coords(x, y))


@pytest.mark.parametrize("d", (-4, -3, -163))
def test_sigma_memo_is_bit_identical(d):
    K = QuadField(d)
    warm = AnalyticLattice(K, 256)
    cold = [warm.sigma_exact(x, y)._mpc_ for x, y in EXACT_OFFSETS]
    again = [warm.sigma_exact(x, y)._mpc_ for x, y in EXACT_OFFSETS]
    assert warm.sigma_exact.cache_info().hits == len(EXACT_OFFSETS)
    fresh = AnalyticLattice(K, 256)
    assert cold == again == [_fresh_sigma(fresh, x, y)._mpc_ for x, y in EXACT_OFFSETS]


def test_sigma_memo_is_bounded():
    lat = AnalyticLattice(QuadField(-163), 128)
    for k in range(SIGMA_MEMO_SIZE + 20):
        lat.sigma_exact(Fraction(1, k + 2), Fraction(1, 3))
    assert lat.sigma_exact.cache_info().currsize == SIGMA_MEMO_SIZE


def _memo_sharing_errors(lo, hi):
    """Offsets where the second lattice, after the first has filled its
    memo, returns anything but its own fresh value."""
    for x, y in EXACT_OFFSETS:
        lo.sigma_exact(x, y)
    return [(x, y) for x, y in EXACT_OFFSETS
            if hi.sigma_exact(x, y)._mpc_ != _fresh_sigma(hi, x, y)._mpc_]


def test_sigma_memo_is_per_lattice():
    assert _memo_sharing_errors(AnalyticLattice(GAUSS, 256),
                                AnalyticLattice(GAUSS, 512)) == []


def test_memo_sharing_fault_control():
    # one module-global memo keyed only on (x, y) hands the 512-bit
    # lattice the 256-bit values
    shared = {}

    def global_memo(lat):
        def sigma_exact(x, y):
            if (x, y) not in shared:
                shared[x, y] = _fresh_sigma(lat, x, y)
            return shared[x, y]
        return sigma_exact

    lo, hi = AnalyticLattice(GAUSS, 256), AnalyticLattice(GAUSS, 512)
    lo.sigma_exact, hi.sigma_exact = global_memo(lo), global_memo(hi)
    assert _memo_sharing_errors(lo, hi)
