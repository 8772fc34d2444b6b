"""Divisor algebra and normalized sigma-product checks.

Frozen expectations come from three independent sources: hand-computed
divisor data (weighted sums, lifts and lift sums, the exp(-pi/2) constant
for the 2-division product), limit/translation identities evaluated at
tolerances far below working precision, and the shifted-copy sigma
product evaluated at 768 bits.
"""

import cProfile
import math
import pstats
import random
import re
import types
from fractions import Fraction

import mpmath as mp
import pytest

from cmk2 import analytic, cli, divisors
from cmk2.analytic import AnalyticLattice
from cmk2.divisors import (
    ConstAtom,
    Divisor,
    EllFunction,
    PoleError,
    build_g_a,
    build_g_l,
    build_s_point,
    build_t_gamma,
    dyadic_point,
    equal_up_to_constant,
    evaluator,
    sample_points,
    times,
    wp_route_evaluator,
)
from cmk2.hecke import HeckeCharacter
from cmk2.qfield import QuadField, is_rational_prime, split_rational_prime
from cmk2.symbols import term_tame
from cmk2.torsion import (
    TorsionPoint,
    TorsionSystem,
    crt_split,
    division_point,
    galois_conjugates,
    preimage_set,
    torsion_subgroup,
)
from oracles import coords, embed, eta_linear, frac, lift, sigma_value, translation_sign

F4 = QuadField(-4)
CHI = HeckeCharacter(F4, F4.ideal(F4.parse("(1+i)^3")))
SYS = TorsionSystem(CHI)
M_SPLIT = F4.ideal(F4.parse("2-i"))
ELL = F4.ideal(F4.parse("2+i"))
PHI_ELL = CHI.evaluate(ELL)  # -1+2i, frozen in the character tests


def build_s_m(sys, m, scale=None):
    """The two-point function at y_m, default scale N(m * f-level)."""
    if scale is None:
        scale = (m * sys.f_level).norm
    return build_s_point(sys.y(m), scale)


def O(field=F4):
    return TorsionPoint(field, 0, 0)


def fraction_lifts(f):
    """f's lifts as (r, s, m) with Fraction coordinates."""
    return tuple((Fraction(R, f.den), Fraction(S, f.den), m) for R, S, m in f.lifts)


def test_divisor_algebra_and_weighted_sum():
    P = TorsionPoint(F4, 1, 0, 2)
    Q = TorsionPoint(F4, 0, 1, 2)
    D = Divisor(F4, {P: 2, Q: -2})
    assert D.degree == 0
    assert D.weighted_sum() == coords(1, -1)
    assert D.is_principal()
    assert (D - D).points == {}
    assert (D + D).multiplicity(P) == 4
    assert D.scale(3).multiplicity(Q) == -6
    # merging at shared points
    E = Divisor(F4, {P: 1}) + Divisor(F4, {P: -1})
    assert E.points == {}


def test_g2_divisor_matches_hand_computation():
    g2 = build_g_a(F4, 2)
    D = g2.divisor
    assert D.degree == 0
    assert len(D.support()) == 4  # merged origin plus three halves
    assert D.multiplicity(O()) == 3
    # weighted sum of 4(0) - E[2] is -(1 + i)
    assert D.weighted_sum() == coords(-1, -1)
    assert D.is_principal()


def test_from_divisor_rejects_nonprincipal():
    P = TorsionPoint(F4, 1, 3, 4)
    with pytest.raises(ValueError):
        EllFunction.from_divisor(Divisor(F4, {P: 1, O(): -1}))  # sum not integral
    with pytest.raises(ValueError):
        EllFunction.from_divisor(Divisor(F4, {O(): 1}))  # degree 1


def test_g2_lift_adjustment_frozen():
    # one canonical lift per support point, and the integral lift sum
    # lam = -(1 + i) that the normalization corrects for
    g2 = build_g_a(F4, 2)
    assert fraction_lifts(g2) == (
        (Fraction(0), Fraction(0), 3),
        (Fraction(0), Fraction(1, 2), -1),
        (Fraction(1, 2), Fraction(0), -1),
        (Fraction(1, 2), Fraction(1, 2), -1),
    )
    assert g2.lam == (-1, -1)
    assert sum(e for r, s, e in fraction_lifts(g2)) == 0
    assert (sum(e * r for r, s, e in fraction_lifts(g2)),
            sum(e * s for r, s, e in fraction_lifts(g2))) == g2.lam


def test_norm_constant_g2_is_exp_minus_half_pi():
    # the product with a shifted sigma copy carrying the lift sum,
    # exp(-pi/2) sigma(z - 1 - i) sigma(z)^2 / prod sigma(z - gamma) over
    # the 2-torsion, is g2 itself: the exact exponential replaces the copy
    lat = AnalyticLattice(F4, 192)
    g2 = build_g_a(F4, 2)
    halves = ((Fraction(1, 2), 0), (0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    with lat.context():
        for x, y in ((Fraction(0.231), Fraction(0.377)), (Fraction(-1.61), Fraction(2.118))):
            copy = (mp.exp(-mp.pi / 2) * sigma_value(lat, *coords(x - 1, y - 1))
                    * sigma_value(lat, *coords(x, y)) ** 2)
            for r, s in halves:
                copy = copy / sigma_value(lat, *coords(x - r, y - s))
            assert abs(g2.evaluate(lat, coords(x, y)) / copy - 1) < mp.mpf(10) ** -50


@pytest.mark.parametrize("builder", [
    lambda: build_g_a(F4, 2),
    lambda: build_g_a(F4, 3),
    lambda: build_s_m(SYS, M_SPLIT),
    lambda: build_g_l(ELL),
])
def test_ellipticity(builder):
    fn = builder()
    lat = AnalyticLattice(F4, 160)
    with lat.context():
        for zr, zs in [(0.231, 0.377), (0.61, 0.118)]:
            x, y = Fraction(zr), Fraction(zs)
            base = fn.evaluate(lat, coords(x, y))
            for m, n in [(1, 0), (0, 1), (-1, 1)]:
                shifted = fn.evaluate(lat, coords(x + m, y + n))
                assert abs(shifted / base - 1) < mp.mpf(10) ** -40


def test_ellipticity_in_odd_discriminant_field():
    F3 = QuadField(-3)
    fn = build_g_a(F3, 2)
    lat = AnalyticLattice(F3, 160)
    with lat.context():
        x, y = Fraction(0.313), Fraction(0.209)
        base = fn.evaluate(lat, coords(x, y))
        for m, n in [(1, 0), (0, 1)]:
            shifted = fn.evaluate(lat, coords(x + m, y + n))
            assert abs(shifted / base - 1) < mp.mpf(10) ** -40


def orders_and_leading_cases():
    gamma = TorsionPoint(F4, 1, 0, 2)
    return [
        build_g_a(F4, 2),
        build_t_gamma(F4, 2, gamma),
        build_s_m(SYS, M_SPLIT),
        build_g_l(ELL),
    ]


@pytest.mark.parametrize("fn", orders_and_leading_cases())
def test_order_and_leading_coefficient(fn):
    """f(P + h) / (lead * h^m) -> 1 with the frozen divisor order m."""
    lat = AnalyticLattice(F4, 256)
    with lat.context():
        h = mp.mpf(10) ** -30
        for P in fn.divisor.support():
            m = fn.order_at(P)
            lead = fn.leading_at(lat, P)
            x, y = lift(P)
            val = fn.evaluate(lat, coords(x + Fraction(1, 10**30), y))
            assert abs(val / (lead * h ** m) - 1) < mp.mpf(10) ** -25


def test_leading_wrong_order_would_fail():
    # same data as above but deliberately shifted order: the ratio must move
    lat = AnalyticLattice(F4, 192)
    fn = build_g_a(F4, 2)
    P = O()
    with lat.context():
        h = mp.mpf(10) ** -20
        x, y = lift(P)
        val = fn.evaluate(lat, coords(x + Fraction(1, 10**20), y))
        lead = fn.leading_at(lat, P)
        wrong = val / (lead * h ** (fn.order_at(P) + 1))
        assert abs(wrong - 1) > 1


def test_distribution_pushforward_is_constant_one():
    """Fiber product of g_2 over multiplication by the character value of
    (2+i) reproduces g_2 on the nose: constant 1, not just modulus 1."""
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    g2 = build_g_a(F4, 2)
    assert g2.divisor.pushforward(PHI_ELL) == g2.divisor
    push = g2.pushforward_evaluator(lat, PHI_ELL)
    rep = equal_up_to_constant(push, evaluator(g2, lat), lat,
                               avoid=g2.divisor.support(),
                               samples=8)
    assert rep["pass"]
    with lat.context():
        assert abs(rep["constant"] - 1) < mp.mpf(10) ** -30


def test_pushforward_projection_step():
    """Fiber product equals the canonical build of the image divisor up to
    a constant of modulus one."""
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    gamma = TorsionPoint(F4, 1, 0, 2)
    t = build_t_gamma(F4, 2, gamma)
    image = t.pushforward_function(PHI_ELL)
    assert image.divisor == t.divisor.pushforward(PHI_ELL)
    rep = equal_up_to_constant(t.pushforward_evaluator(lat, PHI_ELL),
                               evaluator(image, lat), lat,
                               avoid=image.divisor.support(),
                               samples=8)
    assert rep["pass"]


def test_pullback_matches_substitution():
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    g2 = build_g_a(F4, 2)
    pulled = g2.pullback(PHI_ELL)
    assert pulled.divisor.degree == 0
    assert pulled.divisor == g2.divisor.pullback(PHI_ELL)
    with lat.context():
        subst = lambda z: g2.evaluate(lat, times(PHI_ELL, z))
        rep = equal_up_to_constant(subst, evaluator(pulled, lat), lat,
                                   avoid=pulled.divisor.support(),
                                   samples=8)
        assert rep["pass"]


def test_pushforward_after_pullback_is_norm_power():
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    g2 = build_g_a(F4, 2)
    pulled = g2.pullback(PHI_ELL)
    push = pulled.pushforward_evaluator(lat, PHI_ELL)
    power = lambda z: g2.evaluate(lat, z) ** PHI_ELL.norm()
    rep = equal_up_to_constant(push, power, lat,
                               avoid=g2.divisor.support(),
                               samples=6)
    assert rep["pass"]


def test_parity():
    lat = AnalyticLattice(F4, 160)
    g2 = build_g_a(F4, 2)
    # structural: the divisor is symmetric, so the [-1]-pullback is the
    # identical object
    assert g2.pullback(F4.element(-1)) == g2
    x, y = Fraction(0.321), Fraction(0.177)
    z, minus_z = coords(x, y), coords(-x, -y)
    with lat.context():
        ratio = g2.evaluate(lat, minus_z) / g2.evaluate(lat, z)
        # the parity constant is an exact sign; for the 2-division product
        # on this lattice it lands on -1
        assert abs(ratio + 1) < mp.mpf(10) ** -40
        g3 = build_g_a(F4, 3)
        ratio3 = g3.evaluate(lat, minus_z) / g3.evaluate(lat, z)
        assert min(abs(ratio3 - 1), abs(ratio3 + 1)) < mp.mpf(10) ** -40
    gamma = TorsionPoint(F4, 0, 1, 3)
    t = build_t_gamma(F4, 3, gamma)
    t_neg = build_t_gamma(F4, 3, -gamma)
    assert t.pullback(F4.element(-1)) == t_neg
    with lat.context():
        ratio = t.evaluate(lat, minus_z) / t_neg.evaluate(lat, z)
        assert abs(abs(ratio) - 1) < mp.mpf(10) ** -40


def test_route_agreement_with_x_coordinate_products():
    """sigma route and x-coordinate route differ by a constant:
    g_3 * G_alt and g_2^2 * G_alt are both constant in z.  The constants
    are not of modulus one, so the scan, which always judges the modulus
    too, fails while the spread passes."""
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    g3 = build_g_a(F4, 3)
    alt3 = wp_route_evaluator(F4, 3, lat)
    avoid = set(g3.divisor.support()) | set(torsion_subgroup(F4.ideal(3)))
    prod3 = lambda z: g3.evaluate(lat, z) * alt3(z)
    one = lambda z: mp.mpc(1)
    rep = equal_up_to_constant(prod3, one, lat, avoid=avoid, samples=8)
    assert lat.within(rep["spread"]) and not rep["pass"]

    g2 = build_g_a(F4, 2)
    alt2 = wp_route_evaluator(F4, 2, lat)
    avoid = set(g2.divisor.support()) | set(torsion_subgroup(F4.ideal(2)))
    prod2 = lambda z: g2.evaluate(lat, z) ** 2 * alt2(z)
    rep = equal_up_to_constant(prod2, one, lat, avoid=avoid, samples=8)
    assert lat.within(rep["spread"]) and not rep["pass"]


def test_equal_up_to_constant_rejects_nonproportional():
    lat = AnalyticLattice(F4, 128, mp.mpf(10) ** -30)
    g2 = build_g_a(F4, 2)
    g3 = build_g_a(F4, 3)
    avoid = set(g2.divisor.support()) | set(g3.divisor.support())
    rep = equal_up_to_constant(evaluator(g2, lat), evaluator(g3, lat), lat,
                               avoid=avoid, samples=6)
    assert not rep["pass"] and not lat.within(rep["spread"])
    # one ratio cannot show that the ratio is not constant
    with pytest.raises(ValueError, match="two sample points"):
        equal_up_to_constant(evaluator(g2, lat), evaluator(g3, lat), lat,
                             avoid=avoid, samples=1)


def test_two_point_builders():
    s = build_s_m(SYS, M_SPLIT)
    k = (M_SPLIT * SYS.f_level).norm
    assert k == 40
    y = SYS.y(M_SPLIT)
    assert s.divisor.multiplicity(y) == k
    assert s.divisor.multiplicity(O()) == -k
    assert s.divisor.is_principal()
    # a scale that does not clear denominators is rejected
    with pytest.raises(ValueError):
        build_s_point(y, 3)
    with pytest.raises(ValueError):
        build_s_point(O(), 40)
    # explicit common-scale variant
    k2 = (M_SPLIT * ELL * SYS.f_level).norm
    s2 = build_s_m(SYS, M_SPLIT, scale=k2)
    assert s2.divisor.multiplicity(y) == k2


def test_pole_errors():
    lat = AnalyticLattice(F4, 128)
    g2 = build_g_a(F4, 2)
    with pytest.raises(PoleError):
        g2.evaluate(lat, TorsionPoint(F4, 1, 0, 2))
    with pytest.raises(PoleError):
        g2.evaluate(lat, coords(Fraction(1, 2), 0))
    # a lift of the pole 1/2 outside the unit square is a pole too
    with pytest.raises(PoleError):
        g2.evaluate(lat, coords(Fraction(3, 2), -1))
    # a neighboring torsion point, and a point 1e-40 off the pole, evaluate fine
    val = g2.evaluate(lat, TorsionPoint(F4, 1, 0, 3))
    assert val != 0
    near = g2.evaluate(lat, coords(Fraction(1, 2) + Fraction(1, 10**40), 0))
    assert mp.isfinite(near) and near != 0


def test_lattice_points_are_poles_of_zeta_and_wp():
    # zeta, wp and wp' have a pole at every lattice point; each names it
    lat = AnalyticLattice(F4, 128)
    for fn in (lat.zeta, lat.wp, lat.wp_prime):
        for x, y in ((1, 0), (-2, 3)):
            with pytest.raises(PoleError, match=re.escape(str(F4.element(x, y)))):
                fn(x, y, 1)
    route = wp_route_evaluator(F4, 2, lat)
    with pytest.raises(PoleError, match=re.escape(str(F4.element(2, 1)))):
        route(coords(2, 1))
    # sigma has a zero there, and returns its leading coefficient
    assert sigma_value(lat, 1, 0, 1) != 0


def test_complex_points_are_rejected():
    # an evaluation point is a TorsionPoint or (X, Y, D) of ints, D > 0:
    # not a complex number, and not a field element either
    lat = AnalyticLattice(F4, 128)
    g2 = build_g_a(F4, 2)
    with lat.context():
        z = embed(lat, Fraction(0.27), Fraction(0.66))
    for z in (z, (1, 2, 0), (1, 2, -3), (1, 2, 3.0), (Fraction(1, 2), 0, 1), (True, 0, 3),
              (1, 2), [1, 2, 3], F4.element(1, 2)):
        for method in (g2.evaluate, g2.leading_at):
            with pytest.raises(TypeError, match=re.escape("TorsionPoint or (X, Y, D)")):
                method(lat, z)


def test_lazy_const_atoms():
    lat = AnalyticLattice(F4, 128)
    g2 = build_g_a(F4, 2)
    P = TorsionPoint(F4, 1, 2, 5)
    atom = ConstAtom(fn=g2, point=P, exponent=-1)
    with lat.context():
        v = atom.evaluate(lat)
        assert abs(v * g2.evaluate(lat, P) - 1) < mp.mpf(10) ** -30
    exact = ConstAtom(exact=Fraction(-3, 7))
    with lat.context():
        assert exact.evaluate(lat) == mp.mpf(-3) / 7
    # a constant has order 0 everywhere and is its own leading coefficient
    assert atom.order_at(P) == exact.order_at(O()) == 0
    with lat.context():
        assert atom.leading_at(lat, O()) == v
    scaled = g2.scaled_by(atom)
    assert scaled != g2
    assert scaled.order_at(P) == 0
    with lat.context():
        z = coords(Fraction(0.27), Fraction(0.66))
        # the constant multiplies after the normalized product, bit for bit
        assert scaled.evaluate(lat, z) == g2.evaluate(lat, z) * v
        assert scaled.leading_at(lat, O()) == g2.leading_at(lat, O()) * v


@pytest.mark.parametrize("d", (-4, -3, -163))
def test_points_off_lowest_terms_evaluate_bit_identically(d):
    # times returns alpha z over z's denominator, not in lowest terms:
    # evaluate and leading_at at (kX, kY, kD) must give the bits of (X, Y, D)
    K = QuadField(d)
    lat = AnalyticLattice(K, 256)
    P = TorsionPoint(K, 1, 2, 5)
    fns = (build_g_a(K, 2), build_s_point(P, 5))
    rng = random.Random(d)
    points = [dyadic_point(rng.random(), rng.random()), (-7, 3, 11)]
    for f in fns:
        for X, Y, D in points:
            want = f.evaluate(lat, (X, Y, D))._mpc_
            assert all(f.evaluate(lat, (k * X, k * Y, k * D))._mpc_ == want for k in (2, 3))
        for Q in (P, O(K)):
            want = f.leading_at(lat, Q)._mpc_
            assert all(f.leading_at(lat, (k * Q.X, k * Q.Y, k * Q.D))._mpc_ == want
                       for k in (2, 3))


def test_sample_points_deterministic_and_avoiding():
    lat = AnalyticLattice(F4, 128)
    avoid = build_g_a(F4, 2).divisor.support()
    a = sample_points(lat, 7, 5, avoid)
    b = sample_points(lat, 7, 5, avoid)
    assert a == b
    assert len(a) == 5
    with lat.context():
        for X, Y, D in a:
            z = embed(lat, Fraction(X, D), Fraction(Y, D))
            for P in avoid:
                # distance to the nearest point of P + lattice, over the
                # lattice points around the offset
                offset = z - embed(lat, *lift(P))
                assert min(abs(offset - (m + n * lat.tau))
                           for m in range(-2, 3) for n in range(-2, 3)) > 1e-3


@pytest.mark.parametrize("d", (-4, -3, -163))
def test_warm_evaluation_is_bit_identical(d):
    # the second round reads the sigma memo and the cached normalization
    # constant; both rounds must match a fresh lattice to the bit
    K = QuadField(d)
    f = build_g_a(K, 2)
    points = [coords(Fraction(1, 3), Fraction(1, 7)),
              coords(Fraction(2, 5), Fraction(-1, 3)),
              TorsionPoint(K, 1, 0, 3)]
    warm = AnalyticLattice(K, 256)
    first = [f.evaluate(warm, z)._mpc_ for z in points]
    again = [f.evaluate(warm, z)._mpc_ for z in points]
    fresh = [build_g_a(K, 2).evaluate(AnalyticLattice(K, 256), z)._mpc_ for z in points]
    assert first == again == fresh


# --- accuracy against a 768-bit evaluation -------------------------------------

DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
# largest relative error of evaluate and leading_at against the same call
# at 768 bits: about 2^-30 of the precision (1e-86 is 2^-285.7)
ACCURACY = {256: mp.mpf(10) ** -86, 512: mp.mpf(10) ** -163}


def _odd_split_prime(K):
    p = 5
    while not (is_rational_prime(p) and split_rational_prime(K, p)[0] == "split"):
        p += 1
    return split_rational_prime(K, p)[1][0]


def _accuracy_cases(K):
    """g_2, t_gamma, g_ell, the two-point function at scale 1000, whose lift
    sum (300, 700) is large, and a two-point function off the origin, whose
    Legendre phase exp(pi i (r0 lam_y - s0 lam_x)) = i is not 1."""
    P = TorsionPoint(K, 3, 7, 10)
    Q = TorsionPoint(K, 1, 2, 4)
    return {
        "g_2": build_g_a(K, 2),
        "t_gamma": build_t_gamma(K, 2, TorsionPoint(K, 1, 0, 2)),
        "g_ell": build_g_l(_odd_split_prime(K)),
        "s_P": build_s_point(P, 1000),
        "P-Q": EllFunction.from_divisor(Divisor(K, {P: 20, Q: -20})),
    }


def _shifted_copy_product(f, lat, x, y):
    """The oracle: the sigma product whose lift sum is zero because one
    sigma copy of the first support point P0 (multiplicity m0, sign e) is
    moved by -e lam, times exp(-(1/2) sum_i e_i eta(u_i) u_i) over its
    lifts u_i.  At a lattice offset sigma gives its leading coefficient,
    so this is also the leading coefficient at a support point.  x and y
    are the plane coordinates of the point."""
    lifts = list(fraction_lifts(f))
    lx, ly = f.lam
    if (lx, ly) != (0, 0):
        r0, s0, m0 = lifts[0]
        e = 1 if m0 > 0 else -1
        lifts[:1] = [(r0 - e * lx, s0 - e * ly, e)] + ([(r0, s0, m0 - e)] if m0 != e else [])
    with lat.context():
        out = mp.exp(-sum(m * eta_linear(lat, r, s) * embed(lat, r, s)
                          for r, s, m in lifts) / 2)
        for r, s, m in lifts:
            out = out * sigma_value(lat, *coords(x - r, y - s)) ** m
        return out


def _accuracy_failures(prec):
    """(d, function, call, point, relative error) for every call above
    ACCURACY[prec] against the shifted-copy product at 768 bits: evaluate
    at two seeded points of each field, and leading_at at the first three
    support points of each function.  The same call at 768 bits would not
    do as the reference: an exact-algebra fault, such as a dropped phase,
    would carry over to it."""
    bad = []
    for d in DISCRIMINANTS:
        K = QuadField(d)
        lat, ref = AnalyticLattice(K, prec), AnalyticLattice(K, 768)
        rng = random.Random(d)
        points = [(Fraction(rng.random()), Fraction(rng.random())) for _ in range(2)]
        for name, f in _accuracy_cases(K).items():
            calls = ([("evaluate", coords(*w), w) for w in points]
                     + [("leading_at", P, lift(P)) for P in f.divisor.support()[:3]])
            for call, z, w in calls:
                got, want = getattr(f, call)(lat, z), _shifted_copy_product(f, ref, *w)
                with ref.context():
                    err = abs(got - want) / abs(want)
                if err > ACCURACY[prec]:
                    bad.append((d, name, call, str(z), mp.nstr(err, 3)))
    return bad


@pytest.mark.parametrize("prec", (256, 512))
def test_products_match_a_768_bit_evaluation(prec):
    assert _accuracy_failures(prec) == []


def _without_legendre_phase():
    constants = EllFunction._constants

    def patched(self):
        *exponent, h, den = constants(self)
        # the phase pi (r0 ly - s0 lx), r0 = R0/e, is 2 e (R0 ly - S0 lx) over den
        (R0, S0, _m), (lx, ly) = self.lifts[0], self.lam
        return (*exponent, h - 2 * self.den * (R0 * ly - S0 * lx), den)
    return EllFunction, "_constants", patched


def _lam_squared_cancelling_numerically():
    # the shifted-copy form carries exp(-eta(lam) lam / 2) in the
    # normalization, from the quadratic form of the lifts, and
    # exp(+eta(lam) lam / 2) in the copy's quasi-period factor; rounded
    # apart, they cancel only numerically
    fold = EllFunction._fold

    def patched(self, lat, z, k, into, poles):
        out = fold(self, lat, z, k, into, poles)
        lx, ly = self.lam
        with lat.context():
            copy = eta_linear(lat, lx, ly) * embed(lat, lx, ly) / 2
            norm = (frac(lx * lx) * lat.eta1
                    + frac(lx * ly) * (lat.eta1 * lat.tau + lat.eta_omega)
                    + frac(ly * ly) * lat.eta_omega * lat.tau) / 2
            return out * mp.exp(copy) * mp.exp(-norm)
    return EllFunction, "_fold", patched


def _power_short_of_guard_bits():
    # the integer power of s_P's ratio (scale 1000) at 64 bits less than
    # its working precision: its roundings, amplified by the squarings,
    # reach the last bits of the result
    power = analytic._power
    return analytic, "_power", lambda g, m, bits: power(g, m, bits - 64)


@pytest.mark.parametrize("fault", (_without_legendre_phase,
                                   _lam_squared_cancelling_numerically,
                                   _power_short_of_guard_bits))
def test_accuracy_fault_controls(fault, monkeypatch):
    monkeypatch.setattr(*fault())
    assert _accuracy_failures(256)


# --- one fold per value against the per-factor product ---------------------------


def _per_factor(lat, f, z):
    """C' exp(eta(lam) z) prod_P value(sigma(z - p))^(m_P) at the exact
    point z: C' and eta(lam) by the mpmath formulas of the divisors
    docstring, each sigma a number of its own (a one-point kernel call at
    z - p), all multiplied at prec + 64 bits.  At a support point the
    lattice-point factor is sigma's leading coefficient, so this is the
    leading coefficient there."""
    X, Y, D = (z.X, z.Y, z.D) if isinstance(z, TorsionPoint) else z
    x, y = Fraction(X, D), Fraction(Y, D)
    lifts = fraction_lifts(f)
    (r0, s0, _m0), (lx, ly) = lifts[0], f.lam
    with mp.workprec(lat.prec + 64):
        out = translation_sign(lx, ly) * mp.expjpi(frac(r0 * ly - s0 * lx))
        out *= mp.exp(-sum(m * eta_linear(lat, r, s) * embed(lat, r, s)
                           for r, s, m in lifts) / 2)
        out *= mp.exp(eta_linear(lat, lx, ly) * embed(lat, x, y))
        for r, s, m in lifts:
            out *= sigma_value(lat, *coords(x - r, y - s)) ** m
        return out


def _fold_failures(prec):
    """(d, value, point, relative error) for every folded value further
    than 2^-prec from its per-factor product: evaluate at a seeded point
    and leading_at at two support points of each accuracy case, the fiber
    product of g_2 over multiplication by a split prime above that point,
    and the tame value of {g_3, t_gamma} at gamma to the power 3, whose
    orders -1 and 3 make its sign -1."""
    bad = []

    def check(d, name, z, got, want):
        with mp.workprec(prec + 64):
            err = abs(got - want) / abs(want)
            if err >= mp.mpf(2) ** -prec:
                bad.append((d, name, str(z), mp.nstr(err, 3)))

    for d in DISCRIMINANTS:
        K = QuadField(d)
        lat = AnalyticLattice(K, prec)
        rng = random.Random(d + prec)
        z = dyadic_point(rng.random(), rng.random())
        cases = _accuracy_cases(K)
        for name, f in cases.items():
            check(d, name, z, f.evaluate(lat, z), _per_factor(lat, f, z))
            for P in f.divisor.support()[:2]:
                check(d, name, P, f.leading_at(lat, P), _per_factor(lat, f, P))
        g = cases["g_2"]
        alpha = _odd_split_prime(K).gen
        Q = TorsionPoint(K, *z)
        with mp.workprec(prec + 64):
            want = mp.fprod(_per_factor(lat, g, u) for u in preimage_set(Q, alpha))
        check(d, "fiber", Q, g.pushforward_evaluator(lat, alpha)(z), want)
        gamma = next(P for P in torsion_subgroup(K.ideal(3)) if not P.is_zero())
        g3, t3 = build_g_a(K, 3), build_t_gamma(K, 3, gamma)
        m, n = g3.order_at(gamma), t3.order_at(gamma)
        with mp.workprec(prec + 64):
            want = ((-1 if 3 * m * n % 2 else 1) * _per_factor(lat, g3, gamma) ** (3 * n)
                    * _per_factor(lat, t3, gamma) ** (-3 * m))
        check(d, "tame", gamma, term_tame(lat, gamma, g3, t3, 3), want)
    return bad


@pytest.mark.parametrize("prec", (256, 512))
def test_fold_matches_the_per_factor_product(prec):
    assert _fold_failures(prec) == []


def _fold_without_one_exponent():
    # the last sigma factor's exponent left out of the sum
    fold = AnalyticLattice.fold

    def patched(lat, terms):
        terms = list(terms)
        i = max((j for j, ((_e, series), _k) in enumerate(terms) if series is not None),
                default=None)
        if i is not None:
            (_e, series), k = terms[i]
            terms[i] = (((0, 0, 0, 0, 0, 1), series), k)
        return fold(lat, terms)
    return AnalyticLattice, "fold", patched


def _fold_without_multiplicity_on_exponents():
    # each exponent summed once, whatever the power of its factor
    fold = AnalyticLattice.fold

    def patched(lat, terms):
        return fold(lat, [t for (exponent, series), k in terms
                          for t in (((exponent, None), 1),
                                    (((0, 0, 0, 0, 0, 1), series), k))])
    return AnalyticLattice, "fold", patched


def _sigma_at_an_unreduced_lift():
    # the kernel handed the lift u + 1, a lattice unit out, while C' keeps
    # u; one-point calls (u = 0), the reference's, are left alone
    kernel = AnalyticLattice.sigma

    def patched(lat, X, Y, D, R=0, S=0, E=1):
        return kernel(lat, X, Y, D, R + E if R or S else R, S, E)
    return AnalyticLattice, "sigma", patched


@pytest.mark.parametrize("fault", (_fold_without_one_exponent,
                                   _fold_without_multiplicity_on_exponents,
                                   _sigma_at_an_unreduced_lift))
def test_fold_fault_controls(fault, monkeypatch):
    monkeypatch.setattr(*fault())
    assert _fold_failures(256)


# --- one exact-point format from evaluate to the kernel --------------------------


def _fraction_calls(run):
    """{function name: call count} of fractions.py while run() runs under
    cProfile."""
    profile = cProfile.Profile()
    profile.runcall(run)
    return {name: stat[1] for (path, _line, name), stat in pstats.Stats(profile).stats.items()
            if path.endswith("fractions.py")}


def test_evaluation_path_builds_no_fraction():
    # an evaluation point is integers over one denominator, so evaluate
    # and leading_at run no code of fractions.py at all: constructors,
    # properties and arithmetic all count, on every Python version
    lat = AnalyticLattice(F4, 256)
    with lat.context():  # warm the lattice's fixed-point constants
        build_g_a(F4, 2).evaluate(lat, coords(Fraction(0.3), Fraction(0.6)))
    g3 = build_g_a(F4, 3)
    s = build_s_point(TorsionPoint(F4, 1, 2, 5), 5)
    rng = random.Random(41)
    samples = [coords(Fraction(rng.random()), Fraction(rng.random())) for _ in range(3)]
    calls = [(f, "evaluate", z) for f in (g3, s) for z in samples]
    calls += [(f, "leading_at", f.divisor.support()[1]) for f in (g3, s)]

    def run():
        for f, method, z in calls:
            getattr(f, method)(lat, z)

    assert _fraction_calls(run) == {}


def test_default_grid_runs_no_fraction_code(tmp_path):
    # the whole default grid, exact and numeric commands, in-process
    out = str(tmp_path / "all.jsonl")
    assert _fraction_calls(lambda: cli.main(["all", "--out", out])) == {}


@pytest.mark.parametrize("d, conductor, ell", [(-4, "(1+i)^3", "2+i"), (-3, "3", "2+w")])
def test_torsion_layer_builds_no_fraction(d, conductor, ell):
    # a torsion point is integers over one denominator, so the exact maps
    # on points, and a fiber product evaluated at one, run no code of
    # fractions.py at all (str, which renders Fractions' text, is not run)
    K = QuadField(d)
    sys = TorsionSystem(HeckeCharacter(K, K.ideal(conductor)))
    l = K.ideal(ell)
    m = l.conjugate()
    alpha = sys.chi.evaluate(l)
    P, P2, Q = sys.y(m * l), sys.y(l * l), sys.y(m)
    lat = AnalyticLattice(K, 128)
    g = build_g_a(K, 2)
    with lat.context():  # warm the lattice's fixed-point constants
        g.evaluate(lat, P)
    fiber_product = g.pushforward_evaluator(lat, alpha)

    def run():
        P.act(alpha), P.act(3), P + Q, P - Q, -P
        division_point(alpha)
        torsion_subgroup(l)
        preimage_set(Q, alpha)
        crt_split(P, l)
        galois_conjugates(P, l, "multiplicative")
        galois_conjugates(P2, l, "additive")
        fiber_product(Q)

    assert _fraction_calls(run) == {}


def _kernel_runs_and_offsets(monkeypatch):
    """(kernel runs, distinct exact offsets z - u) when g_2, lift
    denominator 2, and a two-point function at a 1/5-point, lift
    denominator 5, are evaluated at the same points.  Both have a lift at
    0, so both reach each offset z - 0."""
    runs = []
    kernel = AnalyticLattice.sigma
    monkeypatch.setattr(AnalyticLattice, "sigma",
                        lambda lat, *c: runs.append(c) or kernel(lat, *c))
    lat = AnalyticLattice(F4, 128)
    fns = (build_g_a(F4, 2), build_s_point(TorsionPoint(F4, 1, 2, 5), 5))
    assert [f.den for f in fns] == [2, 5]
    points = ((Fraction(1, 3), Fraction(1, 7)), (Fraction(0.3), Fraction(0.6)))
    offsets = []
    with lat.context():
        for f in fns:
            for x, y in points:
                f.evaluate(lat, coords(x, y))
                offsets += [(x - r, y - s) for r, s, _m in fraction_lifts(f)]
    assert len(set(offsets)) < len(offsets)  # the offsets z - 0 are shared
    return runs, set(offsets)


def test_memo_key_is_the_offset_in_lowest_terms(monkeypatch):
    runs, offsets = _kernel_runs_and_offsets(monkeypatch)
    assert len(runs) == len(offsets)


def test_memo_key_fault_control(monkeypatch):
    # a key left over the common denominator of z and the lifts, without
    # the gcd, keys one offset twice
    monkeypatch.setattr(divisors, "math", types.SimpleNamespace(lcm=math.lcm, gcd=lambda *a: 1))
    runs, offsets = _kernel_runs_and_offsets(monkeypatch)
    assert len(runs) > len(offsets)
