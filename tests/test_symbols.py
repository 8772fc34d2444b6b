"""Symbol sums, tame certificates, normal forms.

The tame oracle: for a pair with orders m, n at a point and leading
coefficients A, B, the value is (-1)^(m n) A^n B^(-m).  The classical
sanity case {wp, wp'} at the origin gives (+1) * 1^(-3) * (-2)^2 = 4,
with the Laurent leads of wp and wp' pinned by the analytic tests.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from cmk2.analytic import AnalyticLattice
from cmk2.divisors import (
    ConstAtom,
    EllFunction,
    build_g_a,
    build_s_point,
    build_t_gamma,
)
from cmk2.hecke import HeckeCharacter
from cmk2.qfield import QuadField
from cmk2.symbols import (
    SymbolSum,
    build_alpha_prime,
    build_pair_A,
    build_pair_B,
    certify_tame_kernel,
    corestriction,
    difference_is_constant,
    normal_form,
    tame_symbol_at,
    term_tame,
)
from cmk2.torsion import TorsionPoint, TorsionSystem

F4 = QuadField(-4)
CHI = HeckeCharacter(F4, F4.ideal(F4.parse("(1+i)^3")))
SYS = TorsionSystem(CHI)
M_SPLIT = F4.ideal(F4.parse("2-i"))
M_COMP = F4.ideal(F4.parse("(2+i)*(2-i)"))
ELL = F4.ideal(F4.parse("2+i"))
ORIGIN = TorsionPoint(F4, 0, 0)


def s_m(m):
    """The two-point function at y_m, at scale N(m * f-level)."""
    return build_s_point(SYS.y(m), (m * SYS.f_level).norm)


class LaurentStub:
    """Duck-typed function with a pinned order and leading coefficient."""

    def __init__(self, order, lead):
        self._order, self._lead = order, lead

    def order_at(self, P):
        return self._order if P.is_zero() else 0

    def leading_at(self, lat, P, k, into):
        ConstAtom(exact=self._lead).leading_at(lat, P, k, into)


def test_tame_value_of_wp_pair_is_four():
    lat = AnalyticLattice(F4, 128)
    wp = LaurentStub(-2, 1)    # z^-2 + ...
    wpp = LaurentStub(-3, -2)  # -2 z^-3 + ...
    with lat.context():
        v = term_tame(lat, ORIGIN, wp, wpp)
        assert abs(v - 4) < mp.mpf(10) ** -30
    # at a zero or pole of g the scaled side's leading coefficient is c
    # times g's, so the tame value picks up c to the other side's order
    c = ConstAtom(exact=7)
    g, s = build_g_a(F4, 2), s_m(M_SPLIT)
    gc = g.scaled_by(c)
    with lat.context():
        # s has order -40 at the origin and 0 at the 2-torsion point
        for P in (ORIGIN, TorsionPoint(F4, 1, 0, 2)):
            assert g.order_at(P) != 0
            n = s.order_at(P)
            for v, plain, power in ((term_tame(lat, P, gc, s), term_tame(lat, P, g, s), n),
                                    (term_tame(lat, P, s, gc), term_tame(lat, P, s, g), -n)):
                assert abs(v / (plain * mp.mpf(7) ** power) - 1) < mp.mpf(10) ** -30
        # a bare constant has order 0, so against s it is raised to ord s
        v = term_tame(lat, ORIGIN, c, s)
        assert abs(v / mp.mpf(7) ** s.order_at(ORIGIN) - 1) < mp.mpf(10) ** -30


def test_term_tame_exact_shortcut():
    lat = AnalyticLattice(F4, 128)
    stub = LaurentStub(0, 17)
    v = term_tame(lat, ORIGIN, stub, stub)
    assert v == 1 and isinstance(v, int)


def test_alpha_prime_term_counts_and_meta():
    a2 = build_alpha_prime(SYS, M_SPLIT, 2)
    assert a2.term_count() == 4
    a3 = build_alpha_prime(SYS, M_SPLIT, 3)
    assert a3.term_count() == 9
    assert a2.meta["scale"] == 40
    assert a2.meta["kind"] == "alpha-prime"
    # supports: y, 0, and the nonzero a-torsion
    pts = a2.support_points()
    assert SYS.y(M_SPLIT) in pts and ORIGIN in pts
    assert len(pts) == 2 + 3


def test_alpha_prime_degenerate_configurations_rejected():
    gamma = TorsionPoint(F4, 1, 0, 2)
    bad_s = build_s_point(gamma, 4)
    with pytest.raises(ValueError, match="degenerate"):
        build_alpha_prime(SYS, M_SPLIT, 2, s_fn=bad_s)
    bad_g = build_s_point(SYS.y(M_SPLIT), 40)
    with pytest.raises(ValueError, match="degenerate"):
        build_alpha_prime(SYS, M_SPLIT, 2, g_fn=bad_g)


@pytest.mark.parametrize("m,a", [(M_SPLIT, 2), (M_SPLIT, 3), (M_COMP, 2)])
def test_tame_certificate_passes_for_alpha_prime(m, a):
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    sym = build_alpha_prime(SYS, m, a)
    rep = certify_tame_kernel(sym, lat)
    assert rep["pass"]
    assert len(rep["points"]) == 2 + a * a - 1
    with lat.context():
        y = SYS.y(m)
        for row, P in zip(rep["points"], sym.support_points()):
            assert row["point"] == str(P)
            # at y and at the auxiliary torsion the value is literally 1,
            # not merely of modulus 1
            if P == y or (not P.is_zero() and P.act(a).is_zero()):
                if not row["exact"]:
                    assert abs(row["value"] - 1) < mp.mpf(10) ** -35


def test_tame_certificate_fault_controls_fail():
    lat = AnalyticLattice(F4, 128, mp.mpf(10) ** -25)
    sym = build_alpha_prime(SYS, M_SPLIT, 2)
    # dropping the correction terms leaves a bare symbol whose tame values
    # are no longer units
    bare = SymbolSum(F4, sym.terms[:1], sym.meta)
    rep = certify_tame_kernel(bare, lat)
    assert not rep["pass"]
    # flipping one coefficient must also fail
    c0, L0, R0 = sym.terms[1]
    tampered = SymbolSum(F4, [sym.terms[0], (-c0, L0, R0)] + list(sym.terms[2:]),
                         sym.meta)
    rep2 = certify_tame_kernel(tampered, lat)
    assert not rep2["pass"]
    # adding {e^i, s_m} keeps every modulus at one, but e^(ik) is no root
    # of unity: the unity order, not the modulus, must fail it
    e_i = ConstAtom(evaluator=lambda lat: mp.exp(mp.mpc(0, 1)), tag="e^i")
    drift = SymbolSum(F4, [(1, e_i, s_m(M_SPLIT))])
    rep3 = certify_tame_kernel(sym + drift, lat)
    assert not rep3["pass"]
    with lat.context():
        assert all(r["modulus_deviation"] < mp.mpf(10) ** -25 for r in rep3["points"])
    assert any(r["unity_order"] is None for r in rep3["points"])


@pytest.mark.parametrize("prec", (256, 512))
def test_unity_order_uses_the_tolerance_not_its_square_root(prec):
    # {c, g_2} has the tame value 1/c at each nonzero 2-torsion point, where
    # g_2 has a simple pole.  With 1/c = i exp(i delta) exactly on the unit
    # circle, delta = 1e-14 is no root of unity at tol 1e-25, though it is
    # one within sqrt(tol) = 3.2e-13; delta = 1e-60 is the passing control
    lat = AnalyticLattice(F4, prec, mp.mpf(10) ** -25)
    g2 = build_g_a(F4, 2)
    gamma = str(TorsionPoint(F4, 1, 0, 2))

    def certificate(delta):
        c = ConstAtom(evaluator=lambda lat: mp.expj(-mp.pi / 2 - delta),
                      tag=f"i-rotated-by-{delta}")
        return certify_tame_kernel(SymbolSum(F4, [(1, c, g2)]), lat)

    with lat.context():
        near_miss = certificate(mp.mpf(10) ** -14)
        row = next(r for r in near_miss["points"] if r["point"] == gamma)
        assert abs(row["value"] - mp.mpc(0, 1)) > mp.mpf(10) ** -15
        assert row["modulus_deviation"] < mp.mpf(10) ** -25
        assert row["unity_order"] is None
        assert not near_miss["pass"]
        control = certificate(mp.mpf(10) ** -60)
        assert control["pass"]
        assert [r["unity_order"] for r in control["points"]] == [4, 4, 4, 4]


def test_tame_certificate_reports_unity_orders():
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    sym = build_alpha_prime(SYS, M_SPLIT, 2)
    rep = certify_tame_kernel(sym, lat)
    assert rep["unity_bound"] == 24
    for row in rep["points"]:
        assert "unity_order" in row
    # at y the value is 1 on the nose, so the order diagnostic is 1
    y_row = [r for r in rep["points"] if r["point"] == str(SYS.y(M_SPLIT))]
    assert y_row and y_row[0]["unity_order"] == 1


def test_tame_exact_flag_follows_orders(monkeypatch):
    # a computed value of exactly 1 at a point where some term has a
    # nonzero order is still a numeric value with a decimal residual
    lat = AnalyticLattice(F4, 128)
    sym = build_alpha_prime(SYS, M_SPLIT, 2)
    monkeypatch.setattr("cmk2.symbols.tame_symbol_at", lambda *args: 1)
    rep = certify_tame_kernel(sym, lat)
    numeric = 0
    for row, P in zip(rep["points"], sym.support_points()):
        structural = all(L.order_at(P) == 0 and R.order_at(P) == 0
                         for _c, L, R in sym.terms)
        assert row["exact"] == structural, row["point"]
        if not structural:
            numeric += 1
            assert isinstance(row["modulus_deviation"], mp.mpf)
            assert isinstance(row["value"], mp.mpc)
    assert numeric > 0


def test_normal_form_antisymmetry_and_merge():
    g2 = build_g_a(F4, 2)
    s = s_m(M_SPLIT)
    swap = SymbolSum(F4, [(1, g2, s), (1, s, g2)])
    assert normal_form(swap) == []
    sym = build_alpha_prime(SYS, M_SPLIT, 2)
    assert normal_form(sym - sym) == []
    assert normal_form(sym + sym) == normal_form(sym.scale(2))
    # expansion splits the constant off the scaled left side:
    # {g c, s} = {c, s} + {g, s}
    c = ConstAtom(exact=7)
    scaled = SymbolSum(F4, [(1, g2.scaled_by(c), s)])
    split = SymbolSum(F4, [(1, c, s), (1, g2, s)])
    assert normal_form(scaled) == normal_form(split)
    assert len(normal_form(scaled)) == 2
    nf = normal_form(sym)
    assert any(isinstance(L, ConstAtom) for _c, L, _R in nf)
    assert any(isinstance(L, EllFunction) or isinstance(R, EllFunction)
               for _c, L, R in nf)


def test_difference_is_constant_detects_structure():
    base = build_alpha_prime(SYS, M_SPLIT, 2)
    scaled_s = s_m(M_SPLIT).scaled_by(ConstAtom(exact=7))
    pert = build_alpha_prime(SYS, M_SPLIT, 2, s_fn=scaled_s)
    ok, leftover = difference_is_constant(pert, base)
    assert ok
    assert leftover  # the {*, 7} terms survive
    # a genuinely different function on the right is not a constant move
    other = build_s_point(SYS.y(M_COMP), (M_COMP * SYS.f_level).norm)
    pert_bad = build_alpha_prime(SYS, M_COMP, 2, s_fn=other)
    ok2, _ = difference_is_constant(pert_bad, base)
    assert not ok2


def test_perturbations_leave_tame_values_literally_unchanged():
    lat = AnalyticLattice(F4, 160)
    tol = mp.mpf(10) ** -35
    base = build_alpha_prime(SYS, M_SPLIT, 2)
    points = base.support_points()
    with lat.context():
        base_vals = [mp.mpc(tame_symbol_at(base, lat, P)) for P in points]
        perts = [
            build_alpha_prime(SYS, M_SPLIT, 2,
                              s_fn=s_m(M_SPLIT).scaled_by(ConstAtom(exact=7))),
            build_alpha_prime(SYS, M_SPLIT, 2,
                              g_fn=build_g_a(F4, 2).scaled_by(ConstAtom(exact=Fraction(3, 5)))),
            build_alpha_prime(SYS, M_SPLIT, 2,
                              t_builder=lambda gm: build_t_gamma(F4, 2, gm)
                              .scaled_by(ConstAtom(exact=5))),
        ]
        for pert in perts:
            for P, v0 in zip(points, base_vals):
                v1 = mp.mpc(tame_symbol_at(pert, lat, P))
                assert abs(v1 - v0) < tol


def test_map_points_negation_fixes_symmetric_data():
    sym = build_alpha_prime(SYS, M_SPLIT, 2)
    neg = sym.map_points(lambda P: -P)
    # the 2-division function and its torsion are negation-stable, the
    # level point moves to its negative
    assert {str(P) for P in neg.support_points()} == \
        {str(-P) for P in sym.support_points()}
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -30)
    rep = certify_tame_kernel(neg, lat)
    assert rep["pass"]


def test_pair_builders():
    A = build_pair_A(F4, 2, ELL)
    assert A.term_count() == 4
    B = build_pair_B(F4, 2, ELL)
    assert B.term_count() == ELL.norm - 1 == 4
    # degenerate guard: ell = (1+i) has torsion meeting E[2]
    with pytest.raises(ValueError):
        build_pair_B(F4, 2, F4.ideal(F4.parse("1+i")))


def test_alpha_packaging_annotations():
    P13 = F4.ideal(F4.parse("3+2*i"))
    ann = corestriction(SYS, M_SPLIT, P13)
    assert ann["case"] == "p-coprime-to-m"
    assert ann["pushforward_by"] == str(CHI.evaluate(P13))
    assert build_alpha_prime(SYS, M_SPLIT, 2).term_count() == 4
    ann2 = corestriction(SYS, M_SPLIT * P13, P13)
    assert ann2["case"] == "p-divides-m"
    assert ann2["norm_from_level"] == ann2["norm_to_level"]
