import random
from fractions import Fraction

import pytest

from cmk2.hecke import HeckeCharacter
from cmk2.qfield import CLASS_NUMBER_ONE_DISCRIMINANTS, QuadField, QuadIdeal
from cmk2.torsion import (
    TorsionPoint,
    TorsionSystem,
    crt_split,
    division_point,
    galois_conjugates,
    preimage_set,
    torsion_subgroup,
)
from oracles import coords, lift

GAUSS = QuadField(-4)
F_PHI = GAUSS.ideal("(1+i)^3")


@pytest.fixture(scope="module")
def sys():
    return TorsionSystem(HeckeCharacter(GAUSS, F_PHI))


def P(r, s):
    return TorsionPoint(GAUSS, *coords(r, s))


def test_point_normalization_and_ops():
    assert P(Fraction(5, 4), Fraction(-1, 4)) == P(Fraction(1, 4), Fraction(3, 4))
    assert (P(Fraction(1, 2), 0) + P(Fraction(1, 2), 0)).is_zero()
    assert -P(Fraction(1, 4), 0) == P(Fraction(3, 4), 0)
    assert str(P(Fraction(3, 4), Fraction(1, 2))) == "3/4+1/2*w"


def _misordered() -> list[str]:
    """The point sets, E[N] for N = 2, 3, 5 at all nine fields and
    E[(2+i)^2] at d = -4, on which sorted() disagrees with the order of
    the rational coordinates (X/D, Y/D)."""
    cases = [(d, N) for d in CLASS_NUMBER_ONE_DISCRIMINANTS for N in (2, 3, 5)]
    cases.append((-4, "(2+i)^2"))
    rng = random.Random(5)
    bad = []
    for d, N in cases:
        points = torsion_subgroup(QuadField(d).ideal(N))
        if sorted(rng.sample(points, len(points))) != sorted(points, key=lift):
            bad.append((d, N))
    return bad


def test_points_sort_by_rational_coordinates():
    assert _misordered() == []


def test_order_without_cross_multiplication_is_caught(monkeypatch):
    # comparing raw numerators ignores the denominators, which differ
    # within E[(2+i)^2]: 1/5 and 3/25 are both there
    monkeypatch.setattr(TorsionPoint, "__lt__", lambda P, Q: (P.X, P.Y) < (Q.X, Q.Y))
    assert (-4, "(2+i)^2") in _misordered()


def test_act_matches_element_multiplication():
    rng = random.Random(8)
    for _ in range(40):
        X, Y, D = coords(Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)),
                         Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)))
        alpha = GAUSS.element(rng.randrange(-5, 6), rng.randrange(-5, 6))
        if alpha.is_zero():
            continue
        left = TorsionPoint(GAUSS, X, Y, D).act(alpha)
        num = GAUSS.element(X, Y) * alpha
        assert left == TorsionPoint(GAUSS, num.x, num.y, D)


def test_annihilator_examples():
    assert P(0, 0).annihilator() == GAUSS.ideal(1)
    assert P(Fraction(1, 2), 0).annihilator() == GAUSS.ideal(2)
    # 1/(2+i) has annihilator exactly (2+i)
    pt = division_point(GAUSS.parse("2+i"))
    assert pt.annihilator() == GAUSS.ideal("2+i")
    # (1/2, 1/2) is killed by 1+i: (1+i)(1/2 + i/2) = i
    assert P(Fraction(1, 2), Fraction(1, 2)).annihilator() == GAUSS.ideal("1+i")


def test_annihilator_is_minimal():
    rng = random.Random(12)
    from cmk2.qfield import factor_ideal

    for _ in range(25):
        pt = P(
            Fraction(rng.randrange(12), 12),
            Fraction(rng.randrange(12), 12),
        )
        ann = pt.annihilator()
        assert pt.act(ann.gen).is_zero()
        if not ann.is_one():
            for pr, _e in factor_ideal(ann):
                smaller = ann.gen.exact_div(pr.gen)
                assert not pt.act(smaller).is_zero()


def test_torsion_subgroup_and_integer_torsion():
    E2 = torsion_subgroup(GAUSS.ideal(2))
    assert len(E2) == 4
    assert {(p.X, p.Y, p.D) for p in E2} == {(0, 0, 1), (1, 0, 2), (0, 1, 2), (1, 1, 2)}
    El = torsion_subgroup(GAUSS.ideal("2+i"))
    assert len(El) == 5
    for pt in El:
        assert pt.act(GAUSS.parse("2+i")).is_zero()
    assert torsion_subgroup(GAUSS.ideal(1)) == [P(0, 0)]


def test_x_frozen_values(sys):
    assert sys.x(GAUSS.ideal(1)).is_zero()
    x = sys.x(GAUSS.ideal("2-i"))
    assert (x.X, x.Y, x.D) == (4, 2, 5)
    assert sys.x_f == P(Fraction(1, 4), Fraction(3, 4))


def test_x_compatibility(sys):
    l = GAUSS.ideal("2+i")
    m = GAUSS.ideal("2-i")
    xml = sys.x(m * l)
    phi_l = sys.chi.evaluate(l)
    assert xml.act(phi_l) == sys.x(m)
    assert sys.x(m * l).annihilator() == m * l


def test_y_compatibility_exact(sys):
    # phi(l) * y_{ml} = y_m for several (m, l)
    pairs = [
        ("1", "2+i"),
        ("2-i", "2+i"),
        ("2+i", "3+2*i"),
        ("(2+i)*(2-i)", "4+i"),
    ]
    for m_text, l_text in pairs:
        m, l = GAUSS.ideal(m_text), GAUSS.ideal(l_text)
        y_m = sys.y(m)
        y_ml = sys.y(m * l)
        assert y_ml.act(sys.chi.evaluate(l)) == y_m
        assert y_m.annihilator().divides(m * F_PHI)


def test_y_annihilator_full(sys):
    # with beta invertible mod f the shift has full conductor order,
    # so the annihilator is exactly m*f here
    for m_text in ("1", "2-i", "(2+i)^2"):
        m = GAUSS.ideal(m_text)
        assert sys.y(m).annihilator() == m * F_PHI


def test_y_rejects_non_coprime(sys):
    with pytest.raises(ValueError):
        sys.y(GAUSS.ideal("1+i"))


def test_preimage_set_of_zero_is_kernel():
    # torsion_subgroup is this fiber, so the kernel is also found by brute
    # force: the points of (1/N)O/O, N = N(alpha), that alpha kills
    for alpha in (GAUSS.element(2), GAUSS.parse("2+i"), GAUSS.parse("(2+i)^2")):
        n = alpha.norm()
        kernel = {pt for pt in (TorsionPoint(GAUSS, X, Y, n) for X in range(n) for Y in range(n))
                  if pt.act(alpha).is_zero()}
        fiber = preimage_set(P(0, 0), alpha)
        assert set(fiber) == kernel and len(fiber) == n
        assert fiber == torsion_subgroup(QuadIdeal(alpha))


def test_preimage_set_cardinality_and_membership(sys):
    rng = random.Random(3)
    for _ in range(10):
        Q = P(Fraction(rng.randrange(8), 8), Fraction(rng.randrange(8), 8))
        alpha = GAUSS.element(rng.randrange(-3, 4), rng.randrange(-3, 4))
        if alpha.is_zero():
            continue
        fiber = preimage_set(Q, alpha)
        assert len(fiber) == alpha.norm()
        for u in fiber:
            assert u.act(alpha) == Q


def test_crt_split(sys):
    l = GAUSS.ideal("2+i")
    y = sys.y(GAUSS.ideal("2+i"))  # annihilator (2+i) * f
    P_l, P_rest = crt_split(y, l)
    assert P_l + P_rest == y
    assert P_l.annihilator() == l
    assert P_rest.annihilator() == F_PHI
    # splitting at a prime not dividing the annihilator is trivial
    z, rest = crt_split(y, GAUSS.ideal("3+2*i"))
    assert z.is_zero() and rest == y


def test_galois_conjugates_sizes(sys):
    l = GAUSS.ideal("2+i")
    m = GAUSS.ideal("2-i")
    y_ml = sys.y(m * l)  # v_l = 1: multiplicative case
    orbit = galois_conjugates(y_ml, l, "multiplicative")
    assert len(orbit) == 4
    assert y_ml in orbit
    # all conjugates share the prime-to-l component
    _, rest0 = crt_split(y_ml, l)
    for c in orbit:
        _, rest = crt_split(c, l)
        assert rest == rest0
    with pytest.raises(ValueError):
        galois_conjugates(y_ml, l, "additive")

    y_m2l = sys.y(l * l)  # v_l = 2: additive case
    orbit2 = galois_conjugates(y_m2l, l, "additive")
    assert len(orbit2) == 5
    assert y_m2l in orbit2
    with pytest.raises(ValueError):
        galois_conjugates(y_m2l, l, "multiplicative")


def test_e1_preimage_union(sys):
    # fiber over y_m under phi(l), l | m: exactly the additive conjugates of y_{ml}
    l = GAUSS.ideal("2+i")
    m = l  # so l | m and ml = l^2
    y_m = sys.y(m)
    y_ml = sys.y(m * l)
    fiber = preimage_set(y_m, sys.chi.evaluate(l))
    assert fiber == galois_conjugates(y_ml, l, "additive")


def test_e2_preimage_union(sys):
    # fiber over y_m under phi(l), l coprime to m: multiplicative conjugates plus n
    l = GAUSS.ideal("2+i")
    m = GAUSS.ideal("2-i")
    y_m = sys.y(m)
    y_ml = sys.y(m * l)
    n = sys.e2_point(m, l)
    fiber = preimage_set(y_m, sys.chi.evaluate(l))
    expected = sorted(galois_conjugates(y_ml, l, "multiplicative") + [n])
    assert fiber == expected
    assert n.annihilator().divides(m * F_PHI)
    assert n.act(sys.chi.evaluate(l)) == y_m


def test_division_point_annihilator_random():
    rng = random.Random(77)
    for _ in range(15):
        alpha = GAUSS.element(rng.randrange(-6, 7), rng.randrange(-6, 7))
        if alpha.is_zero() or alpha.norm() == 1:
            continue
        assert division_point(alpha).annihilator() == QuadIdeal(alpha)
