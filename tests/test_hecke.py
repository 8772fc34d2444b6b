import pytest

from cmk2.hecke import HeckeCharacter, point_count_check
from cmk2.qfield import QuadField, enumerate_L_R, is_rational_prime, split_rational_prime

GAUSS = QuadField(-4)
F_PHI = GAUSS.ideal("(1+i)^3")


@pytest.fixture(scope="module")
def chi():
    return HeckeCharacter(GAUSS, F_PHI)


def test_constructor_rejects_non_injective_conductor():
    # mod (1+i)^2 = (2i) the units collapse: i = -i
    with pytest.raises(ValueError):
        HeckeCharacter(GAUSS, GAUSS.ideal("(1+i)^2"))
    with pytest.raises(ValueError):
        HeckeCharacter(GAUSS, GAUSS.ideal("1+i"))
    HeckeCharacter(GAUSS, F_PHI)  # and the cube is fine


def test_evaluate_frozen_values(chi):
    cases = {
        "1": "1",
        "2+i": "-1+2*i",
        "2-i": "-1-2*i",
        "(2+i)^2": "-3-4*i",
        "3+2*i": "3+2*i",
        "3-2*i": "3-2*i",
        "4+i": "1-4*i",
        "3": "-3",
        "7": "-7",
    }
    for ideal_text, want in cases.items():
        got = chi.evaluate(GAUSS.ideal(ideal_text))
        assert got == GAUSS.parse(want), (ideal_text, str(got))


def test_evaluate_postconditions(chi):
    _, R = enumerate_L_R(GAUSS, 30, F_PHI, GAUSS.ideal("3-2*i"), a=3)
    one = GAUSS.one()
    for I in R:
        v = chi.evaluate(I)
        assert v.norm() == I.norm
        assert F_PHI.contains(v - one)
        assert GAUSS.ideal(str(v)) == I if not I.is_one() else True


def test_evaluate_multiplicative(chi):
    I = GAUSS.ideal("2+i")
    J = GAUSS.ideal("3+2*i")
    assert chi.evaluate(I * J) == chi.evaluate(I) * chi.evaluate(J)
    assert chi.evaluate(I ** 2) == chi.evaluate(I) ** 2
    assert chi.evaluate(I.conjugate()) == chi.evaluate(I).conjugate()


def test_evaluate_errors(chi):
    with pytest.raises(ValueError):
        chi.evaluate(GAUSS.ideal("1+i"))  # meets the conductor
    with pytest.raises(ValueError):
        chi.evaluate(GAUSS.ideal(2))


def test_split_primes_above(chi):
    p13, p13bar = chi.split_primes_above(13)
    assert p13 == GAUSS.ideal("3+2*i")
    assert p13bar == GAUSS.ideal("3-2*i")
    assert chi.evaluate(p13).y > 0
    p5, p5bar = chi.split_primes_above(5)
    assert chi.evaluate(p5).y > 0
    assert p5bar == p5.conjugate()
    with pytest.raises(ValueError):
        chi.split_primes_above(3)


def test_a_p_frozen(chi):
    assert chi.a_p(5) == -2
    assert chi.a_p(13) == 6
    assert chi.a_p(3) == 0  # inert
    assert chi.a_p(29) == -10
    with pytest.raises(ValueError):
        chi.a_p(2)  # ramified


@pytest.mark.parametrize("d, conductor", ((-4, "(1+i)^3"), (-4, "2+i"), (-3, "3")))
def test_split_traces_match_a_p(d, conductor):
    # one norm-form solution per prime gives the traces a_p computes through
    # split_rational_prime and the ideal's coprimality test
    K = QuadField(d)
    chi = HeckeCharacter(K, K.ideal(conductor))
    want = {p: chi.a_p(p) for p in range(3, 600)
            if is_rational_prime(p) and chi.conductor.norm % p
            and split_rational_prime(K, p)[0] == "split"}
    assert want and chi.split_traces(600) == want
    assert list(chi.split_traces(600)) == sorted(want)


def test_split_traces_reject_unnormalizable_values():
    K = QuadField(-7)
    with pytest.raises(ValueError, match="no generator congruent to 1"):
        HeckeCharacter(K, K.ideal("7")).split_traces(30)


def test_point_count_check(chi):
    for p in (3, 5, 13, 17, 29, 37, 41):
        rep = point_count_check(p, -1, 0, chi.a_p(p))
        assert rep["match"], rep
    rep = point_count_check(5, -1, 0, chi.a_p(5))
    assert rep["a_p_character"] == -2 and rep["curve_points"] == 8


def test_point_count_agreement_sweep(chi):
    # all odd primes below 200, split or inert, good reduction
    for p in range(3, 200, 2):
        kind = None
        try:
            kind, _ = split_rational_prime(GAUSS, p)
        except ValueError:
            continue
        if kind == "ramified":
            continue
        rep = point_count_check(p, -1, 0, chi.a_p(p))
        assert rep["match"], rep
