import math
import random
from fractions import Fraction

import pytest

from cmk2 import qfield
from cmk2.qfield import (
    CLASS_NUMBER_ONE_DISCRIMINANTS,
    QuadField,
    QuadIdeal,
    canonical_generator,
    enumerate_L_R,
    factor_ideal,
    gcd_elements,
    is_rational_prime,
    norm_form_solution,
    parse_element,
    ray_one_generator,
    residue_invert,
    split_rational_prime,
    valuation,
)
from oracles import euler_inverse, euler_phi

GAUSS = QuadField(-4)
EISEN = QuadField(-3)


def rand_elem(field, rng, span=30):
    return field.element(rng.randrange(-span, span + 1), rng.randrange(-span, span + 1))


# --- base arithmetic ---------------------------------------------------------

def test_discriminant_validation():
    with pytest.raises(ValueError):
        QuadField(-5)
    with pytest.raises(ValueError):
        QuadField(4)
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        w = K.omega()
        # w satisfies w^2 - t*w + n = 0
        assert w * w - K.trace_omega * w + K.norm_omega == K.zero()


def test_norm_matches_complex_embedding():
    # N(x + y*w) agrees with |x + y*w_hat|^2 under the complex embedding
    import math
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        rng = random.Random(d)
        for _ in range(50):
            e = rand_elem(K, rng)
            re = e.x + K.trace_omega * e.y / 2
            im = e.y * math.sqrt(-d) / 2
            assert abs(e.norm() - (re * re + im * im)) < 1e-6


def test_norm_multiplicative_and_conj():
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        rng = random.Random(100 + d)
        for _ in range(80):
            a, b = rand_elem(K, rng), rand_elem(K, rng)
            assert (a * b).norm() == a.norm() * b.norm()
            assert a * a.conjugate() == K.element(a.norm())
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.trace() == (a + a.conjugate()).x


def test_division_is_exact_inverse_of_multiplication():
    # exact_div is the one quotient in O_K; there is no `/`
    for d in (-4, -3, -19, -163):
        K = QuadField(d)
        rng = random.Random(7 * d)
        for _ in range(60):
            a, b = rand_elem(K, rng), rand_elem(K, rng)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        GAUSS.one().exact_div(GAUSS.element(2))
    with pytest.raises(TypeError):
        GAUSS.element(4, 2) / GAUSS.element(2)


def test_fractional_coordinates():
    # an element is an element of O_K: no rational or float coordinate
    # and no rational summand
    for x, y in ((Fraction(1, 2), 0), (0, Fraction(3, 4)), (Fraction(2), 1), (0.5, 0)):
        with pytest.raises(TypeError):
            GAUSS.element(x, y)
    with pytest.raises(TypeError):
        GAUSS.one() + Fraction(1, 2)


def test_unit_groups():
    assert len(GAUSS.units()) == 4
    assert len(EISEN.units()) == 6
    assert len(QuadField(-7).units()) == 2
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        for u in K.units():
            assert u.norm() == 1
        assert len(set(K.units())) == K.unit_order


# --- canonical associates ----------------------------------------------------

def test_canonical_generator_unique_in_orbit():
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        rng = random.Random(d * 13)
        for _ in range(60):
            a = rand_elem(K, rng, span=12)
            if a.is_zero():
                continue
            g = canonical_generator(a)
            orbit = {u * a for u in K.units()}
            assert g in orbit
            assert sum(1 for e in orbit if e.is_canonical()) == 1
            for e in orbit:
                assert canonical_generator(e) == g


def test_canonical_generator_frozen_examples():
    # 5i ~ 5; associates of 5i are {5i, -5, -5i, 5}
    assert canonical_generator(GAUSS.element(0, 5)) == GAUSS.element(5)
    # 2 - i rotates to 1 + 2i
    assert canonical_generator(GAUSS.parse("2-i")) == GAUSS.parse("1+2*i")
    # (1+i)^3 = -2 + 2i rotates to 2 + 2i
    cube = GAUSS.parse("(1+i)^3")
    assert cube == GAUSS.element(-2, 2)
    assert canonical_generator(cube) == GAUSS.element(2, 2)
    # rational integers are already canonical in every field
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        assert canonical_generator(K.element(7)) == K.element(7)
        assert canonical_generator(K.element(-7)) == K.element(7)


def _least_argument_associate(a):
    """Brute-force sector search: the associate whose argument, taken in
    [0, 2*pi), is least.  The sector [0, 2*pi/w_K) holds exactly one
    associate, and y = 0 embeds with imaginary part exactly 0."""
    K = a.field
    re_w, im_w = K.trace_omega / 2, math.sqrt(-K.d) / 2

    def argument(e):
        return math.atan2(e.y * im_w, e.x + e.y * re_w) % (2 * math.pi)

    return min((u * a for u in K.units()), key=argument)


def _sector_mismatches(canonical, count=200):
    bad = []
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        rng = random.Random(d)
        for _ in range(count):
            a = rand_elem(K, rng)
            if not a.is_zero() and canonical(a) != _least_argument_associate(a):
                bad.append(a)
    return bad


def test_canonical_generator_matches_sector_search():
    assert _sector_mismatches(canonical_generator) == []


def test_sector_oracle_fails_for_a_wrong_sector():
    # the associate one unit step further round is canonical for no element
    def rotated(a):
        return canonical_generator(a) * a.field.units()[1]

    assert _sector_mismatches(rotated)


# --- parser ------------------------------------------------------------------

def test_parser_roundtrip_and_forms():
    assert GAUSS.parse("i") == GAUSS.omega()
    assert GAUSS.parse("2-i") == GAUSS.element(2, -1)
    assert GAUSS.parse("(1+i)^3") == GAUSS.element(-2, 2)
    assert GAUSS.parse("-3") == GAUSS.element(-3)
    assert GAUSS.parse("(2+i)*(2-i)") == GAUSS.element(5)
    assert EISEN.parse("1+2*w") == EISEN.element(1, 2)
    assert EISEN.parse("2w") == EISEN.element(0, 2)
    rng = random.Random(5)
    for _ in range(40):
        e = rand_elem(EISEN, rng)
        assert EISEN.parse(str(e)) == e
    with pytest.raises(ValueError):
        EISEN.parse("i")  # only d = -4 aliases i
    with pytest.raises(ValueError):
        GAUSS.parse("2+")
    with pytest.raises(ValueError):
        GAUSS.parse("x")


# --- gcd / ideals ------------------------------------------------------------

def _brute_gcd_norm(a, b):
    # oracle: the ideal (a, b) has norm = #(O/(a,b));
    # count cosets via the lattice spanned by a, wa, b, wb directly
    K = a.field
    w = K.omega()
    rows = [(e.x, e.y) for e in (a, w * a, b, w * b) if not e.is_zero()]
    # integer determinant gcd over all 2x2 minors = lattice index
    import itertools
    g = 0
    for (r1, r2) in itertools.combinations(rows, 2):
        g = _igcd(g, r1[0] * r2[1] - r1[1] * r2[0])
    return abs(g)


def _igcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def test_gcd_matches_lattice_index_oracle():
    # includes the non-Euclidean fields, where naive remainder loops fail
    for d in (-4, -3, -19, -43, -67, -163):
        K = QuadField(d)
        rng = random.Random(d * 31)
        for _ in range(40):
            a, b = rand_elem(K, rng, 15), rand_elem(K, rng, 15)
            if a.is_zero() or b.is_zero():
                continue
            g = gcd_elements(a, b)
            assert g.norm() == _brute_gcd_norm(a, b)
            assert g.divides(a) and g.divides(b)
            assert g.is_canonical()


def test_gcd_frozen_values():
    assert gcd_elements(GAUSS.parse("2+i"), GAUSS.element(5)) == GAUSS.parse("2+i")
    assert gcd_elements(GAUSS.parse("2+i"), GAUSS.parse("2-i")).norm() == 1
    assert gcd_elements(GAUSS.element(4), GAUSS.element(6)) == GAUSS.element(2)
    # zero edge cases
    assert gcd_elements(GAUSS.zero(), GAUSS.parse("2-i")) == GAUSS.parse("1+2*i")


def test_ideal_basics():
    I = GAUSS.ideal("2+i")
    J = GAUSS.ideal("2-i")
    assert I != J
    assert I.norm == 5 and J.norm == 5
    assert I.conjugate() == J
    assert (I * J).norm == 25
    assert GAUSS.ideal(5) == I * J
    assert I.divides(GAUSS.ideal(5))
    assert not I.divides(J)
    assert (I ** 2).norm == 25
    assert I.is_coprime(J)
    assert not I.is_coprime(I * J)
    assert I.gcd(I * J) == I
    # identical generators chosen regardless of associate used to build
    assert GAUSS.ideal("2+i") == GAUSS.ideal("-1+2*i") == GAUSS.ideal("1-2*i")
    # the conjugate prime has the other canonical generator
    assert GAUSS.ideal("2-i") == GAUSS.ideal("1+2*i")


def test_residue_system_size_and_reduction():
    for d in (-4, -3, -19):
        K = QuadField(d)
        rng = random.Random(d * 3)
        for _ in range(12):
            g = rand_elem(K, rng, 6)
            if g.is_zero() or g.norm() == 1:
                continue
            I = QuadIdeal(g)
            reps = list(I.residues())
            assert len(reps) == I.norm
            seen = {I.reduce(r) for r in reps}
            assert len(seen) == I.norm  # reduce is injective on reps
            for r in reps:
                assert I.reduce(r) == r  # idempotent on canonical reps
            e = rand_elem(K, rng, 40)
            assert I.contains(e - I.reduce(e))


def test_lattice_hnf_shape():
    A, B, C = GAUSS.ideal("2+i").lattice_hnf()
    assert A * C == 5 and 0 <= B < A
    A, B, C = GAUSS.ideal("1+i").lattice_hnf()
    assert A * C == 2 and 0 <= B < A


# --- rational primes and splitting --------------------------------------------

def test_miller_rabin_against_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_rational_prime(n) == sieve[n]


def test_split_rational_prime_gauss():
    kind, primes = split_rational_prime(GAUSS, 5)
    assert kind == "split" and len(primes) == 2
    assert {p.gen for p in primes} == {GAUSS.parse("2+i"), GAUSS.parse("1+2*i")}
    norms = [p.norm for p in primes]
    assert norms == [5, 5]
    assert primes[0] == primes[1].conjugate()
    kind, primes = split_rational_prime(GAUSS, 3)
    assert kind == "inert" and primes[0].norm == 9
    kind, primes = split_rational_prime(GAUSS, 2)
    assert kind == "ramified" and primes[0].norm == 2
    assert primes[0] == GAUSS.ideal("1+i")


def test_split_all_fields_consistency():
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        for p in (2, 3, 5, 7, 11, 13):
            kind, primes = split_rational_prime(K, p)
            if kind == "split":
                assert len(primes) == 2
                assert primes[0].norm == primes[1].norm == p
                assert primes[0] != primes[1]
                assert primes[0] * primes[1] == K.ideal(p)
            elif kind == "ramified":
                assert primes[0].norm == p
                assert primes[0] * primes[0] == K.ideal(p)
            else:
                assert primes[0].norm == p * p
                assert primes[0] == K.ideal(p)


def test_factor_ideal_and_phi():
    I = GAUSS.ideal("(1+i)^3*(2+i)")
    fac = factor_ideal(I)
    assert [(f.gen, e) for f, e in fac] == [
        (GAUSS.parse("1+i"), 3),
        (GAUSS.parse("2+i"), 1),
    ]
    # the residue units, frozen, are phi by the multiplicative formula:
    # the N=8 part gives 4 and the N=5 part 4; inert 3 gives N - 1 = 8,
    # split 5 gives 4 * 4
    for gen, count in (("(1+i)^3*(2+i)", 16), ("1+i", 1), ("3", 8), ("5", 16)):
        ideal = GAUSS.ideal(gen)
        assert len(ideal.residue_units()) == count == euler_phi(ideal), gen


def test_phi_matches_unit_count_oracle():
    for d in (-4, -3, -7):
        K = QuadField(d)
        rng = random.Random(d * 17)
        for _ in range(10):
            g = rand_elem(K, rng, 5)
            if g.is_zero() or g.norm() == 1:
                continue
            ideal = QuadIdeal(g)
            assert len(ideal.residue_units()) == euler_phi(ideal)


def test_norm_form_solution_rejects_a_p_without_solution():
    # an inert prime and a composite that is no norm are a caller's error,
    # named in a ValueError; a split prime has its solution
    for p in (3, 15):
        with pytest.raises(ValueError, match=f"p={p} "):
            norm_form_solution(GAUSS, p)
    assert norm_form_solution(GAUSS, 13).norm() == 13


def test_residue_invert_and_bezout():
    rng = random.Random(99)
    for _ in range(40):
        K = QuadField(rng.choice((-4, -3, -11)))
        a, m = rand_elem(K, rng, 10), rand_elem(K, rng, 8)
        if a.is_zero() or m.is_zero() or m.norm() == 1:
            continue
        M = QuadIdeal(m)
        if gcd_elements(a, m).norm() != 1:
            with pytest.raises(ValueError):
                residue_invert(a, M)
            continue
        u = residue_invert(a, M)
        assert M.contains(a * u - K.one())
        # Bezout through the inverse: v = (1 - u a)/m is exact
        v = (K.one() - u * a).exact_div(m)
        assert u * a + v * m == K.one()
    with pytest.raises(ValueError):
        residue_invert(GAUSS.parse("1+i"), GAUSS.ideal(2))


def test_residue_invert_matches_euler_reference():
    # the inverse by the norm is the Euler-power inverse, the same
    # canonical representative, on seeded pairs over all nine fields;
    # ValueError on the same non-units, and the norm shift runs where
    # N(alpha) shares a factor with N(modulus)
    pairs = shifted = rejected = 0
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        rng = random.Random(25 * -d)
        for _ in range(250):
            a, m = rand_elem(K, rng, 12), rand_elem(K, rng, 6)
            if m.is_zero():
                continue
            M = QuadIdeal(m)
            pairs += 1
            try:
                want = euler_inverse(a, M)
            except ValueError:
                rejected += 1
                with pytest.raises(ValueError):
                    residue_invert(a, M)
                continue
            shifted += math.gcd(a.norm(), M.norm) != 1
            assert residue_invert(a, M) == want, (d, a, M)
    assert pairs >= 2000 and shifted >= 100 and rejected >= 100, (pairs, shifted, rejected)
    # 2-i is prime to (2+i)^2 but shares the norm 5 with it: one shift,
    # to 5+3i of norm 34, gives conj(5+3i) * 34^-1 = 14 mod (2+i)^2
    assert residue_invert(GAUSS.parse("2-i"), GAUSS.ideal("(2+i)^2")) == 14


def test_residue_invert_does_not_factor(monkeypatch):
    # no factoring and no prime splitting, also where the norm shift runs
    cases = [(GAUSS.parse("2-i"), GAUSS.ideal("(1+i)^3*(2+i)^2*3")),
             (EISEN.parse("3-w"), EISEN.ideal("(2+w)^2"))]
    wants = [euler_inverse(a, M) for a, M in cases]

    def refuse(*args):
        raise AssertionError("residue_invert factors its modulus")

    monkeypatch.setattr(qfield, "factor_ideal", refuse)
    monkeypatch.setattr(qfield, "split_rational_prime", refuse)
    assert [residue_invert(a, M) for a, M in cases] == wants


# --- the admissible pools L and R ---------------------------------------------

F_PHI = GAUSS.ideal("(1+i)^3")
PBAR = GAUSS.ideal("3-2*i")


def test_ray_one_generator():
    # -3 = 1 + (-4), and (2+2i) | 4, so (3) has the ray-normalized generator -3
    g = ray_one_generator(GAUSS.element(3), F_PHI)
    assert g == GAUSS.element(-3)
    g = ray_one_generator(GAUSS.parse("2+i"), F_PHI)
    assert g == GAUSS.parse("-1+2*i")
    # (1+i) divides the modulus: no unit makes it coprime, residue 1 impossible
    assert ray_one_generator(GAUSS.parse("1+i"), F_PHI) is None


def test_enumerate_L_30_frozen():
    L, R = enumerate_L_R(GAUSS, 30, F_PHI, PBAR, a=3)
    gens = [str(I.gen) for I in L]
    assert gens == ["1+2*w", "2+w", "3+2*w", "1+4*w", "4+w", "2+5*w", "5+2*w"]
    assert all(I.norm <= 30 for I in L)
    # R contains 1, every member of L, and the composites under the bound
    rgens = {str(I.gen) for I in R}
    assert "1" in rgens
    assert len(R) == 11
    norms = sorted(I.norm for I in R)
    assert norms == [1, 5, 5, 13, 17, 17, 25, 25, 25, 29, 29]
    # (5) = (2+i)(2-i) and both conjugate squares land in R
    assert "5" in rgens
    assert GAUSS.ideal("2+i") ** 2 in R and GAUSS.ideal("2-i") ** 2 in R
    # with a = 2 the inert prime (3) becomes admissible (norm 9, -3 = 1 mod 2+2i)
    L2, _ = enumerate_L_R(GAUSS, 30, F_PHI, PBAR, a=2)
    assert GAUSS.ideal(3) in L2
    assert len(L2) == 8


def test_enumerate_L_50_includes_inert():
    L, R = enumerate_L_R(GAUSS, 50, F_PHI, PBAR, a=2)
    norms = [I.norm for I in L]
    assert 49 in norms  # the inert prime (7), norm 49, ray-normalized by -7
    assert GAUSS.ideal(7) in L
    # excluded: ramified (1+i) | f_phi, pbar itself, and nothing divides (2)
    assert GAUSS.ideal("1+i") not in L
    assert PBAR not in L
    assert GAUSS.ideal("3-2*i") not in L
    # pbar's conjugate (3+2i) is admissible
    assert GAUSS.ideal("3+2*i") in L


def test_enumerate_L_excludes_divisors_of_a():
    # with a = 3 the inert prime (3) is excluded even though -3 = 1 mod f_phi
    L30, _ = enumerate_L_R(GAUSS, 30, F_PHI, PBAR, a=3)
    assert GAUSS.ideal(3) not in L30
    L30b, _ = enumerate_L_R(GAUSS, 30, F_PHI, PBAR, a=2)
    assert GAUSS.ideal(3) in L30b


def test_enumerate_R_is_multiplicatively_closed_under_bound():
    L, R = enumerate_L_R(GAUSS, 30, F_PHI, PBAR, a=2)
    rset = set(R)
    for I in R:
        for J in L:
            prod = I * J
            if prod.norm <= 30:
                assert prod in rset


# --- property-style randomized checks -----------------------------------------

def test_reduce_respects_ring_ops():
    rng = random.Random(2024)
    I = GAUSS.ideal("3+2*i")
    for _ in range(50):
        a, b = rand_elem(GAUSS, rng, 50), rand_elem(GAUSS, rng, 50)
        assert I.reduce(a + b) == I.reduce(I.reduce(a) + I.reduce(b))
        assert I.reduce(a * b) == I.reduce(I.reduce(a) * I.reduce(b))


def test_factor_random_ideals_roundtrip():
    rng = random.Random(31337)
    for d in (-4, -3, -8, -19):
        K = QuadField(d)
        for _ in range(15):
            g = rand_elem(K, rng, 10)
            if g.is_zero() or g.norm() == 1:
                continue
            I = QuadIdeal(g)
            fac = factor_ideal(I)
            prod = K.one()
            for pr, e in fac:
                assert is_rational_prime(pr.norm) or (
                    is_rational_prime(_isqrt_exact(pr.norm)) and pr.gen.y == 0
                )
                prod = prod * pr.gen ** e
            assert QuadIdeal(prod) == I
    # the valuation helper agrees with the factorization in all nine fields
    for d in CLASS_NUMBER_ONE_DISCRIMINANTS:
        K = QuadField(d)
        for _ in range(6):
            g = rand_elem(K, rng, 10)
            if g.is_zero() or g.norm() == 1:
                continue
            I = QuadIdeal(g)
            for pr, e in factor_ideal(I):
                v, rest = valuation(I, pr)
                assert v == e and rest.is_coprime(pr)
                assert QuadIdeal(pr.gen ** v * rest.gen) == I
    with pytest.raises(ValueError):
        valuation(GAUSS.ideal(5), GAUSS.ideal(1))


def _isqrt_exact(n):
    import math
    r = math.isqrt(n)
    return r if r * r == n else 0
