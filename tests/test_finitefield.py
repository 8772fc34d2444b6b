import functools
import inspect
import random
import sys
import time
from math import gcd, isqrt
from pathlib import Path

import pytest

from cmk2 import finitefield
from cmk2.finitefield import (
    CurveOverFp2,
    Fp2,
    cm_apply,
    cm_i_value,
    count_points,
    frobenius_equals_cm,
    sqrt_mod_p,
)
from cmk2.hecke import HeckeCharacter
from cmk2.qfield import QuadField, QuadIdeal, factor_ideal, is_rational_prime
import oracles
from oracles import (fp2_elements, fp2_inv, frobenius_exhaustive, points_ext, points_prime,
                     scan_count)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import FROBENIUS_PRIMES  # noqa: E402

GAUSS = QuadField(-4)
CHI = HeckeCharacter(GAUSS, GAUSS.ideal(GAUSS.parse("(1+i)^3")))
# split primes below 120, as the frobenius-check workload draws them
SPLIT_BELOW_120 = [p for p in range(5, 120, 4) if is_rational_prime(p)]


def test_count_points_frozen():
    # y^2 = x^3 - x
    assert count_points(5, -1, 0) == 8
    assert count_points(13, -1, 0) == 8
    assert count_points(3, -1, 0) == 4
    assert count_points(17, -1, 0) == 16
    assert count_points(29, -1, 0) == 40


def test_count_points_hasse_bound():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        n = count_points(p, -1, 0)
        assert abs(p + 1 - n) <= 2 * int(p ** 0.5) + 1


def test_count_points_bad_reduction():
    with pytest.raises(ValueError):
        count_points(2, -1, 0)
    with pytest.raises(ValueError):
        count_points(5, 0, 0)
    with pytest.raises(ValueError):
        count_points(2, 0, 1)  # every short Weierstrass model is singular at 2


def test_sqrt_mod_p():
    assert sqrt_mod_p(4, 13) in (2, 11)
    assert sqrt_mod_p(-1, 13) in (5, 8)
    assert sqrt_mod_p(2, 5) is None
    assert cm_i_value(5) == 2
    assert cm_i_value(13) == 5
    with pytest.raises(ValueError):
        cm_i_value(7)  # -1 is not a square mod 7


def _rhs(C, x):
    """x^3 + A x + B with the Fp2 field operations."""
    F = C.F
    return F.add(F.add(F.mul(F.mul(x, x), x), F.mul(C.a, x)), C.b)


def on_curve(C, P) -> bool:
    return P is None or C.F.mul(P[1], P[1]) == _rhs(C, P[0])


def test_group_law_axioms():
    C = CurveOverFp2(13, -1, 0)
    pts = points_ext(C)
    rng = random.Random(4)
    for _ in range(30):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert on_curve(C, C.add(P, Q))
        assert C.add(P, Q) == C.add(Q, P)
        assert C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))
        assert C.add(P, C.neg(P)) is None
        assert C.add(P, None) == P


def test_ext_counts_match_norm_formula():
    # #E(F_p) = N(pi - 1) and #E(F_p^2) = N(pi^2 - 1) for the CM generator
    cases = {5: GAUSS.parse("-1+2*i"), 13: GAUSS.parse("3+2*i")}
    for p, pi in cases.items():
        C = CurveOverFp2(p, -1, 0)
        n1 = len(points_prime(C))
        n2 = len(points_ext(C))
        assert n1 == (pi - 1).norm()
        assert n2 == (pi * pi - 1).norm()
    assert len(points_ext(CurveOverFp2(5, -1, 0))) == 32


def test_cm_apply_endomorphism():
    C = CurveOverFp2(13, -1, 0)
    pts = points_ext(C)
    rng = random.Random(9)
    i_val = cm_i_value(13)
    pi = GAUSS.parse("3+2*i")
    for _ in range(20):
        P = rng.choice(pts)
        # [i][i] = [-1]
        ii = cm_apply(GAUSS.omega(), cm_apply(GAUSS.omega(), P, C, i_val), C, i_val)
        assert ii == C.neg(P)
        # [pi][pibar] = [N(pi)]
        both = cm_apply(pi, cm_apply(pi.conjugate(), P, C, i_val), C, i_val)
        assert both == C.smul(pi.norm(), P)
        # additivity against a second point
        Q = rng.choice(pts)
        assert cm_apply(pi, C.add(P, Q), C, i_val) == C.add(
            cm_apply(pi, P, C, i_val), cm_apply(pi, Q, C, i_val)
        )


def test_cm_apply_requires_b_zero():
    C = CurveOverFp2(13, 1, 1)
    with pytest.raises(ValueError):
        cm_apply(GAUSS.omega(), None, C, cm_i_value(13))


def test_frobenius_equals_cm_exactly_one():
    phis = {
        5: GAUSS.parse("-1+2*i"),
        13: GAUSS.parse("3+2*i"),
        17: GAUSS.parse("1-4*i"),
        29: GAUSS.parse("-5+2*i"),
    }
    for p, pi in phis.items():
        rep = frobenius_equals_cm(p, -1, 0, pi)
        assert rep["exactly_one"], rep
        assert rep["matched_trace"] == p + 1 - count_points(p, -1, 0)
        assert rep["norm_of_pi_minus_1"] == count_points(p, -1, 0)


def test_frobenius_restricted_to_prime_field_is_trivial():
    # Frobenius fixes every point of E(F_p), so there a candidate matches
    # exactly when it fixes E(F_p) too (see the fault control below)
    for p in (5, 13, 17):
        C = CurveOverFp2(p, -1, 0)
        for P in points_prime(C):
            assert C.frobenius(P) == P


def _pi(p):
    """The character's value at the distinguished prime above p."""
    return CHI.evaluate(CHI.split_primes_above(p)[0])


# the exhaustive comparison over every point of E(F_p^2), the reference
_exhaustive = functools.cache(frobenius_exhaustive)


# the ids name the path compared with the reference: the certified generator
@pytest.mark.parametrize("a", (pytest.param(-1, id="-1-generator"),
                               pytest.param(2, id="2-generator")))
def test_frobenius_report_matches_exhaustive(a):
    # y^2 = x^3 - x, whose Frobenius is [pi] or [pi-bar], and its quartic
    # twist y^2 = x^3 + 2x, whose Frobenius is neither at most of these p
    cands = [(p, pi) for p in SPLIT_BELOW_120 for pi in (_pi(p), _pi(p).conjugate())]
    reports = [frobenius_equals_cm(p, a, 0, pi) for p, pi in cands]
    assert reports == [_exhaustive(p, a, 0, pi) for p, pi in cands]
    assert all(rep["exactly_one"] for rep in reports) == (a == -1)


def test_frobenius_certifies_without_enumerating():
    # every prime the frobenius-check workload draws is decided at a
    # certified generator; nothing in cmk2 lists E(F_p^2)
    for p in FROBENIUS_PRIMES:
        rep = frobenius_equals_cm(p, -1, 0, _pi(p))
        assert rep["exactly_one"], rep
        assert rep["prime_count"] == count_points(p, -1, 0)


def test_frobenius_every_split_prime_below_10000():
    traces = CHI.split_traces(10 ** 4)
    assert len(traces) == 609
    for p, a_p in traces.items():
        rep = frobenius_equals_cm(p, -1, 0, _pi(p))
        assert rep["exactly_one"], rep
        assert rep["matched_trace"] == a_p
        assert rep["prime_count"] == count_points(p, -1, 0)


def test_wrong_point_count_fails_fast(monkeypatch):
    # fault control: a count off by 2 implies a norm no candidate
    # annihilator of E(F_p^2) can certify, so the check raises at once
    count = finitefield.count_points
    monkeypatch.setattr(finitefield, "count_points", lambda p, a, b: count(p, a, b) + 2)
    for p in (113, 1009):
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match=f"p = {p}"):
            frobenius_equals_cm(p, -1, 0, _pi(p))
        assert time.perf_counter() - t0 < 1.0, p


class _OutOfPoints(Exception):
    """The points a test serves to random_point ran out."""


def _drawing(monkeypatch, points):
    """Make CurveOverFp2.random_point serve `points` in turn, then raise
    _OutOfPoints: the search draws until a point certifies."""
    draws = iter(points)

    def draw(self, rng):
        try:
            return next(draws)
        except StopIteration:
            raise _OutOfPoints from None

    monkeypatch.setattr(CurveOverFp2, "random_point", draw)


def test_prime_field_point_does_not_separate(monkeypatch):
    # no point of E(F_p) generates E(F_p^2), so the certifier accepts none
    p = 113
    prime_points = points_prime(CurveOverFp2(p, -1, 0))[1:]
    _drawing(monkeypatch, prime_points)
    with pytest.raises(_OutOfPoints):
        frobenius_equals_cm(p, -1, 0, _pi(p))
    # fault control: compared at a point of E(F_p) accepted as a generator,
    # both candidates match at p = 113
    _drawing(monkeypatch, prime_points)
    monkeypatch.setattr(finitefield, "_certifies", lambda *args: True)
    rep = frobenius_equals_cm(p, -1, 0, _pi(p))
    assert rep["pi_matches"] and rep["pi_bar_matches"] and not rep["exactly_one"]


def test_certifier_rejects_two_torsion(monkeypatch):
    p = 113
    C, i_val = CurveOverFp2(p, -1, 0), cm_i_value(p)
    rep = _exhaustive(p, -1, 0, _pi(p))
    frob = _pi(p) if rep["pi_matches"] else _pi(p).conjugate()
    m = frob * frob - 1  # the annihilator of E(F_p^2)
    assert m.norm() == rep["ext_count"]
    primes = [q.gen for q, _ in factor_ideal(QuadIdeal(m))]
    T = ((0, 0), (0, 0))  # (0, 0) on y^2 = x^3 - x, of order 2
    assert cm_apply(m, T, C, i_val) is None
    assert not finitefield._certifies(C, i_val, T, m, primes)
    # fault control: without the maximality check the certifier accepts
    # T, and the comparison at T matches both candidates
    assert finitefield._certifies(C, i_val, T, m, [])
    _drawing(monkeypatch, [T])
    with pytest.raises(_OutOfPoints):
        frobenius_equals_cm(p, -1, 0, _pi(p))
    _drawing(monkeypatch, [T])
    monkeypatch.setattr(finitefield, "factor_ideal", lambda ideal: [])
    rep = frobenius_equals_cm(p, -1, 0, _pi(p))
    assert rep["pi_matches"] and rep["pi_bar_matches"] and not rep["exactly_one"]


def test_frobenius_on_prime_field_does_not_separate(monkeypatch):
    # fault control: restricted to E(F_p), the exhaustive comparison
    # matches both candidates at some primes, so the extension group is
    # needed
    monkeypatch.setattr(oracles, "points_ext",
                        lambda curve: points_prime(curve, points_ext(curve)))
    both = [p for p in SPLIT_BELOW_120
            if not frobenius_exhaustive(p, -1, 0, _pi(p))["exactly_one"]]
    assert both == [5, 13, 17, 41, 61, 113]


@pytest.mark.parametrize("p", (3, 5, 13, 29))
def test_fp2_sqrt_every_element(p):
    F = Fp2(p)
    roots: dict = {}
    for e in fp2_elements(F):
        roots.setdefault(F.mul(e, e), set()).add(e)
    for x in fp2_elements(F):
        r = F.sqrt(x)
        assert (r is None) if x not in roots else (r in roots[x]), (x, r)
    for a, b in ORACLE_CURVES:
        if (4 * a ** 3 + 27 * b ** 2) % p:
            C = CurveOverFp2(p, a, b)
            rng = random.Random(p)
            assert all(on_curve(C, C.random_point(rng)) for _ in range(20))


def test_fp2_field_axioms():
    F = Fp2(13)
    rng = random.Random(2)
    for _ in range(40):
        x = F.make(rng.randrange(13), rng.randrange(13))
        y = F.make(rng.randrange(13), rng.randrange(13))
        assert F.mul(x, y) == F.mul(y, x)
        if x != F.make(0):
            assert F.mul(x, fp2_inv(F, x)) == F.make(1)
        # frobenius is a field automorphism of order 2
        assert F.frobenius(F.frobenius(x)) == x
        assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))


# --- brute-force oracles for the inline arithmetic --------------------------

ORACLE_CURVES = ((-1, 0), (0, 1), (2, 3), (-3, 5), (1, 1), (0, 16))


def _direct_count(p, a, b):
    """#E(F_p) from every (x, y) pair."""
    return 1 + sum(1 for x in range(p) for y in range(p)
                   if (y * y - x ** 3 - a * x - b) % p == 0)


def _count_mismatches(count, reference=_direct_count, below=200):
    """(p, a, b) on ORACLE_CURVES, 3 <= p < below, where count differs from
    reference; a count that raises ArithmeticError (no candidate fits the
    point orders) counts as a mismatch."""
    bad = []
    for p in range(3, below):
        if not is_rational_prime(p):
            continue
        for a, b in ORACLE_CURVES:
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            try:
                n = count(p, a, b)
            except ArithmeticError:
                n = None
            if n != reference(p, a, b):
                bad.append((p, a, b))
    return bad


def test_count_points_matches_direct_count():
    assert _count_mismatches(count_points) == []
    assert _count_mismatches(scan_count) == []


def test_count_oracle_fails_without_two_torsion():
    def without_y0(p, a, b):
        return count_points(p, a, b) - sum(1 for x in range(p)
                                           if (x ** 3 + a * x + b) % p == 0)

    assert _count_mismatches(without_y0)


# the x-scan is exhaustive (checked above against every (x, y) pair below
# 200), so it is the reference for the pinned counts up to 3000
_scanned = functools.cache(scan_count)


def _pinned_mismatches():
    return _count_mismatches(count_points, _scanned, 3000)


def _recording_ends(monkeypatch):
    """count_points, and the list of primes at which it returned from the
    loop's end (no _narrow call left one candidate) rather than a
    pinned candidate."""
    last, ends = [], []
    narrow = finitefield._narrow

    def recorded(*args):
        last.append(narrow(*args))
        return last[-1]

    def count(p, a, b):
        last.clear()
        n = count_points(p, a, b)
        if not last or len(last[-1]) != 1:
            ends.append(p)
        return n

    monkeypatch.setattr(finitefield, "_narrow", recorded)
    return count, ends


def test_count_points_matches_scan_below_3000(monkeypatch):
    count, ends = _recording_ends(monkeypatch)
    assert _count_mismatches(count, _scanned, 3000) == []
    # above 229, E or its twist has a point that pins the count
    # (Cremona-Sutherland), and the loop reaches one at each prime
    assert ends and max(ends) <= 229


@pytest.mark.parametrize("p", (13729, 87649))
def test_count_points_pins_past_twelve_points(monkeypatch, p):
    # y^2 = x^3 - x needs 15 points on E and its twist at these primes
    count, ends = _recording_ends(monkeypatch)
    assert count(p, -1, 0) == scan_count(p, -1, 0)
    assert ends == []


def _unpinned(monkeypatch):
    # no point ever narrows the candidates, so every count is the loop's end
    monkeypatch.setattr(finitefield, "_narrow", lambda P, cands, *rest: cands)


def test_count_points_loop_end_matches_scan(monkeypatch):
    _unpinned(monkeypatch)
    assert _count_mismatches(count_points, _scanned) == []


def test_loop_end_oracle_fails_without_nonsquares(monkeypatch):
    # fault control: count_points with the nonsquare x left out of the sum
    _unpinned(monkeypatch)
    source = inspect.getsource(count_points)
    assert source.count("legendre -= 1") == 1
    namespace = dict(vars(finitefield))
    exec(source.replace("legendre -= 1", "pass"), namespace)
    assert _count_mismatches(namespace["count_points"], _scanned)


def test_pin_oracle_fails_accepting_first_candidate(monkeypatch):
    # fault control: return the least candidate left, unique or not
    narrow = finitefield._narrow
    monkeypatch.setattr(finitefield, "_narrow", lambda *args: narrow(*args)[:1])
    assert _pinned_mismatches()


def test_pin_oracle_fails_with_twist_count_for_its_complement(monkeypatch):
    # fault control: a twist point's order divides #E' = 2p + 2 - N, not N;
    # a total of 0 makes the twist points narrow N itself
    narrow = finitefield._narrow
    monkeypatch.setattr(finitefield, "_narrow",
                        lambda P, cands, a, p, total=0: narrow(P, cands, a, p))
    assert _pinned_mismatches()


def _narrow_cases():
    """(P, order of P, cands, a, p, total) over every point of E(F_p) on
    the oracle curves at p < 40: the Hasse interval and a range of 3p, each
    in steps of 1, 2 and 6 from every offset, with total 0 and 2p + 2."""
    for p in range(5, 40):
        if not is_rational_prime(p):
            continue
        lo, hi = finitefield._hasse_interval(p)
        for a, b in ORACLE_CURVES:
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            C = CurveOverFp2(p, a, b)
            for P in points_prime(C):
                if P is None:
                    continue
                r = next(k for k in range(1, 2 * p + 2) if C.smul(k, P) is None)
                P = (P[0][0], P[1][0])
                for step in (1, 2, 6):
                    for off in range(step):
                        for total in (0, 2 * p + 2):
                            yield P, r, range(lo + off, hi + 1, step), a, p, total
                            yield P, r, range(1 + off, 3 * p, step), a, p, total


def test_narrow_keeps_exactly_the_killing_candidates():
    small = large = 0
    for P, r, cands, a, p, total in _narrow_cases():
        want = [N for N in cands if (total - N) % r == 0]
        assert list(finitefield._narrow(P, cands, a, p, total)) == want, (P, cands, a, p, total)
        # [step]P, of this order, repeats at baby step order // 2 + 1 of m
        order = r // gcd(r, cands.step)
        if order // 2 + 1 <= isqrt(len(cands) // 2) + 1:
            small += 1
        else:
            large += 1
    # both branches run: [step]P of small order, and the giant steps
    assert small > 1000 and large > 1000, (small, large)


def test_pin_oracle_fails_scanning_with_twice_the_order(monkeypatch):
    # fault control: a multiple of [step]P's order drops true candidates
    source = inspect.getsource(finitefield._narrow)
    exact = "cands[hits[0] % order::order]"
    assert source.count(exact) == 1
    namespace = dict(vars(finitefield))
    exec(source.replace(exact, "cands[hits[0] % order::2 * order]"), namespace)
    monkeypatch.setattr(finitefield, "_narrow", namespace["_narrow"])
    assert _count_mismatches(count_points, _scanned)


def test_pin_oracle_fails_with_narrowed_hasse_interval(monkeypatch):
    # fault control: counts at either end of the Hasse interval occur
    interval = finitefield._hasse_interval

    def narrowed(p):
        lo, hi = interval(p)
        return lo + 1, hi - 1

    monkeypatch.setattr(finitefield, "_hasse_interval", narrowed)
    assert _pinned_mismatches()


def _sqrt_mismatches(sqrt):
    """(a, p) for primes p < 500 and every a mod p where sqrt(a, p) is not
    one of exactly two roots r, p - r of a square (one at 0), or is not
    None for a nonsquare."""
    bad = []
    for p in range(2, 500):
        if not is_rational_prime(p):
            continue
        roots: dict = {}
        for r in range(p):
            roots.setdefault(r * r % p, set()).add(r)
        for a in range(p):
            r, want = sqrt(a, p), roots.get(a)
            if (want is None and r is not None
                    or want is not None and (r is None or {r, -r % p} != want)):
                bad.append((a, p))
    return bad


def test_sqrt_mod_p_every_residue():
    assert _sqrt_mismatches(sqrt_mod_p) == []


def _tonelli_shanks_one_step_short(a, p):
    """sqrt_mod_p with its last step, k = 1, left out."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    b = pow(finitefield._least_nonresidue(p), q, p)
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)
    for k in range(s - 1, 1, -1):
        if pow(t, 1 << (k - 1), p) != 1:
            r, t = r * b % p, t * b * b % p
        b = b * b % p
    return r


def test_sqrt_oracle_fails_one_step_short():
    # fault control: p = 3 mod 4 takes no step, so only p = 1 mod 4 can
    # fail; some failures need 8 | p - 1, where the steps are several
    failing = {p for _a, p in _sqrt_mismatches(_tonelli_shanks_one_step_short)}
    assert failing and {p % 4 for p in failing} == {1}
    assert any(p % 8 == 1 for p in failing)


def _fp2_points(C):
    """E(F_p^2) from a square table and right-hand sides built with the
    Fp2 field operations, in points_ext's order."""
    F = C.F
    roots: dict = {}
    for e in fp2_elements(F):
        roots.setdefault(F.mul(e, e), []).append(e)
    pts = [None]
    for x in fp2_elements(F):
        pts += [(x, y) for y in roots.get(_rhs(C, x), [])]
    return pts


def test_points_ext_matches_fp2_enumeration():
    for p in range(3, 60):
        if not is_rational_prime(p):
            continue
        for a, b in ORACLE_CURVES:
            if (4 * a ** 3 + 27 * b ** 2) % p:
                C = CurveOverFp2(p, a, b)
                assert points_ext(C) == _fp2_points(C), (p, a, b)


def _textbook_add(F, A, P, Q):
    """Chord-and-tangent addition written with the Fp2 field operations."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and F.add(y1, y2) == F.make(0):
        return None
    if x1 == x2:
        num = F.add(F.mul(F.make(3), F.mul(x1, x1)), A)
        den = F.mul(F.make(2), y1)
    else:
        num, den = F.add(y2, F.neg(y1)), F.add(x2, F.neg(x1))
    lam = F.mul(num, fp2_inv(F, den))
    x3 = F.add(F.mul(lam, lam), F.neg(F.add(x1, x2)))
    return (x3, F.add(F.mul(lam, F.add(x1, F.neg(x3))), F.neg(y1)))


def _smul_mismatches(curve, count=40):
    """(k, P) where smul(k, P) differs from |k| textbook additions of P
    (negated for k < 0), over the 2-torsion and a seeded point sample."""
    pts = points_ext(curve)
    sample = [P for P in pts if P is not None and P[1] == (0, 0)]
    sample += random.Random(curve.F.p).sample(pts, count)
    bad = []
    for P in sample:
        multiples = [None]
        for _ in range(20):
            multiples.append(_textbook_add(curve.F, curve.a, multiples[-1], P))
        for k in range(-20, 21):
            want = multiples[k] if k >= 0 else curve.neg(multiples[-k])
            if curve.smul(k, P) != want:
                bad.append((k, P))
    return bad


@pytest.mark.parametrize("p", (13, 29))
@pytest.mark.parametrize("a, b", ((-1, 0), (2, 3)))
def test_smul_matches_repeated_addition(p, a, b):
    assert _smul_mismatches(CurveOverFp2(p, a, b)) == []


@pytest.mark.parametrize("p", (13, 29))
@pytest.mark.parametrize("a, b", ((-1, 0), (2, 3)))
def test_fp_group_law_matches_fp2_on_prime_field(p, a, b):
    # the affine F_p law that pins point counts, against CurveOverFp2 on
    # E(F_p), whose coordinates it writes as pairs (u, 0)
    C = CurveOverFp2(p, a, b)
    lift = (lambda P: None if P is None else ((P[0], 0), (P[1], 0)))
    pts = [None if P is None else (P[0][0], P[1][0]) for P in points_prime(C)]
    for P in pts:
        for Q in pts:
            assert lift(finitefield._add(P, Q, a, p)) == C.add(lift(P), lift(Q))
        for k in range(-12, 12):
            assert lift(finitefield._mul(k, P, a, p)) == C.smul(k, lift(P))


class _BrokenDoubling(CurveOverFp2):
    def add(self, P, Q):
        R = super().add(P, Q)
        return self.neg(R) if P is not None and P == Q else R


@pytest.mark.parametrize("p", (13, 29))
def test_smul_oracle_fails_with_broken_doubling(p):
    assert _smul_mismatches(_BrokenDoubling(p, -1, 0))
