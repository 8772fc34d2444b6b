"""Staged norm-relation verifiers on the worked split-prime configurations.

The two standing configurations: the level tower (2+i)^2 -> (2+i)^3 for
the plain norm identity (the prime already divides the level, additive
conjugation) and (2-i) -> (2-i)(2+i) for the twisted one (new prime,
multiplicative conjugation plus a twist point).
"""

import collections
import gc
import math
import subprocess
import sys
import textwrap
import types
import weakref
from fractions import Fraction

import mpmath as mp
import pytest

from cmk2 import cli, divisors, relations, symbols
from cmk2.analytic import AnalyticLattice
from cmk2.dyadic import Dyadic
from cmk2.hecke import HeckeCharacter
from cmk2.qfield import QuadField
from cmk2.relations import (
    conjugating_units,
    verify_E1,
    verify_E2,
    verify_choice_independence,
    verify_function_identities,
)
from cmk2.torsion import TorsionSystem, galois_conjugates
from oracles import workprec

F4 = QuadField(-4)
CHI = HeckeCharacter(F4, F4.ideal(F4.parse("(1+i)^3")))
SYS = TorsionSystem(CHI)
ELL = F4.ideal(F4.parse("2+i"))
M_TOWER = F4.ideal(F4.parse("(2+i)^2"))
M_NEW = F4.ideal(F4.parse("2-i"))
TOL = mp.mpf(10) ** -20
LAT = AnalyticLattice(F4, 160, TOL)


def test_conjugating_units_additive():
    kind, units = conjugating_units(SYS, M_TOWER, ELL, 2)
    assert kind == "additive"
    assert len(units) == ELL.norm - 1 == 4
    y = SYS.y(M_TOWER * ELL)
    orbit = {y} | {y.act(u) for u in units}
    assert orbit == set(galois_conjugates(y, ELL, "additive"))


def test_conjugating_units_multiplicative():
    kind, units = conjugating_units(SYS, M_NEW, ELL, 2)
    assert kind == "multiplicative"
    assert len(units) == ELL.norm - 2 == 3
    y = SYS.y(M_NEW * ELL)
    orbit = {y} | {y.act(u) for u in units}
    assert orbit == set(galois_conjugates(y, ELL, "multiplicative"))
    # the auxiliary torsion is genuinely fixed, also for a = 3
    kind3, units3 = conjugating_units(SYS, M_NEW, ELL, 3)
    assert kind3 == "multiplicative" and len(units3) == 3


def test_exactness_checks_survive_python_O():
    # under -O every assert is stripped; the orbit, fiber, CRT,
    # subgroup-size, associate-uniqueness, square-root-of-minus-one,
    # annihilator and lift-sum checks, and qfield's unit-group, normal-form,
    # gcd, factorization and inverse checks, must still raise when
    # their exact data is wrong; factor_int and Fp2 reject bad input, and
    # divisors, torsion points and symbol sums reject mixed fields, as
    # ConstAtom rejects a zero or an ill-formed constant
    script = textwrap.dedent("""
        from cmk2 import divisors, finitefield, qfield, relations, symbols, torsion
        from cmk2.hecke import HeckeCharacter
        from cmk2.qfield import QuadField
        from cmk2.torsion import TorsionPoint, TorsionSystem
        F4 = QuadField(-4)
        CHI = HeckeCharacter(F4, F4.ideal(F4.parse("(1+i)^3")))
        SYS = TorsionSystem(CHI)
        ELL, M = F4.ideal(F4.parse("2+i")), F4.ideal(F4.parse("2-i"))
        O = TorsionPoint(F4, 0, 0)
        P_TOWER = SYS.y(ELL * ELL)
        caught = []

        def expect_raise(label, fn, *args, error=ArithmeticError):
            try:
                fn(*args)
            except error:
                caught.append(label)

        SEVENTH = TorsionPoint(F4, 1, 0, 7)  # killed by no m*f here
        shifted = TorsionSystem(CHI)
        shifted.x = lambda m: SEVENTH
        expect_raise("y", shifted.y, M)
        twisted = TorsionSystem(CHI)
        twisted.y = lambda m: SEVENTH
        expect_raise("e2", twisted.e2_point, M, ELL)
        symbols.division_point = lambda alpha: O
        expect_raise("pair-B", symbols.build_pair_B, F4, 2, ELL)
        QUARTER = TorsionPoint(F4, 1, 0, 4)
        expect_raise("lifts", divisors.EllFunction.from_divisor,
                     divisors.Divisor(F4, {QUARTER: 1, O: -1}), error=ValueError)
        expect_raise("lift-degree", divisors.EllFunction.from_divisor,
                     divisors.Divisor(F4, {QUARTER: 4}), error=ValueError)
        F3 = QuadField(-3)
        O3 = TorsionPoint(F3, 0, 0)
        expect_raise("divisor-field", divisors.Divisor, F4, {O3: 1}, error=ValueError)
        expect_raise("point-add", O.__add__, O3, error=ValueError)
        expect_raise("point-sub", O.__sub__, O3, error=ValueError)
        expect_raise("sum-field", symbols.SymbolSum(F4, []).__add__,
                     symbols.SymbolSum(F3, []), error=ValueError)
        g2 = divisors.build_g_a(F4, 2)
        for label, kwargs in (("const-zero", {"exact": 0}),
                              ("const-exact-fn", {"exact": 2, "fn": g2, "point": O}),
                              ("const-untagged", {"evaluator": lambda lat: 1}),
                              ("const-no-point", {"fn": g2})):
            expect_raise(label, lambda: divisors.ConstAtom(**kwargs), error=ValueError)
        division_point = torsion.division_point
        torsion.division_point = lambda alpha: O
        expect_raise("x", SYS.x, M)
        torsion.division_point = division_point

        expect_raise("factor-int", qfield.factor_int, 0, error=ValueError)
        expect_raise("fp2", finitefield.Fp2, 15, error=ValueError)
        sextic = QuadField(-4)
        sextic.unit_order = 6
        expect_raise("units", sextic._roots_of_unity)
        expect_raise("hnf-zero", qfield._hnf_rows, [(0, 0)])
        expect_raise("hnf-rank-y", qfield._hnf_rows, [(1, 0), (2, 0)])
        expect_raise("hnf-rank-x", qfield._hnf_rows, [(0, 1), (0, 2)])
        gauss_shortest = qfield._gauss_shortest
        qfield._gauss_shortest = lambda field, v1, v2: v1  # (5): wrong index
        expect_raise("gcd-index", qfield.gcd_elements, F4.element(5), ELL.gen)
        qfield._gauss_shortest = lambda field, v1, v2: (2, -1)  # 2-i: right index
        expect_raise("gcd-divides", qfield.gcd_elements, F4.element(5), ELL.gen)
        qfield._gauss_shortest = gauss_shortest
        split_rational_prime = qfield.split_rational_prime
        qfield.split_rational_prime = lambda field, p: ("inert", [])
        expect_raise("factor-rest", qfield.factor_ideal, ELL)
        qfield.split_rational_prime = split_rational_prime
        valuation = qfield.valuation
        qfield.valuation = lambda ideal, prime: (1, qfield.QuadIdeal(F4.one()))
        expect_raise("factor-product", qfield.factor_ideal, ELL)
        qfield.valuation = valuation
        reduce = qfield.QuadIdeal.reduce
        qfield.QuadIdeal.reduce = lambda self, elem: self.field.one()  # 1/2 = 1 mod 5
        expect_raise("inverse", qfield.residue_invert, F4.element(2), F4.ideal(5))
        qfield.QuadIdeal.reduce = reduce

        relations.galois_conjugates = lambda P, ell, kind: [P]
        expect_raise("orbit", relations.conjugating_units, SYS, M, ELL, 2)
        P = SYS.y(M * ELL)
        torsion.residue_invert = lambda alpha, modulus: F4.one()
        expect_raise("crt", torsion.crt_split, P, ELL)
        point = torsion.TorsionPoint
        torsion.TorsionPoint = lambda field, X, Y, D=1: P
        expect_raise("fiber", torsion.preimage_set, P, ELL.gen)
        expect_raise("subgroup", torsion.torsion_subgroup, ELL)
        torsion.TorsionPoint = point
        torsion.crt_split = lambda P, ell: (O, P)
        expect_raise("multiplicative", torsion.galois_conjugates, P, ELL, "multiplicative")
        torsion.torsion_subgroup = lambda ell: [O] * ell.norm
        expect_raise("additive", torsion.galois_conjugates, P_TOWER, ELL, "additive")
        qfield.QuadIdeal.contains = lambda self, elem: True
        expect_raise("ray", qfield.ray_one_generator, ELL.gen, ELL)
        qfield.QuadElement.is_canonical = lambda self: True
        expect_raise("sector", qfield.canonical_generator, F4.parse("2-i"))
        finitefield.cm_i_value = lambda p: 2  # 2^2 + 1 = 5, not 0 mod 13
        expect_raise("cm", finitefield.frobenius_equals_cm, 13, -1, 0, F4.parse("3+2*i"))
        print(" ".join(caught))
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["y", "e2", "pair-B", "lifts", "lift-degree",
                                   "divisor-field", "point-add", "point-sub",
                                   "sum-field", "const-zero", "const-exact-fn",
                                   "const-untagged", "const-no-point", "x",
                                   "factor-int", "fp2", "units", "hnf-zero",
                                   "hnf-rank-y", "hnf-rank-x", "gcd-index",
                                   "gcd-divides", "factor-rest",
                                   "factor-product", "inverse", "orbit", "crt",
                                   "fiber", "subgroup", "multiplicative",
                                   "additive", "ray", "sector", "cm"]


def test_verify_e2_keeps_no_lattice_alive(monkeypatch, tmp_path):
    # the lattice memo holds a lattice's results only while the lattice
    # lives and makes no reference cycle: once the runs are over, no
    # lattice they built is left, without the cyclic garbage collector
    lattices = []
    init = AnalyticLattice.__init__

    def tracked(self, *args, **kwargs):
        lattices.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(AnalyticLattice, "__init__", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for m in ("1", "2-i"):
            argv = ["verify-e2", "--m", m, "--prec", "128", "--tol", "1e-12",
                    "--samples", "4", "--out", str(tmp_path / "e2.jsonl")]
            assert cli.main(argv) == 0
        # checked before the collector is back, which would free a cycle
        assert len(lattices) == 2
        assert [ref for ref in lattices if ref() is not None] == []
    finally:
        if enabled:
            gc.enable()


def test_shared_stages_run_once_across_relations(monkeypatch):
    # the `all` grid: E1 at (2+i)^2 and E2 at 2-i, both at the prime 2+i
    calls = []
    scan = relations.equal_up_to_constant
    monkeypatch.setattr(relations, "equal_up_to_constant",
                        lambda *a, **k: calls.append(1) or scan(*a, **k))

    def run_pair(lat_e1, lat_e2):
        calls.clear()
        e1 = verify_E1(SYS, M_TOWER, ELL, 2, lat_e1, samples=4)
        e2 = verify_E2(SYS, M_NEW, ELL, 2, lat_e2, samples=4)
        assert e1["pass"] and e2["pass"]
        return len(calls), e1["stages"], e2["stages"]

    cold, _, cold_e2 = run_pair(AnalyticLattice(F4, 128, TOL),
                                AnalyticLattice(F4, 128, TOL))
    lat = AnalyticLattice(F4, 128, TOL)
    shared, e1, e2 = run_pair(lat, lat)
    assert shared == cold - 2
    dist, par, e25 = e1[2], e1[3], e2[4]
    assert dist["scan"] == e25["distribution"]["scan"]
    assert dist["projection"] == e25["distribution"]["projection"]
    assert {k: v for k, v in par.items() if k not in ("id", "description", "pass")} \
        == e25["parity"]
    # a memoized stage reports what a cold run computes
    assert e25 == cold_e2[4]


def _all_units_and_kernel_runs(monkeypatch, tmp_path):
    """(conjugating_units calls, kernel runs as (lattice, X, Y, D, R, S, E))
    of one in-process `cmk2 all`: sigma at z - u, z = (X + Y*omega)/D and
    u = (R + S*omega)/E."""
    calls = []
    units = relations.conjugating_units
    monkeypatch.setattr(relations, "conjugating_units",
                        lambda *a: calls.append(a) or units(*a))
    runs = []
    kernel = AnalyticLattice.sigma
    monkeypatch.setattr(AnalyticLattice, "sigma",
                        lambda lat, *c: runs.append((lat, *c)) or kernel(lat, *c))
    argv = ["all", "--bound", "30", "--prec", "128", "--tol", "1e-12",
            "--samples", "4", "--out", str(tmp_path / "all.jsonl")]
    assert cli.main(argv) == 0
    return calls, runs


def _distinct_offsets(runs):
    """The distinct (lattice, z - u) of the runs, z - u in lowest terms."""
    return {(lat, Fraction(X, D) - Fraction(R, E), Fraction(Y, D) - Fraction(S, E))
            for lat, X, Y, D, R, S, E in runs}


def test_all_computes_conjugating_units_once_per_relation(monkeypatch, tmp_path):
    # `cmk2 all` verifies E1 and E2 once each, and the function-identity
    # stage reads its relation's run instead of building another; the
    # sigma kernel runs once per lattice and exact offset, each offset
    # reaching it as integers in lowest terms
    calls, runs = _all_units_and_kernel_runs(monkeypatch, tmp_path)
    assert len(calls) == 2
    assert runs and len(runs) == len(set(runs)) == len(_distinct_offsets(runs))


def test_all_kernel_runs_fault_control(monkeypatch, tmp_path):
    # a memo key without the gcd of the offset's numerators and
    # denominator runs the kernel again for an offset already computed
    # over another denominator
    monkeypatch.setattr(divisors, "math", types.SimpleNamespace(lcm=math.lcm, gcd=lambda *a: 1))
    _calls, runs = _all_units_and_kernel_runs(monkeypatch, tmp_path)
    assert len(runs) > len(_distinct_offsets(runs))


HEX_E2 = ["verify-e2", "--d", "-3", "--conductor", "3", "--m", "1", "--l", "2+w",
          "--prec", "512"]


def _kernel_and_exponential_calls(monkeypatch, tmp_path, argv):
    """Counts of one in-process CLI run: "sigma" kernel runs, "exp_eta"
    calls, and "tame pow", Dyadic powers taken while a tame value is
    computed."""
    calls = collections.Counter()
    for name in ("sigma", "exp_eta"):
        method = getattr(AnalyticLattice, name)
        monkeypatch.setattr(AnalyticLattice, name,
                            lambda lat, *a, method=method, name=name:
                            calls.update([name]) or method(lat, *a))
    inside = []
    term_tame = symbols.term_tame

    def traced_term_tame(*args):
        inside.append(True)
        try:
            return term_tame(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(symbols, "term_tame", traced_term_tame)
    power = Dyadic.__pow__
    monkeypatch.setattr(Dyadic, "__pow__", lambda x, y, power=power:
                        (inside and calls.update(["tame pow"])) or power(x, y))
    assert cli.main([*argv, "--out", str(tmp_path / "out.jsonl")]) == 0
    return calls


@pytest.mark.parametrize("argv, runs, exponentials",
                         [(["all"], 1327, 400), (HEX_E2, 1533, 300)])
def test_one_exponential_per_reported_value(monkeypatch, tmp_path, argv, runs,
                                            exponentials):
    # every value folds its sigma factors' exponents into one exp_eta, so
    # the kernel runs as often as before and the exponential far less; no
    # tame value raises a leading coefficient with Dyadic's **
    calls = _kernel_and_exponential_calls(monkeypatch, tmp_path, argv)
    assert calls["sigma"] == runs
    assert calls["exp_eta"] <= exponentials
    assert calls["tame pow"] == 0


def test_exponential_count_fault_control(monkeypatch, tmp_path):
    # a per-factor exponential put back into the kernel
    kernel = AnalyticLattice.sigma

    def per_factor(lat, *args):
        exponent, series = kernel(lat, *args)
        lat.exp_eta(*exponent)
        return exponent, series

    monkeypatch.setattr(AnalyticLattice, "sigma", per_factor)
    calls = _kernel_and_exponential_calls(monkeypatch, tmp_path, ["all"])
    assert calls["sigma"] == 1327 and calls["exp_eta"] > 400


FAST_ALL = ["all", "--bound", "30", "--prec", "128", "--tol", "1e-12", "--samples", "4"]


def _alpha_prime_builds(monkeypatch, tmp_path, argv) -> int:
    """build_alpha_prime calls of one in-process CLI run, from any module."""
    calls = []
    build = symbols.build_alpha_prime
    for module in (symbols, relations):
        monkeypatch.setattr(module, "build_alpha_prime",
                            lambda *a, **k: calls.append(a) or build(*a, **k))
    assert cli.main([*argv, "--out", str(tmp_path / "out.jsonl")]) == 0
    return len(calls)


@pytest.mark.parametrize("argv, builds", [(FAST_ALL, 9), (HEX_E2, 3)])
def test_each_element_built_once(monkeypatch, tmp_path, argv, builds):
    # `all`: 3 for certify-tame, 1 for build-alpha, and one per element a
    # relation's run owns: the norm sum's top element and the base for E1,
    # and the twisted element too for E2; no stage and no CLI check
    # builds another
    assert _alpha_prime_builds(monkeypatch, tmp_path, argv) == builds


def test_element_builds_fault_control_cli_validation(monkeypatch, tmp_path):
    # the CLI's check put back: the element built at m and at m*ell and
    # discarded before the run
    checked = cli._checked

    def validating(prefix, fn, *args):
        if fn is relations.relation_run:
            _lat, _relation, sys, m, ell, a = args[:6]
            for level in (m, m * ell):
                checked(prefix, symbols.build_alpha_prime, sys, level, a)
        return checked(prefix, fn, *args)

    monkeypatch.setattr(cli, "_checked", validating)
    assert _alpha_prime_builds(monkeypatch, tmp_path, FAST_ALL) == 13


def test_element_builds_fault_control_stage_rebuild(monkeypatch, tmp_path):
    # E2.3 building its own twisted element instead of reading the run's
    def rebuilt(r, lat):
        twisted = symbols.build_alpha_prime(r.sys, r.m, r.a, y_point=r.twist, scale=r.k)
        cert = symbols.certify_tame_kernel(twisted, lat)
        return {"certificate": cert, "pass": cert["pass"]}

    stages = tuple((sid, text, rebuilt if sid == "E2.3-twisted-element" else stage)
                   for sid, text, stage in relations.STAGES["E2"])
    monkeypatch.setitem(relations.STAGES, "E2", stages)
    assert _alpha_prime_builds(monkeypatch, tmp_path, FAST_ALL) == 10


def test_cli_validates_with_the_run_the_verifier_reads(monkeypatch, tmp_path):
    # the CLI builds each relation's run once to validate it; the
    # verifier's stages then read that same object from the lattice memo
    returned, used = [], []
    run = relations.relation_run
    monkeypatch.setattr(relations, "relation_run",
                        lambda *a: returned.append(run(*a)) or returned[-1])
    for relation in ("E1", "E2"):
        (sid, text, first), *rest = relations.STAGES[relation]
        monkeypatch.setitem(relations.STAGES, relation, (
            (sid, text, lambda r, lat, first=first: used.append(r) or first(r, lat)),
            *rest))
    calls, _runs = _all_units_and_kernel_runs(monkeypatch, tmp_path)
    assert len(calls) == 2
    assert [r.relation for r in used] == ["E1", "E2"]
    assert returned[0] is used[0]   # the CLI asks first
    assert {id(r) for r in returned} == {id(r) for r in used}


def test_rejected_construction_runs_no_kernel(monkeypatch, tmp_path):
    # y_m in E[a] is rejected while the run is built, before any stage
    runs = []
    kernel = AnalyticLattice.sigma
    monkeypatch.setattr(AnalyticLattice, "sigma",
                        lambda lat, *a: runs.append(a) or kernel(lat, *a))
    argv = [*HEX_E2[:-2], "--a", "3", "--out", str(tmp_path / "out.jsonl")]
    assert cli.main(argv) == 2
    assert runs == []


def test_function_identity_reports():
    rep = verify_function_identities(SYS, M_TOWER, ELL, "E1", LAT,
                                     samples=4)
    assert rep["pass"] and rep["divisors_match"]
    assert len(rep["conjugates"]) == 5
    assert rep["scale"] == (M_TOWER * ELL * SYS.f_level).norm
    rep2 = verify_function_identities(SYS, M_NEW, ELL, "E2", LAT,
                                      samples=4)
    assert rep2["pass"] and rep2["divisors_match"]
    assert len(rep2["conjugates"]) == 4
    with workprec(LAT):
        assert abs(abs(rep2["scan"]["constant"]) - 1) < TOL


def test_verify_E1_all_stages():
    rep = verify_E1(SYS, M_TOWER, ELL, 2, LAT, samples=4)
    ids = [s["id"] for s in rep["stages"]]
    assert ids == ["E1.1-set-identity", "E1.2-function-identity",
                   "E1.3-distribution", "E1.4-parity",
                   "E1.5-tame-certificates", "E1.6-definitional-branch"]
    assert rep["pass"] and all(s["pass"] for s in rep["stages"])
    assert rep["config"]["conjugation"] == "additive"


def test_verify_E1_wrong_configuration_fails_cleanly():
    # a level the prime does not divide makes the conjugation
    # multiplicative; the set-identity stage must fail without crashing
    rep = verify_E1(SYS, M_NEW, ELL, 2, LAT, samples=4)
    assert not rep["pass"]
    s1 = rep["stages"][0]
    assert not s1["pass"] and s1["kind"] == "multiplicative"


def test_verify_E2_all_stages():
    rep = verify_E2(SYS, M_NEW, ELL, 2, LAT, samples=4)
    ids = [s["id"] for s in rep["stages"]]
    assert ids == ["E2.1-set-identity", "E2.2-twist-point-level",
                   "E2.3-twisted-element", "E2.4-function-identity",
                   "E2.5-distribution-parity", "E2.6-tame-certificates"]
    assert rep["pass"]
    assert rep["config"]["conjugation"] == "multiplicative"
    s2 = rep["stages"][1]
    assert s2["annihilator"] == str(M_NEW * SYS.f_level)


def test_verify_E2_on_dividing_prime_rejected():
    # the twist inverse does not exist when ell already divides the level
    with pytest.raises(ValueError):
        verify_E2(SYS, M_TOWER, ELL, 2, LAT, samples=4)


def test_verify_E2_a3():
    rep = verify_E2(SYS, M_NEW, ELL, 3, LAT, samples=4)
    assert rep["pass"]


def test_impossible_tolerance_fails():
    lat = AnalyticLattice(F4, 160, mp.mpf(10) ** -200)
    rep = verify_E1(SYS, M_TOWER, ELL, 2, lat, samples=4)
    assert not rep["pass"]


def test_choice_independence():
    rep = verify_choice_independence(SYS, M_NEW, 2, LAT)
    assert rep["pass"]
    assert len(rep["perturbations"]) == 3
    names = {r["perturbation"] for r in rep["perturbations"]}
    assert names == {"scaled-two-point", "x-route-division-function",
                     "scaled-translation-correctors"}
    assert all(r["difference_constant"] for r in rep["perturbations"])
    assert rep["fault_detected"]
    assert rep["base_certificate"]["pass"]


def test_precision_scaling_shrinks_scan_spread():
    lo = verify_function_identities(SYS, M_NEW, ELL, "E2",
                                    AnalyticLattice(F4, 128, mp.mpf(10) ** -15),
                                    samples=4)
    hi = verify_function_identities(SYS, M_NEW, ELL, "E2",
                                    AnalyticLattice(F4, 320, mp.mpf(10) ** -15),
                                    samples=4)
    with mp.workprec(400):
        assert lo["scan"]["spread"] > 0
        assert hi["scan"]["spread"] < lo["scan"]["spread"] * mp.mpf(10) ** -20
