"""Staged verification of the two norm relations and choice independence.

Each verifier returns a report dict: configuration, a list of stages
(each with an id, a description, a pass flag, and numeric payloads), and
an overall pass flag.  Stage ids are stable strings ("E1.2-function-
identity", ...) so certificates remain diffable across runs.

Galois conjugation is realized honestly: conjugates of the level point
are produced by exact unit multipliers congruent to 1 at every lower
level (including the auxiliary integer), built by CRT in the ring of
integers.  The same multipliers transport whole symbol sums.

A relation's run (relation_run) owns its elements: it builds the norm
sum, the base element at the common scale and, for E2, the element at
the twist point once, and rejects a configuration they cannot be built
at; the stages only certify what the run holds.
"""

from __future__ import annotations

from functools import cached_property

from .analytic import AnalyticLattice
from .divisors import (
    ConstAtom,
    build_g_a,
    build_g_l,
    build_s_point,
    build_t_gamma,
    dyadic_point,
    equal_up_to_constant,
    evaluator,
    product,
    times,
    wp_route_evaluator,
)
from .qfield import QuadElement, QuadIdeal, residue_invert, valuation
from .symbols import (
    SymbolSum,
    build_alpha_prime,
    build_pair_A,
    build_pair_B,
    certify_tame_kernel,
    corestriction,
    difference_is_constant,
    normal_form_signature,
    tame_symbol_at,
)
from .torsion import (
    TorsionPoint,
    TorsionSystem,
    galois_conjugates,
    preimage_set,
    torsion_subgroup,
)


def conjugating_units(sys: TorsionSystem, m: QuadIdeal, ell: QuadIdeal,
                      a: int) -> tuple[str, list[QuadElement]]:
    """Unit multipliers realizing Gal(level m*ell / level m) on torsion.

    Each u is congruent to 1 modulo everything at the lower level (the
    m*f part away from ell, and the auxiliary (a)), while running over
    the translations (ell dividing the lower level) or the prime residue
    classes (ell new) on the ell-part.  Exactness is checked on the spot,
    raising ArithmeticError otherwise: u fixes the lower-level point and
    the auxiliary torsion, and u * y_{m ell} enumerates the conjugate
    orbit once.
    """
    field = sys.field
    ml = m * ell
    v, other = valuation(ml * sys.f_level * field.ideal(a), ell)
    q = ell.gen
    ell_part = ell ** v
    # co_other = 1 mod ell-part, 0 mod other; co_ell = the complement
    u_ell = residue_invert(ell_part.gen, other)
    co_ell = u_ell * ell_part.gen          # 1 mod other, 0 mod ell-part
    co_other = field.one() - co_ell        # 1 mod ell-part, 0 mod other
    kind = "additive" if v >= 2 else "multiplicative"
    units = []
    if kind == "additive":
        carrier = q ** (v - 1)
        for lam in ell.residue_units():
            units.append(field.one() + carrier * lam * co_other)
    else:
        for xi in ell.residue_units():
            if ell.congruent(xi, field.one()):
                continue
            units.append(co_ell + co_other * xi)
    y_ml = sys.y(ml)
    y_m = sys.y(m)
    aux = torsion_subgroup(field.ideal(a))
    orbit = {y_ml}
    for u in units:
        if y_m.act(u) != y_m or any(gm.act(u) != gm for gm in aux):
            raise ArithmeticError(f"unit multiplier {u} moves the lower-level torsion")
        orbit.add(y_ml.act(u))
    if orbit != set(galois_conjugates(y_ml, ell, kind)):
        raise ArithmeticError("unit multipliers must enumerate the conjugate orbit")
    return kind, units


def _norm_sum(sym: SymbolSum, units: list[QuadElement]) -> SymbolSum:
    total = sym
    for u in units:
        total = total + sym.map_points(lambda P, u=u: P.act(u))
    return total


def verify_function_identities(sys: TorsionSystem, m: QuadIdeal, ell: QuadIdeal,
                               relation: str, lat: AnalyticLattice, *, a: int = 2,
                               samples: int = 20, seed: int = 20240801) -> dict:
    """Divisor-exact and numerically-constant form of the norm identity.

    At the common scale k = N(m ell f) the conjugate product of the
    higher-level two-point functions (for E2: times the extra fiber
    factor) matches the lower-level function pulled through the isogeny
    times the kernel function to the k-th power.  Its run is the one the
    relation's verifier uses (see relation_run), so the conjugating units
    and the orbit are not computed again.
    """
    r = relation_run(lat, relation, sys, m, ell, a, samples, seed)
    k = r.k
    lhs_fns = [build_s_point(P, k) for P in sorted(r.orbit)]
    if relation == "E2":
        lhs_fns.append(build_s_point(r.twist, k))
    s_m = build_s_point(r.y_m, k)
    g_l = build_g_l(ell)
    lhs_div = lhs_fns[0].divisor
    for fn in lhs_fns[1:]:
        lhs_div = lhs_div + fn.divisor
    rhs_div = s_m.divisor.pullback(r.phi_ell) + g_l.divisor.scale(k)
    divisors_match = lhs_div == rhs_div

    lhs = lambda z: product(lat, [(fn, z, 1) for fn in lhs_fns])
    rhs = lambda z: product(lat, [(s_m, times(r.phi_ell, z), 1), (g_l, z, k)])
    avoid = set(lhs_div.support()) | set(rhs_div.support())
    scan = equal_up_to_constant(lhs, rhs, lat, avoid=avoid, samples=samples,
                                seed=seed)
    return {
        "identity": relation,
        "scale": k,
        "conjugates": r.orbit_strs,
        "divisors_match": bool(divisors_match),
        "scan": scan,
        "pass": bool(divisors_match and scan["pass"]),
    }


# --- stages -----------------------------------------------------------------
#
# A stage reads one _Run and the lattice and returns its payload with a
# "pass" flag.  The run, and the two stages that depend only on (phi_ell,
# ell, a, samples, seed), not the level, sit in the lattice memo:
# both relations run those stages with the same inputs.  Their reports
# are shared between callers and must not be mutated.


class _Run:
    """One relation's configuration and the exact data its stages read:
    conjugating units, orbit, fiber, and the elements it owns, each built
    once here: the norm sum of the element at m*ell over the units, the
    element at m at the common scale k and, for E2, the one at the twist
    point.  A configuration they cannot be built at raises ValueError
    while the run is built, naming the level m before m*ell.  It holds no
    lattice, so the memo keeps it."""

    def __init__(self, relation, sys, m, ell, a, samples, seed):
        self.relation, self.sys, self.m, self.ell, self.a = relation, sys, m, ell, a
        self.samples, self.seed = samples, seed
        self.ml = m * ell
        self.k = (self.ml * sys.f_level).norm
        self.y_m = sys.y(m)
        self.base = build_alpha_prime(sys, m, a, scale=self.k)
        top = build_alpha_prime(sys, self.ml, a)
        self.phi_ell = sys.chi.evaluate(ell)
        self.kind, self.units = conjugating_units(sys, m, ell, a)
        self.norm_sum = _norm_sum(top, self.units)
        y_ml = sys.y(self.ml)
        self.orbit = {y_ml} | {y_ml.act(u) for u in self.units}
        self.orbit_strs = [str(P) for P in sorted(self.orbit)]
        if relation == "E2":
            self.twisted = build_alpha_prime(sys, m, a, y_point=self.twist, scale=self.k)

    @cached_property
    def fiber(self) -> set:
        return set(preimage_set(self.y_m, self.phi_ell))

    @cached_property
    def twist(self) -> TorsionPoint:
        """The extra fiber point of the twisted relation."""
        return self.sys.e2_point(self.m, self.ell)


def relation_run(lat: AnalyticLattice, relation: str, sys: TorsionSystem,
                 m: QuadIdeal, ell: QuadIdeal, a: int, samples: int,
                 seed: int) -> _Run:
    """The run of a relation, once per lattice: a caller that validates the
    configuration, the verifier and its stages share it."""
    args = (relation, sys, m, ell, a, samples, seed)
    return lat.memo((_Run, *args), lambda: _Run(*args))


def _e1_set_identity(r: _Run, lat: AnalyticLattice) -> dict:
    return {"kind": r.kind, "orbit": r.orbit_strs,
            "pass": r.fiber == r.orbit and r.kind == "additive"}


def _e2_set_identity(r: _Run, lat: AnalyticLattice) -> dict:
    n = r.twist
    ok = r.kind == "multiplicative" and r.fiber == r.orbit | {n} and n not in r.orbit
    return {"kind": r.kind, "twist_point": str(n), "orbit": r.orbit_strs, "pass": ok}


def _twist_point_level(r: _Run, lat: AnalyticLattice) -> dict:
    ann = r.twist.annihilator()
    base_level = r.m * r.sys.f_level
    return {"annihilator": str(ann), "base_level": str(base_level),
            "pass": ann.divides(base_level)}


def _twisted_element(r: _Run, lat: AnalyticLattice) -> dict:
    cert = certify_tame_kernel(r.twisted, lat)
    return {"certificate": cert, "pass": cert["pass"]}


def _without(report: dict, *keys) -> dict:
    return {k: v for k, v in report.items() if k not in keys}


def _function_identity(r: _Run, lat: AnalyticLattice) -> dict:
    rep = verify_function_identities(r.sys, r.m, r.ell, r.relation, lat, a=r.a,
                                     samples=r.samples, seed=r.seed)
    return _without(rep, "identity", "conjugates")


def _twisted_function_identity(r: _Run, lat: AnalyticLattice) -> dict:
    """The function identity with the twist factor, and the twist function
    pushing forward to the base function."""
    rep = _function_identity(r, lat)
    s_n = build_s_point(r.twist, r.k)
    s_m = build_s_point(r.y_m, r.k)
    push_ok = s_n.divisor.pushforward(r.phi_ell) == s_m.divisor
    push_scan = equal_up_to_constant(
        s_n.pushforward_evaluator(lat, r.phi_ell), evaluator(s_m, lat), lat,
        avoid=set(s_m.divisor.support()) | set(s_n.divisor.support()),
        samples=max(4, r.samples // 2), seed=r.seed + 2)
    return {**rep, "push_divisor_match": bool(push_ok), "push_scan": push_scan,
            "pass": rep["pass"] and push_ok and push_scan["pass"]}


def _distribution_scans(lat: AnalyticLattice, phi_ell: QuadElement, a: int,
                        samples: int, seed: int) -> dict:
    """The level-independent part of [phi_ell]_* g_a = g_a: exact divisor
    transport, the constant scan of the fiber product, and the projection
    step against the canonical image build."""
    g = build_g_a(phi_ell.field, a)
    push = g.pushforward_evaluator(lat, phi_ell)
    scan = equal_up_to_constant(push, evaluator(g, lat), lat,
                                avoid=g.divisor.support(), samples=samples,
                                seed=seed)
    image = g.pushforward_function(phi_ell)
    proj = equal_up_to_constant(push, evaluator(image, lat), lat,
                                avoid=image.divisor.support(),
                                samples=max(4, samples // 2), seed=seed + 1)
    return {"push_divisor_fixed": g.divisor.pushforward(phi_ell) == g.divisor,
            "scan": scan, "projection": proj}


def _distribution(r: _Run, lat: AnalyticLattice) -> dict:
    """The distribution relation, with the scanned constant showing up at
    the level point as the product of g over its fiber."""
    args = (r.phi_ell, r.a, r.samples, r.seed)
    shared = lat.memo((_distribution_scans, *args),
                      lambda: _distribution_scans(lat, *args))
    g = build_g_a(r.sys.field, r.a)
    prod = g.pushforward_evaluator(lat, r.phi_ell)(r.y_m)
    point_dev = abs(prod / g.evaluate(lat, r.y_m) - shared["scan"]["constant"])
    ok = (lat.within(point_dev) and shared["push_divisor_fixed"]
          and shared["scan"]["pass"] and shared["projection"]["pass"])
    return {**shared, "point_constant_deviation": point_dev, "pass": ok}


def _parity_checks(lat: AnalyticLattice, ell: QuadIdeal, a: int) -> dict:
    """[-1]-symmetry and the unit-pair comparison.

    Checks: the a-division function is [-1]-stable structurally and up to
    an exact sign numerically; translation correctors move to their
    negatives; the scaled pair sums A and B have matching tame moduli and
    an exactly [-1]-invariant difference, with A scaled by N(ell), the
    scale of B's two-point functions."""
    field = ell.field
    g = build_g_a(field, a)
    neg = field.element(-1)
    structural = g.pullback(neg) == g
    z = dyadic_point(0.3271, 0.1618)
    ratio = g.evaluate(lat, times(neg, z)) / g.evaluate(lat, z)
    sign_dev = min(abs(ratio - 1), abs(ratio + 1))
    gammas = [gm for gm in torsion_subgroup(field.ideal(a)) if not gm.is_zero()]
    t_ok = True
    for gm in gammas[:2]:
        t = build_t_gamma(field, a, gm)
        t_neg = build_t_gamma(field, a, -gm)
        t_ok = t_ok and t.pullback(neg) == t_neg
        r = t.evaluate(lat, times(neg, z)) / t_neg.evaluate(lat, z)
        t_ok = lat.within(abs(abs(r) - 1)) and t_ok
    A = build_pair_A(field, a, ell)
    B = build_pair_B(field, a, ell)
    k_u = ell.norm
    diff = A.scale(k_u) - B
    points = sorted(set(A.support_points()) | set(B.support_points()))
    moduli_ok = True
    rows = []
    for P in points:
        tA = tame_symbol_at(A.scale(k_u), lat, P)
        tB = tame_symbol_at(B, lat, P)
        dev = abs(abs(lat.one * tA / tB) - 1)
        rows.append({"point": str(P), "modulus_ratio_deviation": dev})
        moduli_ok = lat.within(dev) and moduli_ok
    invariant = (normal_form_signature(diff)
                 == normal_form_signature(diff.map_points(lambda P: -P)))
    diff_cert = certify_tame_kernel(diff, lat)
    ok = bool(lat.within(sign_dev) and structural and t_ok and moduli_ok
              and invariant and diff_cert["pass"])
    return {"division_function_symmetric": bool(structural),
            "parity_sign_deviation": sign_dev,
            "translation_correctors_ok": bool(t_ok),
            "pair_scale": k_u,
            "pair_moduli": rows,
            "pair_difference_invariant": bool(invariant),
            "pair_difference_certificate": diff_cert,
            "pass": ok}


def _parity(r: _Run, lat: AnalyticLattice) -> dict:
    args = (r.ell, r.a)
    return lat.memo((_parity_checks, *args), lambda: _parity_checks(lat, *args))


def _distribution_parity(r: _Run, lat: AnalyticLattice) -> dict:
    dist, par = _distribution(r, lat), _parity(r, lat)
    return {"distribution": _without(dist, "pass"), "parity": _without(par, "pass"),
            "pass": dist["pass"] and par["pass"]}


def _tame_certificates(r: _Run, lat: AnalyticLattice) -> dict:
    cert_norm = certify_tame_kernel(r.norm_sum, lat)
    cert_base = certify_tame_kernel(r.base, lat)
    return {"norm_sum_certificate": cert_norm, "base_certificate": cert_base,
            "pass": cert_norm["pass"] and cert_base["pass"]}


def _definitional_branch(r: _Run, lat: AnalyticLattice) -> dict:
    ann = corestriction(r.sys, r.ml, r.ell)
    lower = corestriction(r.sys, r.m, r.ell)["case"] if r.ell.divides(r.m) else None
    return {"annotations": ann, "lower_case": lower,
            "pass": ann["case"] == "p-divides-m"}


_TAME = ("transported norm sum and scaled base element have unit tame values",
         _tame_certificates)

# (stage id, description, stage) in report order
STAGES = {
    "E1": (
        ("E1.1-set-identity",
         "fiber of the level point equals the additive conjugate orbit",
         _e1_set_identity),
        ("E1.2-function-identity",
         "conjugate product equals pulled-back function times kernel power",
         _function_identity),
        ("E1.3-distribution",
         "the a-division function is its own pushforward", _distribution),
        ("E1.4-parity", "[-1]-symmetry and unit-pair comparison", _parity),
        ("E1.5-tame-certificates", *_TAME),
        ("E1.6-definitional-branch",
         "at levels the distinguished prime divides, the packaged "
         "element is definitionally the plain corestriction",
         _definitional_branch),
    ),
    "E2": (
        ("E2.1-set-identity",
         "fiber splits into the multiplicative orbit plus the twist point",
         _e2_set_identity),
        ("E2.2-twist-point-level",
         "the twist point already lives at the base level", _twist_point_level),
        ("E2.3-twisted-element",
         "the element rebuilt at the twist point has unit tame values",
         _twisted_element),
        ("E2.4-function-identity",
         "conjugate product times twist factor matches, and the twist "
         "function pushes to the base function", _twisted_function_identity),
        ("E2.5-distribution-parity",
         "distribution and [-1]/pair symmetry at the new prime",
         _distribution_parity),
        ("E2.6-tame-certificates", *_TAME),
    ),
}


def _verify(lat: AnalyticLattice, *args) -> dict:
    """The verifier body shared by both relations: run the stages of the
    run of args in order and wrap their verdicts in one report."""
    run = relation_run(lat, *args)
    stages = []
    for sid, description, stage in STAGES[run.relation]:
        data = stage(run, lat)
        stages.append({"id": sid, "description": description, **data,
                       "pass": bool(data["pass"])})
    return {
        "identity": run.relation,
        "config": {"m": str(run.m), "ell": str(run.ell), "a": run.a,
                   "scale": run.k, "prec": lat.prec, "samples": run.samples,
                   "tolerance": lat.tol, "conjugation": run.kind},
        "stages": stages,
        "pass": all(s["pass"] for s in stages),
    }


def verify_E1(sys: TorsionSystem, m: QuadIdeal, ell: QuadIdeal, a: int,
              lat: AnalyticLattice, *, samples: int = 20,
              seed: int = 20240801) -> dict:
    """Norm compatibility one level down when ell already divides the level.

    Stages: exact fiber/orbit identity, divisor-and-constant function
    identity, distribution of the a-division function, [-1]/pair parity,
    tame certificates of the transported sums, and the definitional
    packaging branch, which always runs at the distinguished prime ell.
    """
    return _verify(lat, "E1", sys, m, ell, a, samples, seed)


def verify_E2(sys: TorsionSystem, m: QuadIdeal, ell: QuadIdeal, a: int,
              lat: AnalyticLattice, *, samples: int = 20,
              seed: int = 20240801) -> dict:
    """Twisted norm compatibility when ell is new to the level.

    Stages: the extra fiber point and the multiplicative orbit, its
    annihilator landing at the base level, the Frobenius-twist element and
    its tame certificate, the function identity with the extra factor and
    the pushforward of the twist function, then distribution/parity.
    """
    return _verify(lat, "E2", sys, m, ell, a, samples, seed)


def _x_route_atom(field, a: int, lat_hint_point: TorsionPoint) -> ConstAtom:
    """Lazy constant aligning the sigma route with the x-coordinate route.

    For odd a the x-route product is 1/g_a up to this constant; for a = 2
    the comparison runs on squares and a principal square root is taken.
    The atom's identity is its tag; numerics are evaluated on demand.
    """
    P = lat_hint_point

    def ev(lat):
        g = build_g_a(field, a)
        alt = wp_route_evaluator(field, a, lat)
        if a % 2 == 1:
            return 1 / (g.evaluate(lat, P) * alt(P))
        return 1 / (g.evaluate(lat, P, 2) * alt(P)).sqrt()

    return ConstAtom(evaluator=ev, tag=f"x-route(a={a}, at {P})")


def verify_choice_independence(sys: TorsionSystem, m: QuadIdeal, a: int,
                               lat: AnalyticLattice) -> dict:
    """Rebuild the level element under allowed alternative choices and
    check the difference is carried entirely by constant entries, with
    the tame certificate values literally unchanged.  A deliberately
    non-constant fault must be flagged."""
    field = sys.field
    base = build_alpha_prime(sys, m, a)
    points = base.support_points()
    base_cert = certify_tame_kernel(base, lat)
    # the certificate's rows are the tame values in support order
    base_vals = [lat.one * row["value"] for row in base_cert["points"]]
    hint = TorsionPoint(field, 1, 2, 7)

    k = (m * sys.f_level).norm
    perturbations = [
        ("scaled-two-point", build_alpha_prime(
            sys, m, a, s_fn=build_s_point(sys.y(m), k).scaled_by(ConstAtom(exact=7)))),
        ("x-route-division-function", build_alpha_prime(
            sys, m, a, g_fn=build_g_a(field, a).scaled_by(_x_route_atom(field, a, hint)))),
        ("scaled-translation-correctors", build_alpha_prime(
            sys, m, a, t_builder=lambda gm: build_t_gamma(field, a, gm)
            .scaled_by(ConstAtom(exact=5)))),
    ]
    rows = []
    all_ok = True
    for name, pert in perturbations:
        const_only, leftover = difference_is_constant(pert, base)
        max_dev = max(abs(lat.one * tame_symbol_at(pert, lat, P) - v0)
                      for P, v0 in zip(points, base_vals))
        ok = lat.within(max_dev) and const_only
        all_ok = all_ok and ok
        rows.append({"perturbation": name, "difference_constant": bool(const_only),
                     "surviving_terms": len(leftover),
                     "max_tame_deviation": max_dev, "pass": bool(ok)})

    # fault control: replacing the two-point function by one at a
    # different point is not a constant move and must be caught
    other = sys.y(m) + TorsionPoint(field, 0, 1, 2)
    # k = N(m f) lies in (m f), which kills y(m), so 2k kills other
    fault_scale = k if other.act(k).is_zero() else 2 * k
    fault = build_alpha_prime(sys, m, a,
                              s_fn=build_s_point(other, fault_scale))
    fault_const, _ = difference_is_constant(fault, base)
    fault_detected = not fault_const

    return {
        "identity": "choice-independence",
        "config": {"m": str(m), "a": a, "prec": lat.prec, "tolerance": lat.tol},
        "base_certificate": base_cert,
        "perturbations": rows,
        "fault_detected": bool(fault_detected),
        "pass": bool(all_ok and base_cert["pass"] and fault_detected),
    }
