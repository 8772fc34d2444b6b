"""Formal Steinberg-symbol sums over exact function data.

A SymbolSum is a Z-linear combination of pairs {left, right}.  Each side
is one value: a lazy constant (a ConstAtom: an exact rational or an
exact torsion-point evaluation) or a sigma-product EllFunction, whose
constant factors, if any, ride in its `extra` (see
EllFunction.scaled_by).  normal_form splits a scaled function into its
constants and its unscaled product, expands each pair bilinearly,
orients each atomic pair by a canonical key using antisymmetry, and
merges coefficients, which is what structural comparisons run on.

Tame certificates: for a function pair with vanishing orders m, n at P
the tame value is (-1)^(m n) lead(left)^n lead(right)^(-m), raised to
the term's coefficient and computed as one fold of both sides' sigma
factors (AnalyticLattice.fold); order-(0,0) pairs contribute the exact
integer 1 without touching numerics.  For
the assembled Euler-system sums every tame value must be a root of
unity, so a certificate passes only when every non-exact value has
modulus one within the lattice's tolerance and a root-of-unity order
k <= lcm(24, w_K), found with |value^k - 1| below the same tolerance:
a value 1e-14 away from a root of unity is not one.
"""

from __future__ import annotations

from math import lcm

from .analytic import AnalyticLattice
from .divisors import (
    ConstAtom,
    Divisor,
    EllFunction,
    build_g_a,
    build_g_l,
    build_s_point,
    build_t_gamma,
)
from .qfield import QuadField, QuadIdeal
from .torsion import TorsionPoint, TorsionSystem, division_point, torsion_subgroup


def _map_fn(fn: EllFunction, pm) -> EllFunction:
    D = Divisor(fn.field, {pm(P): m for P, m in fn.divisor.points.items()})
    extra = tuple(_map_atom(a, pm) for a in fn.extra)
    return EllFunction.from_divisor(D, extra=extra)


def _map_atom(atom: ConstAtom, pm) -> ConstAtom:
    if atom.fn is None:
        return atom  # exact rationals and tagged lazies carry no torsion data
    return ConstAtom(fn=_map_fn(atom.fn, pm), point=pm(atom.point),
                     exponent=atom.exponent)


def _map_side(side, pm):
    if isinstance(side, ConstAtom):
        return _map_atom(side, pm)
    return _map_fn(side, pm)


class SymbolSum:
    """Integer combination of {left, right} pairs, each side an
    EllFunction or a ConstAtom, with level metadata."""

    def __init__(self, field: QuadField, terms, meta: dict | None = None):
        self.field = field
        self.terms = tuple((int(c), L, R) for c, L, R in terms if c != 0)
        self.meta = dict(meta or {})

    def __add__(self, other: "SymbolSum") -> "SymbolSum":
        if other.field != self.field:
            raise ValueError("field mismatch")
        return SymbolSum(self.field, self.terms + other.terms, self.meta)

    def scale(self, k: int) -> "SymbolSum":
        return SymbolSum(self.field, [(k * c, L, R) for c, L, R in self.terms], self.meta)

    def __sub__(self, other: "SymbolSum") -> "SymbolSum":
        return self + other.scale(-1)

    def map_points(self, pm) -> "SymbolSum":
        return SymbolSum(self.field,
                         [(c, _map_side(L, pm), _map_side(R, pm))
                          for c, L, R in self.terms],
                         self.meta)

    def support_points(self) -> list[TorsionPoint]:
        seen = set()
        for _c, L, R in self.terms:
            for side in (L, R):
                if isinstance(side, EllFunction):
                    seen.update(side.divisor.support())
        return sorted(seen)

    def term_count(self) -> int:
        return len(self.terms)

    def __repr__(self):
        return f"SymbolSum[{len(self.terms)} terms, meta={self.meta.get('kind')}]"


# --- normal form ----------------------------------------------------------------


def _side_atoms(side) -> list:
    """A side's multiplicative atoms: a constant alone, or a function's
    constants followed by its unscaled product."""
    if isinstance(side, ConstAtom) or not side.extra:
        return [side]
    return [*side.extra, side.unscaled()]


def _atom_key(atom) -> tuple:
    if isinstance(atom, ConstAtom):
        return (0, repr(atom.signature()))
    return (1, repr(atom.signature()))


def normal_form(sym: SymbolSum) -> list:
    """Bilinear expansion into atomic pairs, oriented and merged.

    Orientation uses antisymmetry: an atomic pair is swapped (with a sign
    flip) when its key order is reversed, so equal sums in scrambled
    presentations collide to identical normal forms.
    """
    bucket: dict = {}
    for c, L, R in sym.terms:
        for aL in _side_atoms(L):
            for aR in _side_atoms(R):
                kL, kR = _atom_key(aL), _atom_key(aR)
                if kR < kL:
                    first, second, kL, kR = aR, aL, kR, kL
                    coeff = -c
                else:
                    first, second = aL, aR
                    coeff = c
                key = (kL, kR)
                if key not in bucket:
                    bucket[key] = [0, first, second]
                bucket[key][0] += coeff
    out = []
    for key in sorted(bucket):
        c, aL, aR = bucket[key]
        if c != 0:
            out.append((c, aL, aR))
    return out


def normal_form_signature(sym: SymbolSum) -> list:
    """The normal form as (coefficient, left, right) signature triples,
    which compare structurally across independently built sums."""
    return [(c, repr(L.signature()), repr(R.signature()))
            for c, L, R in normal_form(sym)]


def difference_is_constant(sym_a: SymbolSum, sym_b: SymbolSum) -> tuple[bool, list]:
    """True when the normal-form difference only involves pairs with a
    constant on at least one side."""
    left = normal_form(sym_a - sym_b)
    bad = [t for t in left
           if isinstance(t[1], EllFunction) and isinstance(t[2], EllFunction)]
    return (not bad, left)


# --- tame symbols -----------------------------------------------------------------


def term_tame(lat: AnalyticLattice, P: TorsionPoint, L, R, c: int = 1):
    """Tame value of one symbol at P to the power c, one fold of
    lead(L)^(n c), lead(R)^(-m c) and the sign (-1)^(m n c); exact integer
    1 when both orders vanish."""
    m = L.order_at(P)
    n = R.order_at(P)
    if m == 0 and n == 0:
        return 1
    terms = []
    if n != 0:
        L.leading_at(lat, P, n * c, terms)
    if m != 0:
        R.leading_at(lat, P, -m * c, terms)
    if m * n * c % 2:  # the sign as exp(pi i)
        terms.append((((0, 0, 0, 0, 1, 1), None), 1))
    return lat.fold(terms)


def tame_symbol_at(sym: SymbolSum, lat: AnalyticLattice, P: TorsionPoint):
    out = 1
    for c, L, R in sym.terms:
        out = out * term_tame(lat, P, L, R, c)
    return out


def unity_order(value, bound: int, lat: AnalyticLattice) -> int | None:
    """Smallest k <= bound with value^k within tolerance of 1, else None."""
    if value == 1:
        return 1
    acc = lat.one
    for k in range(1, bound + 1):
        acc = acc * value
        if lat.within(abs(acc - 1)):
            return k
    return None


def certify_tame_kernel(sym: SymbolSum, lat: AnalyticLattice) -> dict:
    """Check that every tame value of the sum is a root of unity.

    A point is exact when every term has orders (0, 0) there, whatever
    value the numerics would give.  Each non-exact value must be within
    the lattice's tolerance of the unit circle and have a unity order,
    the least k <= lcm(24, unit group) with |value^k - 1| within it too;
    a value of modulus one that is not a root of unity of bounded order,
    or is one only to a precision coarser than the tolerance, fails.
    """
    bound = lcm(24, sym.field.unit_order)
    rows = []
    ok = True
    for P in sym.support_points():
        if all(L.order_at(P) == 0 and R.order_at(P) == 0
               for _c, L, R in sym.terms):
            rows.append({"point": str(P), "exact": True, "value": 1,
                         "modulus_deviation": 0, "unity_order": 1})
            continue
        # a computed value that happens to equal 1 is still numeric
        v = lat.one * tame_symbol_at(sym, lat, P)
        dev = abs(abs(v) - 1)
        order = unity_order(v, bound, lat)
        ok = lat.within(dev) and order is not None and ok
        rows.append({
            "point": str(P),
            "exact": False,
            "value": v,
            "modulus_deviation": dev,
            "unity_order": order,
        })
    return {"kind": "tame-kernel", "points": rows, "tolerance": lat.tol,
            "unity_bound": bound, "pass": bool(ok)}


# --- builders ---------------------------------------------------------------------


def build_alpha_prime(sys: TorsionSystem, m: QuadIdeal, a: int, *,
                      scale: int | None = None, g_fn: EllFunction | None = None,
                      s_fn: EllFunction | None = None, t_builder=None,
                      y_point: TorsionPoint | None = None) -> SymbolSum:
    """The level-m element: a {g_a(y)^-1 g_a, s_m} - sum over nonzero
    gamma in E[a] of {s_m(gamma), t_gamma}.

    Keyword overrides exist for the choice-independence scans and for
    rebuilding the same shape at a twist point; defaults are the
    canonical builds at y_m.
    """
    field = sys.field
    y = y_point if y_point is not None else sys.y(m)
    k = scale if scale is not None else (m * sys.f_level).norm
    g = g_fn if g_fn is not None else build_g_a(field, a)
    s = s_fn if s_fn is not None else build_s_point(y, k)
    if g.order_at(y) != 0:
        raise ValueError(f"degenerate configuration: y_m = {y} lies in the "
                         f"divisor of the {a}-division function; pick a "
                         f"coprime to the level")
    gammas = [gm for gm in torsion_subgroup(field.ideal(a)) if not gm.is_zero()]
    terms = []
    inv_at_y = ConstAtom(fn=g, point=y, exponent=-1)
    terms.append((a, g.scaled_by(inv_at_y), s))
    for gm in gammas:
        if s.order_at(gm) != 0:
            raise ValueError(f"degenerate configuration: torsion point {gm} "
                             f"of the auxiliary level {a} meets the support "
                             f"of the two-point function at level {m}")
        t = t_builder(gm) if t_builder is not None else build_t_gamma(field, a, gm)
        terms.append((-1, ConstAtom(fn=s, point=gm), t))
    meta = {"kind": "alpha-prime", "level": str(m * sys.f_level),
            "m": str(m), "scale": k, "a": a, "y": str(y)}
    return SymbolSum(field, terms, meta)


def corestriction(sys: TorsionSystem, m: QuadIdeal, p_ideal: QuadIdeal) -> dict:
    """The corestriction bookkeeping of the level-m element.

    When the distinguished prime divides m the element is the plain
    corestriction of the level-m sum; otherwise one extra twisted-norm
    layer from level m*p is recorded.  The annotations say which case
    applies and along which map the pushforward runs; the element itself
    is build_alpha_prime's.
    """
    divides = p_ideal.divides(m)
    return {
        "case": "p-divides-m" if divides else "p-coprime-to-m",
        "norm_from_level": str(m * sys.f_level),
        "norm_to_level": str(m * sys.f_level) if divides
        else str(m * p_ideal * sys.f_level),
        "pushforward_by": str(sys.chi.evaluate(p_ideal)),
        "distinguished_prime": str(p_ideal),
    }


def build_pair_A(field: QuadField, a: int, ell: QuadIdeal) -> SymbolSum:
    """a {g_a, g_ell} - sum over nonzero gamma in E[a] of {g_ell(gamma), t_gamma}."""
    g = build_g_a(field, a)
    gl = build_g_l(ell)
    terms = [(a, g, gl)]
    for gm in torsion_subgroup(field.ideal(a)):
        if gm.is_zero():
            continue
        if gl.order_at(gm) != 0:
            raise ValueError(f"degenerate configuration: {gm} lies in E[ell]")
        terms.append((-1, ConstAtom(fn=gl, point=gm), build_t_gamma(field, a, gm)))
    return SymbolSum(field, terms, {"kind": "pair-A", "a": a, "ell": str(ell)})


def build_pair_B(field: QuadField, a: int, ell: QuadIdeal) -> SymbolSum:
    """Sum over unit classes xi mod ell of a {g_a(xi c), U_xi}, where c
    generates E[ell] over the residue ring and U_xi is the two-point
    function at xi c, at scale N(ell)."""
    if not ell.gen.norm() or ell.norm == 1:
        raise ValueError("ell must be a nontrivial ideal")
    g = build_g_a(field, a)
    c = division_point(ell.gen)
    if c.annihilator() != ell:
        raise ArithmeticError(f"the division point {c} is not killed by exactly {ell}")
    terms = []
    for xi in ell.residue_units():
        point = c.act(xi)
        if g.order_at(point) != 0:
            raise ValueError(f"degenerate configuration: {point} meets E[{a}]")
        terms.append((a, ConstAtom(fn=g, point=point), build_s_point(point, ell.norm)))
    return SymbolSum(field, terms, {"kind": "pair-B", "a": a, "ell": str(ell)})
