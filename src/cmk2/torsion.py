"""Exact torsion bookkeeping on K/O_K.

A torsion point is a pair of rationals (r, s) modulo 1, standing for
r + s*omega on the complex torus.  Integral elements act through the
multiplication formula of the field; annihilators are exact ideals.

The compatible system: x at level m is the class of 1/phi(m), built so
that the norm-compatibility [phi(l)] x_{ml} = x_m is an identity of
rational numbers rather than a constraint.  The shifted points y add the
conductor-level generator x_f twisted by the inverse residue of phi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hecke import HeckeCharacter
from .qfield import (
    QuadElement,
    QuadField,
    QuadIdeal,
    gcd_elements,
    residue_invert,
    valuation,
)


def _mod1(v) -> Fraction:
    f = Fraction(v)
    return f - (f.numerator // f.denominator)


class TorsionPoint:
    __slots__ = ("field", "r", "s")

    def __init__(self, field: QuadField, r, s):
        self.field = field
        self.r = _mod1(r)
        self.s = _mod1(s)

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0

    def key(self):
        """Lexicographic sort key; the canonical ordering of support points."""
        return (self.r, self.s)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        if other.field != self.field:
            raise ValueError("field mismatch")
        return TorsionPoint(self.field, self.r + other.r, self.s + other.s)

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        if other.field != self.field:
            raise ValueError("field mismatch")
        return TorsionPoint(self.field, self.r - other.r, self.s - other.s)

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint(self.field, -self.r, -self.s)

    def act(self, alpha) -> "TorsionPoint":
        """The point alpha * P for an integral field element (or integer)."""
        if isinstance(alpha, int):
            return TorsionPoint(self.field, alpha * self.r, alpha * self.s)
        if not alpha.is_integral():
            raise ValueError("only integral elements act on torsion")
        return torsion_from_element(self.field, alpha * self.lift())

    def annihilator(self) -> QuadIdeal:
        """The ideal of all elements sending the point to zero."""
        K = self.field
        if self.is_zero():
            return QuadIdeal(K.one())
        q = math.lcm(self.r.denominator, self.s.denominator)
        beta = K.element(int(self.r * q), int(self.s * q))
        g = gcd_elements(beta, K.element(q))
        return QuadIdeal(K.element(q).exact_div(g))

    def lift(self) -> QuadElement:
        """The canonical fractional lift r + s*omega as a field element."""
        return self.field.element(self.r, self.s)

    def __eq__(self, other):
        return (
            isinstance(other, TorsionPoint)
            and other.field == self.field
            and other.r == self.r
            and other.s == self.s
        )

    def __hash__(self):
        return hash((self.field.d, self.r, self.s))

    def __repr__(self):
        return f"[{self}]"

    def __str__(self):
        return f"{self.r}+{self.s}*w"


def torsion_from_element(field: QuadField, elem: QuadElement) -> TorsionPoint:
    """The class of a (possibly fractional) field element in K/O_K."""
    return TorsionPoint(field, elem.x, elem.y)


def division_point(alpha: QuadElement) -> TorsionPoint:
    """The class of 1/alpha; a generator of the alpha-torsion as O-module."""
    inv = alpha.field.one() / alpha
    return torsion_from_element(alpha.field, inv)


def torsion_subgroup(ideal: QuadIdeal) -> list[TorsionPoint]:
    """All N(I) points killed by the ideal: residues divided by the generator."""
    out = []
    for rep in ideal.residues():
        out.append(torsion_from_element(ideal.field, rep / ideal.gen))
    if len(set(out)) != ideal.norm:
        raise ArithmeticError(f"{ideal} does not kill {ideal.norm} distinct points")
    return sorted(out, key=TorsionPoint.key)


def preimage_set(Q: TorsionPoint, alpha: QuadElement) -> list[TorsionPoint]:
    """All N(alpha) solutions u of alpha*u = Q, exactly."""
    if alpha.is_zero():
        raise ValueError("zero has no finite fibers")
    K = Q.field
    I = QuadIdeal(alpha)
    lift = Q.lift()
    pts = [torsion_from_element(K, (lift + rep) / alpha) for rep in I.residues()]
    if len(set(pts)) != I.norm or any(u.act(alpha) != Q for u in pts):
        raise ArithmeticError(f"the fiber of {Q} under {alpha} is not "
                              f"{I.norm} distinct solutions")
    return sorted(pts, key=TorsionPoint.key)


def crt_split(P: TorsionPoint, ell: QuadIdeal) -> tuple[TorsionPoint, TorsionPoint]:
    """(ell-primary component, prime-to-ell component) with sum P."""
    v, rest = valuation(P.annihilator(), ell)
    if v == 0:
        return TorsionPoint(P.field, 0, 0), P
    lpart_gen = ell.gen ** v
    u = residue_invert(lpart_gen, rest) if not rest.is_one() else P.field.one()
    # u*l^v + (1 - u*l^v) = 1 with the second summand divisible by rest
    co = P.field.one() - u * lpart_gen
    P_l = P.act(co)          # killed by ell^v
    P_rest = P.act(u * lpart_gen)  # killed by rest
    if (P_l + P_rest != P or P_l.annihilator() != QuadIdeal(lpart_gen)
            or P_rest.annihilator() != rest):
        raise ArithmeticError(f"CRT components of {P} at {ell} do not split it")
    return P_l, P_rest


def galois_conjugates(P: TorsionPoint, ell: QuadIdeal, kind: str) -> list[TorsionPoint]:
    """Orbit of P over the level-below layer at ell.

    multiplicative (ell exactly divides the annihilator once): scale the
    ell-component by the residue units, N(ell)-1 points.
    additive (ell divides at least twice): translate by the full
    ell-torsion, N(ell) points.  Both fix the prime-to-ell component.
    """
    v, _ = valuation(P.annihilator(), ell)
    if kind == "multiplicative":
        if v != 1:
            raise ValueError(f"multiplicative orbit needs an exactly-once factor, got v={v}")
        P_l, P_rest = crt_split(P, ell)
        orbit = [P_rest + P_l.act(u) for u in ell.residue_units()]
        size = ell.norm - 1
    elif kind == "additive":
        if v < 2:
            raise ValueError(f"additive orbit needs the square to divide, got v={v}")
        orbit = [P + c for c in torsion_subgroup(ell)]
        size = ell.norm
    else:
        raise ValueError(f"unknown orbit kind {kind!r}")
    if len(set(orbit)) != size:
        raise ArithmeticError(f"the {kind} orbit of {P} at {ell} is not {size} points")
    return sorted(orbit, key=TorsionPoint.key)


class TorsionSystem:
    """The compatible x/y system attached to a character and a fixed level f."""

    def __init__(self, chi: HeckeCharacter):
        self.chi = chi
        self.field = chi.field
        self.f_level = chi.conductor
        self.g_f = self.f_level.gen
        self.x_f = division_point(self.g_f)

    def x(self, m: QuadIdeal) -> TorsionPoint:
        """Class of 1/phi(m); annihilator exactly m."""
        val = self.chi.evaluate(m)
        P = division_point(val)
        if P.annihilator() != m:
            raise ArithmeticError(f"x_{m} = {P} is not killed by exactly {m}")
        return P

    def y(self, m: QuadIdeal) -> TorsionPoint:
        """x_m shifted by the inverse-phi twist of x_f; annihilator divides m*f."""
        if not m.is_coprime(self.f_level):
            raise ValueError(f"{m} is not coprime to the fixed level {self.f_level}")
        beta = residue_invert(self.chi.evaluate(m), self.f_level)
        P = self.x(m) + self.x_f.act(beta)
        if not P.annihilator().divides(m * self.f_level):
            raise ArithmeticError(f"y_{m} = {P} is not killed by {m * self.f_level}")
        return P

    def e2_point(self, m: QuadIdeal, ell: QuadIdeal) -> TorsionPoint:
        """The extra fiber point: y_m rescaled by phi(ell)^-1 mod m*f."""
        beta = residue_invert(self.chi.evaluate(ell), m * self.f_level)
        n = self.y(m).act(beta)
        if not n.annihilator().divides(m * self.f_level):
            raise ArithmeticError(f"the twist point {n} is not killed by "
                                  f"{m * self.f_level}")
        return n
