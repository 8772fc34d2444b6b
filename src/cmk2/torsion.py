"""Exact torsion bookkeeping on K/O_K.

A torsion point is three integers (X, Y, D) with D > 0, 0 <= X, Y < D
and gcd(X, Y, D) = 1, standing for (X + Y*omega)/D modulo O_K: the
format `analytic` and `divisors` evaluate at.  Integral elements act
through the multiplication formula of the field, and 1/alpha is
conj(alpha)/N(alpha), so every map here is integer arithmetic with one
gcd per point; annihilators are exact ideals.

The compatible system: x at level m is the class of 1/phi(m), built so
that the norm-compatibility [phi(l)] x_{ml} = x_m is an identity of
exact points rather than a constraint.  The shifted points y add the
conductor-level generator x_f twisted by the inverse residue of phi.
"""

from __future__ import annotations

import math

from .hecke import HeckeCharacter
from .qfield import (
    QuadElement,
    QuadField,
    QuadIdeal,
    gcd_elements,
    residue_invert,
    valuation,
)


class TorsionPoint:
    """(X + Y*omega)/D modulo O_K, stored reduced: 0 <= X, Y < D and
    gcd(X, Y, D) = 1.  Points order by (X/D, Y/D) lexicographically."""

    __slots__ = ("field", "X", "Y", "D")

    def __init__(self, field: QuadField, X: int, Y: int, D: int = 1):
        g = math.gcd(X, Y, D)
        self.field = field
        self.D = D // g
        self.X = X // g % self.D
        self.Y = Y // g % self.D

    def is_zero(self) -> bool:
        return self.D == 1

    def __lt__(self, other: "TorsionPoint") -> bool:
        a, b = self.X * other.D, other.X * self.D
        return a < b or (a == b and self.Y * other.D < other.Y * self.D)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        if other.field != self.field:
            raise ValueError("field mismatch")
        return TorsionPoint(self.field, self.X * other.D + other.X * self.D,
                            self.Y * other.D + other.Y * self.D, self.D * other.D)

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        return self + -other

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint(self.field, -self.X, -self.Y, self.D)

    def act(self, alpha) -> "TorsionPoint":
        """The point alpha * P for a field element or an integer."""
        if isinstance(alpha, int):
            return TorsionPoint(self.field, alpha * self.X, alpha * self.Y, self.D)
        p = self.field.element(self.X, self.Y) * alpha
        return TorsionPoint(self.field, p.x, p.y, self.D)

    def annihilator(self) -> QuadIdeal:
        """The ideal of all elements sending the point to zero."""
        K = self.field
        den = K.element(self.D)
        return QuadIdeal(den.exact_div(gcd_elements(K.element(self.X, self.Y), den)))

    def __eq__(self, other):
        return (
            isinstance(other, TorsionPoint)
            and other.field == self.field
            and other.X == self.X
            and other.Y == self.Y
            and other.D == self.D
        )

    def __hash__(self):
        return hash((self.field.d, self.X, self.Y, self.D))

    def __repr__(self):
        return f"[{self}]"

    def __str__(self):
        """Each coordinate in lowest terms, as the certificates print it."""
        return f"{_rational(self.X, self.D)}+{_rational(self.Y, self.D)}*w"


def _rational(n: int, d: int) -> str:
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def division_point(alpha: QuadElement) -> TorsionPoint:
    """The class of 1/alpha = conj(alpha)/N(alpha); a generator of the
    alpha-torsion as O-module."""
    c = alpha.conjugate()
    return TorsionPoint(alpha.field, c.x, c.y, alpha.norm())


def torsion_subgroup(ideal: QuadIdeal) -> list[TorsionPoint]:
    """All N(I) points killed by the ideal: the fiber of 0 under its generator."""
    return preimage_set(TorsionPoint(ideal.field, 0, 0), ideal.gen)


def preimage_set(Q: TorsionPoint, alpha: QuadElement) -> list[TorsionPoint]:
    """All N(alpha) solutions u of alpha*u = Q, exactly: the points
    (X + Y*omega + D*rho) conj(alpha) / (D N(alpha)), rho over O/(alpha)."""
    if alpha.is_zero():
        raise ValueError("zero has no finite fibers")
    K, D = Q.field, Q.D
    I = QuadIdeal(alpha)
    c, den = alpha.conjugate(), D * I.norm
    pts = []
    for rep in I.residues():
        p = K.element(Q.X + D * rep.x, Q.Y + D * rep.y) * c
        pts.append(TorsionPoint(K, p.x, p.y, den))
    if len(set(pts)) != I.norm or any(u.act(alpha) != Q for u in pts):
        raise ArithmeticError(f"the fiber of {Q} under {alpha} is not "
                              f"{I.norm} distinct solutions")
    return sorted(pts)


def crt_split(P: TorsionPoint, ell: QuadIdeal) -> tuple[TorsionPoint, TorsionPoint]:
    """(ell-primary component, prime-to-ell component) with sum P."""
    v, rest = valuation(P.annihilator(), ell)
    if v == 0:
        return TorsionPoint(P.field, 0, 0), P
    lpart_gen = ell.gen ** v
    u = residue_invert(lpart_gen, rest)
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
    return sorted(orbit)


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
