"""Divisors on exact torsion points and their normalized sigma-products.

An EllFunction is stored exactly: one canonical lift p = r + s*omega
per support point P, the point's (X + Y*omega)/D with r, s in [0, 1),
with its multiplicity m_P, and the lift sum lam = sum m_P p, a lattice
point by principality.  Nothing numeric is stored; evaluation happens
against an AnalyticLattice on demand.

Normalization: the function is the sigma product whose lift sum is
zero, one sigma copy of the first support point P0 (sign e of m_P0)
being moved by -e*lam, times exp(-(1/2) sum_i e_i eta(u_i) u_i) over
its lifts u_i, with eta the R-linear extension of the quasi-period map.
With the zero lift sum, log|f| integrates to zero over the torus, which
is what makes every pushforward/distribution comparison land on
constants of modulus one instead of stray exponential factors.  The copy
is never evaluated: by quasi-periodicity it is eps(lam)
exp(eta(lam)(z - p0 + e lam/2)) sigma(z - p0)^e, and Legendre's relation
eta(1) tau - eta(omega) = 2 pi i cancels the lam^2 terms of the
normalization against it exactly, leaving

    f(z) = C' exp(eta(lam) z) prod_P sigma(z - p)^(m_P),
    C' = eps(lam) exp(pi i (r0 lam_y - s0 lam_x)) exp(-(1/2) sum_P m_P eta(p) p),

p0 = r0 + s0*omega.  With eta(u) = eta1 u - 2 pi i u_y (u_y the omega
coordinate of u), C' exp(eta(lam) z) is one exponent (zeta, xi, h) of
the lattice's exp_eta: zeta and xi are exact in K, and the sign and the
Legendre phase are one exact rational h; the parts that do not depend on
z are computed once per function.

A value is folded (AnalyticLattice.fold): the kernel gives each
sigma(z - p) as the exact exponent of its quasi-period exponential and
its series, and the exponents of C' exp(eta(lam) z) and of every sigma
factor, times its multiplicity, are summed exactly and taken by one
exp_eta.  The eta1 terms cancel exactly: sum_P m_P (z - p)^2 / 2 is
sum_P m_P p^2 / 2 - lam z, as sum m_P = 0 and sum m_P p = lam, and that
is C' exp(eta(lam) z)'s zeta negated.  What is left is the Legendre
phase and the -2 pi i n (w - mu/2) of each offset's reduction.  The
series take one power per distinct multiplicity, in complex fixed
point, and the value is rounded once; the extra constants multiply it.
A product of several values (`product`: a fiber product, a side of the
function identity; a tame value) hands `into` to evaluate or leading_at,
so its functions' terms, powers applied, go to one fold and one exp_eta.

Evaluation points are exact: a TorsionPoint, or a triple (X, Y, D) of
ints with D > 0 for the point (X + Y*omega)/D, in lowest terms or not
(53-bit float samples are dyadic, see dyadic_point; times scales a
point by a field element over the same D).  So lifts, constants,
offsets z - u and exp_eta's exponent are integers over a common
denominator, and each offset keys the memo in lowest terms; on a miss
the kernel takes z and the lift u apart, sigma(z, u) = sigma(z - u), so
its phases are per point.  So the pole test is exact: z is a zero or
pole exactly when one offset z - u is a lattice point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp

from .analytic import AnalyticLattice, PoleError
from .qfield import QuadElement, QuadField, QuadIdeal
from .torsion import TorsionPoint, preimage_set, torsion_subgroup

# the least distance, modulo the lattice, from a sample to an avoided point
SAMPLE_MARGIN = 1e-3


def _coords(z) -> tuple:
    """(X, Y, D) with z = (X + Y*omega)/D, for an evaluation point z: a
    TorsionPoint, at its canonical lift, or such a triple of ints, D > 0."""
    if isinstance(z, TorsionPoint):
        return z.X, z.Y, z.D
    if type(z) is tuple and len(z) == 3:
        X, Y, D = z
        if type(X) is type(Y) is type(D) is int and D > 0:
            return z
    raise TypeError(f"evaluation points are TorsionPoint or (X, Y, D) with int "
                    f"entries and D > 0, not {z!r}")


def dyadic_point(x: float, y: float) -> tuple:
    """The exact point x + y*omega of two floats, as (X, Y, D)."""
    (a, b), (c, e) = x.as_integer_ratio(), y.as_integer_ratio()
    D = math.lcm(b, e)
    return a * (D // b), c * (D // e), D


def times(alpha: QuadElement, z) -> tuple:
    """alpha z for an evaluation point z, over z's denominator.  Not reduced
    mod O_K: an evaluation runs at this lift, and its last bits may depend
    on the lift."""
    X, Y, D = _coords(z)
    p = alpha * alpha.field.element(X, Y)
    return p.x, p.y, D


def _scalar(value) -> tuple:
    """A number as a product for AnalyticLattice.fold: no exponent, and its
    mpc mantissas, read exactly, as the series."""
    (rs, rm, rx, _), (js, jm, jx, _) = mp.mpc(value)._mpc_
    e = min(rx if rm else jx, jx if jm else rx)
    return (0, 0, 0, 0, 0, 1), ((-rm if rs else rm) << (rx - e) if rm else 0,
                                (-jm if js else jm) << (jx - e) if jm else 0, e)


class Divisor:
    """Finite multiplicity map on exact torsion points."""

    def __init__(self, field: QuadField, data: dict | None = None):
        self.field = field
        pts: dict[TorsionPoint, int] = {}
        for P, m in (data or {}).items():
            if P.field != field:
                raise ValueError("field mismatch")
            if m != 0:
                pts[P] = pts.get(P, 0) + m
        self.points = {P: m for P, m in pts.items() if m != 0}

    @staticmethod
    def of_point(P: TorsionPoint, mult: int = 1) -> "Divisor":
        return Divisor(P.field, {P: mult})

    @property
    def degree(self) -> int:
        return sum(self.points.values())

    def weighted_sum(self) -> tuple:
        """Sum of mult * (canonical lift) as (X, Y, D) in lowest terms, the
        integer numerators summed over one denominator."""
        D = math.lcm(*(P.D for P in self.points))
        X = sum(m * P.X * (D // P.D) for P, m in self.points.items())
        Y = sum(m * P.Y * (D // P.D) for P, m in self.points.items())
        g = math.gcd(X, Y, D)
        return X // g, Y // g, D // g

    def is_principal(self) -> bool:
        return self.degree == 0 and self.weighted_sum()[2] == 1

    def support(self) -> list[TorsionPoint]:
        return sorted(self.points)

    def multiplicity(self, P: TorsionPoint) -> int:
        return self.points.get(P, 0)

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.points)
        for P, m in other.points.items():
            out[P] = out.get(P, 0) + m
        return Divisor(self.field, out)

    def __neg__(self) -> "Divisor":
        return Divisor(self.field, {P: -m for P, m in self.points.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def scale(self, k: int) -> "Divisor":
        return Divisor(self.field, {P: k * m for P, m in self.points.items()})

    def pullback(self, alpha: QuadElement) -> "Divisor":
        """Inverse image under multiplication by alpha, multiplicities kept."""
        out: dict[TorsionPoint, int] = {}
        for P, m in self.points.items():
            for u in preimage_set(P, alpha):
                out[u] = out.get(u, 0) + m
        return Divisor(self.field, out)

    def pushforward(self, alpha: QuadElement) -> "Divisor":
        """Image under multiplication by alpha, multiplicities added."""
        out: dict[TorsionPoint, int] = {}
        for P, m in self.points.items():
            Q = P.act(alpha)
            out[Q] = out.get(Q, 0) + m
        return Divisor(self.field, out)

    def signature(self) -> tuple:
        return tuple((P.X, P.Y, P.D, m) for P, m in sorted(self.points.items()))

    def __eq__(self, other):
        return (
            isinstance(other, Divisor)
            and other.field == self.field
            and other.points == self.points
        )

    def __hash__(self):
        return hash((self.field.d, self.signature()))

    def __repr__(self):
        inner = " ".join(f"{m:+d}({P})" for P, m in sorted(self.points.items()))
        return f"Div[{inner}]"


class ConstAtom:
    """A lazy nonzero constant.

    Three flavors: an exact rational, the exact torsion-point evaluation
    fn(point)^exponent, or an opaque evaluator identified by a tag (the
    tag carries structural identity, the callable the numerics).  So
    equal atoms are one constant: an atom is its own lattice-memo key.
    """

    def __init__(self, exact=None, fn=None, point: TorsionPoint | None = None,
                 exponent: int = 1, evaluator=None, tag: str | None = None):
        self.exact = None
        self.fn, self.point, self.exponent = None, None, 1
        self.evaluator, self.tag = None, None
        if exact is not None:
            if fn is not None or point is not None or evaluator is not None:
                raise ValueError("an exact constant takes no function, point or evaluator")
            self.exact = Fraction(exact)
            if self.exact == 0:
                raise ValueError("a constant atom must be nonzero")
        elif evaluator is not None:
            if fn is not None or point is not None or tag is None:
                raise ValueError("a lazy constant takes an evaluator and a tag only")
            self.evaluator, self.tag = evaluator, tag
        else:
            if fn is None or point is None:
                raise ValueError("an evaluated constant needs a function and a point")
            self.fn, self.point, self.exponent = fn, point, exponent

    def evaluate(self, lat: AnalyticLattice):
        """The value at the lattice, computed once per lattice."""
        def compute():
            with lat.context():
                if self.exact is not None:
                    return mp.mpf(self.exact.numerator) / self.exact.denominator
                if self.evaluator is not None:
                    return self.evaluator(lat)
                return self.fn.evaluate(lat, self.point, self.exponent)
        return lat.memo(self, compute)

    def order_at(self, P: TorsionPoint) -> int:
        """A constant has no zero or pole."""
        return 0

    def leading_at(self, lat: AnalyticLattice, P, k: int = 1, into: list | None = None):
        """A constant is its own leading coefficient at every point; this
        is its k-th power, `into` as for EllFunction.evaluate.  An evaluated
        atom's fold terms are its function's at its point, any other's its
        value."""
        terms = [] if into is None else into
        if self.fn is not None:
            self.fn.evaluate(lat, self.point, k * self.exponent, terms)
        else:
            terms.append((_scalar(self.evaluate(lat)), k))
        return lat.fold(terms) if into is None else None

    def signature(self) -> tuple:
        if self.exact is not None:
            return ("exact", self.exact)
        if self.evaluator is not None:
            return ("lazy", self.tag)
        return ("eval", self.fn.signature(), _coords(self.point), self.exponent)

    def __eq__(self, other):
        return isinstance(other, ConstAtom) and other.signature() == self.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        if self.exact is not None:
            return f"Const({self.exact})"
        if self.evaluator is not None:
            return f"Const({self.tag})"
        return f"Const(fn@{self.point}^{self.exponent})"


class EllFunction:
    """Normalized sigma-product with an exactly-principal divisor.

    lifts: one (R, S, m) per support point, in support order: its
    canonical lift (R + S*omega)/den and its multiplicity; lam: the
    integral lift sum.  extra: the ConstAtom factors of a scaled function
    (see scaled_by), multiplied in order after the normalized product, or
    folded with it into a caller's list; the canonical build has none.
    """

    def __init__(self, divisor: Divisor, lifts: tuple, den: int, lam: tuple,
                 extra: tuple = ()):
        self.field = divisor.field
        self.divisor = divisor
        self.lifts = lifts
        self.den = den
        self.lam = lam
        self.extra = extra
        self._exponent = None  # see _constants

    @classmethod
    def from_divisor(cls, D: Divisor, extra: tuple = ()) -> "EllFunction":
        points = sorted(D.points.items())
        den = math.lcm(*(P.D for P, _m in points))
        lifts = tuple((P.X * (den // P.D), P.Y * (den // P.D), m) for P, m in points)
        lx, ly = sum(R * m for R, _S, m in lifts), sum(S * m for _R, S, m in lifts)
        if D.degree != 0 or lx % den or ly % den:
            raise ValueError(f"divisor is not principal: degree {D.degree}, "
                             f"weighted sum (X, Y, D) = {D.weighted_sum()}")
        return cls(D, lifts, den, (lx // den, ly // den), extra)

    # --- structural ----------------------------------------------------------

    def order_at(self, P: TorsionPoint) -> int:
        return self.divisor.multiplicity(P)

    def signature(self) -> tuple:
        return (self.field.d, self.den, self.lifts, tuple(a.signature() for a in self.extra))

    def __eq__(self, other):
        return isinstance(other, EllFunction) and other.signature() == self.signature()

    def __hash__(self):
        return hash(self.signature())

    def scaled_by(self, atom: ConstAtom) -> "EllFunction":
        """The function times the constant atom, with the same divisor."""
        return EllFunction(self.divisor, self.lifts, self.den, self.lam, self.extra + (atom,))

    def unscaled(self) -> "EllFunction":
        """The normalized product alone, without the extra constants."""
        return EllFunction(self.divisor, self.lifts, self.den, self.lam)

    def pullback(self, alpha: QuadElement) -> "EllFunction":
        """The function with divisor pulled back under multiplication by alpha.

        Equals z -> f(alpha z) up to a constant of modulus one.
        """
        return EllFunction.from_divisor(self.divisor.pullback(alpha))

    def pushforward_function(self, alpha: QuadElement) -> "EllFunction":
        """Canonical function with the image divisor; the fiber-product
        evaluator equals it up to a constant of modulus one."""
        return EllFunction.from_divisor(self.divisor.pushforward(alpha))

    # --- numerics --------------------------------------------------------------

    def _constants(self):
        """(zx, zy, xx, xy, h, den) with C' = exp(eta1 zeta - 2 pi i xi + pi i h),
        zeta = (zx + zy*omega)/den, xi = (xx + xy*omega)/den and h = h/den,
        den = 2 e^2, e the lift denominator; computed once per function.

        C' = eps(lam) exp(pi i (r0 lam_y - s0 lam_x)) exp(-Q/2), with
        (r0, s0) the first lift and Q = sum m eta(p) p over the lifts
        p = r + s*omega; eta(p) = eta1 p - 2 pi i s, so zeta = -sum m p^2 / 2
        and xi = -sum m s p / 2, with omega^2 = t omega - n.  h, the sign
        and the Legendre phase, is reduced mod 2.
        """
        if self._exponent is None:
            t, n, e = self.field.trace_omega, self.field.norm_omega, self.den
            zx = -sum(m * (R * R - n * S * S) for R, S, m in self.lifts)
            zy = -sum(m * (2 * R + t * S) * S for R, S, m in self.lifts)
            xx = -sum(m * S * R for R, S, m in self.lifts)
            xy = -sum(m * S * S for R, S, m in self.lifts)
            lx, ly = self.lam
            R0, S0 = self.lifts[0][:2] if self.lifts else (0, 0)
            h = 2 * e * (e * (lx + ly + lx * ly) + R0 * ly - S0 * lx)
            self._exponent = (zx, zy, xx, xy, h % (4 * e * e), 2 * e * e)
        return self._exponent

    def _fold(self, lat: AnalyticLattice, z, k: int, into: list | None, poles: bool):
        """The normalized product to the power k at the exact point z, as
        fold terms: C' exp(eta(lam) z) as an exponent alone, then each
        sigma(z - p) with the power k m_P.  sigma runs once per lattice and
        offset z - p in lowest terms, through the lattice memo.  A
        lattice-point offset mu puts z in the support: with `poles` it
        raises PoleError, else sigma gives its leading coefficient at mu.
        The terms go to `into`, the extra constants' with them; without
        it, they are folded and the extra constants multiplied after."""
        X, Y, D = _coords(z)
        E = math.lcm(D, self.den)
        a, b = E // D, E // self.den
        keys = []
        for R, S, _m in self.lifts:
            x, y = X * a - R * b, Y * a - S * b
            g = math.gcd(x, y, E)
            if poles and g == E:
                raise PoleError(f"{z} is in the divisor support")
            keys.append((x // g, y // g, E // g))
        zx, zy, xx, xy, h, den = self._constants()
        if self.lam != (0, 0):
            # zeta + lam z and xi + lam_y z over den D; omega^2 = t omega - n
            (lx, ly), t, n = self.lam, self.field.trace_omega, self.field.norm_omega
            zx = zx * D + (lx * X - n * ly * Y) * den
            zy = zy * D + (lx * Y + ly * X + t * ly * Y) * den
            xx, xy, h, den = xx * D + ly * X * den, xy * D + ly * Y * den, h * D, den * D
        terms = [] if into is None else into
        terms.append((((zx, zy, xx, xy, h, den), None), k))
        for key, (R, S, m) in zip(keys, self.lifts):
            sigma = lat.memo(("sigma", *key), lambda R=R, S=S: lat.sigma(X, Y, D, R, S, self.den))
            terms.append((sigma, k * m))
        if into is not None:
            for atom in self.extra:
                atom.leading_at(lat, z, k, into)
            return None
        value = lat.fold(terms)
        with lat.context():
            for atom in self.extra:
                value = value * atom.leading_at(lat, z, k)
        return value

    def evaluate(self, lat: AnalyticLattice, z, k: int = 1, into: list | None = None):
        """f(z)^k at an exact point z (TorsionPoint or (X, Y, D)).  With a
        list `into`, its fold terms are appended there for the caller's one
        AnalyticLattice.fold, as a product of several values takes, and
        nothing is returned."""
        return self._fold(lat, z, k, into, poles=True)

    def leading_at(self, lat: AnalyticLattice, P, k: int = 1, into: list | None = None):
        """The k-th power of the leading Laurent coefficient at the exact
        point P against the local parameter (z - P): exact-order zero/pole
        factors are cancelled symbolically, never numerically.  `into` as
        for evaluate."""
        return self._fold(lat, P, k, into, poles=False)

    def pushforward_evaluator(self, lat: AnalyticLattice, alpha: QuadElement):
        """z -> product of f over the fiber of multiplication by alpha
        above the exact point z, folded once."""

        def ev(z):
            fiber = preimage_set(TorsionPoint(self.field, *_coords(z)), alpha)
            return product(lat, [(self, u, 1) for u in fiber])

        return ev

    def __repr__(self):
        extra = f" x{len(self.extra)}const" if self.extra else ""
        return f"EllFn[{self.divisor!r}{extra}]"


def product(lat: AnalyticLattice, factors):
    """prod f(z)^k over the (f, z, k) of factors, elliptic functions at
    exact points, as one fold: one exp_eta for all their sigma factors."""
    terms = []
    for f, z, k in factors:
        f.evaluate(lat, z, k, terms)
    return lat.fold(terms)


# --- named builders -----------------------------------------------------------


def build_g_a(field: QuadField, a: int) -> EllFunction:
    """Divisor a^2 (0) - E[a]; a^2 support points after merging at 0."""
    if a < 2:
        raise ValueError("a must be at least 2")
    D = Divisor(field, {TorsionPoint(field, 0, 0): a * a})
    for gamma in torsion_subgroup(field.ideal(a)):
        D = D - Divisor.of_point(gamma)
    return EllFunction.from_divisor(D)


def build_t_gamma(field: QuadField, a: int, gamma: TorsionPoint) -> EllFunction:
    """Divisor a (gamma) - a (0)."""
    if gamma.is_zero():
        raise ValueError("gamma must be a nonzero a-torsion point")
    if not gamma.act(a).is_zero():
        raise ValueError(f"{gamma} is not killed by {a}")
    D = Divisor(field, {gamma: a, TorsionPoint(field, 0, 0): -a})
    return EllFunction.from_divisor(D)


def build_g_l(ell: QuadIdeal) -> EllFunction:
    """Divisor sum over E[ell] of (c) minus N(ell) (0)."""
    field = ell.field
    D = Divisor(field, {TorsionPoint(field, 0, 0): -ell.norm})
    for c in torsion_subgroup(ell):
        D = D + Divisor.of_point(c)
    return EllFunction.from_divisor(D)


def build_s_point(point: TorsionPoint, scale: int) -> EllFunction:
    """Divisor scale (point) - scale (0); requires scale * point = 0."""
    if point.is_zero():
        raise ValueError("the two-point divisor needs a nonzero point")
    if not point.act(scale).is_zero():
        raise ValueError(f"scale {scale} does not clear the denominators of {point}")
    field = point.field
    D = Divisor(field, {point: scale, TorsionPoint(field, 0, 0): -scale})
    return EllFunction.from_divisor(D)


# --- comparison ----------------------------------------------------------------


def sample_points(lat: AnalyticLattice, seed: int, count: int, avoid):
    """Deterministic sample points with 53-bit coordinates, as exact
    (X, Y, D) from dyadic_point, rejection-resampled away from the avoided
    set.  The coordinate stream is precision-independent, so reruns at
    other precisions test the same geometric points."""
    rng = random.Random(seed)
    avoided = [_coords(P) for P in avoid]
    bound = [v * v for v in SAMPLE_MARGIN.as_integer_ratio()]
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * count:
            raise RuntimeError("cannot find enough sample points away from supports")
        z = X, Y, D = dyadic_point(rng.random(), rng.random())
        # a geometric separation, tested exactly: each offset z - P, reduced
        # by the kernel's rounding, has a norm of at least SAMPLE_MARGIN^2
        for R, S, q in avoided:
            E = math.lcm(D, q)
            x0, y0, L, _m, _n = lat.reduce(X * (E // D) - R * (E // q),
                                           Y * (E // D) - S * (E // q), E)
            if lat.field.element(x0, y0).norm() * bound[1] < bound[0] * L * L:
                break
        else:
            out.append(z)
    return out


def equal_up_to_constant(f, g, lat: AnalyticLattice, avoid=(), samples: int = 20,
                         seed: int = 20240801):
    """Ratio-constancy scan of two evaluators at seeded sample points,
    each handed to both evaluators as the exact (X, Y, D) sample_points
    made.

    Returns a report dict with the mean constant, the relative spread,
    the deviation of the constant's modulus from one, and pass/fail of
    both under the lattice's tolerance.  Raises ValueError for fewer than
    two samples: a single ratio cannot show that the ratio is constant.
    """
    if samples < 2:
        raise ValueError("a constancy scan needs at least two sample points")
    with lat.context():
        points = sample_points(lat, seed, samples, avoid)
        ratios = []
        for z in points:
            fv, gv = f(z), g(z)
            if gv == 0:
                raise PoleError("denominator vanished at a sample point")
            ratios.append(fv / gv)
        mean = sum(ratios) / len(ratios)
        spread = max(abs(r - mean) for r in ratios) / abs(mean)
        dev = abs(abs(mean) - 1)
        spread_ok, dev_ok = lat.within(spread), lat.within(dev)
        return {
            "samples": len(points),
            "seed": seed,
            "constant": mean,
            "spread": spread,
            "modulus_deviation": dev,
            "tolerance": lat.tol,
            "pass": spread_ok and dev_ok,
        }


def evaluator(fn: EllFunction, lat: AnalyticLattice):
    return lambda z: fn.evaluate(lat, z)


def wp_route_evaluator(field: QuadField, a: int, lat: AnalyticLattice):
    """The x-coordinate route: product of (wp(z) - wp(gamma)) over
    representatives of (E[a] - 0) mod negation.  Its divisor is
    sum over E[a]-0 of (gamma) minus 2(a^2-1)/... in degree terms:
    equals -div(g_a) for odd a and -div(g_a^2) for a = 2."""
    wp_reps = []
    seen = set()
    for gamma in torsion_subgroup(field.ideal(a)):
        if gamma.is_zero() or gamma in seen:
            continue
        seen.add(gamma)
        seen.add(-gamma)
        wp_reps.append(lat.wp(*_coords(gamma)))

    def ev(z):
        with lat.context():
            wp_z = lat.wp(*_coords(z))
            out = mp.mpc(1)
            for wp_gamma in wp_reps:
                out = out * (wp_z - wp_gamma)
            return out

    return ev
