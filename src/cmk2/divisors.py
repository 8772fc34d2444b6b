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
coordinate of u), C' exp(eta(lam) z) is one exp_eta(zeta, xi, h) of the
lattice: zeta and xi are exact in K, and the sign and the Legendre phase
are one exact rational h; the parts that do not depend on z are computed
once per function.  Since sum m_P = 0, the product is taken as
prod over P != R of (sigma(z - p) / sigma(z - r))^(m_P), R the point of
largest |m_P|, grouped by multiplicity: one power per distinct exponent,
so a two-point function takes one power and g_a and g_ell take none.

The product is one computation in complex fixed point, (re + i im) 2^e
with integer re and im: exp_eta's integers, each sigma's mantissas
(read exactly off its mpc), one division per group ratio and its power
by square-and-multiply, every product cut to prec + GUARD_BITS bits and
the power's to 2 bitlen|m| bits more, as each squaring doubles the
relative error before it.  It is rounded once, to an mpc at the
lattice's working precision; the extra constants multiply that.

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

from .analytic import GUARD_BITS, AnalyticLattice, PoleError
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


# --- complex fixed point: (re, im, e) is (re + i im) 2^e, re and im integers ---


def _parts(v) -> tuple:
    """An mpc v as (re, im, e), exactly."""
    (rs, rm, rx, _), (js, jm, jx, _) = v._mpc_
    e = min(rx if rm else jx, jx if jm else rx)
    return ((-rm if rs else rm) << (rx - e) if rm else 0,
            (-jm if js else jm) << (jx - e) if jm else 0, e)


def _trim(re: int, im: int, e: int, bits: int) -> tuple:
    """(re, im, e) with the larger mantissa cut to `bits` bits (one ulp)."""
    s = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    return (re >> s, im >> s, e + s) if s > 0 else (re, im, e)


def _mul(a: tuple, b: tuple, bits: int) -> tuple:
    (ar, ai, ae), (br, bi, be) = a, b
    return _trim(ar * br - ai * bi, ar * bi + ai * br, ae + be, bits)


def _ratio(a: tuple, b: tuple, bits: int) -> tuple:
    """a / b = a conj(b) / |b|^2, its quotient to `bits` bits."""
    (ar, ai, ae), (br, bi, be) = a, b
    n2 = br * br + bi * bi
    re, im = ar * br + ai * bi, ai * br - ar * bi
    k = max(0, bits + n2.bit_length() - max(abs(re).bit_length(), abs(im).bit_length()))
    return (re << k) // n2, (im << k) // n2, ae - be - k


def _power(g: tuple, m: int, bits: int) -> tuple:
    """g^m for m >= 1 by left-to-right square-and-multiply."""
    out = g
    for bit in bin(m)[3:]:
        out = _mul(out, out, bits)
        if bit == "1":
            out = _mul(out, g, bits)
    return out


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
                return self.fn.evaluate(lat, self.point) ** self.exponent
        return lat.memo(self, compute)

    def order_at(self, P: TorsionPoint) -> int:
        """A constant has no zero or pole."""
        return 0

    def leading_at(self, lat: AnalyticLattice, P):
        """A constant is its own leading coefficient at every point."""
        return self.evaluate(lat)

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
    (see scaled_by), multiplied in order after the normalized product;
    the canonical build has none.
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
        # the reference lift R: largest |m|, the first in support order on
        # a tie; the others are grouped by multiplicity, one power each
        self._ref = max(range(len(lifts)), key=lambda i: abs(lifts[i][2]), default=None)
        groups: dict = {}
        for i, (_R, _S, m) in enumerate(lifts):
            if i != self._ref:
                groups.setdefault(m, []).append(i)
        self._groups = tuple((m, tuple(ix)) for m, ix in groups.items())

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

    def _product(self, lat: AnalyticLattice, z, poles: bool):
        """The normalized product at the exact point z:
        C' exp(eta(lam) z) prod over the groups of
        (prod_P sigma(z - P) / sigma(z - R))^m, the first two factors as
        one exp_eta, in complex fixed point with one rounding, the extra
        constants multiplied last.  sigma runs once per lattice and offset
        z - u in lowest terms, through the lattice memo.  A lattice-point
        offset mu puts z in the support: with `poles` it raises PoleError,
        else sigma gives its leading coefficient at mu."""
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
        out = lat.exp_eta(zx, zy, xx, xy, h, den)
        if self._groups:
            sigma = [_parts(lat.memo(("sigma", *k),
                                     lambda R=R, S=S: lat.sigma(X, Y, D, R, S, self.den)))
                     for k, (R, S, _m) in zip(keys, self.lifts)]
            ref = sigma[self._ref]
            for m, ix in self._groups:
                bits = lat.prec + GUARD_BITS + 2 * abs(m).bit_length()
                num = sigma[ix[0]]
                for i in ix[1:]:
                    num = _mul(num, sigma[i], bits)
                ref_power = _power(ref, len(ix), bits)
                g = _ratio(num, ref_power, bits) if m > 0 else _ratio(ref_power, num, bits)
                out = _mul(out, _power(g, abs(m), bits), bits)
        value = lat.to_mpc(*out)
        with lat.context():
            for atom in self.extra:
                value = value * atom.evaluate(lat)
        return value

    def evaluate(self, lat: AnalyticLattice, z):
        """Value at an exact point z (TorsionPoint or (X, Y, D))."""
        return self._product(lat, z, poles=True)

    def leading_at(self, lat: AnalyticLattice, P):
        """Leading Laurent coefficient at the exact point P against the
        local parameter (z - P): exact-order zero/pole factors are
        cancelled symbolically, never numerically."""
        return self._product(lat, P, poles=False)

    def pushforward_evaluator(self, lat: AnalyticLattice, alpha: QuadElement):
        """z -> product of f over the fiber of multiplication by alpha
        above the exact point z."""

        def ev(z):
            Q = TorsionPoint(self.field, *_coords(z))
            with lat.context():
                out = mp.mpc(1)
                for u in preimage_set(Q, alpha):
                    out = out * self.evaluate(lat, u)
                return out

        return ev

    def __repr__(self):
        extra = f" x{len(self.extra)}const" if self.extra else ""
        return f"EllFn[{self.divisor!r}{extra}]"


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
