"""Exact arithmetic in class-number-one imaginary quadratic fields.

Elements are pairs (x, y) against the integral basis (1, w), where
w = sqrt(d)/2 for even discriminant d and (1 + sqrt(d))/2 for odd d.
Every ideal of the maximal order is principal here, so ideals are stored
by a canonical generator: the unique associate whose complex argument
lies in [0, 2*pi/w_K), ties broken toward the positive real axis.

Coordinates are ints: an element is an element of O_K, so every
operation here, divisibility and exact quotients included, is integer
arithmetic.  Points of K outside O_K are integers over one denominator,
kept by the torsion and divisor layers.
"""

from __future__ import annotations

import math

CLASS_NUMBER_ONE_DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


def _as_coord(v):
    if type(v) is int or isinstance(v, int):  # type() first: the fast path
        return v
    raise TypeError(f"coordinate must be int, got {type(v).__name__}")


def is_rational_prime(n: int) -> bool:
    """Primality by the trial division of factor_int; desk-scale n only."""
    return n >= 2 and factor_int(n) == [(n, 1)]


def factor_int(n: int) -> list[tuple[int, int]]:
    # trial division; desk-scale norms only
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


class QuadField:
    """Q(sqrt(d)) for a class-number-one discriminant d < 0."""

    def __init__(self, d: int):
        if d not in CLASS_NUMBER_ONE_DISCRIMINANTS:
            raise ValueError(
                f"discriminant {d} is not in the class-number-one list "
                f"{CLASS_NUMBER_ONE_DISCRIMINANTS}"
            )
        self.d = d
        if d % 4 == 0:
            self.trace_omega = 0
            self.norm_omega = -d // 4
        else:
            self.trace_omega = 1
            self.norm_omega = (1 - d) // 4
        if d == -4:
            self.unit_order = 4
        elif d == -3:
            self.unit_order = 6
        else:
            self.unit_order = 2
        self._units = self._roots_of_unity()

    def __repr__(self):
        return f"QuadField({self.d})"

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.d == self.d

    def __hash__(self):
        return hash(("QuadField", self.d))

    def element(self, x, y=0) -> "QuadElement":
        return QuadElement(self, x, y)

    def zero(self) -> "QuadElement":
        return QuadElement(self, 0, 0)

    def one(self) -> "QuadElement":
        return QuadElement(self, 1, 0)

    def omega(self) -> "QuadElement":
        return QuadElement(self, 0, 1)

    def units(self) -> tuple:
        """All roots of unity in the ring of integers."""
        return self._units

    def _roots_of_unity(self) -> tuple:
        one = self.one()
        if self.unit_order == 2:
            return (one, -one)
        z = self.omega()
        out = [one]
        cur = one
        for _ in range(self.unit_order - 1):
            cur = cur * z
            out.append(cur)
        if cur * z != one:
            raise ArithmeticError(f"omega does not generate the {self.unit_order} "
                                  f"roots of unity of {self}")
        return tuple(out)

    def ideal(self, gen) -> "QuadIdeal":
        if isinstance(gen, str):
            gen = parse_element(self, gen)
        elif isinstance(gen, int):
            gen = self.element(gen)
        return QuadIdeal(gen)

    def parse(self, text: str) -> "QuadElement":
        return parse_element(self, text)


class QuadElement:
    """x + y*w with integer coordinates: an element of O_K."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: QuadField, x, y=0):
        self.field = field
        self.x = _as_coord(x)
        self.y = _as_coord(y)

    # --- ring operations -------------------------------------------------

    def _check(self, other) -> "QuadElement":
        if isinstance(other, QuadElement):
            if other.field.d != self.field.d:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return QuadElement(self.field, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return QuadElement(self.field, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return QuadElement(self.field, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadElement(self.field, -self.x, -self.y)

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        t, n = self.field.trace_omega, self.field.norm_omega
        # (x1 + y1 w)(x2 + y2 w) with w^2 = t w - n
        return QuadElement(
            self.field,
            self.x * o.x - n * self.y * o.y,
            self.x * o.y + self.y * o.x + t * self.y * o.y,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the ring; divide explicitly")
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- field-theoretic data --------------------------------------------

    def conjugate(self) -> "QuadElement":
        t = self.field.trace_omega
        return QuadElement(self.field, self.x + t * self.y, -self.y)

    def norm(self):
        t, n = self.field.trace_omega, self.field.norm_omega
        return self.x * self.x + t * self.x * self.y + n * self.y * self.y

    def trace(self):
        return 2 * self.x + self.field.trace_omega * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def divides(self, other: "QuadElement") -> bool:
        """other/self is integral: N(self) divides other * conj(self)."""
        if self.is_zero():
            return other.is_zero()
        num, nrm = other * self.conjugate(), self.norm()
        return num.x % nrm == 0 and num.y % nrm == 0

    def exact_div(self, other: "QuadElement") -> "QuadElement":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        num, nrm = self * other.conjugate(), other.norm()
        return QuadElement(self.field, num.x // nrm, num.y // nrm)

    # --- canonical associate ----------------------------------------------

    def is_canonical(self) -> bool:
        """Argument in [0, 2*pi/w_K); ties toward the positive real axis.

        For w_K in {4, 6} the sector test reduces to x > 0 and y >= 0 in
        (1, w) coordinates; for w_K = 2 it is the upper half plane with
        the positive real axis included.
        """
        if self.is_zero():
            return True
        if self.field.unit_order == 2:
            return self.y > 0 or (self.y == 0 and self.x > 0)
        return self.x > 0 and self.y >= 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.y == 0 and self.x == other
        return (
            isinstance(other, QuadElement)
            and other.field.d == self.field.d
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self):
        return hash((self.field.d, self.x, self.y))

    def __repr__(self):
        return f"<{self} in Q(sqrt({self.field.d}))>"

    def __str__(self):
        x, y = self.x, self.y
        if y == 0:
            return str(x)
        w = "w"
        if y == 1:
            ws = w
        elif y == -1:
            ws = f"-{w}"
        else:
            ws = f"{y}*{w}"
        if x == 0:
            return ws
        sign = "+" if (y > 0) else "-"
        mag = abs(y)
        tail = w if mag == 1 else f"{mag}*{w}"
        return f"{x}{sign}{tail}"


def canonical_generator(alpha: QuadElement) -> QuadElement:
    """The unique associate of alpha with argument in [0, 2*pi/w_K)."""
    if alpha.is_zero():
        return alpha
    hits = [v for v in (u * alpha for u in alpha.field.units()) if v.is_canonical()]
    if len(hits) != 1:
        raise ArithmeticError(f"sector test not unique for {alpha}: {hits}")
    return hits[0]


# --- element parsing -------------------------------------------------------


def parse_element(field: QuadField, text: str) -> QuadElement:
    """Parse 'a+b*w' style strings, with parentheses, '*' and '^'.

    'w' denotes the integral-basis generator; 'i' is accepted as an alias
    when d = -4.  Examples: '2-i', '(1+i)^3', '-3', '1+2*w'.
    """
    tokens = _tokenize(field, text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        if pos[0] >= len(tokens):
            raise ValueError(f"unexpected end of input in {text!r}")
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_sum():
        node = parse_product()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_product():
        node = parse_power()
        while True:
            t = peek()
            if t == "*":
                take()
                node = node * parse_power()
            elif isinstance(t, tuple) or t == "(":
                # implicit multiplication: '2w', '(1+i)(1-i)'
                node = node * parse_power()
            else:
                return node

    def parse_power():
        node = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            t = take()
            if not (isinstance(t, tuple) and t[0] == "int"):
                raise ValueError(f"bad exponent in {text!r}")
            if sign < 0:
                raise ValueError("negative exponents are not supported")
            node = node ** t[1]
        return node

    def parse_atom():
        t = take()
        if t == "(":
            node = parse_sum()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return node
        if t == "-":
            return -parse_atom()
        if t == "+":
            return parse_atom()
        if isinstance(t, tuple):
            if t[0] == "int":
                return field.element(t[1])
            if t[0] == "w":
                return field.omega()
        raise ValueError(f"cannot parse {text!r}")

    node = parse_sum()
    if pos[0] != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def _tokenize(field: QuadField, text: str):
    out = []
    k = 0
    s = text.strip()
    while k < len(s):
        c = s[k]
        if c.isspace():
            k += 1
        elif c in "+-*^()":
            out.append(c)
            k += 1
        elif c.isdigit():
            j = k
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(("int", int(s[k:j])))
            k = j
        elif c == "w":
            out.append(("w",))
            k += 1
        elif c == "i" and field.d == -4:
            out.append(("w",))  # w = sqrt(-1) when d = -4
            k += 1
        else:
            raise ValueError(f"unexpected character {c!r} in {text!r}")
    return out


# --- lattice normal form and gcd -------------------------------------------


def _hnf_rows(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form ((A, 0), (B, C)) of the Z-span of integer rows.

    C is the minimal positive second coordinate in the lattice, A the
    minimal positive first coordinate on the x-axis, 0 <= B < A.
    Requires the span to have full rank 2.
    """
    rows = [r for r in rows if r != (0, 0)]
    if not rows:
        raise ArithmeticError("zero lattice has no normal form")
    # combine to a single row with minimal positive y via extended gcd
    bx, by = rows[0]
    for (x, y) in rows[1:]:
        if y == 0:
            continue
        if by == 0:
            bx, by = x, y
            continue
        # extended gcd on the y coordinates
        a, b = by, y
        u0, v0, u1, v1 = 1, 0, 0, 1
        while b:
            q = a // b
            a, b = b, a - q * b
            u0, u1 = u1, u0 - q * u1
            v0, v1 = v1, v0 - q * v1
        bx, by = u0 * bx + v0 * x, a
    if by < 0:
        bx, by = -bx, -by
    if by <= 0:
        raise ArithmeticError("lattice is not of full rank")
    xs = []
    for (x, y) in rows:
        if y % by:
            raise ArithmeticError(f"{by} does not divide the second coordinate {y}")
        xs.append(x - (y // by) * bx)
    A = 0
    for x in xs:
        A = math.gcd(A, x)
    if A <= 0:
        raise ArithmeticError("lattice is not of full rank")
    return A, bx % A, by


def _gauss_shortest(field: QuadField, v1: tuple[int, int], v2: tuple[int, int]):
    """Lagrange-Gauss reduction under the norm form; returns a shortest vector."""
    t, n = field.trace_omega, field.norm_omega

    def q(v):
        return v[0] * v[0] + t * v[0] * v[1] + n * v[1] * v[1]

    def bil2(u, v):  # twice the polarization of q
        return 2 * u[0] * v[0] + t * (u[0] * v[1] + u[1] * v[0]) + 2 * n * u[1] * v[1]

    if q(v2) < q(v1):
        v1, v2 = v2, v1
    while True:
        # nearest integer to bil2/(2 q(v1))
        num, den = bil2(v1, v2), 2 * q(v1)
        m = (2 * num + den) // (2 * den) if num >= 0 else -((2 * -num + den) // (2 * den))
        v2 = (v2[0] - m * v1[0], v2[1] - m * v1[1])
        if q(v2) < q(v1):
            v1, v2 = v2, v1
        else:
            return v1


def gcd_elements(alpha: QuadElement, beta: QuadElement) -> QuadElement:
    """Canonical generator of the ideal (alpha, beta).

    Works in every class-number-one field (no Euclidean division needed):
    the generator of an ideal is exactly a shortest nonzero vector of its
    lattice, found by Gauss reduction of the Hermite basis.
    """
    if alpha.is_zero():
        return canonical_generator(beta)
    if beta.is_zero():
        return canonical_generator(alpha)
    field = alpha.field
    w = field.omega()
    rows = []
    for e in (alpha, w * alpha, beta, w * beta):
        rows.append((e.x, e.y))
    A, B, C = _hnf_rows(rows)
    v = _gauss_shortest(field, (A, 0), (B, C))
    g = field.element(v[0], v[1])
    if g.norm() != A * C:
        raise ArithmeticError(f"shortest vector {g} does not generate the ideal "
                              f"of index {A * C}")
    if not (g.divides(alpha) and g.divides(beta)):
        raise ArithmeticError(f"{g} does not divide both {alpha} and {beta}")
    return canonical_generator(g)


class QuadIdeal:
    """Nonzero integral ideal, stored by its canonical generator."""

    __slots__ = ("gen", "field")

    def __init__(self, gen: QuadElement):
        if gen.is_zero():
            raise ValueError("zero ideal is not supported")
        self.gen = canonical_generator(gen)
        self.field = gen.field

    @property
    def norm(self) -> int:
        return self.gen.norm()

    def __mul__(self, other: "QuadIdeal") -> "QuadIdeal":
        return QuadIdeal(self.gen * other.gen)

    def __pow__(self, k: int) -> "QuadIdeal":
        if k < 0:
            raise ValueError("negative ideal powers are not integral")
        return QuadIdeal(self.gen ** k)

    def conjugate(self) -> "QuadIdeal":
        return QuadIdeal(self.gen.conjugate())

    def divides(self, other: "QuadIdeal") -> bool:
        return self.gen.divides(other.gen)

    def contains(self, elem: QuadElement) -> bool:
        return self.gen.divides(elem)

    def gcd(self, other: "QuadIdeal") -> "QuadIdeal":
        return QuadIdeal(gcd_elements(self.gen, other.gen))

    def is_coprime(self, other: "QuadIdeal") -> bool:
        return gcd_elements(self.gen, other.gen).norm() == 1

    def is_one(self) -> bool:
        return self.norm == 1

    def lattice_hnf(self) -> tuple[int, int, int]:
        """(A, B, C): lattice rows (A, 0), (B, C) of the ideal in (1, w)."""
        g = self.gen
        w = self.field.omega()
        wg = w * g
        return _hnf_rows([(g.x, g.y), (wg.x, wg.y)])

    def residues(self):
        """Canonical coset representatives of O_K modulo the ideal."""
        A, B, C = self.lattice_hnf()
        for yy in range(C):
            for xx in range(A):
                yield self.field.element(xx, yy)

    def residue_units(self) -> list[QuadElement]:
        """The canonical representatives coprime to the ideal."""
        return [r for r in self.residues()
                if not r.is_zero() and gcd_elements(r, self.gen).norm() == 1]

    def reduce(self, elem: QuadElement) -> QuadElement:
        """Canonical representative of elem modulo the ideal (idempotent)."""
        A, B, C = self.lattice_hnf()
        y1 = elem.y % C
        k2 = (elem.y - y1) // C
        x1 = (elem.x - k2 * B) % A
        return self.field.element(x1, y1)

    def congruent(self, a: QuadElement, b: QuadElement) -> bool:
        return self.contains(a - b)

    def __eq__(self, other):
        return (
            isinstance(other, QuadIdeal)
            and other.field.d == self.field.d
            and other.gen == self.gen
        )

    def __hash__(self):
        return hash(("QuadIdeal", self.field.d, self.gen.x, self.gen.y))

    def __repr__(self):
        return f"({self.gen})"


# --- splitting, factorization, residue rings --------------------------------


def split_rational_prime(field: QuadField, p: int):
    """Return (kind, primes-above-p) with kind in split/inert/ramified."""
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not prime")
    kind = splitting_kind(field, p)
    if kind == "inert":
        return kind, [QuadIdeal(field.element(p))]
    pi = norm_form_solution(field, p)
    if kind == "ramified":
        return kind, [QuadIdeal(pi)]
    pibar = QuadIdeal(pi.conjugate())
    first = QuadIdeal(pi)
    if first == pibar:
        raise ArithmeticError(f"split prime {p} produced equal factors")
    return kind, [first, pibar]


def splitting_kind(field: QuadField, p: int) -> str:
    """How a rational prime p splits: "split", "inert" or "ramified".
    The answer means nothing unless p is prime; the caller checks that."""
    d = field.d
    if d % p == 0 or (p == 2 and d % 4 == 0):
        return "ramified"
    if p == 2:
        return "split" if d % 8 == 1 else "inert"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def norm_form_solution(field: QuadField, p: int) -> QuadElement:
    """Solve x^2 + t x y + n y^2 = p; exists for split/ramified p when h=1.
    Raises ValueError when no element has norm p, as for an inert p."""
    t, n = field.trace_omega, field.norm_omega
    ymax = 1
    while n * ymax * ymax <= 4 * p:
        ymax += 1
    for y in range(ymax + 1):
        disc = t * t * y * y - 4 * (n * y * y - p)
        if disc < 0:
            continue
        r = math.isqrt(disc)
        if r * r != disc:
            continue
        for sgn in (1, -1):
            num = -t * y + sgn * r
            if num % 2 == 0:
                el = field.element(num // 2, y)
                if el.norm() == p:
                    return el
    raise ValueError(f"no element of norm {p} in {field}: p={p} is not a split "
                     f"or ramified prime")


def valuation(ideal: QuadIdeal, prime: QuadIdeal) -> tuple[int, QuadIdeal]:
    """(v, rest) with ideal = prime^v * rest and prime not dividing rest."""
    if prime.is_one():
        raise ValueError("the unit ideal has no valuation")
    v, rest = 0, ideal
    while prime.divides(rest):
        rest = QuadIdeal(rest.gen.exact_div(prime.gen))
        v += 1
    return v, rest


def factor_ideal(ideal: QuadIdeal) -> list[tuple[QuadIdeal, int]]:
    """Prime-ideal factorization (deterministic order: by norm, then coords)."""
    out = []
    rest = ideal
    for p, _e in factor_int(ideal.norm):
        kind, primes = split_rational_prime(ideal.field, p)
        for pr in primes:
            v, rest = valuation(rest, pr)
            if v:
                out.append((pr, v))
    if not rest.is_one():
        raise ArithmeticError(f"factorization of {ideal} left the part {rest}")
    out.sort(key=lambda pe: (pe[0].norm, pe[0].gen.x, pe[0].gen.y))
    check = ideal.field.one()
    for pr, v in out:
        check = check * pr.gen ** v
    if QuadIdeal(check) != ideal:
        raise ArithmeticError(f"the factors of {ideal} multiply to ({check})")
    return out


def residue_invert(alpha: QuadElement, modulus: QuadIdeal) -> QuadElement:
    """beta with alpha*beta = 1 mod modulus, by 1/a = conj(a)/N(a); requires
    coprimality.

    a runs over alpha, alpha + g, alpha + 2g, ... (g the modulus's
    generator, so each a is in alpha's class) until N(a) is prime to
    N(modulus), which lies in the modulus; beta is the canonical
    representative of conj(a) * (N(a)^-1 mod N(modulus)).  The loop ends:
    a prime of norm p that divides N(modulus) but not the modulus contains
    alpha + k g for exactly one k mod p, and no prime of the modulus
    contains any of them, as alpha is coprime to it; so by CRT some k
    works.  The coprimality test guarantees this, so it runs first.
    """
    if modulus.is_one():
        return modulus.field.one()
    g, n = modulus.gen, modulus.norm
    if alpha.is_zero() or gcd_elements(alpha, g).norm() != 1:
        raise ValueError(f"{alpha} is not invertible modulo {modulus}")
    a = alpha
    while math.gcd(a.norm(), n) != 1:
        a = a + g
    out = modulus.reduce(a.conjugate() * pow(a.norm(), -1, n))
    if not modulus.contains(alpha * out - modulus.field.one()):
        raise ArithmeticError(f"{out} is not an inverse of {alpha} modulo {modulus}")
    return out


# --- the prime pool L and the ideal pool R ----------------------------------


def ray_one_generator(gen: QuadElement, f_phi: QuadIdeal):
    """The associate of gen congruent to 1 mod f_phi, or None; gen may be
    any generator of its ideal.

    Unique when the roots of unity inject into (O_K/f_phi)^*, which the
    Hecke layer enforces before this is trusted.
    """
    one = gen.field.one()
    hits = [v for v in (u * gen for u in gen.field.units())
            if f_phi.contains(v - one)]
    if not hits:
        return None
    if len(hits) != 1:
        raise ArithmeticError(f"ray-normalized generator not unique for {QuadIdeal(gen)}")
    return hits[0]


def enumerate_L_R(field: QuadField, bound: int, f_phi: QuadIdeal,
                  pbar: QuadIdeal, a: int):
    """Admissible primes L and the monoid R they generate, up to a norm bound.

    L: primes of norm <= bound, coprime to f_phi * pbar * (a), possessing
    an associate generator congruent to 1 mod f_phi (class-number-one
    criterion for splitting completely in the ray class field of f_phi).
    R: all products of members of L, with multiplicity, of norm <= bound.
    Both are sorted by (norm, x, y) of the canonical generator.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if a < 1:
        raise ValueError("a must be a positive integer")
    forbidden = f_phi * pbar * QuadIdeal(field.element(a))
    L = []
    for p in range(2, bound + 1):
        if not is_rational_prime(p):
            continue
        kind, primes = split_rational_prime(field, p)
        for pr in primes:
            if pr.norm > bound:
                continue
            if not pr.is_coprime(forbidden):
                continue
            if ray_one_generator(pr.gen, f_phi) is None:
                continue
            L.append(pr)
    L.sort(key=lambda I: (I.norm, I.gen.x, I.gen.y))

    R = []

    def extend(start_idx: int, current: QuadIdeal):
        R.append(current)
        for i in range(start_idx, len(L)):
            # norms multiply and L is sorted by norm: no later prime fits
            if current.norm * L[i].norm > bound:
                break
            extend(i, current * L[i])

    extend(0, QuadIdeal(field.one()))
    R.sort(key=lambda I: (I.norm, I.gen.x, I.gen.y))
    return L, R
