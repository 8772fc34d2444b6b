"""The ideal character of infinity type (1,0), normalized by congruence.

On a class-number-one field every ideal coprime to the conductor has a
unique generator congruent to 1 modulo the conductor, provided the roots
of unity inject into the residue units; the character returns exactly
that generator.  Construction rejects conductors where the injection
fails, since the normalization is then ill-defined.
"""

from __future__ import annotations

from .finitefield import count_points
from .qfield import (
    QuadElement,
    QuadField,
    QuadIdeal,
    is_rational_prime,
    norm_form_solution,
    ray_one_generator,
    split_rational_prime,
    splitting_kind,
)


class HeckeCharacter:
    def __init__(self, field: QuadField, conductor: QuadIdeal):
        if conductor.field != field:
            raise ValueError("conductor belongs to a different field")
        one = field.one()
        for u in field.units():
            if u != one and conductor.contains(u - one):
                raise ValueError(
                    f"unit {u} is congruent to 1 mod {conductor}: roots of unity "
                    "do not inject into the residue units, normalization is "
                    "ill-defined for this conductor"
                )
        self.field = field
        self.conductor = conductor

    def evaluate(self, ideal: QuadIdeal) -> QuadElement:
        """The unique generator of `ideal` congruent to 1 mod the conductor."""
        if ideal.field != self.field:
            raise ValueError("ideal belongs to a different field")
        if not ideal.is_coprime(self.conductor):
            raise ValueError(f"{ideal} is not coprime to the conductor {self.conductor}")
        return self._ray_one(ideal.gen)

    def _ray_one(self, gen: QuadElement) -> QuadElement:
        g = ray_one_generator(gen, self.conductor)
        if g is None:
            raise ValueError(
                f"{QuadIdeal(gen)} has no generator congruent to 1 mod {self.conductor}; "
                "it is not admissible at this conductor"
            )
        return g

    def split_primes_above(self, p: int) -> tuple[QuadIdeal, QuadIdeal]:
        """(designated, conjugate) primes above a split p.

        The designated one is the factor whose character value has a
        positive omega-coordinate; deterministic and conjugation-stable.
        The character must have a value at both primes, so a conductor
        that either of them divides raises ValueError.
        """
        kind, primes = split_rational_prime(self.field, p)
        if kind != "split":
            raise ValueError(f"{p} is not split")
        v0 = self.evaluate(primes[0])
        self.evaluate(primes[1])  # raises where the conductor meets it
        if v0.y > 0:
            return primes[0], primes[1]
        if v0.y < 0:
            return primes[1], primes[0]
        raise ArithmeticError("split prime with real character value")

    def a_p(self, p: int) -> int:
        """Trace of the character at p: phi(p-above) + conjugate, or 0 inert."""
        kind, primes = split_rational_prime(self.field, p)
        if kind == "ramified":
            raise ValueError(f"{p} ramifies; no clean trace here")
        if kind == "inert":
            if not primes[0].is_coprime(self.conductor):
                raise ValueError(f"{p} meets the conductor")
            return 0
        v = self.evaluate(primes[0])
        return v.trace()

    def split_traces(self, bound: int) -> dict[int, int]:
        """{p: a_p} for the split primes 3 <= p <= bound not dividing N(f),
        in increasing order: the trace of the ray-normalized associate of
        the norm-form solution above p, found in one pass over the units.
        A prime of norm p is coprime to the conductor when p does not
        divide N(f), so no gcd is taken."""
        field, traces = self.field, {}
        for p in range(3, bound + 1, 2):
            # the one-power splitting test turns most composites away before
            # the trial division that decides primality
            if (self.conductor.norm % p and splitting_kind(field, p) == "split"
                    and is_rational_prime(p)):
                traces[p] = self._ray_one(norm_form_solution(field, p)).trace()
        return traces


def point_count_check(p: int, curve_a: int, curve_b: int, a_char: int) -> dict:
    """Compare the character's trace a_char at p with the exact point count."""
    count = count_points(p, curve_a, curve_b)
    a_count = p + 1 - count
    return {
        "p": p,
        "a_p_character": a_char,
        "a_p_count": a_count,
        "curve_points": count,
        "match": a_char == a_count,
    }
