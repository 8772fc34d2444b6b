"""Deterministic batch front end over the verification pipeline.

Certificates stream as JSON lines with sorted keys and fixed-digit
decimal renderings, so a repeated run with the same configuration and
seed produces identical bytes.  Exit codes: 0 when every verdict
passes, 1 when a verification fails, 2 when the configuration is
rejected, with an `error:` message and no traceback, and 3 when an
unexpected exception escapes, with one `internal error:` line naming it.
"""

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial
from typing import Callable, NamedTuple

from .finitefield import frobenius_equals_cm
from .hecke import HeckeCharacter, point_count_check
from .qfield import (
    QuadField,
    QuadIdeal,
    enumerate_L_R,
    factor_ideal,
    split_rational_prime,
)

SCHEMA = "k2-certificates/1"
DIGITS = 30
CURVE = "--curve-a/--curve-b"


class ConfigError(Exception):
    """Rejected configuration; maps to exit status 2."""


def _render(x):
    """Recursive conversion to JSON-safe values with stable renderings."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (int, str)):
        return x
    # no Dyadic exists unless an analytic command has imported its module
    dyadic = sys.modules.get("cmk2.dyadic")
    if dyadic is not None and isinstance(x, dyadic.Dyadic):
        return x.nstr(DIGITS)
    if isinstance(x, dict):
        return {str(k): _render(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return [_render(v) for v in sorted(x, key=str)]
    if isinstance(x, (list, tuple)):
        return [_render(v) for v in x]
    return str(x)


def _checked(prefix: str, fn, *args):
    """fn(*args), with a ValueError turned into a rejected configuration."""
    try:
        return fn(*args)
    except ValueError as e:
        raise ConfigError(f"{prefix}: {e}") from None


def _rational(text: str) -> tuple:
    """(num, den), den > 0, of the decimal or p/q literal `text` names, as
    mpmath reads a number's string; ValueError for anything else."""
    if "/" in text:
        p, q = (int(part.rstrip("l")) for part in text.split("/"))
        if not q:
            raise ValueError(text)
        return (p, q) if q > 0 else (-p, -q)
    text = text.rstrip("l")
    float(text)  # the syntax of a Python float literal
    mantissa, _, exp = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.rstrip("0")
    num, exp = int(whole + fraction), int(exp or 0) - len(fraction)
    return (num * 10 ** exp, 1) if exp >= 0 else (num, 10 ** -exp)


def _tol(args):
    """--tol as a Dyadic, rounded to nearest at the lattice's working
    precision from the exact rational its literal names."""
    from .analytic import GUARD_BITS
    from .dyadic import Dyadic

    text = args.tol.lower().strip()
    # an infinity or a nan is a number, just not one in range
    if text in ("inf", "+inf", "-inf", "nan"):
        raise ConfigError("--tol: must lie strictly between 0 and 1")
    try:
        num, den = _rational(text)
    except ValueError:
        raise ConfigError(f"--tol: not a number: {args.tol!r}") from None
    if not 0 < num < den:
        raise ConfigError("--tol: must lie strictly between 0 and 1")
    return Dyadic.ratio(num, den, args.prec + GUARD_BITS)


class Context:
    """What a command renders its record from, built once from the shared
    flags: the field and the character always; the torsion system and the
    analytic lattice with its tolerance when `needs` names them.  Only
    those two, and the commands that use them, import the torsion and
    analytic layers, so `enumerate`, `hecke-check` and `frobenius-check`
    run without them."""

    def __init__(self, args, needs):
        if args.samples < 2:
            raise ConfigError("--samples: need at least two sample points; one "
                              "ratio cannot show that a ratio is constant")
        if args.a < 1:
            raise ConfigError("--a: need a positive integer")
        if args.bound < 1:
            raise ConfigError("--bound: need a positive norm bound")
        self.args = args
        self.field = _checked("--d", QuadField, args.d)
        conductor = self.ideal(args.conductor, "--conductor")
        self.chi = _checked("--conductor", HeckeCharacter, self.field, conductor)
        if "system" in needs:
            if args.a < 2:
                raise ConfigError("--a: division functions need a >= 2")
            from .torsion import TorsionSystem

            self.system = TorsionSystem(self.chi)
        if "lattice" in needs:
            from .analytic import AnalyticLattice

            # the lattice rejects a precision below its floor
            self.lattice = _checked("--prec", AnalyticLattice, self.field, args.prec,
                                    _tol(args))

    def ideal(self, text: str, flag: str, prime: bool = False) -> QuadIdeal:
        gen = _checked(flag, self.field.parse, text)
        if gen.is_zero():
            raise ConfigError(f"{flag}: ideal generator must be nonzero")
        ideal = self.field.ideal(gen)
        if prime:
            fac = factor_ideal(ideal)
            if len(fac) != 1 or fac[0][1] != 1:
                raise ConfigError(f"{flag}: {text!r} is not a prime ideal")
        return ideal

    def split_pair(self):
        """(distinguished, conjugate) primes above --p; a prime the character
        cannot normalize is the conductor's fault."""
        if _checked("--p", split_rational_prime, self.field, self.args.p)[0] != "split":
            raise ConfigError(f"--p: {self.args.p} is not split")
        return _checked("--conductor", self.chi.split_primes_above, self.args.p)


# Each command renders one record from the shared context and its own
# options (--m, --l); the handler adds the schema and the id.


def _enumerate(ctx: Context, opts: dict) -> dict:
    args, chi = ctx.args, ctx.chi
    pbar = ctx.split_pair()[1]
    L, R = _checked("enumeration rejected", enumerate_L_R, ctx.field, args.bound,
                    chi.conductor, pbar, args.a)
    return {
        "a": args.a,
        "bound": args.bound,
        "conductor": str(chi.conductor),
        "avoided_conjugate": str(pbar),
        "admissible_primes": [str(I) for I in L],
        "admissible_norms": [I.norm for I in L],
        "ray_products": [str(I) for I in R],
        "ray_norms": [I.norm for I in R],
        "pass": True,
    }


def _hecke_check(ctx: Context, opts: dict) -> dict:
    args, chi = ctx.args, ctx.chi
    if 4 * args.curve_a ** 3 + 27 * args.curve_b ** 2 == 0:
        raise ConfigError(f"{CURVE}: the curve is singular")
    # a value the conductor cannot normalize and bad reduction at a counted
    # prime are rejected, each naming its flag
    traces = _checked("--conductor", chi.split_traces, args.bound)
    if not traces:
        raise ConfigError(f"--bound: no split prime up to {args.bound} to check")
    rows = [_checked(CURVE, point_count_check, p, args.curve_a, args.curve_b, a_p)
            for p, a_p in traces.items()]
    return {
        "bound": args.bound,
        "curve": [args.curve_a, args.curve_b],
        "checks": rows,
        "pass": all(row["match"] for row in rows),
    }


def _frobenius_check(ctx: Context, opts: dict) -> dict:
    args = ctx.args
    if ctx.field.d != -4:
        raise ConfigError("--d: the frobenius comparison is implemented "
                          "for discriminant -4 only")
    p_ideal = ctx.split_pair()[0]
    # Frobenius acts as the ray-normalized character value, which need not
    # be the canonical ideal generator
    pi = ctx.chi.evaluate(p_ideal)
    # rejects B != 0 and bad reduction at p
    rep = _checked(CURVE, frobenius_equals_cm, args.p, args.curve_a, args.curve_b, pi)
    return {
        "p": args.p,
        "curve": [args.curve_a, args.curve_b],
        "distinguished": str(p_ideal),
        "endomorphism": str(pi),
        "report": rep,
        "pass": rep["exactly_one"],
    }


def _build_alpha(ctx: Context, opts: dict) -> dict:
    from .symbols import build_alpha_prime, corestriction

    m = ctx.ideal(opts["m"], "--m")
    p_ideal = ctx.split_pair()[0]
    inner = _checked("construction rejected", build_alpha_prime, ctx.system, m,
                     ctx.args.a)
    return {
        "m": str(m),
        "a": ctx.args.a,
        "p": ctx.args.p,
        # the other prime above --p may meet the conductor
        "annotations": _checked("construction rejected", corestriction, ctx.system,
                                m, p_ideal),
        "term_count": inner.term_count(),
        "support": [str(P) for P in inner.support_points()],
        "meta": inner.meta,
        "pass": True,
    }


def _certify_tame(ctx: Context, opts: dict) -> dict:
    from .symbols import build_alpha_prime, certify_tame_kernel

    m = ctx.ideal(opts["m"], "--m")
    sym = _checked("construction rejected", build_alpha_prime, ctx.system, m,
                   ctx.args.a)
    cert = certify_tame_kernel(sym, ctx.lattice)
    return {
        "m": str(m),
        "a": ctx.args.a,
        "precision_bits": ctx.args.prec,
        "seed": ctx.args.seed,
        "certificate": cert,
        "pass": cert["pass"],
    }


def _verify_relation(ctx: Context, opts: dict, relation: str) -> dict:
    """The record of the norm relation E1 or E2 at the level --m and the
    prime --l.  After the flag checks the relation's run is built once,
    which rejects a configuration its elements cannot be built at; the
    verifier reads the same run from the lattice memo."""
    from . import relations

    args = ctx.args
    m = ctx.ideal(opts["m"], "--m")
    ell = ctx.ideal(opts["l"], "--l", prime=True)
    if ell.norm == 2:
        raise ConfigError("--l: a prime of norm 2 has E[l] = {0, P}, whose sum P "
                          "is not 0, so g_l has no principal divisor")
    if not ell.is_coprime(ctx.field.ideal(args.a)):
        raise ConfigError("--a: the prime divides a, so no conjugating unit "
                          "fixes the a-torsion")
    if relation == "E1" and not ell.divides(m):
        raise ConfigError("--l: the plain norm relation needs the prime "
                          "to divide the level")
    if relation == "E2" and not m.is_coprime(ell):
        raise ConfigError("--l: the twisted relation needs a prime coprime "
                          "to the level")
    if relation == "E2" and not ell.is_coprime(ctx.system.f_level):
        raise ConfigError("--l: the prime must be coprime to the fixed level")
    config = (ctx.system, m, ell, args.a)
    _checked("construction rejected", relations.relation_run, ctx.lattice, relation,
             *config, args.samples, args.seed)
    verify = relations.verify_E1 if relation == "E1" else relations.verify_E2
    rep = verify(*config, ctx.lattice, samples=args.samples, seed=args.seed)
    return {"m": str(m), "l": str(ell), "a": args.a, "precision_bits": args.prec,
            "samples": args.samples, "seed": args.seed, "report": rep,
            "pass": rep["pass"]}


class Command(NamedTuple):
    render: Callable[[Context, dict], dict]
    needs: tuple            # the optional context parts it renders from
    help: str
    options: tuple = ()     # its own flags, as (flag, type, default, help)


COMMANDS = {
    "enumerate": Command(
        _enumerate, (),
        "list admissible primes and their products up to the norm bound"),
    "hecke-check": Command(
        _hecke_check, (),
        "compare character traces against exact point counts for split "
        "primes up to the bound"),
    "build-alpha": Command(
        _build_alpha, ("system",),
        "construct the symbol sum at a level and report its shape",
        (("--m", str, "2-i", "level ideal"),)),
    "certify-tame": Command(
        _certify_tame, ("system", "lattice"),
        "certify that every tame value of the symbol sum is a root of unity",
        (("--m", str, "1", "level ideal"),)),
    "verify-e1": Command(
        partial(_verify_relation, relation="E1"), ("system", "lattice"),
        "verify the plain norm relation one level down",
        (("--m", str, "(2+i)^2", "level ideal, divisible by the prime"),
         ("--l", str, "2+i", "prime ideal"))),
    "verify-e2": Command(
        partial(_verify_relation, relation="E2"), ("system", "lattice"),
        "verify the twisted norm relation at a new prime",
        (("--m", str, "2-i", "level ideal, coprime to the prime"),
         ("--l", str, "2+i", "prime ideal"))),
    "frobenius-check": Command(
        _frobenius_check, (),
        "match Frobenius against the distinguished endomorphism on the "
        "extension group"),
}

# the default grid that `all` runs: (command, its options)
GRID = (
    ("enumerate", {}),
    ("hecke-check", {}),
    ("frobenius-check", {}),
    ("build-alpha", {"m": "2-i"}),
    ("certify-tame", {"m": "1"}),
    ("certify-tame", {"m": "2-i"}),
    ("certify-tame", {"m": "(2+i)*(2-i)"}),
    ("verify-e1", {"m": "(2+i)^2", "l": "2+i"}),
    ("verify-e2", {"m": "2-i", "l": "2+i"}),
)


def _record(name: str, ctx: Context, opts: dict) -> dict:
    return {"schema": SCHEMA, "id": name, **COMMANDS[name].render(ctx, opts)}


def _handler(name: str):
    def handler(args) -> list[dict]:
        return [_record(name, Context(args, COMMANDS[name].needs), vars(args))]
    return handler


def cmd_all(args) -> list[dict]:
    """The default grid over one shared context, sorted by id."""
    ctx = Context(args, {need for cmd in COMMANDS.values() for need in cmd.needs})
    records = [_record(name, ctx, opts) for name, opts in GRID]
    records.sort(key=lambda r: (r["id"], r.get("m", ""), r.get("a", 0)))
    return records


HANDLERS = {name: _handler(name) for name in COMMANDS}
HANDLERS["all"] = cmd_all

# flags every command shares, as (flag, type, default, help)
COMMON = (
    ("--d", int, -4, "field discriminant"),
    ("--curve-a", int, -1, "short Weierstrass a coefficient"),
    ("--curve-b", int, 0, "short Weierstrass b coefficient"),
    ("--conductor", str, "(1+i)^3", "character conductor"),
    ("--a", int, 2, "auxiliary integer for the division function"),
    ("--p", int, 13, "split rational prime"),
    ("--bound", int, 50, "norm bound for enumerations"),
    ("--prec", int, 256, "working precision in bits"),
    ("--tol", str, "1e-25", "numeric tolerance"),
    ("--samples", int, 20, "sample points per scan"),
    ("--seed", int, 20240801, "sample generator seed"),
    ("--out", str, None, "write certificates to this file instead of stdout"),
)


def _add_options(parser, options) -> None:
    for flag, kind, default, text in options:
        if default is not None:
            text = f"{text} (default {default})"
        parser.add_argument(flag, type=kind, default=default, help=text)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_options(common.add_argument_group("configuration"), COMMON)
    p = argparse.ArgumentParser(
        prog="cmk2",
        description="Construct division-function symbol sums on CM lattices "
                    "and certify their norm, tame-kernel, and point-count "
                    "consequences.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_options(sub.add_parser(name, parents=[common], help=command.help),
                     command.options)
    sub.add_parser("all", parents=[common],
                   help="run the whole default grid and stream certificates "
                        "sorted by id")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:  # before the run, so an unwritable --out costs no work
            out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
        except OSError as e:
            raise ConfigError(f"--out: {e.strerror}: {args.out}") from None
        with out as fh:
            records = HANDLERS[args.command](args)
            fh.write("".join(json.dumps(_render(rec), sort_keys=True, separators=(",", ":"))
                             + "\n" for rec in records))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return 3
    return 0 if all(rec["pass"] for rec in records) else 1


if __name__ == "__main__":
    raise SystemExit(main())
