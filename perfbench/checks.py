"""Certificate checks: verdicts, reference agreement and residual margins.

A verdict is one certificate record.  It fails when its ``pass`` is not
true, when its invocation exits non-zero or prints a traceback, or when
it disagrees with the committed reference certificate for the same
invocation.  Reference agreement means identical structure, identical
exact fields (ids, verdicts, integers, ideals, rationals) and numeric
renderings that agree to at least ``DIGITS`` significant digits.
Residual fields are not compared with the reference: a faster kernel may
move them.  They are scored by ``margin`` against their tolerance instead.
"""

import json
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

DIGITS = 25
RESIDUALS = frozenset({
    "spread",
    "modulus_deviation",
    "point_constant_deviation",
    "parity_sign_deviation",
    "modulus_ratio_deviation",
})
# Reported when a workload's certificates hold no nonzero residual: exact
# arithmetic has no rounding error, so its margin is unbounded.
MARGIN_CEILING = 1000.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_REAL = r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?"
_REAL_RE = re.compile(rf"^{_REAL}$")
_COMPLEX_RE = re.compile(rf"^\(({_REAL}) ([-+]) ({_REAL})j\)$")


def _number(text):
    """(re, im) as exact Fractions if `text` is a decimal rendering."""
    if _REAL_RE.match(text):
        return Fraction(text), Fraction(0)
    m = _COMPLEX_RE.match(text)
    if m:
        im = Fraction(m.group(3))
        return Fraction(m.group(1)), -im if m.group(2) == "-" else im
    return None


def _agree(a, b) -> bool:
    """|a - b| <= 10^-DIGITS * max(|a|, |b|), in exact arithmetic."""
    dr, di = a[0] - b[0], a[1] - b[1]
    scale = max(a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2)
    return dr * dr + di * di <= Fraction(1, 10 ** (2 * DIGITS)) * scale


def differences(ref, got, path="$") -> list[str]:
    """Places where `got` departs from the reference record `ref`."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref.keys() ^ got.keys())} differ"]
        out = []
        for key in ref:
            if key in RESIDUALS:
                if not (isinstance(got[key], str) and _number(got[key])):
                    out.append(f"{path}.{key}: residual {got[key]!r} "
                               "is not a number")
                continue
            out += differences(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += differences(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, str) and isinstance(got, str):
        a, b = _number(ref), _number(got)
        if a is not None and b is not None:
            return [] if _agree(a, b) else [f"{path}: {got} != {ref}"]
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: {got!r} != {ref!r}"]


def _inherited_tolerance(node: dict, tol):
    if "tolerance" in node:
        return node["tolerance"]
    config = node.get("config")
    if isinstance(config, dict) and "tolerance" in config:
        return config["tolerance"]
    return tol


def margin(records) -> tuple[float | None, int, int]:
    """(min digits, zero residuals, scored residuals) over `records`.

    Each residual field is scored as log10(tolerance / residual) against
    the tolerance of the report that encloses it.  Residuals that are
    exactly zero are counted, not scored.  A residual with no enclosing
    tolerance raises ValueError.
    """
    best, zeros, scored = None, 0, 0

    def walk(node, tol):
        nonlocal best, zeros, scored
        if isinstance(node, list):
            for item in node:
                walk(item, tol)
            return
        if not isinstance(node, dict):
            return
        tol = _inherited_tolerance(node, tol)
        for key, value in node.items():
            if key in RESIDUALS:
                if tol is None:
                    raise ValueError(f"residual {key} has no tolerance")
                res = Decimal(value)
                if res == 0:
                    zeros += 1
                    continue
                with localcontext() as ctx:
                    ctx.prec = 40
                    digits = float(Decimal(tol).log10() - res.log10())
                scored += 1
                best = digits if best is None else min(best, digits)
            else:
                walk(value, tol)

    walk(records, None)
    return best, zeros, scored


def load_reference(workload: str) -> dict[tuple, list]:
    """argv tuple -> reference records, for one workload."""
    out = {}
    with open(REFERENCE_DIR / f"{workload}.jsonl") as fh:
        for line in fh:
            entry = json.loads(line)
            out[tuple(entry["argv"])] = entry["records"]
    return out


def record_counts(reference: dict[tuple, list]) -> dict[str, int]:
    """Records each subcommand emits, so a crashed invocation can be charged
    for every verdict it should have produced."""
    return {argv[0]: len(recs) for argv, recs in reference.items()}


def judge(argv, rc, stderr, text, reference, counts) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one invocation's output.

    `text` is the certificate file the invocation wrote (None if absent).
    """
    expected = counts.get(argv[0], 1)
    if rc != 0 or "Traceback" in (stderr or "") or text is None:
        return expected, expected, [f"{' '.join(argv)}: exit {rc}: "
                                    f"{(stderr or '').strip()[-300:]}"]
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as e:
        return expected, expected, [f"{' '.join(argv)}: bad JSON: {e}"]
    ref = reference.get(tuple(argv))
    if ref is not None:
        expected = len(ref)
    problems = []
    failed = max(0, expected - len(records))
    if len(records) != expected:
        problems.append(f"{' '.join(argv)}: {len(records)} records, "
                        f"expected {expected}")
    for i, rec in enumerate(records):
        bad = [] if rec.get("pass") is True else ["pass is not true"]
        if ref is not None and i < len(ref):
            bad += differences(ref[i], rec)
        if bad:
            failed += 1
            problems.append(f"{' '.join(argv)} record {i}: {bad[:3]}")
    return max(len(records), expected), failed, problems
