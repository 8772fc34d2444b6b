"""Spans around the public entry points of each cmk2 layer, recorded from
outside the package.

`install` wraps each function named in SPANS and rebinds every module
global that refers to it, because modules import these names directly
(``cli`` imports ``verify_E2``, ``hecke`` imports ``count_points``, ...):
wrapping only the defining module would miss those calls.  Spans stay in
memory as [name, start_ns, end_ns, parent, iteration] lists and are
written out when the run ends.
"""

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

import mpmath as mp

MODULES = ("qfield", "hecke", "torsion", "analytic", "finitefield",
           "divisors", "symbols", "relations", "cli")

# span name -> (module, attribute or Class.method)
SPANS = {
    "analytic.sigma": ("analytic", "AnalyticLattice.sigma"),
    "analytic.lattice_init": ("analytic", "AnalyticLattice.__init__"),
    "divisors.evaluate": ("divisors", "EllFunction.evaluate"),
    "divisors.leading_at": ("divisors", "EllFunction.leading_at"),
    "divisors.scan": ("divisors", "equal_up_to_constant"),
    "symbols.certify_tame": ("symbols", "certify_tame_kernel"),
    "symbols.normal_form": ("symbols", "normal_form"),
    "relations.verify_E1": ("relations", "verify_E1"),
    "relations.verify_E2": ("relations", "verify_E2"),
    "relations.function_identity": ("relations", "verify_function_identities"),
    "relations.conjugating_units": ("relations", "conjugating_units"),
    "torsion.preimage_set": ("torsion", "preimage_set"),
    "torsion.galois_conjugates": ("torsion", "galois_conjugates"),
    "qfield.enumerate_L_R": ("qfield", "enumerate_L_R"),
    "qfield.split_rational_prime": ("qfield", "split_rational_prime"),
    "qfield.factor_ideal": ("qfield", "factor_ideal"),
    "hecke.point_count_check": ("hecke", "point_count_check"),
    "finitefield.count_points": ("finitefield", "count_points"),
    "finitefield.frobenius_equals_cm": ("finitefield", "frobenius_equals_cm"),
    "cli.main": ("cli", "main"),
}
HANDLER = "cli.handler"  # every cli.cmd_* function, looked up via HANDLERS
SELF_TIMED = ("divisors.evaluate", "divisors.leading_at")


class Tracer:
    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sigma_args: set = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_args=None, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            span = [name, 0, 0, stack[-1] if stack else None, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _sigma_arg(self, args):
        # key on the exact binary value: rendering it as text costs more
        # than the wrapper and would inflate the traced wall time
        lat, z = args[0], mp.mpmathify(args[1])
        value = z._mpc_ if isinstance(z, mp.mpc) else z._mpf_
        self.sigma_args.add((lat.field.d, lat.prec, value))

    def _tame_points(self, cert):
        self.counts["symbols.tame_points"] += len(cert["points"])

    def _ext_points(self, report):
        self.counts["finitefield.ext_points"] += report["ext_count"]


def install(tracer: Tracer, modules=MODULES) -> None:
    """Wrap every SPANS entry and the CLI handlers; rebind the wrapped
    names in each of `modules` (defining module included)."""
    mods = {m: importlib.import_module(f"cmk2.{m}") for m in MODULES}
    hooks = {
        "analytic.sigma": {"on_args": tracer._sigma_arg},
        "symbols.certify_tame": {"on_result": tracer._tame_points},
        "finitefield.frobenius_equals_cm": {"on_result": tracer._ext_points},
    }
    replace = {}  # id(original) -> wrapper
    for name, (mod, attr) in SPANS.items():
        owner = mods[mod]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
        setattr(owner, attr, wrapper)
        replace[id(original)] = wrapper
    handlers = mods["cli"].HANDLERS
    for command, fn in handlers.items():
        handlers[command] = replace[id(fn)] = tracer.wrap(HANDLER, fn)
    for m in modules:
        namespace = vars(mods[m])
        for key, value in list(namespace.items()):
            if id(value) in replace:
                namespace[key] = replace[id(value)]


def iteration_metrics(spans, sigma_distinct: int, counts: dict) -> dict:
    """Per-layer counts and busy times for the spans of one iteration.

    `name.s` is inclusive time, counted once for nested calls of the same
    name; `name.self_s` subtracts the time of direct child spans.
    """
    calls = Counter()
    inclusive = defaultdict(int)
    self_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        self_ns[name] += end - start
        if parent is not None:
            p = spans[parent]
            self_ns[p[0]] -= end - start
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] += end - start
    out = {}
    for name in list(SPANS) + [HANDLER]:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name] / 1e9
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out["cli.render_s"] = out["cli.main.s"] - out[f"{HANDLER}.s"]
    out["analytic.sigma.distinct"] = sigma_distinct
    out["symbols.tame_points"] = counts.get("symbols.tame_points", 0)
    out["finitefield.ext_points"] = counts.get("finitefield.ext_points", 0)
    top = sum(end - start for _, start, end, parent, _ in spans
              if parent is None)
    out["top_level_s"] = top / 1e9
    return out


def combine(per_iteration: list[dict]) -> tuple[dict, list[str]]:
    """Counts must repeat exactly across iterations; times take the median.
    Returns (metrics, names of counts that did not repeat)."""
    first = per_iteration[0]
    out, unsteady = {}, []
    for key in first:
        values = [m[key] for m in per_iteration]
        if isinstance(first[key], int):
            if len(set(values)) != 1:
                unsteady.append(key)
            out[key] = first[key]
        else:
            out[key] = statistics.median(values)
    return out, unsteady
