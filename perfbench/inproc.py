"""One iteration of a workload inside a single process, traced or not.

    python3 perfbench/inproc.py --workload W --seed S --iteration I \
        --traced 0|1 --outdir DIR [--skip-module MOD ...]

Imports cmk2 from the checkout's ``src``, runs the workload's invocations
in sequence through ``cmk2.cli.main`` and writes ``DIR/summary.json``:
the iteration's wall time, each invocation's exit code, certificate file
and traceback, and with ``--traced 1`` the spans and counters.  Import
time is outside the timed iteration in both modes, so traced minus
untraced wall time is the tracing overhead.  ``--skip-module`` leaves a
module's imported names unwrapped; the benchmark's tests use it to show
that a missed name is caught.
"""

import argparse
import io
import json
import sys
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import MODULES, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--skip-module", action="append", default=[],
                    choices=MODULES)
    args = ap.parse_args()
    outdir = Path(args.outdir)

    from cmk2 import cli

    tracer = None
    if args.traced:
        tracer = Tracer(args.iteration)
        install(tracer, modules=[m for m in MODULES
                                 if m not in args.skip_module])
    results = []
    t0 = perf_counter()
    invocations = WORKLOADS[args.workload]["invocations"](args.seed)
    for k, argv in enumerate(invocations):
        out = outdir / f"{k}.jsonl"
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                rc = cli.main([*argv, "--out", str(out)])
            except SystemExit as e:
                rc = e.code
            except Exception:
                rc = None
                traceback.print_exc()
        results.append({"argv": argv, "rc": rc, "stderr": err.getvalue(),
                        "out": str(out)})
    wall = perf_counter() - t0

    summary = {"wall": wall, "invocations": results}
    if tracer is not None:
        summary.update(spans=tracer.spans, counts=dict(tracer.counts),
                       sigma_distinct=len(tracer.sigma_args))
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
