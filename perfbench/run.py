"""cmk2 benchmark: runs cmk2 the way its users do and checks every verdict.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere inside a checkout; cmk2 is imported from its ``src``.
Workloads are defined in ``workloads.py`` and described in README.md.

``--trace 0`` measures what a CLI user sees.  It first times
SETUP_REPEATS fresh interpreters that import cmk2 and build the
workload's objects (``setup_s``, median).  Then, for ``--seconds``
seconds and at least once, it runs one iteration after another: every
invocation of the workload in its own ``python -m cmk2 ... --out FILE``
process, one at a time (a closed loop with a single client).  It reports
the median iteration time, the share of verdicts that pass, the largest
child RSS and the smallest residual margin in digits.  Times are scaled
to a reference machine speed (see PROBE_REF_S).

``--trace 1`` alternates untraced and traced iterations, each in a single
process (``inproc.py``), as many pairs as fit in ``--seconds`` seconds and
at least one.  It reports per-layer counts and busy times from the
spans, and the tracing overhead as the difference of the two median wall
times.  Spans of every traced iteration are written to
``.perfbench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are diagnostics.
"""

import argparse
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checks import MARGIN_CEILING, judge, load_reference, margin, record_counts
from tracer import combine, iteration_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
# Machine speed.  On a host shared with other tenants, a process here ran
# up to 35% slower for tens of seconds at a time while steal time stayed
# near zero, and both cores slowed together.  So while each child runs, the
# benchmark times a short pure-Python probe on the other core when the child
# starts and every PROBE_GAP_S after (about 1% of that core).  Each
# iteration time is scaled by PROBE_REF_S over the mean probe time during
# it, with the top and bottom tenth of probes dropped.  Over 12
# back-to-back `cmk2 all` runs this cut the coefficient of variation of
# their times from 16% to 2.6% (the median probe: 6.8%), and over 10
# hexagonal `verify-e2` runs from 8.5% to 2.2%.  Set-up children last about
# 0.13 s and give one or two probes each, too few for a trimmed mean, so
# set-up is scaled by the median probe.  Probes taken between children,
# with no child running, tracked nothing.  PROBE_REF_S is a typical probe time with a child
# running, on this machine class (2 shared cores, Python 3.11), so reported
# times are seconds at that speed.  Raw wall times are printed as
# diagnostics.
PROBE_LOOPS = 1_000
PROBE_GAP_S = 0.1
PROBE_REF_S = 0.001
MIN_COVERAGE = 0.9
# The spans each workload is built for; a zero count on any of them means a
# wrapper missed a name the program looks up (see tracer.install).
EXPECTED_SPANS = {
    "grid-256": [
        "analytic.sigma", "analytic.lattice_init", "divisors.evaluate",
        "divisors.leading_at", "divisors.scan", "symbols.certify_tame",
        "symbols.normal_form", "relations.verify_E1", "relations.verify_E2",
        "relations.function_identity", "relations.conjugating_units",
        "torsion.preimage_set", "torsion.galois_conjugates", "cli.handler",
    ],
    "hexagonal-512": [
        "analytic.sigma", "analytic.lattice_init", "divisors.evaluate",
        "divisors.leading_at", "divisors.scan", "symbols.certify_tame",
        "relations.verify_E2", "relations.function_identity", "cli.handler",
    ],
    "exact": [
        "qfield.enumerate_L_R", "qfield.split_rational_prime",
        "hecke.point_count_check",
        "finitefield.count_points", "finitefield.frobenius_equals_cm",
        "cli.handler",
    ],
}


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Probe:
    """Machine-speed samples taken while children run."""

    def __init__(self):
        self.samples: list[float] = []

    def take(self) -> None:
        # big-integer products, shifts and divisions in interpreted code,
        # the mix mpmath's pure-Python backend spends its time on
        t0 = perf_counter()
        x, acc = (1 << 320) + 987654321, 0
        for i in range(PROBE_LOOPS):
            q, r = divmod((x * (x ^ i)) >> 320, 1000003 + i)
            acc = (acc + q % 97 + r % 89) & 0xFFFFFFFF
        self.samples.append(perf_counter() - t0)

    def scale(self, since: int = 0, trim: bool = True) -> float:
        """Factor to reference speed for the samples from index `since`:
        from their mean without the top and bottom tenth, or with
        `trim=False` from their median."""
        x = sorted(self.samples[since:])
        if not trim:
            return PROBE_REF_S / statistics.median(x)
        k = len(x) // 10
        return PROBE_REF_S / statistics.fmean(x[k:len(x) - k])


def run_child(cmd: list[str], probe: Probe | None = None):
    """Run a child to completion, probing machine speed meanwhile.

    Returns (exit code or None on timeout, stderr, wall seconds).
    """
    with tempfile.TemporaryFile("w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                                stdout=subprocess.DEVNULL, stderr=err)
        # a pidfd wakes select() the moment the child exits, so the gaps
        # between probes add nothing to the measured wall time
        pidfd = os.pidfd_open(proc.pid)
        try:
            if probe is not None:
                probe.take()
            while not select.select([pidfd], [], [], PROBE_GAP_S)[0]:
                if perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
                    break
                if probe is not None:
                    probe.take()
        finally:
            os.close(pidfd)
        wall = perf_counter() - t0
        rc = proc.wait()
        err.seek(0)
        stderr = err.read()
    if wall > CHILD_TIMEOUT_S:
        return None, f"timed out after {CHILD_TIMEOUT_S} s\n{stderr}", wall
    return rc, stderr, wall


def _read(path: Path) -> str | None:
    return path.read_text() if path.is_file() else None


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{pct:g}={q[round(pct * 10) - 1]:.4f} s (n={n})"
    return f"n/a (n={n}; a tail needs at least 11 iterations)"


class Verdicts:
    """Verdict tally for one run, plus the per-invocation bytes of the
    first iteration: a rerun at the same seed must repeat them exactly."""

    def __init__(self, workload: str):
        self.reference = load_reference(workload)
        self.counts = record_counts(self.reference)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, str] = {}
        self.records: list = []

    def add(self, k: int, argv, rc, stderr, text) -> None:
        attempted, failed, problems = judge(argv, rc, stderr, text,
                                            self.reference, self.counts)
        if text is not None and failed == 0:
            if k not in self.first:
                self.first[k] = text
                self.records += [json.loads(line)
                                 for line in text.splitlines()]
            elif text != self.first[k]:
                failed = attempted
                problems.append(f"{' '.join(argv)}: certificates differ "
                                "from the first iteration")
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def timed_run(workload: str, seed: int, seconds: float, tmp: Path):
    spec = WORKLOADS[workload]
    verdicts = Verdicts(workload)
    probe = Probe()

    setup = []
    for _ in range(SETUP_REPEATS):
        rc, stderr, wall = run_child([sys.executable, "-c", spec["setup"]],
                                     probe)
        setup.append(wall)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {stderr.strip()[-500:]}")
    setup_scale = probe.scale(trim=False)

    invocations = spec["invocations"](seed)
    walls: list[float] = []
    scaled: list[float] = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        since = len(probe.samples)
        results = []
        t0 = perf_counter()
        for k, argv in enumerate(invocations):
            out = tmp / f"{len(walls)}-{k}.jsonl"
            rc, stderr, _ = run_child([sys.executable, "-m", "cmk2", *argv,
                                       "--out", str(out)], probe)
            results.append((k, argv, rc, stderr, out))
        walls.append(perf_counter() - t0)
        scaled.append(walls[-1] * probe.scale(since))
        for k, argv, rc, stderr, out in results:
            verdicts.add(k, argv, rc, stderr, _read(out))
            out.unlink(missing_ok=True)

    try:
        digits, zeros, scored = margin(verdicts.records)
    except ValueError as e:
        verdicts.failed += 1
        verdicts.problems.append(str(e))
        digits, zeros, scored = None, 0, 0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    attempted = max(verdicts.attempted, 1)
    metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "iter_s_p50": statistics.median(scaled),
        "pass_ratio": (attempted - verdicts.failed) / attempted,
        "peak_rss_mb": rss,
        "margin_digits_min": MARGIN_CEILING if digits is None else digits,
    }
    print(f"iterations: {len(walls)}; wall "
          f"{' '.join(f'{t:.3f}' for t in walls)} s; at reference speed "
          f"{' '.join(f'{t:.3f}' for t in scaled)} s")
    print(f"iter_s_tail: {tail_percentile(scaled)}")
    print(f"set-up wall: {' '.join(f'{t:.3f}' for t in setup)} s; "
          f"speed factor {setup_scale:.3f}")
    print(f"probes: {len(probe.samples)}, median "
          f"{1000 * statistics.median(probe.samples):.2f} ms "
          f"(reference {1000 * PROBE_REF_S:.2f} ms)")
    print(f"fail_ratio: {verdicts.failed}/{attempted}")
    print(f"margin: {scored} residuals scored, {zeros} exactly zero")
    return verdicts, metrics, []


def missing_spans(workload: str, metrics: dict) -> list[str]:
    return [name for name in EXPECTED_SPANS[workload]
            if metrics[f"{name}.calls"] == 0]


def inproc_iteration(workload, seed, iteration, traced, outdir: Path,
                     skip_modules=(), probe: Probe | None = None) -> dict:
    outdir.mkdir()
    skip = [arg for m in skip_modules for arg in ("--skip-module", m)]
    rc, stderr, _ = run_child([sys.executable, str(HERE / "inproc.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--iteration", str(iteration),
                               "--traced", str(traced),
                               "--outdir", str(outdir), *skip], probe)
    if rc != 0:
        raise RuntimeError(f"in-process run failed: {stderr.strip()[-500:]}")
    with open(outdir / "summary.json") as fh:
        return json.load(fh)


def traced_run(workload: str, seed: int, seconds: float, tmp: Path):
    verdicts = Verdicts(workload)
    walls = {0: [], 1: []}
    per_iteration, coverage, spans = [], [], []
    start = perf_counter()
    pair_s = 0.0
    probe = Probe()
    # pairs that fit in the time given, and at least one
    while not per_iteration or perf_counter() - start + pair_s <= seconds:
        i = len(per_iteration)
        t0 = perf_counter()
        for traced in (0, 1):
            since = len(probe.samples)
            summary = inproc_iteration(workload, seed, i, traced,
                                       tmp / f"{i}-{traced}", probe=probe)
            scale = probe.scale(since)
            walls[traced].append(summary["wall"] * scale)
            for k, inv in enumerate(summary["invocations"]):
                verdicts.add(k, inv["argv"], inv["rc"], inv["stderr"],
                             _read(Path(inv["out"])))
        pair_s = perf_counter() - t0
        own = summary["spans"]
        m = iteration_metrics(own, summary["sigma_distinct"],
                              summary["counts"])
        coverage.append(m["top_level_s"] / summary["wall"])
        per_iteration.append({k: v * scale if isinstance(v, float) else v
                              for k, v in m.items()})
        base = len(spans)
        spans += [[name, t0, t1, None if p is None else p + base, it]
                  for name, t0, t1, p, it in own]

    metrics, unsteady = combine(per_iteration)
    metrics["trace.overhead_s"] = (statistics.median(walls[1])
                                   - statistics.median(walls[0]))
    errors = [f"count {name} differs between iterations" for name in unsteady]
    errors += [f"span {name} was never called"
               for name in missing_spans(workload, metrics)]
    errors += [f"top-level spans cover {c:.1%} of the traced wall time"
               for c in coverage if c < MIN_COVERAGE]

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start_ns", "end_ns", "parent",
                              "iteration"],
                   "spans": spans}, fh)
    print(f"traced iterations: {len(per_iteration)}; at reference speed, "
          "untraced "
          f"{' '.join(f'{t:.3f}' for t in walls[0])} s, traced "
          f"{' '.join(f'{t:.3f}' for t in walls[1])} s")
    print(f"top-level span coverage: {' '.join(f'{c:.3f}' for c in coverage)}")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return verdicts, metrics, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cmk2" / "cli.py").is_file():
        print(f"error: no cmk2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        run = traced_run if args.trace else timed_run
        verdicts, values, errors = run(args.workload, args.seed,
                                       args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in verdicts.problems[:20] + errors:
        print(f"problem: {line}")
    result = {
        "correct": verdicts.failed == 0 and not errors,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
