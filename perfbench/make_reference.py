"""Write the reference certificates the benchmark compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every reference invocation of each workload (all of them at the
default seed, plus every Frobenius prime the exact workload can draw) in
a fresh ``python -m cmk2`` process and writes
``perfbench/reference/<workload>.jsonl``, one line per invocation.
Regenerate only when a change is meant to alter certificates.
"""

import json
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR
from run import run_child
from workloads import WORKLOADS


def main(names) -> int:
    for name in names or sorted(WORKLOADS):
        lines = []
        with tempfile.TemporaryDirectory() as tmp:
            for argv in WORKLOADS[name]["reference"]():
                out = Path(tmp) / "out.jsonl"
                rc, stderr, _ = run_child([sys.executable, "-m", "cmk2",
                                           *argv, "--out", str(out)])
                if rc != 0:
                    print(f"{' '.join(argv)}: exit {rc}\n{stderr}",
                          file=sys.stderr)
                    return 1
                records = [json.loads(line)
                           for line in out.read_text().splitlines()]
                lines.append(json.dumps({"argv": argv, "records": records},
                                        sort_keys=True, separators=(",", ":")))
        (REFERENCE_DIR / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        print(f"{name}: {len(lines)} invocations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
