"""Every committed reference invocation, rerun in-process and judged.

`perfbench/reference/*.jsonl` holds one line per benchmark invocation:
its argv and the certificate records it must reproduce.  Each argv runs
through `cli.main` with `--out`, and `perfbench/checks.judge` compares
the records with the reference: verdicts, exit code, exact fields
identical and numbers to 25 digits.  So a certificate that drifts from
the reference fails tier-1, not only the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from cmk2 import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import judge, load_reference, record_counts  # noqa: E402

WORKLOADS = sorted(p.stem for p in (PERFBENCH / "reference").glob("*.jsonl"))
CASES = [(w, argv) for w in WORKLOADS for argv in load_reference(w)]


def _run(argv, tmp_path, capsys):
    """(exit code, stderr, certificate text) of one in-process invocation."""
    out = tmp_path / "certificates.jsonl"
    rc = cli.main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else None
    return rc, capsys.readouterr().err, text


def _judge(workload, argv, rc, stderr, text):
    reference = load_reference(workload)
    return judge(list(argv), rc, stderr, text, reference, record_counts(reference))


def test_every_workload_has_references():
    assert WORKLOADS == ["exact", "grid-256", "hexagonal-512"]
    assert len(CASES) == 22


@pytest.mark.parametrize("workload, argv", CASES,
                         ids=[f"{w}:{' '.join(a)}" for w, a in CASES])
def test_reference_invocation_reproduces(workload, argv, tmp_path, capsys):
    rc, stderr, text = _run(argv, tmp_path, capsys)
    attempted, failed, problems = _judge(workload, argv, rc, stderr, text)
    assert failed == 0 and not problems, problems
    assert attempted == len(load_reference(workload)[argv])


def test_altered_exact_field_is_reported(tmp_path, capsys):
    # fault control: one exact field of one record changed
    argv = ("frobenius-check", "--p", "13")
    rc, stderr, text = _run(argv, tmp_path, capsys)
    records = [json.loads(line) for line in text.splitlines()]
    records[0]["report"]["i_mod_p"] += 1
    altered = "".join(json.dumps(r) + "\n" for r in records)
    _attempted, failed, problems = _judge("exact", argv, rc, stderr, altered)
    assert failed == 1 and "i_mod_p" in problems[0]
