"""Fault controls for the benchmark's own checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Each check is shown to pass on real certificates and spans and to fail
when its fault is injected.  The layer tests run every workload once,
traced, in one process (under a minute in all).
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import judge, load_reference, margin, record_counts  # noqa: E402
from run import (  # noqa: E402
    EXPECTED_SPANS, inproc_iteration, missing_spans)
from tracer import iteration_metrics  # noqa: E402


def _grid():
    reference = load_reference("grid-256")
    (argv, records), = reference.items()
    return reference, list(argv), records


def _judge(records, rc=0, stderr=""):
    reference, argv, _ = _grid()
    text = "".join(json.dumps(r) + "\n" for r in records)
    return judge(argv, rc, stderr, text, reference, record_counts(reference))


def _record(records, rid):
    return next(r for r in records if r["id"] == rid)


def test_reference_passes_against_itself():
    _, _, records = _grid()
    attempted, failed, problems = _judge(records)
    assert (attempted, failed, problems) == (9, 0, [])


def _set_stage_id(records):
    _record(records, "verify-e1")["report"]["stages"][0]["id"] = "E1.1-x"


def _set_count(records):
    _record(records, "hecke-check")["checks"][0]["curve_points"] += 1


def _set_constant(records):
    # differs from the reference in the 20th significant digit
    scan = _record(records, "verify-e2")["report"]["stages"][3]["scan"]
    scan["constant"] = "(1.00000000000000000001 + 0.0j)"


def _set_verdict(records):
    _record(records, "frobenius-check")["pass"] = False


def _drop_record(records):
    records.pop()


@pytest.mark.parametrize("tamper", [_set_stage_id, _set_count, _set_constant,
                                    _set_verdict, _drop_record])
def test_tampered_record_counts_as_failed(tamper):
    _, _, records = _grid()
    records = copy.deepcopy(records)
    tamper(records)
    attempted, failed, problems = _judge(records)
    assert attempted == 9 and failed == 1 and problems


@pytest.mark.parametrize("rc,stderr", [(1, ""), (0, "Traceback (most recent")])
def test_crashed_invocation_fails_every_verdict(rc, stderr):
    _, _, records = _grid()
    assert _judge(records, rc, stderr)[:2] == (9, 9)


def test_numeric_agreement_beyond_25_digits_and_residuals_may_move():
    _, _, records = _grid()
    records = copy.deepcopy(records)
    scan = _record(records, "verify-e2")["report"]["stages"][3]["scan"]
    scan["constant"] = "(1.0000000000000000000000000001 + 0.0j)"
    scan["spread"] = "3.0e-40"
    assert _judge(records)[:2] == (9, 0)


def test_inflated_residual_drives_margin_below_zero():
    _, _, records = _grid()
    digits, zeros, scored = margin(records)
    assert digits > 50 and zeros > 0 and scored > 0
    records = copy.deepcopy(records)
    point = _record(records, "certify-tame")["certificate"]["points"][0]
    point["modulus_deviation"] = "1.0e-20"
    assert margin(records)[0] == pytest.approx(-5)


def test_residual_without_tolerance_is_rejected():
    with pytest.raises(ValueError):
        margin([{"stage": {"spread": "1.0e-30"}}])


def test_span_arithmetic():
    # main > handler > (sigma, handler > sigma); times in ns
    spans = [
        ["cli.main", 0, 100, None, 0],
        ["cli.handler", 10, 90, 0, 0],
        ["analytic.sigma", 20, 30, 1, 0],
        ["cli.handler", 40, 80, 1, 0],
        ["divisors.evaluate", 45, 75, 3, 0],
        ["analytic.sigma", 50, 70, 4, 0],
    ]
    m = iteration_metrics(spans, 2, {})
    assert m["cli.handler.calls"] == 2
    assert m["cli.handler.s"] == 80e-9  # the nested handler is not recounted
    assert m["cli.render_s"] == pytest.approx(20e-9)
    assert m["analytic.sigma.s"] == 30e-9
    assert m["divisors.evaluate.self_s"] == 10e-9
    assert m["top_level_s"] == 100e-9


def _traced_calls(workload, tmp_path, skip_modules=()):
    s = inproc_iteration(workload, 0, 0, 1, tmp_path / "run", skip_modules)
    assert all(inv["rc"] == 0 for inv in s["invocations"])
    return iteration_metrics(s["spans"], s["sigma_distinct"], s["counts"])


@pytest.mark.parametrize("workload", sorted(EXPECTED_SPANS))
def test_every_layer_called_on_its_workload(workload, tmp_path):
    metrics = _traced_calls(workload, tmp_path)
    assert missing_spans(workload, metrics) == []
    if workload == "grid-256":
        assert metrics["analytic.sigma.calls"] == 4218


@pytest.mark.parametrize("skip,missed", [
    ("cli", {"hecke.point_count_check", "finitefield.frobenius_equals_cm",
             "qfield.enumerate_L_R"}),
    ("hecke", {"finitefield.count_points"}),
])
def test_unwrapped_imported_name_is_caught(skip, missed, tmp_path):
    metrics = _traced_calls("exact", tmp_path, skip_modules=[skip])
    assert set(missing_spans("exact", metrics)) == missed
