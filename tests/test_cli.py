"""End-to-end runs of the command line front end.

Exit code contract: 0 all verdicts pass, 1 a verification failed,
2 the configuration was rejected, 3 an unexpected exception escaped.
Certificates are JSON lines and byte-identical across reruns of the same
configuration.
"""

import gc
import inspect
import json
import subprocess
import sys
import textwrap

import pytest

from cmk2 import cli

FAST = ["--prec", "128", "--tol", "1e-12", "--samples", "4"]


def run(*argv):
    proc = subprocess.run([sys.executable, "-m", "cmk2", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def test_enumerate_frozen_grid():
    code, out, _ = run("enumerate", "--bound", "30", "--a", "3")
    assert code == 0
    (rec,) = records(out)
    assert rec["schema"] == "k2-certificates/1"
    assert rec["admissible_primes"] == [
        "(1+2*w)", "(2+w)", "(3+2*w)", "(1+4*w)", "(4+w)",
        "(2+5*w)", "(5+2*w)"]
    assert rec["ray_norms"] == [1, 5, 5, 13, 17, 17, 25, 25, 25, 29, 29]


def test_hecke_check_traces():
    code, out, _ = run("hecke-check", "--bound", "30")
    assert code == 0
    (rec,) = records(out)
    got = {row["p"]: row["a_p_character"] for row in rec["checks"]}
    assert got == {5: -2, 13: 6, 17: 2, 29: -10}
    assert all(row["match"] for row in rec["checks"])


def test_frobenius_check_distinguished_prime():
    code, out, _ = run("frobenius-check", "--p", "13")
    assert code == 0
    (rec,) = records(out)
    assert rec["distinguished"] == "(3+2*w)"
    assert rec["endomorphism"] == "3+2*w"
    assert rec["report"]["pi_matches"] and not rec["report"]["pi_bar_matches"]
    assert rec["report"]["ext_count"] == 160


def test_frobenius_check_ray_normalized_generator():
    # the candidate endomorphism is the ray-normalized character value,
    # not the canonical generator; which of it or its conjugate matches
    # depends on the choice of sqrt(-1) mod p, but the matched trace is
    # canonical and must equal the character trace
    code, out, _ = run("frobenius-check", "--p", "5")
    assert code == 0
    (rec,) = records(out)
    assert rec["endomorphism"] == "-1+2*w"
    assert rec["report"]["exactly_one"]
    assert rec["report"]["matched_trace"] == -2
    assert rec["report"]["norm_of_pi_minus_1"] == 8


def test_frobenius_check_at_a_six_digit_prime():
    # one certified generator stands in for the 10^10 points of E(F_{p^2})
    code, out, _ = run("frobenius-check", "--p", "100049")
    assert code == 0
    (rec,) = records(out)
    assert rec["pass"] is True
    assert rec["report"]["ext_count"] == 10009817600


def test_build_alpha_annotations():
    code, out, _ = run("build-alpha", "--m", "2-i", "--p", "13")
    assert code == 0
    (rec,) = records(out)
    assert rec["annotations"]["case"] == "p-coprime-to-m"
    assert rec["annotations"]["distinguished_prime"] == "(3+2*w)"
    assert rec["term_count"] == 4
    assert "1/20+3/20*w" in rec["support"]


def test_certify_tame_passes():
    code, out, _ = run("certify-tame", "--m", "1", *FAST)
    assert code == 0
    (rec,) = records(out)
    assert rec["certificate"]["kind"] == "tame-kernel"
    assert rec["certificate"]["pass"]


def test_verify_e1_stage_ids():
    code, out, _ = run("verify-e1", *FAST)
    assert code == 0
    (rec,) = records(out)
    ids = [s["id"] for s in rec["report"]["stages"]]
    assert ids == ["E1.1-set-identity", "E1.2-function-identity",
                   "E1.3-distribution", "E1.4-parity",
                   "E1.5-tame-certificates", "E1.6-definitional-branch"]


def test_verify_e2_stage_ids_and_determinism(tmp_path):
    f1, f2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    code, _, _ = run("verify-e2", *FAST, "--out", str(f1))
    assert code == 0
    code, _, _ = run("verify-e2", *FAST, "--out", str(f2))
    assert code == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    (rec,) = records(b1.decode())
    ids = [s["id"] for s in rec["report"]["stages"]]
    assert ids == ["E2.1-set-identity", "E2.2-twist-point-level",
                   "E2.3-twisted-element", "E2.4-function-identity",
                   "E2.5-distribution-parity", "E2.6-tame-certificates"]


def test_verification_failure_exits_1():
    code, out, _ = run("verify-e1", "--prec", "128", "--samples", "3",
                       "--tol", "1e-60")
    assert code == 1
    (rec,) = records(out)
    assert not rec["pass"]


def test_build_alpha_rejects_a_distinguished_prime_at_the_conductor():
    # the distinguished prime above --p is the conductor: the character has
    # no value there, so split_pair rejects the conductor before any build
    code, out, err = run("build-alpha", "--conductor", "2-i", "--p", "5", "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: --conductor: (1+2*w) is not coprime to "
                          "the conductor"), err


def test_config_errors_exit_2(tmp_path):
    # (1+2w) has no generator congruent to 1 mod (7): the character, not
    # the curve, rejects this conductor
    conductor = ("hecke-check", "--d", "-7", "--conductor", "7", "--bound", "30")
    # the same conductor cannot normalize the primes above a split --p
    # either: the message names --conductor, and --p only for a p that is
    # not prime or not split
    messages = {
        ("enumerate", "--d", "-7", "--conductor", "7", "--p", "11"):
            "error: --conductor: (1+2*w) has no generator congruent to 1 mod (7)",
        ("enumerate", "--d", "-7", "--conductor", "7", "--p", "2"):
            "error: --conductor: (w) has no generator congruent to 1 mod (7)",
        ("enumerate", "--p", "9"): "error: --p: 9 is not prime",
        ("frobenius-check", "--p", "7"): "error: --p: 7 is not split",
        # the level meets the conductor: the run names the level --m, not m*l
        ("verify-e1", "--m", "(1+i)*(2+i)^2", "--l", "2+i"):
            "error: construction rejected: (7+w) is not coprime to the fixed level",
        # degenerate: y_m lies in E[a]
        ("verify-e2", "--d", "-3", "--conductor", "3", "--m", "1", "--l", "2+w",
         "--a", "3"):
            "error: construction rejected: degenerate configuration: y_m = 1/3+0*w",
        # the conductor is a prime above --p: the character has no value at
        # it, so neither prime above p can be designated
        ("frobenius-check", "--conductor", "2-i", "--p", "5"):
            "error: --conductor: (1+2*w) is not coprime to the conductor (1+2*w)",
        ("frobenius-check", "--conductor", "1+2*i", "--p", "5"):
            "error: --conductor: (1+2*w) is not coprime to the conductor (1+2*w)",
    }
    # l = (w) at d = -7 has norm 2: E[l] = {0, P} sums to P, so g_l has no
    # principal divisor
    norm_2 = [("verify-e2", "--d", "-7", "--conductor", "1+w", "--m", "1", "--l=-w",
               "--a", "3"),
              ("verify-e1", "--d", "-7", "--conductor", "1+w", "--m", "(w)^2", "--l=w",
               "--a", "3")]
    # an --out that cannot be opened: a missing directory, and a directory
    unwritable = [("enumerate", "--out", str(tmp_path / "missing" / "x.jsonl")),
                  ("enumerate", "--out", str(tmp_path))]
    cases = [
        ("certify-tame", "--m", "garbage"),
        ("certify-tame", "--m", "0"),
        ("verify-e2", "--m", "(2+i)^2"),          # prime divides the level
        ("verify-e1", "--m", "2-i"),              # prime does not divide it
        ("verify-e1", "--l", "3+i"),              # not a prime ideal
        ("certify-tame", "--tol", "xyz"),
        ("certify-tame", "--prec", "8"),
        ("enumerate", "--bound", "0"),
        ("enumerate", "--d", "-5"),               # class number > 1
        ("certify-tame", "--prec", "40"),         # below the lattice minimum
        ("verify-e1", "--a", "1"),                # division functions need a >= 2
        ("verify-e1", "--a", "5"),                # the prime divides a
        ("verify-e2", "--a", "5", "--m", "1", "--l", "2+i"),
        ("hecke-check", "--curve-a", "0", "--curve-b", "0"),   # singular
        ("hecke-check", "--curve-a", "0", "--curve-b", "0", "--bound", "4"),
        ("hecke-check", "--curve-a", "-5", "--bound", "30"),   # bad at 5
        ("hecke-check", "--bound", "4"),          # no split prime to check
        ("frobenius-check", "--curve-b", "1"),    # needs B = 0
        # the level meets the conductor
        ("verify-e2", "--m", "1+i", "--l", "2+i"),
        ("verify-e1", "--samples", "1"),          # one ratio shows no constancy
        conductor,
        *messages,
        *norm_2,
        *unwritable,
    ]
    errors = {}
    for argv in cases:
        code, _, err = run(*argv)
        assert code == 2, (argv, code, err)
        assert err.strip().startswith("error:"), argv
        errors[argv] = err
    assert errors[conductor].startswith("error: --conductor:"), errors[conductor]
    for argv, message in messages.items():
        assert errors[argv].startswith(message), errors[argv]
    for argv in norm_2:
        assert errors[argv].startswith("error: --l: a prime of norm 2"), errors[argv]
    for argv in unwritable:
        assert errors[argv].startswith("error: --out:"), errors[argv]


def test_exact_commands_import_no_analytic_code(tmp_path):
    # in a fresh process, since in-process runs see what other tests
    # imported; --prec is unused by the exact commands, so a precision
    # below the lattice floor passes through them
    script = textwrap.dedent(f"""
        import sys
        from cmk2 import cli
        for argv in (["enumerate"], ["hecke-check", "--bound", "100"],
                     ["frobenius-check", "--prec", "8"]):
            assert cli.main([*argv, "--out", {str(tmp_path / "out.jsonl")!r}]) == 0
        analytic = ("mpmath", "cmk2.analytic", "cmk2.divisors", "cmk2.symbols",
                    "cmk2.relations", "fractions")
        print(" ".join(m for m in analytic if m in sys.modules))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_analytic_commands_import_no_mpmath(tmp_path):
    # in a fresh process: the certificate path of every analytic command
    # computes in Dyadics from the kernel to the rendered record, and the
    # exact commands do not import that number type either
    script = textwrap.dedent(f"""
        import sys
        from cmk2 import cli
        out = {str(tmp_path / "out.jsonl")!r}
        for argv in (["enumerate"], ["hecke-check", "--bound", "100"],
                     ["frobenius-check", "--prec", "8"]):
            assert cli.main([*argv, "--out", out]) == 0
        print(" ".join(m for m in ("mpmath", "cmk2.dyadic") if m in sys.modules))
        fast = ["--prec", "128", "--samples", "4"]
        for argv in (["certify-tame"], ["verify-e1"], ["verify-e2"], ["all"]):
            assert cli.main([*argv, *fast, "--out", out]) == 0
        print(" ".join(m for m in ("mpmath",) if m in sys.modules))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["", ""]


def test_tol_contract():
    # a value outside (0, 1), an infinity and a nan included, and text that
    # names no number are rejected, each with its own message
    for tol in ("nan", "inf", "0", "1", "-1e-25"):
        code, _, err = run("certify-tame", f"--tol={tol}")
        assert (code, err) == (2, "error: --tol: must lie strictly between 0 and 1\n"), tol
    for tol in ("xyz", "1e-25x"):
        code, _, err = run("certify-tame", f"--tol={tol}")
        assert (code, err) == (2, f"error: --tol: not a number: {tol!r}\n"), tol
    # the tolerance renders as the rounded rational the literal names
    for tol, shown in (("1e-25", "1.0e-25"), ("0.3", "0.3")):
        code, out, _ = run("certify-tame", "--prec", "64", "--samples", "2", "--tol", tol)
        (rec,) = records(out)
        assert code == 0 and rec["certificate"]["tolerance"] == shown


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler failed\nin two lines")

    monkeypatch.setitem(cli.HANDLERS, "enumerate", broken)
    assert cli.main(["enumerate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: handler failed in two lines\n"
    assert "Traceback" not in captured.err


def test_unknown_subcommand_exits_2():
    code, _, _ = run("nonsense")
    assert code == 2


def test_all_sorted_and_green():
    code, out, _ = run("all", "--bound", "30", *FAST)
    assert code == 0
    recs = records(out)
    ids = [r["id"] for r in recs]
    assert ids == sorted(ids)
    assert {r["id"] for r in recs} == {
        "enumerate", "hecke-check", "frobenius-check", "build-alpha",
        "certify-tame", "verify-e1", "verify-e2"}
    assert sum(r["id"] == "certify-tame" for r in recs) == 3
    assert all(r["pass"] for r in recs)


@pytest.mark.parametrize("code, argv", (
    (0, ["frobenius-check", "--p", "13"]),
    (1, ["hecke-check", "--bound", "300", "--curve-a", "2"]),
    (2, ["frobenius-check", "--conductor", "2-i", "--p", "5"]),
))
def test_process_entry_writes_stdout_as_out(tmp_path, code, argv):
    # fresh processes through `python -m cmk2`, the entry that freezes the
    # heap before exit: stdout is flushed, the exit code kept
    out = tmp_path / "out.jsonl"
    plain = subprocess.run([sys.executable, "-m", "cmk2", *argv], capture_output=True)
    filed = subprocess.run([sys.executable, "-m", "cmk2", *argv, "--out", str(out)],
                           capture_output=True)
    assert (plain.returncode, filed.returncode) == (code, code)
    assert plain.stdout == out.read_bytes()
    assert (plain.stderr, filed.stdout) == (filed.stderr, b"")
    if code == 2:
        assert plain.stdout == b""
        assert plain.stderr.startswith(b"error: --conductor: "), plain.stderr
    else:
        assert plain.stdout.endswith(b"\n") and plain.stderr == b""


def test_module_entry_freezes_and_runs_exit_handlers():
    # `python -m cmk2` exits through run(): its heap is frozen, and the
    # interpreter still shuts down normally, running atexit handlers
    script = textwrap.dedent("""
        import atexit, gc, runpy, sys
        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
        sys.argv = ["cmk2", "frobenius-check", "--p", "13"]
        runpy.run_module("cmk2", run_name="__main__")
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert records(proc.stdout)[0]["pass"]


# run() with main returning 7: main, then the freeze, then exit code 7
ENTRY = ["main", "freeze", 7]


def _entry_events(monkeypatch, source=None):
    """The calls run() makes to main and gc.freeze, in order, then the code
    it exits with; `source` replaces run's source."""
    events = []
    monkeypatch.setattr(cli, "main", lambda argv=None: events.append("main") or 7)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    run_ = cli.run
    if source is not None:
        namespace = dict(vars(cli))
        exec(source, namespace)
        run_ = namespace["run"]
    with pytest.raises(SystemExit) as exit_:
        run_()
    return events + [exit_.value.code]


def test_run_freezes_after_main_and_exits_with_its_code(monkeypatch):
    assert _entry_events(monkeypatch) == ENTRY


@pytest.mark.parametrize("old, new", (
    ("    code = main()\n    gc.freeze()\n", "    gc.freeze()\n    code = main()\n"),
    ("SystemExit(code)", "SystemExit()"),
), ids=("freeze-first", "code-dropped"))
def test_entry_oracle_fails_a_mutated_run(monkeypatch, old, new):
    # fault controls: freezing before main, and exiting without its code
    source = inspect.getsource(cli.run)
    assert source.count(old) == 1
    assert _entry_events(monkeypatch, source.replace(old, new)) != ENTRY


def test_main_never_freezes(monkeypatch, tmp_path):
    # tests and the in-process benchmark call main() many times in one process
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    out = str(tmp_path / "out.jsonl")
    assert cli.main(["frobenius-check", "--p", "13", "--out", out]) == 0
    assert cli.main(["hecke-check", "--bound", "300", "--curve-a", "2", "--out", out]) == 1
    assert cli.main(["frobenius-check", "--conductor", "2-i", "--p", "5"]) == 2
    assert frozen == []
