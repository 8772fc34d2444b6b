"""One verdict path: every numeric acceptance is AnalyticLattice.within.

A syntax guard over every module of cmk2: no function but
AnalyticLattice.__init__ takes a `tol` parameter, and no comparison
outside AnalyticLattice.within has a tolerance operand (`tol`,
`DEFAULT_TOL` or `*.tol`).  A run guard: every residual the `all`
certificates print is one that `within` judged, so no printed residual
is decided by another rule.  The residual fields are perfbench's, read
as `test_reference_certificates` reads them.
"""

import ast
import json
import sys
from pathlib import Path

import cmk2
from cmk2 import cli
from cmk2.analytic import AnalyticLattice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import RESIDUALS  # noqa: E402

SOURCES = sorted(Path(cmk2.__file__).parent.glob("*.py"))


def _is_tolerance(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("tol", "DEFAULT_TOL")
            or isinstance(node, ast.Attribute) and node.attr == "tol")


def tolerance_sites(source: str) -> list[str]:
    """'line: what' for each `tol` parameter outside AnalyticLattice.__init__
    and each comparison with a tolerance operand outside
    AnalyticLattice.within."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            scope = f"{scope}.{name}" if scope else name
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if (scope != "AnalyticLattice.__init__"
                    and any(p is not None and p.arg == "tol" for p in params)):
                found.append(f"{node.lineno}: tol parameter of {scope}")
        elif isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Compare):
            if (scope != "AnalyticLattice.within"
                    and any(map(_is_tolerance, [node.left, *node.comparators]))):
                found.append(f"{node.lineno}: tolerance comparison in {scope or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_only_the_lattice_takes_and_compares_the_tolerance():
    assert len(SOURCES) > 5
    found = {path.name: tolerance_sites(path.read_text()) for path in SOURCES}
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_tolerance_sites_fault_control():
    lattice = ("class AnalyticLattice:\n"
               "    def __init__(self, field, prec, tol=DEFAULT_TOL):\n"
               "        self.tol = tol\n"
               "    def within(self, residual):\n"
               "        return residual < self.tol\n")
    assert tolerance_sites(lattice) == []
    assert tolerance_sites("def check(lat, dev):\n    if dev < lat.tol:\n        return 1\n") \
        == ["2: tolerance comparison in check"]
    assert tolerance_sites("def f(x, tol):\n    return x\n") == ["1: tol parameter of f"]
    assert tolerance_sites("ok = DEFAULT_TOL > 0\n") == ["1: tolerance comparison in module"]


def _printed_residuals(node, path="$"):
    """(path, rendering) of every residual field under a record that is
    numeric: an exact tame point prints the integer 0 instead."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _printed_residuals(item, f"{path}[{i}]")
    elif isinstance(node, dict):
        for key, value in node.items():
            if key not in RESIDUALS:
                yield from _printed_residuals(value, f"{path}.{key}")
            elif isinstance(value, str):
                yield f"{path}.{key}", value


def unjudged(records, judged) -> list[str]:
    """The paths of printed residuals that equal no judged residual at the
    printed digits."""
    renderings = {cli._render(r) for r in judged}
    return [path for path, text in _printed_residuals(records) if text not in renderings]


def _all(monkeypatch, tmp_path, *flags):
    """(exit code, records, residuals within judged) of one in-process
    `cmk2 all`."""
    judged = []
    within = AnalyticLattice.within
    monkeypatch.setattr(AnalyticLattice, "within",
                        lambda lat, residual: judged.append(residual) or within(lat, residual))
    out = tmp_path / "all.jsonl"
    rc = cli.main(["all", *flags, "--out", str(out)])
    return rc, [json.loads(line) for line in out.read_text().splitlines()], judged


def test_every_printed_residual_is_judged_by_within(monkeypatch, tmp_path):
    rc, records, judged = _all(monkeypatch, tmp_path)
    assert rc == 0
    assert len(list(_printed_residuals(records))) > 40
    assert unjudged(records, judged) == []
    # fault control: a residual no check judged is reported
    i, cert = next((i, r) for i, r in enumerate(records) if r["id"] == "certify-tame")
    j = next(j for j, p in enumerate(cert["certificate"]["points"]) if not p["exact"])
    cert["certificate"]["points"][j]["modulus_deviation"] = "1.5e-70"
    assert unjudged(records, judged) \
        == [f"$[{i}].certificate.points[{j}].modulus_deviation"]


def test_impossible_tolerance_fails_every_numeric_record(monkeypatch, tmp_path):
    # at 1e-200 every record with a numeric residual fails and every exact
    # one passes; certify-tame at level 1 has numeric points too
    rc, records, _judged = _all(monkeypatch, tmp_path, "--tol", "1e-200")
    assert rc == 1
    failed = sorted((r["id"], r["m"]) for r in records if not r["pass"])
    assert failed == [("certify-tame", "(1)"), ("certify-tame", "(1+2*w)"),
                      ("certify-tame", "(5)"), ("verify-e1", "(3+4*w)"),
                      ("verify-e2", "(1+2*w)")]
    assert {r["id"] for r in records if r["pass"]} \
        == {"enumerate", "hecke-check", "frobenius-check", "build-alpha"}
