"""The summary mode of scripts/compare_outputs.py on hand-made results."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def result(rc=0, files=None, **payload):
    return {"rc": rc, "stdout": json.dumps(payload) + "\n", "files": files or {}}


def test_numeric_moves_by_class():
    this = result(lhs=1.0 + 4e-15, slack=3e-3 + 1e-15, error=2e-9, terms={"r": 1e-17})
    other = result(lhs=1.0, slack=3e-3, error=1e-9, terms={"r": -2e-17})
    moves = compare_outputs.compare(this, other)
    assert moves["flags"] == []
    got = {kind: move for kind, (move, _) in moves["moves"].items()}
    assert got["value"] == pytest.approx(4e-15, rel=0.1)
    assert got["difference"] == pytest.approx(1e-15, rel=0.1)
    assert got["error estimate"] == pytest.approx(0.5)
    assert got["near zero"] == pytest.approx(3e-17)


def test_exit_code_verdict_and_warnings_are_flagged():
    this = result(verdict="holds", warnings=["x: quadrature tolerance not met (err=1.00e-03)"])
    other = result(rc=3, verdict="violated", warnings=[])
    assert compare_outputs.compare(this, other)["flags"] == ["exit code", "verdict", "warnings"]


def test_numbers_inside_text_and_csv():
    this = {"rc": 0, "stdout": "[PASS] id2.14 residuals  (worst=1.06e-16)\n",
            "files": {"out/a.csv": "index,rre.value,thm1.1.verdict\n0,0.5,holds\n"}}
    other = {"rc": 0, "stdout": "[PASS] id2.14 residuals  (worst=9.64e-17)\n",
             "files": {"out/a.csv": "index,rre.value,thm1.1.verdict\n0,0.5000000001,violated\n"}}
    moves = compare_outputs.compare(this, other)
    assert moves["flags"] == ["verdict"]
    assert moves["moves"]["near zero"][1].startswith("stdout:1#0 ")
    assert moves["moves"]["value"][0] == pytest.approx(2e-10, rel=1e-3)
    line = compare_outputs.describe(moves)
    assert "FLAGGED verdict" in line and "value rel 2.00e-10 at out/a.csv:0.rre.value" in line


def test_cases_run_every_golden_argv_and_lemma4(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    argvs = [" ".join(case["argv"]) for case in compare_outputs.cases([], str(tmp_path))]
    root = str(_PATH.parent.parent) + "/"
    golden = json.loads(pathlib.Path(compare_outputs.GOLDEN).read_text(encoding="utf-8"))
    assert {key.replace("scenarios/", root + "scenarios/") for key in golden} <= set(argvs)
    assert len(argvs) == len(set(argvs))
    assert sum(a.startswith("verify lemma4 --f") for a in argvs) == 15
    assert sum(a.startswith("verify cor4 --f weighted:") for a in argvs) == 2
    variation = {f"compute wfi --f {f} --w {w} --alpha inf --p {p}"
                 for f, w, p in compare_outputs.VARIATION_INPUTS}
    assert len(variation) == 5 and variation <= set(argvs)
    closed = set(compare_outputs.CLOSED_FORM_INPUTS)
    assert len(closed) == 39 and closed <= set(argvs)
