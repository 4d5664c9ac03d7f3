"""Golden CLI outputs, compared byte for byte.

Each case is one ``wrenyi`` argv: every CLI example of the README,
``repro all``, one missing-value case per measure and check id, one
case per branch of the mei/cor1/fii/cri bounds, and one successful case
per integral or supremum against a density that no other case reaches.
The
stdout, the exit code and every file the command writes (sweep reports)
are pinned in ``golden/cli_golden.json``.  Re-record it only for an
intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import io
import json
import os
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from wrenyi.cli import CHECKS, MEASURES, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_golden.json"

README_EXAMPLES = [
    ["compute", "wre", "--f", "exp:1", "--w", "expw:-0.5", "--p", "2"],
    ["verify", "mei", "--f", "gg:2,2", "--w", "expw:0.1", "--alpha", "2", "--p", "2"],
    ["verify", "thm1.1", "--f", "exp:3.5", "--g", "exp:1.5", "--w", "expw:-1", "--p", "1"],
    ["sweep", "scenarios/example_1_1_regime_a.sweep"],
    ["repro", "all"],
]

# One per id: every value the id needs but one, so the message names it.
MISSING_VALUE = [
    ["compute", "we", "--w", "expw:0.1"],
    ["compute", "rwe", "--f", "exp:1"],
    ["compute", "wre", "--f", "exp:1"],
    ["compute", "wrp", "--f", "exp:1"],
    ["compute", "rre", "--f", "exp:1", "--g", "exp:2"],
    ["compute", "rrp", "--f", "exp:1", "--g", "exp:2"],
    ["compute", "mom", "--f", "exp:1"],
    ["compute", "dev", "--f", "exp:1"],
    ["compute", "fi", "--f", "gg:2,2", "--p", "2"],
    ["compute", "wfi", "--f", "gg:2,2", "--p", "2"],
    ["verify", "thm1.1", "--f", "exp:1", "--g", "exp:2"],
    ["verify", "mei", "--f", "gg:2,2", "--p", "2"],
    ["verify", "cor1", "--f", "tent"],
    ["verify", "cor2", "--f", "tent"],
    ["verify", "cor3"],
    ["verify", "fii", "--f", "gg:2,2", "--p", "2"],
    ["verify", "cor4", "--f", "tent"],
    ["verify", "cri", "--f", "gg:2,2", "--p", "2"],
    ["verify", "scaling", "--f", "gg:2,2", "--p", "2"],
    ["verify", "lemma4"],
    ["verify", "id2.11", "--p", "2"],
    ["verify", "id2.14", "--p", "0.8"],
    ["verify", "id2.18", "--p", "1"],
    ["verify", "id2.22", "--p", "2"],
]

# One successful case per branch of the moment-entropy, Fisher and
# Cramer-Rao bounds, and the alpha = inf, p = 1 input error.
BOUND_CASES = [
    *(
        ["verify", cid, "--f", f, "--w", w, "--alpha", alpha, "--p", p]
        for f, w, alpha, p in [
            ("gg:2,2", "expw:0.1", "2", "2"),
            ("gg:2,0.8", "const:1", "2", "0.8"),
            ("gg:2,1", "pow:2", "2", "1"),
            ("gg:inf,2", "expw:0.1", "inf", "2"),
        ]
        for cid in ("fii", "cri")
    ),
    ["verify", "mei", "--f", "gg:2,1", "--w", "pow:2", "--alpha", "2", "--p", "1"],
    ["verify", "cor1", "--f", "laplace:1", "--c", "1", "--alpha", "2", "--p", "2"],
    ["verify", "cor1", "--f", "laplace:1", "--c", "1", "--alpha", "2", "--p", "1"],
    ["verify", "fii", "--f", "tent", "--w", "const:1", "--alpha", "inf", "--p", "1"],
]

# Successful runs through the integrals and suprema against a density
# that the cases above leave out: the scaling identity, cor2-cor4, the
# lemma4 residual, the weighted-density normalizer, the cross term of
# the relative entropy, the alpha = inf deviation and the alpha = 1,
# alpha = inf and unweighted Fisher informations.
INTEGRAL_CASES = [
    ["verify", "scaling", "--f", "gg:2,2", "--w", "pow:1.5", "--p", "2", "--t", "1.7"],
    ["verify", "cor2", "--f", "tent", "--c", "0"],
    ["verify", "cor3", "--f", "gg:2,2"],
    ["verify", "cor4", "--f", "laplace:1", "--c", "0.2"],
    ["verify", "lemma4", "--f", "tent", "--gfn", "atan"],
    ["compute", "we", "--f", "weighted:laplace:1;expw:0.2", "--w", "pow:1"],
    ["compute", "rwe", "--f", "laplace:1", "--g", "gg:2,1", "--w", "fpoly:1,0.5"],
    ["compute", "dev", "--f", "gg:2,2", "--w", "abspoly:1,0.5", "--alpha", "inf"],
    ["compute", "wfi", "--f", "gg:2,2", "--w", "pow:1", "--p", "2", "--alpha", "1"],
    ["compute", "wfi", "--f", "gg:2,2", "--w", "expw:0.2", "--p", "1.5", "--alpha", "inf"],
    ["compute", "fi", "--f", "gg:2,2", "--p", "2", "--alpha", "2"],
]

# The error and warnings of a value computed from several terms: a
# Fisher information's root, an unconverged Fisher integral inside a
# Fisher bound, and a generalized Gaussian with a |x|^-1.03 tail, whose
# mass is 1 in closed form where a quadrature reads 0.81; and two G
# refused at parse time, their bulk near |x| = e^-101 and 1e230, where
# every quadrature of them read a wrong number with no warning.
ERROR_CASES = [
    ["compute", "fi", "--f", "laplace:1", "--p", "2", "--alpha", "2"],
    ["verify", "fii", "--f", "gg:1.662,1.894", "--w", "expw:-0.208", "--p", "1", "--alpha", "1.92"],
    ["compute", "wre", "--f", "gg:0.3,0.71", "--w", "const:1", "--p", "2"],
    ["compute", "wre", "--f", "gg:0,1.01", "--w", "const:1", "--p", "2"],
    ["compute", "we", "--f", "gg:0.01,0.995", "--w", "const:1"],
]

CASES = README_EXAMPLES + MISSING_VALUE + BOUND_CASES + INTEGRAL_CASES + ERROR_CASES


def run_case(argv, workdir):
    """Exit code, stdout and written files of one argv run inside workdir.

    Paths into the repository (scenario files) are made absolute, so that
    reports written to relative paths land under workdir.
    """
    argv = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {
        p.relative_to(workdir).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(pathlib.Path(workdir).rglob("*"))
        if p.is_file()
    }
    return {"exit": code, "stdout": buf.getvalue(), "files": files}


def _key(argv):
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(_key(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_matches_golden(argv, golden, tmp_path):
    assert run_case(argv, tmp_path) == golden[_key(argv)]


def test_one_missing_value_case_per_id():
    assert sorted(argv[1] for argv in MISSING_VALUE) == sorted(MEASURES + CHECKS)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    record = {}
    for argv in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            record[_key(argv)] = run_case(argv, workdir)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases -> {GOLDEN}")
