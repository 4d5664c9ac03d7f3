"""Exact bits of the generalized p-Gaussian pdf, dpdf, CDF and quantile.

One case per branch (alpha = inf, alpha = 0, p = 1, p > 1, p < 1), all
at a scale t != 1.  Each function is evaluated on one array and point by
point on scalars; both must reproduce the bits pinned in
``golden/gg_bits.json`` (as ``float.hex``, so -0.0 and inf are kept).
Re-record it only for an intended change of values:

    PYTHONPATH=src python tests/test_gg_bits.py --record
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from wrenyi.densities import make_generalized_gaussian

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "gg_bits.json"

# (alpha, p, t): two cases per branch.
CASES = [
    (math.inf, 2.0, 1.5),
    (math.inf, 0.5, 0.7),
    (0.0, 2.0, 1.5),
    (0.0, 3.0, 0.7),
    (2.0, 1.0, 0.7),
    (1.0, 1.0, 1.5),
    (2.0, 2.0, 1.5),
    (1.5, 3.0, 0.7),
    (2.0, 0.8, 0.7),
    (1.0, 0.5, 1.5),
]

LEVELS = [1e-300, 1e-16, 0.25, 0.5, 0.75, 1.0 - 1e-16]


def _points(g):
    """+-0, the finite support edges, +-750 and interior points."""
    t = g.params["t"]
    xs = [0.0, -0.0, 750.0, -750.0]
    xs += [e for e in g.support if math.isfinite(e)]
    for u in (1e-300, 0.01, 0.3, 0.9, 0.999, 1.7, 4.0):
        xs += [u * t, -u * t]
    return xs


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


def evaluate(alpha, p, t):
    """{function name: bits} on one array and on each scalar."""
    g = make_generalized_gaussian(alpha, p, t)
    xs = _points(g)
    out = {}
    for name, fn, args in (
        ("pdf", g.pdf, xs),
        ("dpdf", g.dpdf, xs),
        ("cdf_fn", g.cdf_fn, xs),
        ("quantile_fn", g.quantile_fn, LEVELS),
    ):
        out[name] = _bits(fn(np.array(args)))
        out[name + "/scalar"] = _bits([fn(v) for v in args])
    return out


def _key(case):
    return ",".join(repr(v) for v in case)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(_key(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_bits_match_golden(case, golden):
    assert evaluate(*case) == golden[_key(case)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record = {_key(c): evaluate(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases -> {GOLDEN}")
