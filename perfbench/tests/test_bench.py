"""Tests of the benchmark itself: generator, checker and tracer.

    python -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_deck_and_table(tmp_path, workload):
    a = ops.make_deck(workload, 7, str(tmp_path / "a"))
    b = ops.make_deck(workload, 7, str(tmp_path / "b"))
    strip = lambda deck: [json.dumps(op, sort_keys=True).replace("/a/", "/x/").replace("/b/", "/x/") for op in deck]  # noqa: E731
    assert strip(a) == strip(b)
    name = f"table-{workload}-7.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    c = ops.make_deck(workload, 8, str(tmp_path / "a"))
    assert [op["argv"] for op in c] != [op["argv"] for op in a]


def test_deck_covers_the_listed_branches(tmp_path):
    argvs = [" ".join(op["argv"]) for op in ops.make_deck("measures", 1, str(tmp_path))]
    for mid in ("we", "rwe", "wre", "wrp", "rre", "rrp", "mom", "dev", "fi", "wfi"):
        assert any(a.startswith(f"compute {mid} ") for a in argvs), mid
    for needle in ("--f laplace:", "--f tent", "--f gg:0,", "--f gg:inf,", "--f weighted:", "--f table:",
                   "--w expw:", "--w pow:", "--w abspoly:", "--w fpoly:", "--w fpow:",
                   "verify id2.11", "verify id2.14", "verify id2.18", "verify id2.22", "verify scaling"):
        assert any(needle in a for a in argvs), needle


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_deck_size_is_odd_so_the_median_is_one_op(tmp_path, workload):
    assert len(ops.make_deck(workload, 1, str(tmp_path))) % 2 == 1


def _exp_op():
    f = {"family": "exp", "lam": 1.5}
    return ops.compute_op("wre", f, w={"family": "expw", "g": 0.2}, p=2.0)


def test_checker_accepts_the_reference_and_catches_a_planted_error():
    op = _exp_op()
    refs = reference.reference_terms(op)
    ref = float(refs["value"])
    # closed form: log(l^p / (p l - g)) / (1 - p)
    assert ref == pytest.approx(math.log(1.5**2 / (2 * 1.5 - 0.2)) / (1 - 2), rel=1e-12)
    good = json.dumps({"measure": "wre", "value": ref})
    assert reference.check_output(op, 0, good, refs) == []
    planted = json.dumps({"measure": "wre", "value": ref * (1 + 1e-4)})
    assert reference.check_output(op, 0, planted, refs)
    assert reference.check_output(op, 3, '{"error":{}}', refs)


def test_checker_quadrature_reference_matches_a_known_value():
    # Laplace(1) with phi = 1: weighted entropy = 1 + log 2.
    op = ops.compute_op("we", {"family": "laplace", "b": 1.0}, w={"family": "const", "v": 1.0})
    assert float(reference.measure_reference(op["spec"])) == pytest.approx(1 + math.log(2), rel=1e-9)


def test_checker_verdict_and_residual_rules():
    op = ops.verify_op("mei", f={"family": "tent"}, w={"family": "pow", "c": 1.0}, alpha=2.0, p=2.0)
    verdict = {"lhs": 1.0, "rhs": 0.5, "slack": 0.5, "error": 1e-9, "verdict": "holds", "margins": {"m": 0.1}}
    assert reference.check_output(op, 0, json.dumps(verdict), {}) == []
    for planted in ({"verdict": "violated", "slack": -0.5}, {"verdict": "inconclusive", "error": 0.6},
                    {"verdict": "assumptions-unmet"}, {"margins": {"m": -0.1}}, {"rhs": float("nan")}):
        assert reference.check_output(op, 0, json.dumps(dict(verdict, **planted)), {}), planted
    unmet = dict(verdict, margins={"m": -0.1}, verdict="assumptions-unmet")
    assert reference.check_output(op, 0, json.dumps(unmet), {}) == []
    assert reference.check_output(op, 0, json.dumps(dict(unmet, verdict="violated")), {}) == []
    assert reference.check_output(op, 0, json.dumps(dict(unmet, verdict="inconclusive")), {})
    cor4 = ops.verify_op("cor4", f={"family": "tent"}, c=0.2)
    both = {"first": verdict, "second": dict(verdict, verdict="inconclusive")}
    assert reference.check_output(cor4, 0, json.dumps(both), {})
    ident = ops.verify_op("id2.11", w={"family": "pow", "c": 1.0}, alpha=2.0, p=2.0)
    assert reference.check_output(ident, 0, '{"residual": 1e-9, "passed": true}', {}) == []
    assert reference.check_output(ident, 0, '{"residual": 1e-3, "passed": true}', {})


def test_every_binding_of_a_wrapped_function_is_traced():
    import numpy as np

    import wrenyi.cli  # noqa: F401
    from tracer import LAYERS, Tracer

    mods = {n: m for n, m in sys.modules.items() if n == "wrenyi" or n.startswith("wrenyi.")}
    originals = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            if "." not in fn:
                originals[f"{layer}.{fn}"] = getattr(mods[f"wrenyi.{layer}"], fn)
    tracer = Tracer()
    tracer.install()
    try:
        for name, orig in originals.items():
            left = [f"{m}.{a}" for m, mod in mods.items() for a, v in vars(mod).items() if v is orig]
            assert left == [], f"{name} still bound unwrapped at {left}"
        from wrenyi import densities, measures, numerics
        from wrenyi.inequalities import build_transport

        f = densities.parse_density("laplace:1")
        numerics.integrate(lambda x: np.exp(-np.abs(x)), (-1.0, 1.0))
        measures.integrate(lambda x: np.exp(-np.abs(x)), (-1.0, 1.0))
        build_transport(f, densities.make_laplace(2.0))(np.array([0.1, 0.2, 0.3]))
    finally:
        tracer.uninstall()
    for name, orig in originals.items():
        mod, fn = name.rsplit(".", 1)
        assert getattr(mods[f"wrenyi.{mod}"], fn) is orig
    summary = tracer.summary()
    assert summary["densities.parse_density"]["calls"] == 1
    assert summary["numerics.integrate"]["calls"] >= 2
    assert summary["numerics.integrate"]["points"] > 0
    assert summary["inequalities.build_transport"]["calls"] == 1
    assert summary["inequalities.TransportMap.__call__"]["points"] >= 3
    assert summary["densities.cdf"]["calls"] > 0


def test_parse_importtime_nested_special_counts_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       3000 |     scipy.special",
        "import time:      2000 |       9000 |   scipy.optimize",
        "import time:       500 |        500 |   wrenyi.numerics",
        "import time:       100 |      12000 | wrenyi",
    ])
    got = run.parse_importtime(text)
    assert got["import.scipy_special_s"] == pytest.approx(0.003)
    assert got["import.scipy_optimize_s"] == pytest.approx(0.006)
    assert got["import.wrenyi_self_s"] == pytest.approx(0.0006)


def test_benchmark_json_names_every_printed_metric():
    import layers

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(ops.WORKLOADS)
    printed = {"setup_s", "peak_rss_mb", *run.latency_metrics([[0, 0.1], [1, 0.2], [0, 0.3]], 0.6, 95)}
    assert {m["name"] for m in doc["end_to_end"]} == printed
    assert [m["name"] for m in doc["per_layer"]] == [spec[0] for spec in layers.SPEC]


def test_latency_metrics_count_every_op_call():
    lat = [[0, 0.010], [1, 0.030], [0, 0.050], [1, 0.020]]
    m = run.latency_metrics(lat, 0.125, 100)
    assert m["ops_per_s"][0] == pytest.approx(4 / 0.125)
    assert m["op_ms.p50"][0] == pytest.approx(25.0)
    assert m["op_ms.tail"][0] == pytest.approx(50.0)
