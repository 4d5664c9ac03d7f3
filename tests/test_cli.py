"""CLI surface: descriptors, exit codes, JSON determinism, sweeps."""

import csv
import io
import json
import math
from contextlib import redirect_stdout

import pytest

from wrenyi import cli
from wrenyi.cli import main, parse_scenario, to_json


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestCompute:
    def test_tilted_renyi_entropy(self):
        code, out = run_cli(["compute", "wre", "--f", "exp:1", "--w", "expw:-0.5", "--p", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(math.log(2.5), abs=1e-10)

    def test_signed_polynomial_deviation(self):
        code, out = run_cli(
            ["compute", "dev", "--f", "exp:1", "--w", "abspoly:1,-2,-1,2", "--alpha", "1"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(39.0, abs=1e-9)

    def test_validity_gate_exit_code(self):
        code, out = run_cli(["compute", "wre", "--f", "exp:1", "--w", "expw:3", "--p", "2"])
        assert code == 3
        assert json.loads(out)["error"]["type"] == "numeric"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # -phi f log f = x^-3 e^-x x at lam = 1
            ("we --f exp:1 --w pow:-3", "weighted entropy diverges: x^-2 is not integrable at 0"),
            (
                "mom --f exp:1 --w pow:-3 --alpha 1",
                "generalized moment diverges: x^-2 is not integrable at 0",
            ),
            ("wre --f exp:1 --w expw:3 --p 2", "int phi f^p diverges: p*lam-gamma = -1 <= 0"),
        ],
    )
    def test_divergent_closed_form_is_a_numeric_error(self, argv, message):
        code, out = run_cli(["compute", *argv.split()])
        assert code == 3
        assert json.loads(out)["error"] == {"type": "numeric", "message": message}

    @pytest.mark.parametrize("mid", ["dev", "mom"])
    def test_gamma_overflow_is_a_numeric_error(self, mid):
        # The alpha = 200 moment of Exp(1) is Gamma(201) = 7.9e374.
        code, out = run_cli(["compute", mid, "--f", "exp:1", "--alpha", "200"])
        assert code == 3
        assert json.loads(out)["error"] == {"type": "numeric", "message": "Gamma(201.0) overflows"}

    @pytest.mark.parametrize(
        "argv, value",
        [
            # phi f = x^-1.5 e^-x is not integrable at 0, but its coefficient log(1) is 0
            ("we --f exp:1 --w pow:-1.5", math.sqrt(math.pi)),
            ("rwe --f exp:1 --g exp:1 --w pow:-1.5", 0.0),
            # the zero coefficient's Gamma(172) overflows
            ("mom --f exp:1 --w abspoly:1,0 --alpha 170", math.gamma(171.0)),
        ],
    )
    def test_zero_coefficient_term_adds_nothing(self, argv, value):
        code, out = run_cli(["compute", *argv.split()])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(value, rel=1e-15, abs=0.0)
        assert (payload["error"], payload["branch"]) == (0, "closed-form")

    def test_unknown_measure(self):
        code, out = run_cli(["compute", "zzz", "--f", "exp:1"])
        assert code == 2

    @pytest.mark.parametrize("f, value", [("gg:2,2", 27 / 64), ("gg:inf,2", 0.125)])
    def test_density_power_weight_with_m_zero(self, f, value):
        # fpow:1,0 is f itself: its derivative has no f''/f' term, not even
        # where f' = 0 (x = 0 on gg:2,2, everywhere on gg:inf,2).
        argv = ["compute", "wfi", "--f", f, "--w", "fpow:1,0", "--p", "2", "--alpha", "inf"]
        code, out = run_cli(argv)
        assert code == 0
        assert json.loads(out)["value"] == value

    def test_deterministic_bytes(self):
        argv = ["compute", "wrp", "--f", "gg:2,2", "--w", "expw:0.1", "--p", "2"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2


class TestVerify:
    def test_cor2_equality(self):
        code, out = run_cli(["verify", "cor2", "--f", "tent", "--c", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] == pytest.approx(2 / 3, abs=1e-8)
        assert payload["rhs"] == pytest.approx(2 / 3, abs=1e-8)

    def test_mei_equality(self):
        code, out = run_cli(
            ["verify", "mei", "--f", "gg:2,2", "--w", "expw:0.1", "--alpha", "2", "--p", "2"]
        )
        assert code == 0
        assert abs(json.loads(out)["slack"]) <= 1e-5

    def test_cri_on_a_table_with_a_constant_weight_holds(self, table_csv):
        # E_f[phi] = E_G[phi] = 1.3 exactly; a table integral off by 4e-9
        # made that margin negative and the verdict "assumptions-unmet".
        argv = ["--f", f"table:{table_csv}", "--w", "const:1.3", "--p", "1.7", "--alpha", "2.4"]
        code, out = run_cli(["verify", "cri", *argv])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "holds"
        assert abs(payload["margins"]["E_f[phi]-E_G[phi]"]) <= 1e-12

    def test_thm11_violated_regime(self):
        code, out = run_cli(
            ["verify", "thm1.1", "--f", "exp:0.1", "--g", "exp:1", "--w", "expw:-2", "--p", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        # The bound fails here, but so does its hypothesis: no claim is made.
        assert payload["verdict"] == "assumptions-unmet"
        assert payload["slack"] < 0 and payload["margins"]["E_f[phi]-E_g[phi]"] < 0

    @pytest.mark.parametrize("p", ["0.5", "1"])
    def test_thm11_infinite_divergence_holds(self, p):
        # The tent's support does not hold Laplace's: D = +inf >= 0, though
        # the slack's error is infinite too.
        code, out = run_cli(["verify", "thm1.1", "--f", "laplace:1", "--g", "tent", "--p", p])
        assert code == 0
        payload = json.loads(out)
        assert payload["slack"] == "inf" and payload["error"] == "inf"
        assert payload["verdict"] == "holds"

    def test_identity_check(self):
        code, out = run_cli(
            ["verify", "id2.11", "--w", "expw:0.1", "--alpha", "2", "--p", "2"]
        )
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-6

    def test_scaling(self):
        code, out = run_cli(
            ["verify", "scaling", "--f", "gg:2,2", "--w", "expw:0.3", "--t", "1.7", "--p", "2"]
        )
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-7

    def test_lemma4(self):
        code, out = run_cli(["verify", "lemma4", "--f", "tent", "--gfn", "x"])
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-7

    @pytest.mark.parametrize("f", ["laplace:1", "gg:2,0.8"])
    def test_renyi_power_overflow_is_a_numeric_error(self, f):
        # N_rho1(G) with rho1 = phi^10 overflows exp() inside cri.
        argv = ["verify", "cri", "--f", f, "--w", "abspoly:1,0.1", "--alpha", "2", "--p", "0.8"]
        code, out = run_cli(argv)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["type"] == "numeric"
        assert error["message"].startswith("weighted Renyi power overflows")

    @pytest.mark.parametrize(
        "w, p, message",
        [
            # psi(x) = (e^{gx} - 1)/g at x = +-1 overflows for |g| = 800.
            ("expw:800", "2", "exp-linear antiderivative overflows: exp(800.0)"),
            ("expw:-800", "2", "exp-linear antiderivative overflows: exp(800.0)"),
            # psi stays finite, but N(G) = 2^{p/(p-1)} psi^{1/(1-p)} does not.
            ("expw:700", "0.5", "weighted Renyi power of G overflows"),
            ("expw:0.3", "1.0000000001", "weighted Renyi power of G overflows"),
            # Both powers are finite, their product 2^1001 * 2^1000 is not.
            ("pow:3", "1.001", "weighted Renyi power of G overflows"),
        ],
    )
    def test_alpha_inf_gaussian_overflow_is_a_numeric_error(self, w, p, message):
        code, out = run_cli(["verify", "id2.22", "--w", w, "--p", p, "--alpha", "inf"])
        assert code == 3
        assert json.loads(out)["error"] == {"type": "numeric", "message": message}

    @pytest.mark.parametrize(
        "argv",
        [
            # 2^{1/(p-1)} overflows in N(G).
            "id2.11 --w const:1 --alpha 2 --p 1.00001",
            # Lambda(Z)^{1/(1-p)} overflows in N(G).
            "id2.14 --w const:1 --alpha 2 --p 0.99999",
        ],
    )
    def test_p_near_one_is_a_numeric_error(self, capsys, argv):
        code, out = run_cli(["verify", *argv.split()])
        assert code == 3
        assert json.loads(out)["error"]["type"] == "numeric"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("h", [1e-3, 1e-5])
    @pytest.mark.parametrize("check", ["fii", "cri"])
    def test_sides_are_continuous_through_p_one(self, check, h):
        # J^{rho1}(G) is a closed form, so p = 1 + h answers within O(h) of p = 1.
        argv = ["verify", check, "--f", "laplace:1", "--w", "const:1", "--alpha", "2", "--p"]
        at_one, near = (json.loads(run_cli([*argv, repr(p)])[1]) for p in (1.0, 1.0 + h))
        assert at_one["rhs"] == pytest.approx(0.70711, abs=1e-5)
        assert near["verdict"] == at_one["verdict"] == "holds"
        for side in ("lhs", "rhs"):
            assert abs(near[side] - at_one[side]) <= 2 * h

    @pytest.mark.parametrize("f", ["gg:2,2", "gg:inf,2"])
    def test_fii_with_density_power_weight_reports_json(self, f):
        argv = ["verify", "fii", "--f", f, "--w", "fpow:1,0", "--p", "2", "--alpha", "inf"]
        code, out = run_cli(argv)
        assert code in (0, 3)
        assert isinstance(json.loads(out), dict)

    def test_unknown_check(self):
        code, _ = run_cli(["verify", "nope", "--f", "tent"])
        assert code == 2


class TestSweep:
    def _scenario(self, tmp_path, name="s.sweep", body=None):
        body = body or (
            "id = demo\n"
            "f = exp:{lambda1}\n"
            "g = exp:{lambda2}\n"
            "w = expw:{gamma}\n"
            "p = 1\n"
            "lambda1 = 3.5\n"
            "lambda2 = 1.5\n"
            "gamma = interior:-10,-1,5\n"
            "verify = thm1.1\n"
            "compute = rre\n"
            f"out_csv = {tmp_path}/out.csv\n"
            f"out_json = {tmp_path}/out.json\n"
        )
        path = tmp_path / name
        path.write_text(body)
        return path

    def test_runs_and_writes(self, tmp_path):
        path = self._scenario(tmp_path)
        code, _ = run_cli(["sweep", str(path)])
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "out.csv")))
        assert len(rows) == 5
        assert all(r["thm1.1.verdict"] == "holds" for r in rows)
        # One column per measure flag and per verdict margin.
        assert all(float(r["rre.flags.lam1-gamma"]) > 0 for r in rows)
        assert all(float(r["thm1.1.margins.E_f[phi]-E_g[phi]"]) > 0 for r in rows)
        payload = json.loads(open(tmp_path / "out.json").read())
        assert len(payload["rows"]) == 5

    def test_rows_recomputable(self, tmp_path):
        # Every CSV row's verdict is reproducible from its own inputs.
        path = self._scenario(tmp_path)
        run_cli(["sweep", str(path)])
        rows = list(csv.DictReader(open(tmp_path / "out.csv")))
        from wrenyi.densities import make_exponential
        from wrenyi.inequalities import check_thm11
        from wrenyi.weights import make_exp_linear

        for row in rows:
            v = check_thm11(
                make_exponential(3.5),
                make_exponential(1.5),
                make_exp_linear(float(row["gamma"])),
                1.0,
            )
            assert v.verdict == row["thm1.1.verdict"]
            assert v.slack == pytest.approx(float(row["thm1.1.slack"]), rel=1e-12)

    def test_unknown_key_rejected(self, tmp_path):
        path = self._scenario(
            tmp_path,
            body="id = bad\nf = exp:1\nmystery = 3\ncompute = we\n",
        )
        code, _ = run_cli(["sweep", str(path)])
        assert code == 2

    def test_row_errors_nonfatal(self, tmp_path):
        body = (
            "id = partial\n"
            "f = exp:{lam}\n"
            "w = expw:3\n"
            "p = 2\n"
            "lam = 1,4\n"
            "compute = wre\n"
            f"out_csv = {tmp_path}/p.csv\n"
        )
        path = self._scenario(tmp_path, body=body)
        code, _ = run_cli(["sweep", str(path)])
        assert code == 3  # one row diverges (p*lam < gamma)
        rows = list(csv.DictReader(open(tmp_path / "p.csv")))
        assert len(rows) == 2
        assert rows[0]["error"] != "" and rows[1]["error"] == ""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("f = exp:1\ncompute = wre\n", "--p is required"),
            ("f = gg:2,2\nalpha = 2\nverify = mei\n", "--p is required"),
            ("f = tent\nverify = cor2\n", "--c is required"),
            ("f = exp:1\ncompute = rwe\n", "--g is required"),
            ("f = exp:1\ncompute = mom\n", "needs --alpha"),
            ("p = 2\ncompute = wrp\n", "--f is required"),
        ],
        ids=["wre-p", "mei-p", "cor2-c", "rwe-g", "mom-alpha", "wrp-f"],
    )
    def test_missing_value_is_a_row_error(self, tmp_path, body, message):
        path = self._scenario(tmp_path, body=f"id = missing\n{body}out_csv = {tmp_path}/m.csv\n")
        code, _ = run_cli(["sweep", str(path)])
        assert code == 3
        (row,) = csv.DictReader(open(tmp_path / "m.csv"))
        assert row["error"].startswith("InputError: ") and message in row["error"]

    def test_alpha_oo_reads_as_inf(self, tmp_path):
        rows = []
        for alpha in ("inf", "oo"):
            body = (
                f"id = inf\nf = gg:inf,2\nw = expw:0.1\np = 2\nalpha = {alpha}\n"
                f"verify = mei\nout_csv = {tmp_path}/{alpha}.csv\n"
            )
            code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
            assert code == 0
            (row,) = csv.DictReader(open(tmp_path / f"{alpha}.csv"))
            rows.append(row)
        assert rows[1]["mei.lhs"] == rows[0]["mei.lhs"]
        assert rows[1]["mei.verdict"] == rows[0]["mei.verdict"] == "holds"

    @pytest.mark.parametrize(
        "orders, message",
        [
            ("alpha = 2\np = abc\n", "p must be a number, got 'abc'"),
            ("p = 2\nx = 2\nalpha = {x}x\n", "alpha must be a number, got '2.0x'"),
        ],
        ids=["p", "alpha-template"],
    )
    def test_non_numeric_order_is_a_row_error(self, tmp_path, orders, message):
        body = f"id = nan\nf = gg:2,2\n{orders}verify = mei\nout_csv = {tmp_path}/o.csv\n"
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 3
        (row,) = csv.DictReader(open(tmp_path / "o.csv"))
        assert row["error"] == f"InputError: {message}"

    def test_non_numeric_tol_rejected(self, tmp_path):
        # tol is parsed per row by its FLAGS entry, like p = abc.
        body = f"id = tol\nf = tent\nc = 0\ntol = tight\nverify = cor2\nout_csv = {tmp_path}/t.csv\n"
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 3
        (row,) = csv.DictReader(open(tmp_path / "t.csv"))
        assert row["error"] == "InputError: tol must be a number, got 'tight'"

    def test_non_numeric_tol_list_element_rejected(self, tmp_path):
        body = f"id = tol\nf = tent\nc = 0\ntol = 1e-8,tight\nverify = cor2\nout_csv = {tmp_path}/t.csv\n"
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 3
        rows = list(csv.DictReader(open(tmp_path / "t.csv")))
        assert [r["error"] for r in rows] == ["", "InputError: tol must be a number, got 'tight'"]

    def test_each_row_uses_its_own_tol(self, tmp_path):
        body = (
            "id = tol\nf = gg:2,2\nw = expw:0.1\nalpha = 2\np = 2\ntol = 1e-30,0.5\n"
            f"verify = mei\nout_csv = {tmp_path}/t.csv\n"
        )
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "t.csv")))
        assert [(float(r["tol"]), r["mei.verdict"]) for r in rows] == [
            (1e-30, "inconclusive"), (0.5, "holds")
        ]

    def test_list_elements_follow_the_scalar_rule(self, tmp_path):
        body = (
            "id = list\nf = gg:inf,2\nw = expw:0.1\np = 2,abc\nalpha = 2,oo\n"
            f"verify = mei\nout_csv = {tmp_path}/l.csv\n"
        )
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 3
        rows = list(csv.DictReader(open(tmp_path / "l.csv")))
        assert [(r["p"], r["alpha"]) for r in rows] == [
            ("2", "2"), ("2", "oo"), ("abc", "2"), ("abc", "oo")
        ]
        assert rows[0]["error"] == rows[1]["error"] == ""
        assert rows[1]["mei.verdict"] == "holds"
        assert rows[2]["error"] == rows[3]["error"] == "InputError: p must be a number, got 'abc'"

    @pytest.mark.parametrize(
        "grid", ["linspace:0,abc,3", "interior:1,2,x", "linspace:1,2", "interior:one,2,3"]
    )
    def test_bad_grid_rejected(self, tmp_path, grid):
        body = f"id = grid\nf = gg:2,2\np = 2\nalpha = {grid}\nverify = mei\n"
        code, out = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "input"

    @pytest.mark.parametrize("table", ["missing.csv", "header.csv"])
    def test_unreadable_table_is_a_row_error(self, tmp_path, table):
        (tmp_path / "header.csv").write_text("x,pdf\n-1,0\n0,1\n1,0\n")
        body = f"id = table\nf = table:{tmp_path}/{table}\ncompute = we\nout_csv = {tmp_path}/t.csv\n"
        code, _ = run_cli(["sweep", str(self._scenario(tmp_path, body=body))])
        assert code == 3
        (row,) = csv.DictReader(open(tmp_path / "t.csv"))
        assert row["error"].startswith(f"InputError: cannot read table file '{tmp_path}/{table}'")

    def _row_of(self, tmp_path, body):
        path = self._scenario(tmp_path, body=f"id = row\n{body}out_csv = {tmp_path}/r.csv\n")
        code, _ = run_cli(["sweep", str(path)])
        assert code == 0
        return list(csv.DictReader(open(tmp_path / "r.csv")))

    def test_verdict_columns_are_its_verify_payload(self, tmp_path):
        # An inconclusive verdict says why: its error exceeds the tolerance.
        # (1 + f/2 is a weight on quadrature; e^{0.1 x} is a closed form on G.)
        argv = ["verify", "mei", "--f", "gg:2,2", "--w", "fpoly:1,0.5", "--alpha", "2", "--p", "2"]
        expected = json.loads(run_cli(argv)[1])
        (row,) = self._row_of(tmp_path, "f = gg:2,2\nw = fpoly:1,0.5\nalpha = 2\np = 2\nverify = mei\n")
        assert row["mei.verdict"] == expected["verdict"] == "inconclusive"
        assert float(row["mei.error"]) == expected["error"] > float(row["mei.tolerance"])
        assert row["mei.equality"] == "True" and row["mei.warnings"] == ""
        assert float(row["mei.margins.E_f[phi]-E_G[phi]"]) == 0.0
        assert float(row["mei.terms.N_f"]) == expected["terms"]["N_f"]

    def test_warnings_are_one_cell(self, tmp_path):
        body = "f = exp:1\nw = abspoly:1,-2,-1,2\ng = exp:2\nalpha = 1\np = 1\n"
        (row,) = self._row_of(tmp_path, body + "compute = dev\nverify = thm1.1\n")
        negative = "weight takes negative values on the support (min -0.22)"
        assert row["dev.warnings"] == row["thm1.1.warnings"] == negative
        (row,) = self._row_of(tmp_path, "f = exp:1\nw = pow:2\nalpha = 2\np = 1\nverify = fii\n")
        argv = ["verify", "fii", "--f", "exp:1", "--w", "pow:2", "--alpha", "2", "--p", "1"]
        warnings = json.loads(run_cli(argv)[1])["warnings"]
        assert warnings and row["fii.warnings"] == "; ".join(warnings)

    def test_cor4_halves(self, tmp_path):
        (row,) = self._row_of(tmp_path, "f = tent\nc = 0\nverify = cor4\n")
        expected = json.loads(run_cli(["verify", "cor4", "--f", "tent", "--c", "0"])[1])
        for half in ("first", "second"):
            assert row[f"cor4.{half}.verdict"] == expected[half]["verdict"]
            assert float(row[f"cor4.{half}.slack"]) == expected[half]["slack"]
            assert f"cor4.{half}.id" not in row
        assert "cor4.id" not in row

    def test_identity_over_an_alpha_list(self, tmp_path):
        rows = self._row_of(tmp_path, "w = expw:0.1\np = 2\nalpha = 1.5,2,3\nverify = id2.11\n")
        assert [r["alpha"] for r in rows] == ["1.5", "2", "3"]
        for r in rows:
            assert float(r["id2.11.residual"]) <= 1e-5 and r["id2.11.passed"] == "True"

    @pytest.mark.parametrize(
        "body, columns",
        [
            ("f = gg:2,2\nw = pow:1.5\np = 2\nt = 1.7\nverify = scaling\n", ["residual", "passed"]),
            ("f = tent\nverify = lemma4\n", ["gfn", "residual", "passed"]),
        ],
        ids=["scaling", "lemma4"],
    )
    def test_residual_checks_sweep(self, tmp_path, body, columns):
        (row,) = self._row_of(tmp_path, body)
        cid = body.split("verify = ")[1].strip()
        assert [k for k in row if k.startswith(cid)] == [f"{cid}.{c}" for c in columns]
        assert row[f"{cid}.passed"] == "True"


class TestRepro:
    def test_unknown_id(self):
        code, _ = run_cli(["repro", "unknown"])
        assert code == 2

    def test_identities_bundle(self, capsys):
        code, out = run_cli(["repro", "identities-sec2"])
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestJsonRendering:
    def test_seventeen_digit_floats(self):
        assert to_json(0.1) == "0.10000000000000001"
        assert to_json({"a": 1.0}) == '{"a":1}'
        assert to_json(float("inf")) == '"inf"'

    def test_scenario_parser(self, tmp_path):
        path = tmp_path / "x.sweep"
        path.write_text("id = t\nf = exp:1\np = 0.5,2\ncompute = wrp\n")
        sc = parse_scenario(str(path))
        assert sc["grids"]["p"] == [0.5, 2.0]


class TestParser:
    def test_two_calls_build_the_parser_once(self, monkeypatch):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert run_cli(["compute", "mom", "--f", "exp:1", "--alpha", "2"])[0] == 0
            assert run_cli(["verify", "cor2", "--f", "tent", "--c", "0"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["compute", "--help"], ["verify", "--help"]])
    def test_help_text_of_a_fresh_parser(self, argv, capsys):
        main(["compute", "mom", "--f", "exp:1", "--alpha", "2"])  # the shared parser exists
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        shared = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert shared == capsys.readouterr().out

    def test_each_subcommand_takes_the_flags_its_ids_read(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        flags = {
            name: [a.dest for a in sp._actions if a.option_strings and a.dest != "help"]
            for name, sp in sub.choices.items()
        }
        assert flags == {
            "compute": ["f", "g", "w", "p", "alpha"],
            "verify": ["f", "g", "w", "p", "alpha", "c", "t", "tol", "gfn"],
            "sweep": ["out"],
            "repro": [],
        }

    @pytest.mark.parametrize(
        "argv",
        [["compute", "we", "--f", "tent", "--tol", "1e-6"], ["repro", "all", "--f", "tent"]],
        ids=["compute-tol", "repro-f"],
    )
    def test_a_flag_no_id_reads_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repro_help_lists_every_repro_id(self):
        from wrenyi.repro import REPRO_IDS

        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        (example,) = [a for a in sub.choices["repro"]._actions if a.dest == "example"]
        assert example.help.split() == [*REPRO_IDS, "all"]

    def test_ids_help_brackets_the_values_with_a_default(self):
        assert cli._usage("thm1.1") == "thm1.1 --f [--w] --g --p [--tol]"
        assert cli._usage("cor1") == "cor1 --f --c [--tol] [--alpha] [--p]"
        assert cli._usage("lemma4") == "lemma4 --f [--tol] [--gfn]"

    def test_ops_are_looked_up_at_call_time(self, monkeypatch):
        from wrenyi import inequalities

        seen = []
        original = inequalities.check_cor2

        def patched(**kwargs):
            seen.append(kwargs["c"])
            return original(**kwargs)

        monkeypatch.setattr(inequalities, "check_cor2", patched)
        assert run_cli(["verify", "cor2", "--f", "tent", "--c", "0"])[0] == 0
        assert seen == [0.0]


def _sweep_row(tmp_path, lines: dict) -> dict:
    """The one row of a scenario of ``key = value`` lines, from its JSON report."""
    body = "".join(f"{k} = {v}\n" for k, v in lines.items())
    path = tmp_path / "one.sweep"
    path.write_text(f"id = one\n{body}out_json = {tmp_path}/one.json\n")
    run_cli(["sweep", str(path)])
    (row,) = json.loads((tmp_path / "one.json").read_text())["rows"]
    return row


class TestFlags:
    # One case per FLAGS value: (argv, scenario lines that stand in for its
    # flags, where they differ from them).
    PARITY = [
        ("compute we --f laplace:1", {}),
        ("compute rwe --f exp:2 --g exp:1", {}),
        ("compute we --f exp:1 --w expw:0.5", {}),
        ("compute wrp --f tent --p oo", {}),
        ("compute dev --f tent --alpha oo", {}),
        ("verify cor2 --f tent --c 0", {}),
        ("verify scaling --f gg:2,2 --w expw:0.3 --t 1.7 --p 2", {}),
        (
            "verify mei --f gg:2,2 --w expw:0.1 --alpha 2 --p 2 --tol 0.5",
            {"tol": "{x}", "x": "0.5"},
        ),
        ("verify lemma4 --f tent --gfn atan", {}),
        ("verify cor2 --f tent --c 0 --tol nan", {}),
    ]

    def test_every_flag_has_a_parity_case(self):
        named = {a[2:] for argv, _ in self.PARITY for a in argv.split() if a.startswith("--")}
        assert named == set(cli.FLAGS)

    @pytest.mark.parametrize("argv, lines", PARITY, ids=[a for a, _ in PARITY])
    def test_a_flag_and_a_scenario_key_give_one_payload(self, tmp_path, argv, lines):
        command, oid, *flags = argv.split()
        code, out = run_cli(argv.split())
        keys = {flags[i][2:]: flags[i + 1] for i in range(0, len(flags), 2)}
        row = _sweep_row(tmp_path, {**keys, **lines, command: oid})
        printed = json.loads(out)
        if isinstance(printed.get("error"), dict):  # an input error, not an estimate
            assert code == 2
            assert row["error"] == f"InputError: {printed['error']['message']}"
            return
        expected = {}
        cli._columns(oid, printed, expected)
        assert code == 0 and row["error"] == ""
        assert {k: v for k, v in row.items() if k.startswith(oid + ".")} == expected

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, tol):
        code, out = run_cli(["verify", "cor2", "--f", "tent", "--c", "0", f"--tol={tol}"])
        assert code == 2
        message = json.loads(out)["error"]["message"]
        assert message == f"tol must be finite and >= 0, got '{tol}'"
        row = _sweep_row(tmp_path, {"f": "tent", "c": "0", "tol": tol, "verify": "cor2"})
        assert row["error"].startswith("InputError: tol must be finite and >= 0, got ")

    @pytest.mark.parametrize(
        "argv",
        [
            "compute fi --f gg:2,2 --alpha 2 --p inf",
            "compute wfi --f gg:2,2 --w pow:1 --alpha 1 --p inf",
            "verify scaling --f laplace:1 --p inf --t 2",
            "compute wrp --f tent --p nan",
        ],
    )
    def test_p_must_be_finite(self, tmp_path, argv):
        command, oid, *flags = argv.split()
        code, out = run_cli(argv.split())
        keys = {flags[i][2:]: flags[i + 1] for i in range(0, len(flags), 2)}
        message = f"p must be finite, got {keys['p']!r}"
        assert code == 2 and json.loads(out)["error"]["message"] == message
        row = _sweep_row(tmp_path, {**keys, command: oid})
        assert row["error"] == f"InputError: {message}"

    @pytest.mark.parametrize("flag", ["alpha", "c", "t"])
    def test_every_number_but_p_reads_oo(self, flag):
        assert cli._values({flag: "oo"})[flag] == math.inf

    def test_text_values_are_scenario_keys(self, tmp_path):
        # gfn is one template, and a text template variable fills it.
        row = _sweep_row(tmp_path, {"f": "tent", "m": "cube", "gfn": "{m}", "verify": "lemma4"})
        assert row["lemma4.gfn"] == "cube" and row["error"] == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "compute we --f exp:inf",
            "compute we --f laplace:inf",
            "compute we --f gg:2,2,inf",
            "compute we --f exp:1 --w const:inf",
            "compute we --f exp:1 --w pow:oo",
            "compute we --f exp:1 --w fpow:nan,0",
        ],
    )
    def test_non_finite_descriptor_parameter_is_an_input_error(self, argv, capsys):
        code, out = run_cli(argv.split())
        assert code == 2
        assert "must be finite" in json.loads(out)["error"]["message"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            "compute we --f exp:1e-200",
            "compute mom --f exp:1e-200 --alpha 2",
            "compute wre --f exp:1e200 --p 2",
        ],
    )
    def test_exponential_closed_form_limits_are_numeric_errors(self, argv):
        code, out = run_cli(argv.split())
        assert code == 3
        assert json.loads(out)["error"]["type"] == "numeric"

    def test_a_closed_form_limit_is_a_row_error(self, tmp_path):
        body = (
            f"id = lam\nf = exp:{{lam}}\nlam = 1,1e-200\ncompute = we\n"
            f"out_csv = {tmp_path}/l.csv\nout_json = {tmp_path}/l.json\n"
        )
        path = tmp_path / "l.sweep"
        path.write_text(body)
        assert run_cli(["sweep", str(path)])[0] == 3
        rows = list(csv.DictReader(open(tmp_path / "l.csv")))
        assert [r["error"] for r in rows] == ["", "DomainError: 1e-200 / 0.0 divides by zero"]
        assert len(json.loads((tmp_path / "l.json").read_text())["rows"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        "compute dev --f tent --w pow:1 --alpha=-inf",
        "compute wfi --f tent --w pow:1.5 --alpha=-inf --p 2.2",
        "verify id2.22 --w pow:2 --alpha=-inf --p 2",
        "compute we --f gg:-inf,2",
    ],
    ids=["dev", "wfi", "id2.22", "gg"],
)
def test_alpha_minus_inf_is_an_input_error(argv):
    # -inf is not inf: it reaches the order's range check.
    code, out = run_cli(argv.split())
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"
