"""Command-line front end.

Subcommands:

    compute <measure>   one measure of a density/weight combination
    verify  <check>     one inequality or identity check
    sweep   <scenario>  parameter sweep from a scenario file -> CSV/JSON
    repro   <id>        bundled reproduction checks (pass/fail lines)

The measure and check ids and the values each needs are the entries of
``OPS``; ``wrenyi compute --help`` and ``wrenyi verify --help`` list them.

Exit codes: 0 success, 2 input error, 3 numeric domain error,
4 reproduction/acceptance failure.  JSON output is deterministic: keys
appear in fixed order and floats are rendered with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import measures as M
from .densities import _parse_float, parse_density
from .errors import DomainError, InputError, WrenyiError
from .gaussian_forms import IDENTITY_CASE, verify_identity
from .inequalities import (
    InequalityVerdict,
    check_cor1,
    check_cor2,
    check_cor3,
    check_cor4,
    check_cri,
    check_fii,
    check_mei,
    check_scaling_identity,
    check_thm11,
    lemma4_residual,
)
from .weights import make_constant, parse_weight

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_ACCEPT = 4


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------


def _jfloat(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _jfloat(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        inner = ",".join(f"{to_json(str(k))}:{to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    return to_json(str(obj))


def _emit(obj) -> None:
    sys.stdout.write(to_json(obj) + "\n")


def _measure_payload(mv: M.MeasureValue) -> dict:
    return {
        "value": mv.value,
        "error": mv.error,
        "branch": mv.branch,
        "flags": dict(mv.flags),
        "warnings": list(mv.warnings),
    }


def _verdict_payload(v: InequalityVerdict) -> dict:
    return {
        "id": v.inequality_id,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "slack": v.slack,
        "verdict": v.verdict,
        "equality": v.equality,
        "tolerance": v.tolerance,
        "error": v.error,
        "margins": dict(v.margins),
        "warnings": list(v.warnings),
        "terms": {k: t for k, t in v.terms.items() if _is_scalarish(t)},
    }


def _is_scalarish(t) -> bool:
    return isinstance(t, (int, float, str, np.integer, np.floating)) or t is None


# ---------------------------------------------------------------------------
# The measure and check ids
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One measure or check id.

    ``fn`` is called with the values named in ``needs`` (an InputError
    names the first one missing, in that order) and with those of
    ``defaults``, each either as given or as its default.  A "check"
    returns one verdict or a tuple of them; a "residual" check runs
    under ``verify`` only and returns its JSON payload.
    """

    kind: str  # "measure", "check" or "residual"
    fn: Callable
    needs: tuple[str, ...]
    defaults: dict = {}


_LEMMA4_MAPS = {
    "x": (np.positive, np.ones_like),
    "atan": (np.arctan, lambda x: 1.0 / (1.0 + x * x)),
    "cube": (lambda x: x**3, lambda x: 3.0 * x * x),
}


def _residual(cid, residual, tol, floor, **extra) -> dict:
    return {"id": cid, **extra, "residual": residual, "passed": residual <= max(tol, floor)}


def _lemma4(f, tol, gfn):
    if gfn not in _LEMMA4_MAPS:
        raise InputError(f"unknown --gfn {gfn!r}; known: {', '.join(_LEMMA4_MAPS)}")
    g, dg = _LEMMA4_MAPS[gfn]
    return _residual("lemma4", lemma4_residual(f, g, dg), tol, 1e-7, gfn=gfn)


def _scaling(f, w, p, t, tol):
    return _residual("scaling", check_scaling_identity(w, f, t, p), tol, 1e-7)


def _identity(cid):
    def check(w, p, alpha, tol):
        return _residual(cid, verify_identity(IDENTITY_CASE[cid], w, alpha, p), tol, 1e-5)

    return Op("residual", check, ("p", "alpha", "w", "tol"))


OPS = {
    "we": Op("measure", M.weighted_entropy, ("f", "w")),
    "rwe": Op("measure", M.relative_weighted_entropy, ("f", "w", "g")),
    "wre": Op("measure", M.weighted_renyi_entropy, ("f", "w", "p")),
    "wrp": Op("measure", M.weighted_renyi_power, ("f", "w", "p")),
    "rre": Op("measure", M.relative_renyi_entropy, ("f", "w", "g", "p")),
    "rrp": Op("measure", M.relative_renyi_power, ("f", "w", "g", "p")),
    "mom": Op("measure", M.generalized_moment, ("f", "w", "alpha")),
    "dev": Op("measure", M.generalized_deviation, ("f", "w", "alpha")),
    "fi": Op("measure", M.fisher_information, ("f", "p", "alpha")),
    "wfi": Op("measure", M.weighted_fisher_information, ("f", "w", "p", "alpha")),
    "thm1.1": Op("check", check_thm11, ("f", "w", "g", "p", "tol")),
    "mei": Op("check", check_mei, ("f", "w", "p", "alpha", "tol")),
    "cor1": Op("check", check_cor1, ("f", "c", "tol"), {"alpha": 1.0, "p": 1.0}),
    "cor2": Op("check", check_cor2, ("f", "c", "tol")),
    "cor3": Op("check", check_cor3, ("f", "tol")),
    "fii": Op("check", check_fii, ("f", "w", "p", "alpha", "tol")),
    "cor4": Op("check", check_cor4, ("f", "c", "tol")),
    "cri": Op("check", check_cri, ("f", "w", "p", "alpha", "tol")),
    "scaling": Op("residual", _scaling, ("f", "p", "t", "w", "tol")),
    "lemma4": Op("residual", _lemma4, ("f", "tol"), {"gfn": "x"}),
    "id2.11": _identity("id2.11"),
    "id2.14": _identity("id2.14"),
    "id2.18": _identity("id2.18"),
    "id2.22": _identity("id2.22"),
}
MEASURES = tuple(k for k, op in OPS.items() if op.kind == "measure")
CHECKS = tuple(k for k, op in OPS.items() if op.kind != "measure")


def _usage(oid: str) -> str:
    op = OPS[oid]
    flags = [f"--{n}" for n in op.needs if n not in ("w", "tol")]
    return " ".join([oid, *flags, *(f"[--{n}]" for n in op.defaults)])


def _known(oid: str, ids: tuple, what: str) -> None:
    if oid not in ids:
        raise InputError(f"unknown {what} {oid!r}; known: {', '.join(ids)}")


def _values(f=None, g=None, w=None, tol=None, **orders) -> dict:
    """The values an id may name: parsed descriptors, orders as given."""
    f = parse_density(f) if f else None
    return {
        "f": f,
        "w": parse_weight(w, base=f) if w else make_constant(1.0),
        "g": parse_density(g) if g else None,
        "tol": 1e-8 if tol is None else tol,
        **orders,
    }


def _run(oid: str, values: dict):
    op = OPS[oid]
    for name in op.needs:
        if values.get(name) is None:
            raise InputError(
                "this operation needs --alpha"
                if name == "alpha"
                else f"--{name} is required for this operation"
            )
    kwargs = {n: values[n] for n in op.needs}
    kwargs.update({n: d if values.get(n) is None else values[n] for n, d in op.defaults.items()})
    return op.fn(**kwargs)


def _parse_alpha(text: str) -> float:
    t = text.strip().lower()
    return math.inf if t in ("inf", "infinity", "oo") else float(t)


# ---------------------------------------------------------------------------
# compute and verify
# ---------------------------------------------------------------------------


def _cli_values(args) -> dict:
    return _values(
        args.f, args.g, args.w, args.tol, p=args.p, alpha=args.alpha, c=args.c, t=args.t, gfn=args.gfn
    )


def cmd_compute(args) -> int:
    _known(args.measure, MEASURES, "measure")
    mv = _run(args.measure, _cli_values(args))
    _emit({"measure": args.measure, **_measure_payload(mv)})
    return EXIT_OK


def cmd_verify(args) -> int:
    cid = args.check
    _known(cid, CHECKS, "check")
    out = _run(cid, _cli_values(args))
    if isinstance(out, tuple):  # cor4: both displayed bounds
        out = {"id": cid, "first": _verdict_payload(out[0]), "second": _verdict_payload(out[1])}
    elif isinstance(out, InequalityVerdict):
        out = _verdict_payload(out)
    _emit(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SCALAR_KEYS = {
    "id",
    "f",
    "g",
    "w",
    "p",
    "alpha",
    "c",
    "t",
    "verify",
    "compute",
    "tol",
    "out_csv",
    "out_json",
}
ORDER_KEYS = ("p", "alpha", "c", "t")


def parse_scenario(path: str) -> dict:
    """Parse the key = value scenario format (lists, linspace, templates)."""
    raw: dict[str, str] = {}
    order: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in raw:
                raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = val
            order.append(key)

    templates = " ".join(raw.get(k, "") for k in ("f", "g", "w") + ORDER_KEYS)
    for key in raw:
        if key in SCALAR_KEYS:
            continue
        if "{" + key + "}" not in templates:
            raise InputError(
                f"unknown scenario key {key!r} (not a schema key and never "
                f"referenced as {{{key}}})"
            )

    def number_or_text(text: str):
        # Text stays text: an order key is parsed per row by _resolve_order.
        try:
            return float(text)
        except ValueError:
            return text

    def grid(spec: str, extra: int):
        parts = spec.split(",")
        if len(parts) != 3 or not parts[2].strip().isdigit():
            raise InputError(f"{path}: a grid is '<start>,<stop>,<count>', got {spec!r}")
        a, b = (_parse_float(v) for v in parts[:2])
        return np.linspace(a, b, int(parts[2]) + extra)

    def parse_values(text: str):
        text = text.strip()
        if text.startswith("linspace:"):
            return list(grid(text[len("linspace:") :], 0))
        if text.startswith("interior:"):
            return list(grid(text[len("interior:") :], 2)[1:-1])
        if "," in text:
            return [number_or_text(v.strip()) for v in text.split(",")]
        return number_or_text(text)

    grids: dict[str, list] = {}
    scalars: dict[str, object] = {}
    for key in order:
        if key in ("id", "f", "g", "w", "verify", "compute", "out_csv", "out_json"):
            scalars[key] = raw[key]
            continue
        parsed = parse_values(raw[key])
        if key == "tol":
            for v in parsed if isinstance(parsed, list) else [parsed]:
                if isinstance(v, str):
                    raise InputError(f"{path}: tol must be a number, got {v!r}")
        if isinstance(parsed, list):
            grids[key] = parsed
        else:
            scalars[key] = parsed
    return {"grids": grids, "scalars": scalars, "order": order}


def _rows_of(scenario: dict):
    grids = scenario["grids"]
    names = [k for k in scenario["order"] if k in grids]
    rows = [dict()]
    for name in names:
        rows = [dict(r, **{name: v}) for r in rows for v in grids[name]]
    return rows


def _subst(template: str, params: dict) -> str:
    out = template
    for k, v in params.items():
        out = out.replace("{" + k + "}", repr(float(v)) if isinstance(v, float) else str(v))
    if "{" in out:
        raise InputError(f"unresolved placeholder in {template!r}")
    return out


def _resolve_order(scenario, params, key):
    val = scenario["scalars"].get(key, params.get(key))
    if isinstance(val, str):
        text = _subst(val, params)
        try:
            val = _parse_alpha(text) if key == "alpha" else float(text)
        except ValueError:
            raise InputError(f"{key} must be a number, got {text!r}") from None
    return val


def _id_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def evaluate_row(scenario: dict, params: dict) -> dict:
    scalars = scenario["scalars"]
    row: dict[str, object] = dict(params)
    env = {k: v for k, v in scalars.items() if isinstance(v, float)}
    env.update(params)
    try:
        descriptors = {k: _subst(scalars[k], env) for k in ("f", "g", "w") if k in scalars}
        values = _values(
            **descriptors,
            tol=env.get("tol"),
            **{k: _resolve_order(scenario, env, k) for k in ORDER_KEYS},
        )
        for mid in _id_list(scalars.get("compute", "")):
            _known(mid, MEASURES, "measure")
            mv = _run(mid, values)
            row[f"{mid}.value"] = mv.value
            row[f"{mid}.error"] = mv.error
            row[f"{mid}.branch"] = mv.branch
            for fk, fv in mv.flags.items():
                row[f"{mid}.flag.{fk}"] = fv

        for cid in _id_list(scalars.get("verify", "")):
            _known(cid, CHECKS, "check")
            if OPS[cid].kind != "check":
                raise InputError(f"check {cid!r} is not sweepable")
            out = _run(cid, values)
            for v in out if isinstance(out, tuple) else (out,):
                prefix = v.inequality_id
                row[f"{prefix}.lhs"] = v.lhs
                row[f"{prefix}.rhs"] = v.rhs
                row[f"{prefix}.slack"] = v.slack
                row[f"{prefix}.verdict"] = v.verdict
                row[f"{prefix}.margins"] = ";".join(
                    f"{k}={val:.12g}" for k, val in v.margins.items()
                )
        row["error"] = ""
    except WrenyiError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    scenario = parse_scenario(args.scenario)
    scalars = scenario["scalars"]
    rows = [evaluate_row(scenario, pr) for pr in _rows_of(scenario)]

    header: list[str] = ["index"]
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)

    out_csv = args.out or scalars.get("out_csv")
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        writer.writerow(
            [i] + [_csv_cell(row.get(k, "")) for k in header[1:]]
        )
    csv_text = buf.getvalue()
    if out_csv:
        _write_file(out_csv, csv_text)
    out_json = scalars.get("out_json")
    json_text = to_json(
        {
            "scenario": {
                "id": scalars.get("id", ""),
                "keys": {k: str(v) for k, v in scalars.items()},
                "grid_sizes": {k: len(v) for k, v in scenario["grids"].items()},
            },
            "rows": [
                {"index": i, **{k: row.get(k, "") for k in header[1:]}}
                for i, row in enumerate(rows)
            ],
        }
    )
    if out_json:
        _write_file(out_json, json_text + "\n")
    if not out_csv and not out_json:
        sys.stdout.write(csv_text)
    failed = sum(1 for row in rows if row.get("error"))
    sys.stderr.write(
        f"sweep: {len(rows)} rows, {failed} errored"
        + (f", csv -> {out_csv}" if out_csv else "")
        + (f", json -> {out_json}" if out_json else "")
        + "\n"
    )
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_file(path: str, text: str) -> None:
    import os

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------


def cmd_repro(args) -> int:
    # Imported here: no other subcommand needs the reproduction bundle.
    from .repro import run_repro

    rows = run_repro(args.example)
    failed = 0
    for name, ok, detail in rows:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_ACCEPT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrenyi",
        description="Weighted Renyi entropy measures and inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--f", help="density descriptor (exp:l laplace:b tent gg:a,p[,t] weighted:<f>;<w> table:<path>)")
        sp.add_argument("--g", help="second density descriptor")
        sp.add_argument("--w", help="weight descriptor (const:v expw:g pow:c abspoly:a0,a1,... fpoly:b0,... fpow:k,m)")
        sp.add_argument("--p", type=float, help="entropy order p")
        sp.add_argument("--alpha", type=_parse_alpha, help="moment order alpha (number or 'inf')")
        sp.add_argument("--c", type=float, help="power-weight exponent c")
        sp.add_argument("--t", type=float, help="scale parameter")
        sp.add_argument("--tol", type=float, help="verdict tolerance")
        sp.add_argument("--out", help="output path (CSV for sweep)")
        sp.add_argument("--gfn", help="lemma4 increasing map: x | atan | cube")

    sp = sub.add_parser("compute", help="compute one measure")
    sp.add_argument("measure", help="; ".join(map(_usage, MEASURES)))
    common(sp)
    sp.set_defaults(fn=cmd_compute)

    sp = sub.add_parser("verify", help="run one inequality/identity check")
    sp.add_argument("check", help="; ".join(map(_usage, CHECKS)))
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="run a scenario sweep")
    sp.add_argument("scenario", help="scenario file path")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("repro", help="run a bundled reproduction")
    sp.add_argument("example", help="example-1.1 example-1.2 cor3.1-laplace cor3.2-tent cor3.3-g identities-sec2 all")
    common(sp)
    sp.set_defaults(fn=cmd_repro)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        _emit({"error": {"type": "input", "message": str(exc)}})
        return EXIT_INPUT
    except (DomainError, WrenyiError) as exc:
        _emit({"error": {"type": "numeric", "message": str(exc)}})
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
