"""Command-line front end.

Subcommands:

    compute <measure>   one measure of a density/weight combination
    verify  <check>     one inequality or identity check
    sweep   <scenario>  parameter sweep from a scenario file -> CSV/JSON
    repro   <id>        bundled reproduction checks (pass/fail lines)

The measure and check ids and the values each reads are the entries of
``OPS``; ``wrenyi compute --help`` and ``wrenyi verify --help`` list them,
and each of the two takes only the flags of the values its ids read.
A value's ``FLAGS`` entry reads it alike as a flag and as a scenario key.
:func:`payload` renders what an id returns: ``compute`` and ``verify``
print it, and a sweep row holds it flattened to ``<id>.<key>`` columns.

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
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import gaussian_forms as G
from . import inequalities as I
from . import measures as M
from .densities import parse_density, parse_float
from .errors import DomainError, InputError, WrenyiError
from .weights import parse_weight

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


# ---------------------------------------------------------------------------
# The measure and check ids
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One measure or check id.

    ``fn`` is called with the values named in ``needs`` (an InputError
    names the first one missing, in that order) and with those of
    ``optional`` that are given; ``fn``'s own signature holds their
    defaults.  A measure returns a MeasureValue; a check returns a
    verdict, cor4's pair of verdicts or its residual payload.
    :func:`payload` renders each.
    """

    kind: str  # "measure" or "check"
    fn: Callable
    needs: tuple[str, ...]
    optional: tuple[str, ...] = ()


def _late(module, name: str) -> Callable:
    """``module.<name>``, looked up at each call, so that a rebinding of
    the module attribute (a tracing wrapper, a test's patch) is what runs."""
    return lambda **kwargs: getattr(module, name)(**kwargs)


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
    return _residual("lemma4", I.lemma4_residual(f, g, dg), tol, 1e-7, gfn=gfn)


def _scaling(f, w, p, t, tol):
    return _residual("scaling", I.check_scaling_identity(w, f, t, p), tol, 1e-7)


def _identity(cid):
    def check(w, p, alpha, tol):
        residual = G.verify_identity(G.IDENTITY_CASE[cid], w, alpha, p)
        return _residual(cid, residual, tol, 1e-5)

    return Op("check", check, ("p", "alpha", "w", "tol"))


OPS = {
    "we": Op("measure", _late(M, "weighted_entropy"), ("f", "w")),
    "rwe": Op("measure", _late(M, "relative_weighted_entropy"), ("f", "w", "g")),
    "wre": Op("measure", _late(M, "weighted_renyi_entropy"), ("f", "w", "p")),
    "wrp": Op("measure", _late(M, "weighted_renyi_power"), ("f", "w", "p")),
    "rre": Op("measure", _late(M, "relative_renyi_entropy"), ("f", "w", "g", "p")),
    "rrp": Op("measure", _late(M, "relative_renyi_power"), ("f", "w", "g", "p")),
    "mom": Op("measure", _late(M, "generalized_moment"), ("f", "w", "alpha")),
    "dev": Op("measure", _late(M, "generalized_deviation"), ("f", "w", "alpha")),
    "fi": Op("measure", _late(M, "fisher_information"), ("f", "p", "alpha")),
    "wfi": Op("measure", _late(M, "weighted_fisher_information"), ("f", "w", "p", "alpha")),
    "thm1.1": Op("check", _late(I, "check_thm11"), ("f", "w", "g", "p", "tol")),
    "mei": Op("check", _late(I, "check_mei"), ("f", "w", "p", "alpha", "tol")),
    "cor1": Op("check", _late(I, "check_cor1"), ("f", "c", "tol"), ("alpha", "p")),
    "cor2": Op("check", _late(I, "check_cor2"), ("f", "c", "tol")),
    "cor3": Op("check", _late(I, "check_cor3"), ("f", "tol")),
    "fii": Op("check", _late(I, "check_fii"), ("f", "w", "p", "alpha", "tol")),
    "cor4": Op("check", _late(I, "check_cor4"), ("f", "c", "tol")),
    "cri": Op("check", _late(I, "check_cri"), ("f", "w", "p", "alpha", "tol")),
    "scaling": Op("check", _scaling, ("f", "p", "t", "w", "tol")),
    "lemma4": Op("check", _lemma4, ("f", "tol", "gfn")),
    "id2.11": _identity("id2.11"),
    "id2.14": _identity("id2.14"),
    "id2.18": _identity("id2.18"),
    "id2.22": _identity("id2.22"),
}
MEASURES = tuple(k for k, op in OPS.items() if op.kind == "measure")
CHECKS = tuple(k for k, op in OPS.items() if op.kind == "check")
# The subcommand (and scenario key) that runs each kind of id.
KINDS = (("compute", "measure", MEASURES), ("verify", "check", CHECKS))


def payload(oid: str, out) -> dict:
    """The JSON payload of what ``OPS[oid]`` returned."""
    if isinstance(out, M.MeasureValue):
        return {
            "measure": oid,
            "value": out.value,
            "error": out.error,
            "branch": out.branch,
            "flags": dict(out.flags),
            "warnings": list(out.warnings),
        }
    if isinstance(out, I.InequalityVerdict):
        return {
            "id": out.inequality_id,
            "lhs": out.lhs,
            "rhs": out.rhs,
            "slack": out.slack,
            "verdict": out.verdict,
            "equality": out.equality,
            "tolerance": out.tolerance,
            "error": out.error,
            "margins": dict(out.margins),
            "warnings": list(out.warnings),
            "terms": {k: t for k, t in out.terms.items() if _is_scalarish(t)},
        }
    if isinstance(out, tuple):  # cor4: both displayed bounds
        return {"id": oid, "first": payload(oid, out[0]), "second": payload(oid, out[1])}
    return out  # a residual check's own payload


def _is_scalarish(t) -> bool:
    return isinstance(t, (int, float, str, np.integer, np.floating)) or t is None


def _usage(oid: str) -> str:
    """The id and its flags; one with a default, or optional, in brackets."""
    op = OPS[oid]
    flags = [f"[--{n}]" if FLAGS[n].default is not None else f"--{n}" for n in op.needs]
    return " ".join([oid, *flags, *(f"[--{n}]" for n in op.optional)])


def _known(oid: str, ids: tuple, what: str) -> None:
    if oid not in ids:
        raise InputError(f"unknown {what} {oid!r}; known: {', '.join(ids)}")


def _run(oid: str, values: dict):
    op = OPS[oid]
    for name in op.needs:
        if values[name] is None:
            raise InputError(
                "this operation needs --alpha"
                if name == "alpha"
                else f"--{name} is required for this operation"
            )
    given = [n for n in op.optional if values[n] is not None]
    return op.fn(**{n: values[n] for n in (*op.needs, *given)})


# ---------------------------------------------------------------------------
# The values: flags and scenario keys
# ---------------------------------------------------------------------------


def _text(name: str, text: str) -> str:
    return text


def _number(name: str, text: str) -> float:
    try:
        return parse_float(text)
    except InputError:
        raise InputError(f"{name} must be a number, got {text!r}") from None


def _finite(name: str, text: str) -> float:
    value = _number(name, text)
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {text!r}")
    return value


def _tolerance(name: str, text: str) -> float:
    tol = _number(name, text)
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"{name} must be finite and >= 0, got {text!r}")
    return tol


class Flag(NamedTuple):
    """One value an id may read: ``parse(name, text)``, default and help."""

    parse: Callable[[str, str], object]
    default: object
    help: str


# Every value an id may read.  compute and verify each take the flags
# that their ids read; a scenario takes every one as a key.
FLAGS = {
    "f": Flag(_text, None, "density descriptor (exp:l laplace:b tent gg:a,p[,t] weighted:<f>;<w> table:<path>)"),
    "g": Flag(_text, None, "second density descriptor"),
    "w": Flag(_text, "const:1", "weight descriptor (const:v expw:g pow:c abspoly:a0,a1,... fpoly:b0,... fpow:k,m)"),
    "p": Flag(_finite, None, "entropy order p"),
    "alpha": Flag(_number, None, "moment order alpha (number or 'inf')"),
    "c": Flag(_number, None, "power-weight exponent c"),
    "t": Flag(_number, None, "scale parameter"),
    "tol": Flag(_tolerance, I.DEFAULT_TOL, "verdict tolerance"),
    "gfn": Flag(_text, "x", "lemma4 increasing map: x | atan | cube"),
}


def _values(texts: dict) -> dict:
    """Every value of ``FLAGS``: its text in ``texts`` parsed by its entry,
    else its default; then the descriptors built."""
    values = {
        name: flag.parse(name, texts[name]) if texts.get(name) else flag.default
        for name, flag in FLAGS.items()
    }
    if values["f"] is not None:
        values["f"] = parse_density(values["f"])
    values["w"] = parse_weight(values["w"], base=values["f"])
    if values["g"] is not None:
        values["g"] = parse_density(values["g"])
    return values


def cmd_op(args) -> int:
    _known(args.id, args.ids, args.what)
    values = _values({n: v for n, v in vars(args).items() if n in FLAGS})
    _emit(payload(args.id, _run(args.id, values)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# The scenario keys: the FLAGS names and those below; any other key is a
# template variable.  A TEXT_KEYS value is one template, never a list.
META_KEYS = ("id", "compute", "verify", "out_csv", "out_json")
SCHEMA_KEYS = (*FLAGS, *META_KEYS)
TEXT_KEYS = META_KEYS + tuple(n for n, flag in FLAGS.items() if flag.parse is _text)


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

    templates = " ".join(raw.get(k, "") for k in FLAGS)
    for key in raw:
        if key not in SCHEMA_KEYS and "{" + key + "}" not in templates:
            raise InputError(
                f"unknown scenario key {key!r} (not a schema key and never "
                f"referenced as {{{key}}})"
            )

    def number_or_text(text: str):
        # Text stays text: a FLAGS value is parsed per row by its entry.
        try:
            return float(text)
        except ValueError:
            return text

    def grid(spec: str, extra: int):
        parts = spec.split(",")
        if len(parts) != 3 or not parts[2].strip().isdigit():
            raise InputError(f"{path}: a grid is '<start>,<stop>,<count>', got {spec!r}")
        a, b = (parse_float(v) for v in parts[:2])
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
        if key in TEXT_KEYS:
            scalars[key] = raw[key]
            continue
        parsed = parse_values(raw[key])
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


def _str(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _subst(template, params: dict) -> str:
    out = _str(template)
    for k, v in params.items():
        out = out.replace("{" + k + "}", _str(v))
    if "{" in out:
        raise InputError(f"unresolved placeholder in {template!r}")
    return out


def _id_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _columns(prefix: str, out: dict, row: dict) -> None:
    """A payload flattened into ``row``: each entry is the column
    ``<prefix>.<key>``, a dict's entries are ``<prefix>.<key>.<name>``.
    The id a payload names itself by is its prefix."""
    for key, value in out.items():
        if key in ("id", "measure"):
            continue
        if isinstance(value, dict):
            _columns(f"{prefix}.{key}", value, row)
        else:
            row[f"{prefix}.{key}"] = value


def evaluate_row(scenario: dict, params: dict) -> dict:
    scalars = scenario["scalars"]
    row: dict[str, object] = dict(params)
    # Every template variable, every number and the grid point.
    env = {k: v for k, v in scalars.items() if isinstance(v, float) or k not in SCHEMA_KEYS}
    env.update(params)
    try:
        given = {n: scalars.get(n, params.get(n)) for n in FLAGS}
        values = _values({n: _subst(v, env) for n, v in given.items() if v is not None})
        for key, what, ids in KINDS:
            for oid in _id_list(scalars.get(key, "")):
                _known(oid, ids, what)
                _columns(oid, payload(oid, _run(oid, values)), row)
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
        writer.writerow([i] + [_csv_cell(row.get(k, "")) for k in header[1:]])
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
    if isinstance(v, list):  # warnings: one cell
        return "; ".join(map(str, v))
    return "" if v is None else str(v)


def _write_file(path: str, text: str) -> None:
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
    for command, what, ids in KINDS:
        sp = sub.add_parser(command, help=f"{command} one {what}")
        sp.add_argument("id", metavar=what, help="; ".join(map(_usage, ids)))
        for name in FLAGS:  # the values its ids read
            if any(name in OPS[i].needs + OPS[i].optional for i in ids):
                sp.add_argument(f"--{name}", help=FLAGS[name].help)
        sp.set_defaults(fn=cmd_op, ids=ids, what=what)

    sp = sub.add_parser("sweep", help="run a scenario sweep")
    sp.add_argument("scenario", help="scenario file path")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("repro", help="run a bundled reproduction")
    sp.add_argument("example", help="example-1.1 example-1.2 cor3.1-laplace cor3.2-tent cor3.3-g identities-sec2 all")
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
