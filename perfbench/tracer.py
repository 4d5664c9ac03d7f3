"""Span tracer for the traced benchmark run.

Wraps the public functions of each wrenyi layer from outside the
program: every ``wrenyi.*`` module binding that refers to a listed
function is replaced by a wrapper, so calls through any import path are
seen.  ``TransportMap.__call__``, ``AuxiliaryLaw.expectation`` and the
integrand handed to ``numerics.integrate`` are wrapped too.

Each span is (name, start, end, parent, op id), kept in typed arrays in
memory and written out by :meth:`Tracer.save`.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, public functions) per layer; "Class.method" wraps a method.
LAYERS = {
    "cli": ("main",),
    "densities": ("parse_density", "cdf", "quantile"),
    "weights": ("parse_weight", "antiderivatives"),
    "numerics": ("integrate", "find_root", "essential_supremum", "total_variation"),
    "measures": (
        "expectation",
        "weighted_entropy",
        "relative_weighted_entropy",
        "weighted_renyi_entropy",
        "weighted_renyi_power",
        "relative_renyi_entropy",
        "relative_renyi_power",
        "generalized_moment",
        "generalized_deviation",
        "fisher_information",
        "weighted_fisher_information",
    ),
    "gaussian_forms": ("AuxiliaryLaw.expectation", "gaussian_measures", "verify_identity"),
    "inequalities": (
        "TransportMap.__call__",
        "build_transport",
        "check_thm11",
        "check_mei",
        "check_cor1",
        "check_cor2",
        "check_cor3",
        "check_fii",
        "check_cri",
        "check_cor4",
        "check_scaling_identity",
    ),
}

INTEGRAND = "numerics.integrand"
TRANSPORT = "inequalities.TransportMap.__call__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.code: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.status: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self.code:
            self.code[name] = len(self.names)
            self.names.append(name)
        return self.code[name]

    def _open(self, code: int, points: int = 0) -> int:
        sid = len(self.name)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.points.append(points)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        code = self._code(name)
        tracer = self

        if name == TRANSPORT:

            def wrapper(self_, x, *a, **k):
                sid = tracer._open(code, int(np.size(x)))
                try:
                    return fn(self_, x, *a, **k)
                finally:
                    tracer._close(sid)

        elif name == "numerics.integrate":
            icode = self._code(INTEGRAND)

            def integrand_of(f):
                def traced(x, *a, **k):
                    sid = tracer._open(icode, int(np.size(x)))
                    try:
                        return f(x, *a, **k)
                    finally:
                        tracer._close(sid)

                return traced

            def wrapper(f, *a, **k):
                sid = tracer._open(code)
                try:
                    res = fn(integrand_of(f), *a, **k)
                finally:
                    tracer._close(sid)
                tracer.status[res.status] = tracer.status.get(res.status, 0) + 1
                return res

        else:

            def wrapper(*a, **k):
                sid = tracer._open(code)
                try:
                    return fn(*a, **k)
                finally:
                    tracer._close(sid)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> int:
        """Wrap every binding of every listed function; returns the count."""
        mods = {n: m for n, m in sys.modules.items() if n == "wrenyi" or n.startswith("wrenyi.")}
        count = 0
        for layer, fns in LAYERS.items():
            mod = mods[f"wrenyi.{layer}"]
            for fname in fns:
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(f"{layer}.{fname}", orig))
                    self._undo.append((cls, meth, orig))
                    count += 1
                    continue
                orig = getattr(mod, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))
                            count += 1
        return count

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "points": np.frombuffer(self.points, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, points, inclusive and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for code, name in enumerate(self.names):
            m = a["name"] == code
            out[name] = {
                "calls": int(m.sum()),
                "points": int(a["points"][m].sum()),
                "total_s": float(dur[m].sum()),
                "self_s": float(own[m].sum()),
            }
        # Points an integrate call evaluated = points of its direct
        # integrand children.
        icode = self.code.get(INTEGRAND)
        if icode is not None and "numerics.integrate" in out:
            im = a["name"] == icode
            out["numerics.integrate"]["points"] = int(a["points"][im].sum())
        out["numerics.integrate.status"] = dict(self.status)
        return out
