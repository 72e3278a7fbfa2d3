"""Span recorder for the traced benchmark run.

The library has no spans of its own yet, so the traced run records them from
outside: it replaces every public function of each isorep module (and
``np.linalg.svd``/``qr``/``eigh``, the BLAS/LAPACK layer called ``blas``)
with a wrapper that records a span. Modules bind names with
``from .linalg import nullspace`` and the like, so a function is replaced in
every namespace that holds it, not only where it is defined. Nothing is
patched unless ``Tracer.install`` runs, which only the traced run does.

A span is (name, start, end, parent span, job id); spans are kept in memory
and written out once the run ends. Self time is a span's duration minus the
time its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LAYERS = ("linalg", "repmodel", "cocycle", "commutant", "induced", "suites", "cli")
# public methods worth a span of their own (dense grid translations)
METHODS = (("induced", "GridRep2", "V"),)
BLAS = ("svd", "qr", "eigh")


def _svd_cost(args, kwargs, result) -> dict:
    """Computed flops and bytes of one ``np.linalg.svd`` call.

    Golub–Van Loan operation counts for the Golub–Reinsch SVD of a p×q
    matrix (p ≥ q), a complex multiply-add counted as four real ones. Bytes
    are the arrays read and written once, ignoring cache misses.
    """
    a = np.asarray(args[0])
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    p, q = max(a.shape[-2:]), min(a.shape[-2:])
    if not uv:
        flop = 4 * p * q * q - 4 * q**3 / 3
    elif full:
        flop = 4 * p * p * q + 8 * p * q * q + 9 * q**3
    else:
        flop = 14 * p * q * q + 8 * q**3
    if np.iscomplexobj(a):
        flop *= 4
    out = result if isinstance(result, tuple) else (result,)
    nbytes = a.nbytes + sum(np.asarray(x).nbytes for x in out)
    return {"flop": flop, "bytes": nbytes}


def _qr_cost(args, kwargs, result) -> dict:
    a = np.asarray(args[0])
    out = result if isinstance(result, tuple) else (result,)
    return {"bytes": a.nbytes + sum(np.asarray(x).nbytes for x in out)}


# what each span keeps of its call, for the derived per-layer ratios
OBSERVERS: dict[str, Callable] = {
    "blas.svd": _svd_cost,
    "blas.qr": _qr_cost,
    "linalg.nullspace": lambda a, k, r: {"cols": np.shape(a[0])[1]},
    "cocycle.cocycle_space": lambda a, k, r: {"dim": r.dim, "discarded": r.discarded},
    "commutant.star_commutant_basis": lambda a, k, r: {"basis": len(r)},
    "commutant.truncated_commutant_oracle": lambda a, k, r: {"survivors": r},
    "induced.induced_commutant_check_2d": lambda a, k, r: {
        "survivors": r.grid_commutant_dim
    },
}


@dataclass
class Tracer:
    """In-memory spans of one process; ``job`` tags the spans that follow."""

    spans: list[list] = field(default_factory=list)  # [name, start, end, parent, job]
    info: dict[int, dict] = field(default_factory=dict)
    job: int = -1
    wrapped: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.wrapped.append(name)
        observe = OBSERVERS.get(name)
        spans, stack, info = self.spans, self._stack, self.info

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                info[idx] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, namespaces: list) -> None:
        """Wrap the public functions of every isorep layer and the BLAS calls.

        ``namespaces`` are the modules whose bindings get replaced: every
        isorep module and the package itself.
        """
        targets: dict[int, tuple[str, Callable]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"isorep.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrapped = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and obj is targets[id(obj)][1]:
                    self._set(ns, attr, wrapped[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"isorep.{layer}"), cls_name)
            self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
        for fn in BLAS:
            self._set(np.linalg, fn, self.wrap(f"blas.{fn}", getattr(np.linalg, fn)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals: ``<name>.calls/.total_s/.self_s`` for every span
        name plus the derived counters and ratios.

        ``total_s`` counts only the outermost span of a name, so a function
        that reaches itself again is not counted twice.
        """
        selfs = self.self_times()
        # a wrapped function the workload never calls reads 0
        out = {f"{name}.{key}": 0.0 for name in self.wrapped for key in ("calls", "total_s", "self_s")}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[i]
            if not self._has_ancestor(i, name):
                out[f"{name}.total_s"] += end - start
        out = {k: v / passes for k, v in out.items()}

        def infos(name):
            return [(i, self.info[i]) for i, s in enumerate(self.spans) if s[0] == name and i in self.info]

        svd = [d for _, d in infos("blas.svd")]
        out["blas.svd.gflop"] = sum(d["flop"] for d in svd) / 1e9 / passes
        out["blas.svd.gbytes"] = sum(d["bytes"] for d in svd) / 1e9 / passes
        out["blas.qr.gbytes"] = sum(d["bytes"] for _, d in infos("blas.qr")) / 1e9 / passes

        spaces = [d for _, d in infos("cocycle.cocycle_space")]
        found = sum(d["dim"] + d["discarded"] for d in spaces)
        out["cocycle.kept_ratio"] = sum(d["dim"] for d in spaces) / found if found else 0.0

        basis_of = {
            self.spans[i][3]: d["basis"] for i, d in infos("commutant.star_commutant_basis")
        }
        filtered = infos("commutant.truncated_commutant_oracle")
        filtered += infos("induced.induced_commutant_check_2d")
        tried = sum(basis_of.get(i, 0) for i, _ in filtered)
        kept = sum(d["survivors"] for _, d in filtered)
        out["commutant.survivor_ratio"] = kept / tried if tried else 0.0

        out["linalg.nullspace.size_exp"] = _loglog_slope(
            [(d["cols"], self.spans[i][2] - self.spans[i][1]) for i, d in infos("linalg.nullspace")]
        )
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "info": {str(k): v for k, v in self.info.items()},
                },
                fh,
            )


def _loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 when the
    sizes do not vary."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    x, t = np.log(np.array(points, dtype=float)).T
    return float(np.polyfit(x, t, 1)[0])
