"""Layer spans and counts for the traced run.

Every public function of the ten sectorlab layers is wrapped.  The wrapper
is installed in every module namespace that binds the function, so calls
made through ``from x import f`` names (dhrnet's ``commutant``, most of
cli's imports) are seen as well.  A span is (function, parent span, start,
end); spans stay in memory and are written out once, at the end.  The
counts marked exact in README.md are computed from argument and result
shapes only, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("_linalg", "algebra", "groups", "sectors", "dhrnet", "channels",
          "thermal", "cuntz", "serialize", "cli")

#: metric names per layer, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "_linalg": ("self_s", "orth_rows_in", "orth_keep_ratio", "svd_flops"),
    "algebra": ("self_s", "commutant_calls", "commutant_system_dim_max", "commutant_flops"),
    "groups": ("self_s", "average_flops", "gap_retries"),
    "sectors": ("self_s", "calls"),
    "dhrnet": ("self_s", "regions_scanned", "candidates_tried", "region_algebra_calls"),
    "channels": ("self_s", "solver_iters", "separation_calls"),
    "thermal": ("self_s", "gibbs_calls"),
    "cuntz": ("self_s", "multiply_calls", "term_pairs", "terms_out"),
    "serialize": ("self_s", "bytes_in"),
    "cli": ("self_s", "import_s"),
}


def _copy(arr: array, dtype) -> np.ndarray:
    # a copy, so the array can still grow or be cleared afterwards
    return np.frombuffer(arr, dtype=dtype).copy()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _orth_rows(c, a, k, res):
    c["_linalg.orth_rows_in"] += np.shape(_arg(a, k, 0, "rows"))[0]
    c["_linalg.orth_rows_out"] += res.shape[0]


def _nullspace(c, a, k, res):
    m, n = np.shape(_arg(a, k, 0, "a"))
    c["_linalg.svd_flops"] += m * n * min(m, n)


def _commutant(c, a, k, res):
    alg = _arg(a, k, 0, "alg")
    d = alg.ambient_dim
    n_mats = 2 * len(alg.generators) if alg.generators is not None else alg.dim
    c["algebra.commutant_calls"] += 1
    c["algebra.commutant_system_dim_max"] = max(c["algebra.commutant_system_dim_max"], d * d)
    c["algebra.commutant_flops"] += n_mats * d ** 4 + d ** 6


def _average(c, a, k, res):
    rep = _arg(a, k, 1, "rep")
    stack = res.shape[0] if res.ndim == 3 else 1
    c["groups.average_flops"] += 2 * rep.group.order * stack * rep.dim ** 3


def _dhr_check(c, a, k, res):
    c["dhrnet.regions_scanned"] += len(res.distances)


def _invert_selected(c, a, k, res):
    c["dhrnet.candidates_tried"] += res.n_tried


def _region_algebra(c, a, k, res):
    c["dhrnet.region_algebra_calls"] += 1


def _invert_cq(c, a, k, res):
    c["channels.solver_iters"] += res.iterations


def _separation(c, a, k, res):
    c["channels.separation_calls"] += 1


def _gibbs(c, a, k, res):
    c["thermal.gibbs_calls"] += 1


def _multiply(c, a, k, res):
    p, q = _arg(a, k, 0, "p"), _arg(a, k, 1, "q")
    c["cuntz.multiply_calls"] += 1
    c["cuntz.term_pairs"] += len(p.terms) * len(q.terms)
    c["cuntz.terms_out"] += len(res.terms)


def _sectors_call(c, a, k, res):
    c["sectors.calls"] += 1


def layer_of(qualname: str) -> str:
    return qualname.split(".")[0]


def _load_json(c, a, k, res):
    c["serialize.bytes_in"] += os.path.getsize(_arg(a, k, 0, "path"))


COUNTERS = {
    "_linalg.orthonormalize_rows": _orth_rows,
    "_linalg.nullspace": _nullspace,
    "algebra.commutant": _commutant,
    "groups.average": _average,
    "groups.average_stack": _average,
    "dhrnet.dhr_check": _dhr_check,
    "dhrnet.invert_selected_state": _invert_selected,
    "dhrnet.region_algebra": _region_algebra,
    "channels.invert_cq": _invert_cq,
    "channels.separation_check": _separation,
    "thermal.gibbs_state": _gibbs,
    "cuntz.multiply": _multiply,
    "serialize.load_json": _load_json,
}


class Tracer:
    """Wraps the layers' public functions and records spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.import_s = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._isotypic_fids: set[int] = set()

    # -- spans ------------------------------------------------------------

    def _note_error(self, err: BaseException) -> None:
        """Count each EigenvalueGapError once, if an isotypic span is open."""
        if type(err).__name__ != "EigenvalueGapError" or getattr(err, "_bench_seen", False):
            return
        err._bench_seen = True
        if any(self.fid[i] in self._isotypic_fids for i in self.stack):
            self.counts["groups.gap_retries"] += 1

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        if qualname == "groups.isotypic_decomposition":
            self._isotypic_fids.add(fid)
        count = COUNTERS.get(qualname)
        if layer_of(qualname) == "sectors":
            count = _sectors_call
        fids, parents, t0s, t1s, stack = self.fid, self.parent, self.t0, self.t1, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            t0s.append(clock())
            t1s.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                t1s[idx] = clock()
                stack.pop()
                self._note_error(err)
                raise
            t1s[idx] = clock()
            stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hook_errors(self, fn):
        """Count-only wrapper (no span) for the private block splitter."""
        def hook(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                self._note_error(err)
                raise
        return hook

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sectorlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replace[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        # EigenvalueGapError raised by the splitter itself never leaves
        # isotypic_decomposition, which catches it and retries.
        groups = sys.modules["sectorlab.groups"]
        splitter = getattr(groups, "_split_isotypic_block", None)
        if splitter is not None:
            replace[id(splitter)] = self._hook_errors(splitter)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sectorlab" or n.startswith("sectorlab.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                new = replace.get(id(val))
                if new is not None:
                    setattr(mod, attr, new)
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        n = len(self.t0)
        out = {layer: 0.0 for layer in LAYERS}
        if n == 0:
            return out
        t0 = _copy(self.t0, float)
        dur = _copy(self.t1, float) - t0
        parent = _copy(self.parent, np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - child
        layer_idx = np.array([LAYERS.index(layer_of(q)) for q in self.names])
        per = np.bincount(layer_idx[_copy(self.fid, np.int32)],
                          weights=own, minlength=len(LAYERS))
        return {layer: float(per[i]) for i, layer in enumerate(LAYERS)}

    def summary(self) -> dict:
        """Raw per-layer sums, mergeable across processes."""
        out = {f"{layer}.self_s": s for layer, s in self.self_times().items()}
        out.update(self.counts)
        out["cli.import_s"] = self.import_s
        return out

    def write_spans(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 fid=_copy(self.fid, np.int32), parent=_copy(self.parent, np.int32),
                 t0=_copy(self.t0, float), t1=_copy(self.t1, float))


def layer_metrics(total: dict, import_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged raw sums."""
    rows_in = total.get("_linalg.orth_rows_in", 0.0)
    derived = dict(total)
    derived["_linalg.orth_keep_ratio"] = (
        total.get("_linalg.orth_rows_out", 0.0) / rows_in if rows_in else 0.0)
    derived["cli.import_s"] = import_s
    out = {}
    for layer, names in LAYER_METRICS.items():
        for name in names:
            key = f"{layer}.{name}"
            unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("ratio") else "count")
            # metric names start with a letter: _linalg reports as linalg
            out[key.lstrip("_")] = {"value": float(derived.get(key, 0.0)), "unit": unit}
    return out
