"""Outside-in span tracer for the ``blt`` modules.

The tracer wraps chosen library functions from outside the library: for each
target it finds every module-level name in every ``blt`` module that is bound
to the function object, and rebinds all of them to one wrapper.  A call made
as ``gf.rank_batched(...)`` and a call made through ``from .gf import
rank_batched`` are therefore both seen.  ``uncovered_bindings`` lists any
binding that still reaches an original function, so a new import style that
escapes the tracer shows up as a failing self-test instead of a silent zero.

Spans live in flat in-memory arrays with parent links (single-threaded
call stack) and are written to a sidecar once, by ``write_sidecar``, after
the traced pass.  Self time is computed afterwards from the stored spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

PACKAGE = "blt"

# module.function names; the modules are the layers
TARGETS = (
    "harness.compute_row",
    "graphs.vertex_connectivity",
    "graphs.edge_connectivity",
    "altspace.kappa_space",
    "altspace.lambda_space",
    "altspace.delta_space",
    "altspace.is_orth_decomposable",
    "bilinear.kappa_map",
    "bilinear.lambda_map",
    "bilinear.restrict_map",
    "bilinear.quotient_map",
    "group.kappa_group",
    "group.lambda_group",
    "gf.rank_batched",
    "gf.rref",
    "gf.subspace_matrices",
    "gf.complement_matrices",
)


def _probe_rank_batched(args, kwargs, result):
    """(matrices, elements) of the (B, r, c) stack: B and B*r*c."""
    mats = args[0] if args else kwargs["mats"]
    shape = np.shape(mats)
    if len(shape) != 3:
        return 0, 0
    return shape[0], shape[0] * shape[1] * shape[2]


def _probe_orth(args, kwargs, result):
    """1 when a decomposition was found."""
    return int(bool(result[0])), 0


PROBES = {
    "gf.rank_batched": _probe_rank_batched,
    "altspace.is_orth_decomposable": _probe_orth,
}


def package_modules() -> list:
    """Import and return the package and every submodule in it."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _references(module):
    """(where, value) for every place a module keeps a callable: module
    globals, attributes of the classes it defines, and function defaults."""
    for name, value in vars(module).items():
        where = f"{module.__name__}.{name}"
        yield where, value
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                yield f"{where}.{attr}", getattr(member, "__func__", member)
        for i, d in enumerate(getattr(value, "__defaults__", None) or ()):
            yield f"{where}.__defaults__[{i}]", d
        for k, d in (getattr(value, "__kwdefaults__", None) or {}).items():
            yield f"{where}.__kwdefaults__[{k}]", d


class Tracer:
    """Span recorder for one traced pass.  Install, run, uninstall."""

    def __init__(self):
        self.names = list(TARGETS)
        self.parent = array("q")
        self.name_id = array("h")
        self.nested = array("b")  # 1 when an outer span has the same name
        self.start = array("d")
        self.end = array("d")
        self.extra_a = array("q")
        self.extra_b = array("q")
        self._stack: list = []
        self._depth = [0] * len(self.names)
        self._originals: dict = {}  # target -> original function
        self._patched: list = []  # (module, attribute, original)

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        wrappers = {}
        for idx, target in enumerate(self.names):
            mod_name, func_name = target.rsplit(".", 1)
            original = getattr(by_name[f"{PACKAGE}.{mod_name}"], func_name)
            self._originals[target] = original
            wrappers[id(original)] = self._wrap(idx, original, PROBES.get(target))
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, value))
        return self

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def uncovered_bindings(self) -> list:
        """Places in the package that still reach an original, unwrapped."""
        originals = {id(f): t for t, f in self._originals.items()}
        found = []
        for module in package_modules():
            for where, value in _references(module):
                if id(value) in originals:
                    found.append(f"{where} -> {originals[id(value)]}")
        return found

    def _wrap(self, idx, fn, probe):
        perf = time.perf_counter
        stack, depth = self._stack, self._depth
        parent, name_id, nested = self.parent, self.name_id, self.nested
        start, end = self.start, self.end
        extra_a, extra_b = self.extra_a, self.extra_b

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(idx)
            nested.append(1 if depth[idx] else 0)
            extra_a.append(0)
            extra_b.append(0)
            end.append(0.0)
            stack.append(sid)
            depth[idx] += 1
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                depth[idx] -= 1
                stack.pop()
            if probe is not None:
                extra_a[sid], extra_b[sid] = probe(args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "parent": np.array(self.parent, dtype=np.int64),
            "name_id": np.array(self.name_id, dtype=np.int16),
            "nested": np.array(self.nested, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "extra_a": np.array(self.extra_a, dtype=np.int64),
            "extra_b": np.array(self.extra_b, dtype=np.int64),
        }

    def write_sidecar(self, path: str):
        """All spans, one array per field, in one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Per target: calls, total_s (outermost spans), self_s; plus the
        rank-kernel and decomposability counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        ids = a["name_id"].astype(np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=np.where(a["nested"] == 0, dur, 0.0), minlength=k)
        selfs = np.bincount(ids, weights=own, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(selfs[i])
        rk = ids == self.names.index("gf.rank_batched")
        out["gf.rank_batched.matrices"] = int(a["extra_a"][rk].sum())
        out["gf.rank_batched.bytes"] = int(a["extra_b"][rk].sum()) * 8
        orth = ids == self.names.index("altspace.is_orth_decomposable")
        hits = int(a["extra_a"][orth].sum())
        attempts = int(orth.sum())
        out["altspace.is_orth_decomposable.hits"] = hits
        out["altspace.is_orth_decomposable.hit_ratio"] = hits / attempts if attempts else 0.0
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Children are clipped to the parent's interval, and overlapping children
    are counted once (union of intervals), so the result never goes below
    zero even for spans that did not come from one call stack.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return dur
    base = start.min()
    p = parent[kids]
    s = np.maximum(start[kids], start[p]) - base
    e = np.minimum(end[kids], end[p]) - base
    e = np.maximum(e, s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    # running max of earlier siblings' ends, restarted per parent by lifting
    # each parent group above every earlier one
    group = np.concatenate(([0], np.cumsum(p[1:] != p[:-1])))
    lift = group * (float(e.max()) + 1.0)
    reach = np.maximum.accumulate(e + lift) - lift
    prev = np.concatenate(([-np.inf], reach[:-1]))
    prev[np.concatenate(([True], p[1:] != p[:-1]))] = -np.inf
    covered = np.maximum(e - np.maximum(s, prev), 0.0)
    return dur - np.bincount(p, weights=covered, minlength=len(dur))

