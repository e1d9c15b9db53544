"""Span tracer for the opgf layers, installed from outside the package.

Every public function defined in a layer module (recurrence, measures,
genfun, riccati, identities, cli) is wrapped, and the wrapper is bound by
identity wherever an `opgf.*` module namespace holds that function, so calls
made through `from .recurrence import eval_monic` are timed as well.  The
per-index recurrence helpers are left unwrapped: they run about a million
times per sweep and tracing them would swamp the measurement.

Spans (function, start, end, parent, failed, work) are held in flat arrays
while the benchmark runs; `summarize` derives calls, self time, failures and
work counts from them, and `write` saves them when the benchmark ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "opgf"
LAYERS = ("recurrence", "measures", "genfun", "riccati", "identities", "cli")

# Called once per recurrence index from the sequences' alpha/omega closures.
PER_INDEX = {"identities.gegenbauer_omega", "identities.jacobi_alpha",
             "identities.jacobi_omega"}

# Functions reported one by one, besides the per-layer totals.
FUNCTIONS = (
    "recurrence.eval_monic",
    "measures.build_measure",
    "measures.gauss_quadrature",
    "genfun.closed_form",
    "genfun.psi_series_auto",
    "genfun.psi_closed",
    "genfun.psi_family_moments",
    "riccati.solve_symmetric",
    "riccati.solve_nonsymmetric",
    "riccati.residual_f",
    "riccati.residual_u",
    "riccati.residual_moment_ode",
    "identities.duplication_check",
    "identities.pochhammer_ratio_check",
    "identities.one_f_zero_reduction",
    "identities.gegenbauer_gf_check",
    "identities.tilde_gegenbauer_identity",
    "identities.family2_identity",
    "identities.jacobi_shift_check",
    "identities.jacobi_2f1_gf_check",
    "identities.two_f_one_collapse_check",
    "identities.gf3_equivalence",
)

# Work counted per call: (parameter, offset).  eval_monic evaluates
# n_max + 1 degrees; a Gauss rule of order n has n nodes.
WORK_PARAMS = {
    "recurrence.eval_monic": ("n_max", 1),
    "measures.gauss_quadrature": ("order", 0),
}
SERIES_PREFIX = "genfun.psi_series"


def _work_reader(name, fn):
    spec = WORK_PARAMS.get(name)
    if spec is None:
        return None
    param, offset = spec
    params = list(inspect.signature(fn).parameters)
    if param not in params:
        return None
    pos = params.index(param)

    def read(args, kwargs):
        value = args[pos] if len(args) > pos else kwargs.get(param, 0)
        return int(value) + offset

    return read


class Tracer:
    """Wraps the layer functions while installed and records one span per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.work = array("q")
        self.failed: set[int] = set()
        self.op_starts: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        work, failed, stack = self.work, self.failed, self._stack
        measure = _work_reader(name, fn)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            amount = measure(args, kwargs) if measure is not None else 0
            sid = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            work.append(amount)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed.add(sid)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or name in PER_INDEX):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def absent(self) -> list[str]:
        """Reported functions that no longer exist in their layer."""
        return [name for name in FUNCTIONS if name not in self.names]

    def mark_op(self) -> None:
        """Record that the next spans belong to a new operation."""
        self.op_starts.append(len(self.starts))

    def summarize(self) -> dict[str, float]:
        """Per-layer and per-function metrics over every recorded span."""
        n = len(self.starts)
        size = len(self.names)
        calls, failures, work = [0] * size, [0] * size, [0] * size
        self_s = [0.0] * size
        child = [0.0] * n
        series_degrees = 0
        by_name = {name: fid for fid, name in enumerate(self.names)}
        monic = by_name.get("recurrence.eval_monic", -1)
        quadrature = by_name.get("measures.gauss_quadrature", -1)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        for sid in range(n - 1, -1, -1):
            duration = ends[sid] - starts[sid]
            parent = parents[sid]
            if parent >= 0:
                child[parent] += duration
            fid = fids[sid]
            calls[fid] += 1
            self_s[fid] += duration - child[sid]
            work[fid] += self.work[sid]
            if sid in self.failed:
                failures[fid] += 1
            if (fid == monic and parent >= 0
                    and self.names[fids[parent]].startswith(SERIES_PREFIX)):
                series_degrees += self.work[sid]

        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [fid for fid, name in enumerate(self.names)
                       if name.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(calls[f] for f in members)
            out[f"{layer}.self_ms"] = 1000.0 * sum(self_s[f] for f in members)
            out[f"{layer}.failures"] = sum(failures[f] for f in members)
        for name in FUNCTIONS:
            fid = by_name.get(name)
            out[f"{name}.calls"] = 0 if fid is None else calls[fid]
            out[f"{name}.self_ms"] = 0.0 if fid is None else 1000.0 * self_s[fid]
        series_values = sum(calls[fid] for fid, name in enumerate(self.names)
                            if name.startswith(SERIES_PREFIX))
        out["recurrence.eval_monic.degrees"] = work[monic] if monic >= 0 else 0
        out["genfun.series_values"] = series_values
        out["genfun.series_degrees"] = series_degrees
        out["genfun.degrees_per_series_value"] = \
            series_degrees / series_values if series_values else 0.0
        out["measures.gauss_quadrature.nodes"] = work[quadrature] if quadrature >= 0 else 0
        return out

    def write(self, path) -> None:
        """Save every span as a compressed numpy archive: `names` and per-span
        arrays `fid`, `op`, `parent`, `start_s`, `end_s`, `failed`, `work`."""
        import numpy as np

        sids = np.arange(len(self.starts))
        failed = np.zeros(len(sids), dtype=bool)
        failed[list(self.failed)] = True
        np.savez_compressed(
            path, names=np.array(self.names), fid=np.array(self.fids),
            op=np.searchsorted(np.array(self.op_starts), sids, side="right") - 1,
            parent=np.array(self.parents), start_s=np.array(self.starts),
            end_s=np.array(self.ends), failed=failed, work=np.array(self.work))
