"""Span tracing of the coronawalk layers from outside the library.

The traced run replaces every public function of each coronawalk module (and
every public method of the classes those modules define) by a wrapper that
records a span: name, layer, start, end, parent span and op id. The wrapper
is installed under every name the function is reachable by, including names
other modules imported (``coronawalk.statetransfer.corona_transition_values``
is the walk function), so calls between layers are seen too. ``uninstall``
puts the originals back.

Counters that the per-layer metrics need (eigensolves, evaluated times, PGST
hits, ...) are taken in per-function hooks at the same boundaries.

Spans live in flat arrays rather than one object each: hundreds of thousands
of tuples would make every garbage collection scan them, and that cost would
land in whatever code happened to allocate.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Library layers, in the order they are reported. Each is a module of the
# coronawalk package.
LAYERS = (
    "graphs",
    "corona",
    "spectral",
    "corona_spectrum",
    "walk",
    "statetransfer",
    "numtheory",
    "cli",
)

# The span that encloses one benchmark op; its self time is benchmark glue.
OP_LAYER = "op"

def _decomposition(args, kwargs):
    """The SpectralDecomposition argument of a walk function: `d`, or the
    base decomposition `g_decomp` of the corona functions."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "projectors"):
            return value
    raise TypeError("no spectral decomposition among the arguments")


class Tracer:
    """Records spans and counters while installed on a coronawalk package."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = [f"op.{OP_LAYER}"]  # span name by name id
        self.name_layer: list[str] = [OP_LAYER]  # layer by name id
        # One entry per span, by span index.
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.stack: list[tuple] = []  # (span index, name id) of open spans
        self.op_id = -1
        self.counts: Counter = Counter()
        self._search_ells: Counter = Counter()
        self._patches: list[tuple] = []
        self._hooks = {
            "spectral.eigendecompose": self._on_eigendecompose,
            "corona_spectrum.corona_eigenprojectors": self._on_corona_projectors,
            "walk.transition_values": self._on_transition_values,
            "walk.corona_transition_values": self._on_transition_values,
            "walk.evolve_operator": self._on_evolve_operator,
            "walk.fidelity_curve": self._on_records,
            "walk.evolve_element": self._on_records,
            "walk.corona_transition_element": self._on_records,
            "statetransfer.pgst_search": self._on_pgst_search,
            "statetransfer.check_pst": self._on_check_pst,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self.lib.__name__}.{layer}") for layer in LAYERS}
        wrapped_fns = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped_fns[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for name, member in list(vars(obj).items()):
                        public = not name.startswith("_") or name == "__post_init__"
                        if public and inspect.isfunction(member):
                            qual = f"{layer}.{attr}.{name}"
                            self._patch(obj, name, self._wrap(layer, qual, member))
        # Rebind every module-level name (package, defining module, importers).
        for mod in [self.lib, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped_fns:
                    self._patch(mod, attr, wrapped_fns[obj])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _open(self, name_id: int, start: float) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append((idx, name_id))
        return idx

    def _wrap(self, layer: str, qual: str, fn):
        hook = self._hooks.get(qual)
        name_id = len(self.names)
        self.names.append(qual)
        self.name_layer.append(layer)
        stack, end, open_span = self.stack, self.end, self._open
        indeterminate = self.lib.IndeterminateVerdictError

        # The span covers the wrapper's own bookkeeping (about a microsecond),
        # so that cost lands on the called layer rather than on its caller.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(name_id, perf_counter())
            try:
                result = fn(*args, **kwargs)
            except indeterminate:
                self.counts["statetransfer.indeterminate"] += 1
                raise
            finally:
                stack.pop()
                end[idx] = perf_counter()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------

    def op_span(self, op_id: int, fn):
        """Run one benchmark op inside its own root span."""
        self.op_id = op_id
        idx = self._open(0, perf_counter())
        try:
            return fn()
        finally:
            self.stack.pop()
            self.end[idx] = perf_counter()

    # -- hooks --------------------------------------------------------------
    # Hooks run after the span closed, so self.stack holds its open ancestors.

    def _inside(self, layer: str) -> bool:
        return any(self.name_layer[name_id] == layer for _, name_id in self.stack)

    def _on_eigendecompose(self, idx, args, kwargs, result) -> None:
        self.counts["spectral.eigendecompose_calls"] += 1
        self.counts["spectral.eigh_dim_sum"] += result.dim
        self.counts["spectral.projector_bytes"] += result.projectors.nbytes
        if self._inside("corona_spectrum"):
            self.counts["corona_spectrum.satellite_eigensolves"] += 1

    def _on_corona_projectors(self, idx, args, kwargs, result) -> None:
        self.counts["corona_spectrum.projector_bytes"] += result.projectors.nbytes

    def _on_transition_values(self, idx, args, kwargs, result) -> None:
        n_times = len(result)
        self.counts["walk.evals"] += n_times * len(_decomposition(args, kwargs).eigenvalues)
        if self.stack and self.names[self.stack[-1][1]] == "statetransfer.pgst_search":
            self.counts["statetransfer.ell_evaluated"] += n_times
            self._search_ells[self.stack[-1][0]] += n_times

    def _on_evolve_operator(self, idx, args, kwargs, result) -> None:
        self.counts["walk.evals"] += len(_decomposition(args, kwargs).eigenvalues)

    def _on_records(self, idx, args, kwargs, result) -> None:
        self.counts["walk.records_built"] += len(result) if isinstance(result, list) else 1

    def _on_pgst_search(self, idx, args, kwargs, result) -> None:
        evaluated = self._search_ells.pop(idx, 0)
        self.counts["statetransfer.pgst_searches"] += 1
        if result.target_met:
            self.counts["statetransfer.pgst_hits"] += 1
            self.counts["statetransfer.ell_wasted"] += max(0, evaluated - result.best.ell)

    def _on_check_pst(self, idx, args, kwargs, result) -> None:
        self.counts["statetransfer.pst_pairs"] += 1

    # -- results ------------------------------------------------------------

    def _columns(self):
        layer_index = {layer: i for i, layer in enumerate(dict.fromkeys(self.name_layer))}
        span_layer = np.array([layer_index[layer] for layer in self.name_layer])[np.frombuffer(self.name_id, dtype=np.int32)]
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return layer_index, span_layer, duration, parent

    def layer_totals(self) -> dict:
        """Per layer: self time (span duration minus its direct children),
        inclusive time of its outermost spans, and span count."""
        layer_index, span_layer, duration, parent = self._columns()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(span_layer, weights=duration - child, minlength=len(layer_index))
        parent_layer = np.where(nested, span_layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != span_layer
        outermost = np.bincount(span_layer[outer], weights=duration[outer], minlength=len(layer_index))
        calls = np.bincount(span_layer, minlength=len(layer_index))
        return {
            layer: {"self_s": float(self_time[i]), "outermost_s": float(outermost[i]), "calls": int(calls[i])}
            for layer, i in layer_index.items()
        }

    def write(self, path) -> None:
        """Write all spans as gzip CSV: name, layer, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "layer", "start_s", "end_s", "parent", "op"])
            for name_id, start, end, parent, op in zip(self.name_id, self.start, self.end, self.parent, self.op):
                name = self.names[name_id] if name_id else f"op.{op}"
                writer.writerow([name, self.name_layer[name_id], f"{start:.9f}", f"{end:.9f}", parent, op])
