"""Outside-in span tracing of polydicke's layers.

Each wrapper replaces one module attribute that the library itself looks up
at call time (for example ``quantum.ground_state``, which both the CLI and
``converge_cutoff`` resolve through the ``quantum`` module), records a span
(name, start, end, parent span, op id) and, for a few layers, one figure
taken from the call's arguments or result.  Spans live in compact arrays in
memory and are written once, when the run ends.  ``uninstall`` restores
every original attribute.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.figures: Dict[str, List[float]] = defaultdict(list)
        self.seen_truncations: set = set()
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self._installed: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str,
                hook: Optional[Hook] = None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time (duration minus child spans) per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=len(self.names))
        busy = np.bincount(a["name"], weights=own, minlength=len(self.names))
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(busy[i]) for i, n in enumerate(self.names)})

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# --- figures taken from calls -------------------------------------------------

def _dim_hook(key: str) -> Hook:
    def hook(tracer, args, kwargs, result):
        tracer.figures[key].append(args[0].shape[0])
    return hook


def _components_hook(tracer, args, kwargs, result):
    count, membership = result
    sizes = np.bincount(membership)
    tracer.figures["components.count"].append(count)
    tracer.figures["components.size1"].append(int((sizes == 1).sum()))


def _ground_state_hook(tracer, args, kwargs, result):
    system, atom_count, cutoffs = args[:3]
    rwa = kwargs.get("rwa", args[3] if len(args) > 3 else False)
    pairs = system.pairs
    if isinstance(cutoffs, int):
        cut = (cutoffs,) * len(pairs)
    else:
        cut = tuple(int(cutoffs[p]) for p in pairs)
    structure = (system.n, system.omega,
                 tuple((t.j, t.k, t.Omega) for t in sorted(
                     system.transitions, key=lambda t: t.pair)))
    key = (structure, atom_count, cut, bool(rwa))
    tracer.figures["ground_state.repeat"].append(key in tracer.seen_truncations)
    tracer.seen_truncations.add(key)
    tracer.figures["ground_state.zero_coupling"].append(
        any(t.mu == 0.0 for t in system.transitions))


def _value_hook(key: str, get: Callable[[object], float]) -> Hook:
    def hook(tracer, args, kwargs, result):
        tracer.figures[key].append(get(result))
    return hook


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary on the attribute its caller looks up."""
    import scipy.linalg

    from polydicke import (cli, observables, phasemap, quantum, symmetries,
                           variational)

    for module in (variational, phasemap, quantum, observables, symmetries,
                   cli):
        tracer.install(module, "require_valid", "model.require_valid")
    tracer.install(variational, "candidates", "variational.candidates")
    tracer.install(quantum, "_variational_candidates", "variational.candidates")
    tracer.install(variational, "minimize", "variational.minimize")
    tracer.install(variational, "minimize_numeric",
                   "variational.minimize_numeric")
    tracer.install(variational, "_scipy_minimize", "variational.lbfgs",
                   _value_hook("lbfgs.nfev", lambda r: r.nfev))
    tracer.install(phasemap, "scan_grid", "phasemap.scan_grid",
                   _value_hook("scan_grid.cells", lambda r: r.energies.size))
    tracer.install(phasemap, "collective_boundary",
                   "phasemap.collective_boundary")
    tracer.install(observables, "expectations", "observables.expectations")
    tracer.install(symmetries, "rwa_rescale", "symmetries.rwa_rescale")
    tracer.install(phasemap, "rwa_rescale", "symmetries.rwa_rescale")
    tracer.install(quantum, "converge_cutoff", "quantum.converge_cutoff")
    tracer.install(quantum, "ground_state", "quantum.ground_state",
                   _ground_state_hook)
    tracer.install(quantum, "build_basis", "quantum.build_basis",
                   _value_hook("basis.states", lambda r: r.size))
    tracer.install(quantum, "build_hamiltonian", "quantum.build_hamiltonian",
                   _value_hook("hamiltonian.nnz", lambda r: r.nnz))
    tracer.install(quantum, "split_sectors", "quantum.split_sectors")
    tracer.install(quantum, "connected_components", "quantum.components",
                   _components_hook)
    tracer.install(scipy.linalg, "eigh", "quantum.eigh", _dim_hook("eigh.dim"))
    tracer.install(quantum, "eigsh", "quantum.eigsh", _dim_hook("eigsh.dim"))
    tracer.install(cli, "main", "cli.main")


# --- per-layer metrics --------------------------------------------------------

# (metric, unit); every one is reported on every workload, 0 where bypassed
PER_LAYER_UNITS = {}
for _layer in ("quantum.eigh", "quantum.eigsh", "quantum.ground_state",
               "quantum.components", "quantum.split_sectors",
               "quantum.build_hamiltonian", "quantum.build_basis",
               "variational.minimize", "variational.candidates",
               "model.require_valid", "phasemap.collective_boundary",
               "observables.expectations", "symmetries.rwa_rescale",
               "variational.minimize_numeric", "variational.lbfgs",
               "cli.main"):
    PER_LAYER_UNITS[f"{_layer}.calls"] = "1/op"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s/op"
PER_LAYER_UNITS.update({
    "quantum.eigh.dim_p50": "states",
    "quantum.eigsh.dim_p50": "states",
    "quantum.components.count": "1/call",
    "quantum.components.size1_frac": "ratio",
    "quantum.build_hamiltonian.nnz": "count",
    "quantum.basis.states": "states",
    "quantum.converge_cutoff.calls": "1/op",
    "quantum.converge_cutoff.solves_per_call": "1/call",
    "quantum.truncation_repeat_frac": "ratio",
    "quantum.zero_coupling_frac": "ratio",
    "phasemap.scan_grid.self_s": "s/op",
    "phasemap.scan_grid.cells": "1/op",
    "variational.lbfgs.nfev": "1/call",
    "cli.out_bytes": "B/op",
    "check.failed_frac": "ratio",
    "check.mismatch_frac": "ratio",
    "trace.overhead_frac": "ratio",
})


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Per-op layer figures of a traced pass of `ops` operations."""
    calls, busy = tracer.self_times()
    fig = tracer.figures
    out: Dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        layer, _, what = key.rpartition(".")
        if what == "calls":
            out[key] = calls.get(layer, 0) / ops
        elif what == "self_s":
            out[key] = busy.get(layer, 0.0) / ops
    a = tracer.arrays()
    converge_id = tracer._name_ids.get("quantum.converge_cutoff")
    solve_id = tracer._name_ids.get("quantum.ground_state")
    solves = 0
    if converge_id is not None and solve_id is not None:
        parents = a["parent"][a["name"] == solve_id]
        parents = parents[parents >= 0]
        solves = int((a["name"][parents] == converge_id).sum())
    n_converge = calls.get("quantum.converge_cutoff", 0)
    component_calls = len(fig["components.count"])
    out.update({
        "quantum.eigh.dim_p50": _median(fig["eigh.dim"]),
        "quantum.eigsh.dim_p50": _median(fig["eigsh.dim"]),
        "quantum.components.count": _mean(fig["components.count"]),
        "quantum.components.size1_frac": (
            sum(fig["components.size1"]) / sum(fig["components.count"])
            if component_calls else 0.0),
        "quantum.build_hamiltonian.nnz": _median(fig["hamiltonian.nnz"]),
        "quantum.basis.states": _median(fig["basis.states"]),
        "quantum.converge_cutoff.solves_per_call": (
            solves / n_converge if n_converge else 0.0),
        "quantum.truncation_repeat_frac": _mean(fig["ground_state.repeat"]),
        "quantum.zero_coupling_frac": _mean(fig["ground_state.zero_coupling"]),
        "phasemap.scan_grid.cells": sum(fig["scan_grid.cells"]) / ops,
        "variational.lbfgs.nfev": _mean(fig["lbfgs.nfev"]),
    })
    return out
