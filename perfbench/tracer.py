"""Function-boundary tracer for the dechist modules.

Each traced function is replaced, at every `dechist.*` module attribute
bound to it, by a wrapper that records a span (name, start, end,
parent).  Callers that imported a name (`experiments.eigendecompose`,
`metrics.marginalize`, ...) therefore go through the wrapper too.
Spans stay in memory until `spans()` is read at the end of a pass.

Counter hooks run after the wrapped call.  Their own cost, and that of
the tracer bookkeeping, is taken off the span clock, so self times
exclude it; the traced pass's wall time still includes it.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

TRACED = (
    "model.build_hamiltonian",
    "spectral.eigendecompose",
    "spectral.evolve_batch",
    "spectral.sample_haar_state",
    "spectral.select_eigenstate",
    "histories.compute_branch_states",
    "histories.compute_df",
    "histories.marginalize",
    "metrics.epsilon_average",
    "metrics.delta_max",
    "metrics.epsilon_by_distance",
    "metrics.arrow_classification",
    "metrics.branch_histogram",
    "metrics.macro_dynamics",
    "experiments.run_sweep",
    "experiments.run_realization",
    "experiments.fit_scaling",
    "cli.main",
)


def _matrix_digest(args, kwargs, result, counters):
    hamiltonian = args[0] if args else kwargs["hamiltonian"]
    data = np.ascontiguousarray(hamiltonian.matrix)
    digest = hashlib.blake2b(memoryview(data).cast("B"), digest_size=16).hexdigest()
    counters.setdefault("digests", set()).add(digest)


def _evolve_work(args, kwargs, result, counters):
    sd = args[0] if args else kwargs["sd"]
    states = args[1] if len(args) > 1 else kwargs["states"]
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    rows, dim = np.shape(states)
    counters["rows"] = counters.get("rows", 0) + rows
    if dt != 0.0:
        # Forward and back transform; a complex row block times a real
        # basis is two real GEMMs, times a complex basis one complex GEMM.
        per_entry = 8 if np.iscomplexobj(sd.eigenvectors) else 4
        flops = 2 * per_entry * rows * dim * dim
        counters["gflop_computed"] = counters.get("gflop_computed", 0.0) + flops / 1e9


def _leaf_counts(args, kwargs, result, counters):
    leaves = result.states
    live = int(np.count_nonzero(np.any(leaves != 0, axis=1)))
    counters["live"] = counters.get("live", 0) + live
    counters["leaves"] = counters.get("leaves", 0) + leaves.shape[0]
    counters["leaf_mb_computed"] = counters.get("leaf_mb_computed", 0.0) + leaves.nbytes / 1e6


HOOKS = {
    "spectral.eigendecompose": _matrix_digest,
    "spectral.evolve_batch": _evolve_work,
    "histories.compute_branch_states": _leaf_counts,
}


class Tracer:
    """Wraps the TRACED functions of the imported dechist package."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.counters: dict[str, dict] = {}
        self._spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self._paused = 0.0  # bookkeeping time taken off the span clock

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "dechist" or n.startswith("dechist."))
        ]
        for qualname in TRACED:
            module_name, func_name = qualname.split(".")
            module = sys.modules.get(f"dechist.{module_name}")
            original = getattr(module, func_name, None) if module else None
            if not callable(original):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(len(self.names), qualname, original)
            self.names.append(qualname)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, index: int, qualname: str, original):
        hook = HOOKS.get(qualname)
        counters = self.counters.setdefault(qualname, {})

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            slot = len(self._spans)
            self._spans.append((index, 0.0, 0.0, parent))
            self._stack.append(slot)
            start = self._now()
            try:
                result = original(*args, **kwargs)
            finally:
                end = self._now()
                self._stack.pop()
                self._spans[slot] = (index, start, end, parent)
            if hook is not None and qualname not in self.hook_errors:
                t0 = time.perf_counter()
                try:
                    hook(args, kwargs, result, counters)
                except Exception as exc:  # noqa: BLE001 - counter reported missing
                    self.hook_errors[qualname] = f"{type(exc).__name__}: {exc}"
                self._paused += time.perf_counter() - t0
            return result

        return wrapper

    def counter_values(self) -> dict[str, dict[str, float]]:
        """JSON-ready counters; matrix digests become a distinct count."""
        out = {}
        for qualname, counters in self.counters.items():
            if qualname in self.hook_errors:
                continue
            values = {k: v for k, v in counters.items() if k != "digests"}
            if "digests" in counters:
                values["distinct"] = len(counters["digests"])
            out[qualname] = values
        return out

    def spans(self) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent span index or -1) in call order."""
        return [(self.names[i], s, e, p) for i, s, e, p in self._spans]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per-name calls, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return out
