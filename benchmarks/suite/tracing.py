"""Layer tracing from outside the program: wrap public functions, record spans.

The suite measures each layer without editing ``src/``: :meth:`Tracer.install`
replaces every public function listed in :data:`LAYER_FUNCTIONS` with a thin
wrapper that records one span per call — name, parent, start, end — and the
spans of one repeat share a trace id. Spans stay in memory until the repeat
ends; :func:`layer_times` then turns them into per-function self time (a
span's duration minus the part of it its children cover) and call counts.

Functions are found by identity: a module-level function is replaced in every
loaded ``repro`` module that imported it by name, a method is replaced on the
class that defines it, and backend kernels are swapped by re-registering the
resolved backend with traced kernels through :func:`repro.backend.register_backend`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

__all__ = [
    "BACKEND_KERNELS",
    "LAYER_FUNCTIONS",
    "ROOT_SPAN",
    "Tracer",
    "layer_names",
    "layer_times",
    "self_times",
]

#: ``(span name, module, attribute)`` for every wrapped public function.
#: ``Class.method`` wraps that method on the class; ``*.method`` wraps it on
#: every class of the module that defines it.
LAYER_FUNCTIONS = (
    ("games.sample_game_batch", "repro.games.batch", "sample_game_batch"),
    ("games.classical_bias_batch", "repro.games.batch", "classical_bias_batch"),
    (
        "games.alternating_lower_bound_batch",
        "repro.games.batch",
        "alternating_lower_bound_batch",
    ),
    (
        "games.classical_value",
        "repro.games.nonlocal_games",
        "NonlocalGame.classical_value",
    ),
    ("games.seesaw_lower_bound", "repro.games.seesaw", "seesaw_lower_bound"),
    ("games.build_npa_relaxation", "repro.games.npa", "build_npa_relaxation"),
    (
        "sdp.solve_diagonal_sdp_batch",
        "repro.sdp.batch",
        "solve_diagonal_sdp_batch",
    ),
    ("sdp.dual_upper_bound_batch", "repro.sdp.batch", "dual_upper_bound_batch"),
    ("sdp.solve_partition_sdp", "repro.sdp.admm", "solve_partition_sdp"),
    ("sdp.project_psd_batch", "repro.sdp.projections", "project_psd_batch"),
    (
        "lb.run_timestep_simulation",
        "repro.lb.simulation",
        "run_timestep_simulation",
    ),
    ("lb.assign_batch", "repro.lb.policies", "*.assign_batch"),
    ("net.draw_batch", "repro.net.workload", "*.draw_batch"),
    ("exec.cache_key", "repro.exec.cache", "cache_key"),
    ("exec.cache_get", "repro.exec.cache", "ResultCache.get"),
    ("exec.cache_put_if_absent", "repro.exec.cache", "ResultCache.put_if_absent"),
    ("exec.journal_append", "repro.exec.journal", "SweepJournal.append"),
    ("exec.journal_replay", "repro.exec.journal", "SweepJournal.replay"),
    ("exec.sweep_run", "repro.exec.runner", "SweepRunner.run"),
)

#: Kernels of :class:`repro.backend.ArrayBackend`, traced as ``backend.<name>``.
BACKEND_KERNELS = (
    "project_psd_batch",
    "serve_chunk",
    "searchsorted_right",
    "frobenius_batch",
)

#: Span name of the root span around a repeat's timed unit; its self time is
#: the unit's time outside every wrapped function.
ROOT_SPAN = "unit"


def layer_names() -> tuple[str, ...]:
    """Every span name a traced repeat can report, root span first."""
    return (
        ROOT_SPAN,
        *(name for name, _, _ in LAYER_FUNCTIONS),
        *(f"backend.{kernel}" for kernel in BACKEND_KERNELS),
    )


class Tracer:
    """Records one span per call of every wrapped function.

    Spans are ``[name, parent index, start, end]`` lists in call order; the
    parent is the innermost span open when the call began (``-1`` at the
    root). One tracer serves one repeat, so all its spans share
    :attr:`trace_id`.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> list:
        entry = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(entry)
        return entry

    def _exit(self, entry: list) -> None:
        entry[3] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Record the block as one span."""
        entry = self._enter(name)
        try:
            yield
        finally:
            self._exit(entry)

    def wrap(self, fn, name: str):
        """A wrapper of ``fn`` that records each call as span ``name``."""

        # Not built on span(): a context manager per call costs ~1.8 us
        # against ~0.6-1.1 us here, on the ~10^5 calls of a traced sweep.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(entry)

        return traced

    def install(self) -> None:
        """Wrap every function of :data:`LAYER_FUNCTIONS` and the backend."""
        for name, module_name, attribute in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attribute.rpartition(".")
            if not owner_name:
                self._wrap_function(getattr(module, attribute), name)
                continue
            owners = (
                [
                    cls
                    for _, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module_name and method in vars(cls)
                ]
                if owner_name == "*"
                else [getattr(module, owner_name)]
            )
            for cls in owners:
                setattr(cls, method, self.wrap(vars(cls)[method], name))
        self._wrap_backend()

    def _wrap_function(self, fn, name: str) -> None:
        traced = self.wrap(fn, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attribute, traced)

    def _wrap_backend(self) -> None:
        from repro import backend

        name = backend.resolve_backend_name()
        kernels = backend.get_backend(name)
        traced = dataclasses.replace(
            kernels,
            **{
                kernel: self.wrap(getattr(kernels, kernel), f"backend.{kernel}")
                for kernel in BACKEND_KERNELS
            },
        )
        backend.register_backend(name, lambda: traced)

    def to_dict(self) -> dict:
        """JSON form: the trace id and ``[index, parent, name, start, end]``
        rows."""
        return {
            "trace_id": self.trace_id,
            "spans": [
                [index, parent, name, start, end]
                for index, (name, parent, start, end) in enumerate(self.spans)
            ],
        }


def self_times(spans) -> list[float]:
    """Self time of each ``[name, parent, start, end]`` span.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so overlapping or overhanging children are never
    counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(child_end, end))
        result.append((end - start) - covered)
    return result


def layer_times(spans) -> dict[str, float]:
    """``<name>.self_s`` and ``<name>.calls`` for every name in
    :func:`layer_names`, zero for functions the repeat never called."""
    totals = {name: [0.0, 0] for name in layer_names()}
    for (name, *_), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    metrics: dict[str, float] = {}
    for name, (own, calls) in totals.items():
        metrics[f"{name}.self_s"] = own
        metrics[f"{name}.calls"] = calls
    return metrics
