"""Host-time spans around calls into each layer's public functions.

The benchmark never edits the program: :func:`install` replaces layer
entry points with timing wrappers from outside, on the class for
methods and in every ``repro`` module namespace that bound the function
by name (``compute_patches`` is looked up in ``core.agent`` and
``templates.delta``, ``rng_for`` in half a dozen modules), so no call
site silently escapes its span.

Spans are kept in memory as flat arrays (name, start, end, parent) and
reduced at the end: a span's self time is its duration minus the
durations of its direct children, so self times over every span sum to
the root span's duration exactly.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

from repro.controller.controller import ClusterController
from repro.core.agent import DedupAgent
from repro.core.policy import FunctionStats, MedesPolicy
from repro.core.registry import FingerprintRegistry, ShardedFingerprintRegistry
from repro.platform.metrics import RunMetrics
from repro.platform.platform import Platform
from repro.sim.engine import Simulator
from repro.storage.store import TieredCheckpointStore
from repro.templates.catalog import TemplateCatalog
from repro.workload.functionbench import FunctionProfile
import repro._util
import repro.memory.fingerprint
import repro.memory.patch
import repro.templates.delta

#: Root span: everything inside ``Platform.run``.
ROOT = "platform.run"

#: (owner class, method name, span name) of every timed method.
METHOD_SPANS = (
    (Platform, "run", ROOT),
    (Simulator, "run_until", "sim.run_until"),
    (ClusterController, "submit", "controller.submit"),
    (ClusterController, "build_view", "controller.build_view"),
    (MedesPolicy, "decide_idle", "policy.decide_idle"),
    (DedupAgent, "dedup", "agent.dedup"),
    (DedupAgent, "restore", "agent.restore"),
    (DedupAgent, "templatize", "agent.templatize"),
    (DedupAgent, "fork_restore", "agent.fork_restore"),
    (FingerprintRegistry, "choose_base_pages", "registry.choose_base_pages"),
    (ShardedFingerprintRegistry, "choose_base_pages", "registry.choose_base_pages"),
    (FingerprintRegistry, "register_page", "registry.register_page"),
    (ShardedFingerprintRegistry, "register_page", "registry.register_page"),
    (FunctionProfile, "synthesize", "synth.synthesize"),
    (RunMetrics, "on_arrival", "metrics.on_arrival"),
    (RunMetrics, "on_completion", "metrics.on_completion"),
    (TemplateCatalog, "promote", "templates.promote"),
    (TieredCheckpointStore, "demote_checkpoint", "storage.demote_checkpoint"),
    (TieredCheckpointStore, "demote_table", "storage.demote_table"),
    (TieredCheckpointStore, "promote_checkpoint", "storage.promote_checkpoint"),
    (TieredCheckpointStore, "promote_table", "storage.promote_table"),
)

#: (module-level function, span name) of every timed free function.
FUNCTION_SPANS = (
    (repro.memory.fingerprint.batch_page_fingerprints, "fingerprint.batch_page_fingerprints"),
    (repro.memory.patch.compute_patches, "patch.compute_patches"),
    (repro.memory.patch.build_anchor_index, "patch.build_anchor_index"),
    (repro.memory.patch.apply_patch, "patch.apply_patch"),
    (repro.templates.delta.build_delta_table, "templates.build_delta_table"),
    (repro._util.rng_for, "util.rng_for"),
)

#: Spans whose result length is a page count worth recording.
PAGED_SPANS = frozenset(
    {
        "fingerprint.batch_page_fingerprints",
        "patch.compute_patches",
        "registry.choose_base_pages",
    }
)

#: Counted, not timed.  ``mean_rate`` is called about once per function
#: per idle decision (a million times on zipf_dedup), so a span would
#: swamp it.  The controller's rehoming of dedup sandboxes whose bases
#: died, and its domain-checked replica lookups, are private steps of a
#: restore; their counts show that the crash recovery and tenancy checks
#: ran at all (the skip counter itself stays 0 while domains hold).
COUNTED_METHODS = (
    (FunctionStats, "mean_rate", "policy.mean_rate"),
    (ClusterController, "_try_rehome", "faults.rehome"),
    (ClusterController, "_replica_for", "tenancy.replica_lookup"),
)


class SpanRecorder:
    """In-memory span store plus per-span-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = [-1]
        self.counters: Counter[str] = Counter(
            dict.fromkeys(
                [f"{name}.pages" for name in PAGED_SPANS]
                + [f"{name}.calls" for _, _, name in COUNTED_METHODS]
                + ["registry.hits"],
                0,
            )
        )
        self.bindings: dict[str, list[str]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped in a span named ``name``."""
        name_id = self._name_id(name)
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        counters = self.counters
        paged = name in PAGED_SPANS
        hits = name == "registry.choose_base_pages"
        perf_counter = time.perf_counter

        def span(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if paged:
                counters[name + ".pages"] += len(result)
            if hits:
                counters["registry.hits"] += sum(c is not None for c in result)
            return result

        span.__wrapped__ = func
        return span

    def counted(self, name: str, func: Callable) -> Callable:
        """``func`` wrapped to count calls only (no span)."""
        counters = self.counters
        key = name + ".calls"

        def count(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)

        count.__wrapped__ = func
        return count

    # ------------------------------------------------------------ reduce

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        if self._stack != [-1]:
            raise RuntimeError("span stack not empty: a traced call never returned")
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=duration - child_time, minlength=width)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (name id, start, end, parent) as ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int32),
        )


def _rebind(original: Callable, replacement: Callable) -> list[str]:
    """Replace every ``repro`` module global bound to ``original``."""
    modules = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                modules.append(f"{module_name}.{attr}")
    return modules


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point; call after the platform is built.

    Installed once per process (the traced replay runs in its own
    process), so nothing is ever unwrapped.
    """
    for owner, method, name in METHOD_SPANS:
        setattr(owner, method, recorder.timed(name, vars(owner)[method]))
        recorder.bindings.setdefault(name, []).append(f"{owner.__name__}.{method}")
    for owner, method, name in COUNTED_METHODS:
        setattr(owner, method, recorder.counted(name, vars(owner)[method]))
        recorder.bindings.setdefault(name, []).append(f"{owner.__name__}.{method}")
    for func, name in FUNCTION_SPANS:
        sites = _rebind(func, recorder.timed(name, func))
        if not sites:
            raise RuntimeError(f"{name}: no module binds {func.__qualname__}")
        recorder.bindings[name] = sites
