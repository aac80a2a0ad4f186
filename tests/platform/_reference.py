"""Test-only reference paths that production no longer carries.

The platform serves scheduling state from incrementally maintained
indexes (:mod:`repro.controller.index`) and streams trace arrivals onto
the simulator in chunks.  The helpers below swap the simpler paths those
replaced back into an *already-built* platform, so the equivalence
suites can pin production to bit-identical runs against them:

* :func:`use_scan_control_plane` — candidate sets and population
  counters recomputed from the per-function sandbox population on every
  read, placement order re-sorted from recomputed node memory sums, and
  one starvation-retry event per queued request instead of the
  coalesced timer;
* :func:`use_eager_arrivals` — every arrival pre-scheduled as its own
  heap entry before the run starts;
* :func:`use_arrival_chunk` — streamed injection with a small resident
  window, forcing many mid-run refills.

Swap before :meth:`Platform.run`, while the cluster is still empty.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Mapping
from typing import Callable

from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState

_LIVE = frozenset(
    {
        SandboxState.WARM,
        SandboxState.RUNNING,
        SandboxState.DEDUPING,
        SandboxState.DEDUP,
        SandboxState.RESTORING,
    }
)
_DEDUP = frozenset({SandboxState.DEDUPING, SandboxState.DEDUP})
_CENSUS_WARM = frozenset({SandboxState.WARM, SandboxState.RUNNING})


class _ScanCandidates(Mapping):
    """function -> {sandbox_id: sandbox} passing ``accept``, rescanned per read."""

    def __init__(self, controller, accept: Callable[[Sandbox], bool]):
        self._controller = controller
        self._accept = accept

    def __getitem__(self, function: str) -> dict[int, Sandbox]:
        sandboxes = self._controller._by_function[function]
        return {sid: s for sid, s in sandboxes.items() if self._accept(s)}

    def __iter__(self) -> Iterator[str]:
        return iter(self._controller._by_function)

    def __len__(self) -> int:
        return len(self._controller._by_function)


class ScanSandboxIndex:
    """Stand-in for :class:`~repro.controller.index.SandboxIndex` that
    keeps no state: every read scans ``controller._by_function``."""

    def __init__(self, controller):
        self._controller = controller
        self.idle_warm = _ScanCandidates(controller, lambda s: s.idle_warm)
        self.restorable = _ScanCandidates(
            controller,
            lambda s: s.state is SandboxState.DEDUP and s.busy_request_id is None,
        )
        self.abortable = _ScanCandidates(
            controller,
            lambda s: s.state is SandboxState.DEDUPING and s.busy_request_id is None,
        )

    def on_spawn(self, sandbox: Sandbox) -> None:
        pass

    def on_transition(self, sandbox: Sandbox, old_state, new_state) -> None:
        pass

    def refresh(self, sandbox: Sandbox) -> None:
        pass

    def _count(self, states: frozenset[SandboxState]) -> dict[str, int]:
        return {
            function: sum(1 for s in sandboxes.values() if s.state in states)
            for function, sandboxes in self._controller._by_function.items()
        }

    @property
    def live_count(self) -> dict[str, int]:
        return self._count(_LIVE)

    @property
    def dedup_count(self) -> dict[str, int]:
        return self._count(_DEDUP)

    @property
    def warm_census(self) -> int:
        return sum(self._count(_CENSUS_WARM).values())

    @property
    def dedup_census(self) -> int:
        return sum(self._count(_DEDUP).values())

    @property
    def total(self) -> int:
        return sum(len(s) for s in self._controller._by_function.values())


class ScanNodeUsage:
    """Stand-in for :class:`~repro.controller.index.NodeUsageIndex`: sorts
    the nodes by their recomputed per-resident memory sum on every read."""

    def __init__(self, nodes):
        self._nodes = nodes

    def update(self, node) -> None:
        pass

    def snapshot(self, exclude=frozenset()) -> list:
        return sorted(
            (n for n in self._nodes if n.node_id not in exclude),
            key=lambda n: (n.recomputed_used_bytes(), n.node_id),
        )


def use_scan_control_plane(platform):
    """Swap the scan control plane into ``platform``."""
    controller = platform.controller
    assert not controller._by_function, "swap before any sandbox exists"
    controller._index = ScanSandboxIndex(controller)
    controller._usage = ScanNodeUsage(controller.nodes)
    for node in controller.nodes:
        node.on_used_changed = None
    # One retry event per queued request, armed at its own deadline.
    controller._note_starvation_deadline = lambda deadline: controller.sim.at(
        deadline, controller._drain_queue
    )


def use_eager_arrivals(platform):
    """Pre-schedule every trace arrival as its own heap entry."""
    sim = platform.sim

    def schedule_eagerly(times, make_callback, **_):
        for i, time in enumerate(times):
            sim.at(time, make_callback(i))
        return len(times)

    sim.schedule_stream = schedule_eagerly


def use_arrival_chunk(platform, chunk: int):
    """Stream arrivals with a resident window of ``chunk``."""
    platform.sim.schedule_stream = functools.partial(
        platform.sim.schedule_stream, chunk_size=chunk
    )
