"""The indexed control plane must not scan what it claims not to scan.

Each test wires a tripwire or counter into the structure the pre-index
code used to iterate — resident sandboxes for memory sums, the
per-function population for dispatch and counting, the request table
for the drain check, the event heap for starvation retries — and shows
the indexed path never touches it.  Together with
``test_control_plane_equivalence`` (same answers) these pin the PR's
claim: same behaviour, O(1) work.
"""

from __future__ import annotations

from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import StartType
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Request, Trace
from tests.platform._reference import ScanSandboxIndex, use_scan_control_plane

SCALE = 1.0 / 256.0

MEDES = MedesPolicyConfig(idle_period_ms=5_000.0, alpha=25.0)


def build(config_overrides=None, functions=("Vanilla", "LinAlg")):
    suite = FunctionBenchSuite.subset(list(functions))
    overrides = dict(nodes=2, node_memory_mb=512.0, content_scale=SCALE, seed=3)
    overrides.update(config_overrides or {})
    config = ClusterConfig(**overrides)
    return build_platform(PlatformKind.MEDES, config, suite, medes=MEDES)


class _Tripwire:
    """Raises on any use; stands in for a structure that must be idle."""

    def __init__(self, name: str):
        self.name = name

    def _trip(self, *args, **kwargs):
        raise AssertionError(f"indexed path touched {self.name}")

    __iter__ = __len__ = __getitem__ = __call__ = _trip

    def values(self, *a, **k):
        self._trip()

    def items(self, *a, **k):
        self._trip()


class _ValuesCountingDict(dict):
    """A dict that counts full-table iterations."""

    values_calls = 0

    def values(self):
        self.values_calls += 1
        return super().values()


class TestNoResidentScans:
    def test_used_bytes_without_touching_residents(self):
        """fits/free_bytes/used_bytes serve from the counter: they must
        work even when every resident's memory_bytes() is booby-trapped."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "LinAlg")]))
        for node in platform.nodes:
            assert node.sandboxes, "need residents for the test to mean anything"
        for sandbox_holder in platform.nodes:
            for sandbox in sandbox_holder.sandboxes.values():
                sandbox.memory_bytes = _Tripwire("Sandbox.memory_bytes")
        total = 0
        for node in platform.nodes:
            total += node.used_bytes()
            node.fits(1)
            node.free_bytes()
        assert total == platform.controller.used_bytes() > 0

    def test_counts_without_population_scan(self):
        """live_counts/sandbox_census/build_view never iterate the
        per-function sandbox population."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla"), (1.0, "LinAlg")]))
        controller = platform.controller
        controller._by_function = _Tripwire("controller._by_function")
        live, dedup = controller.live_counts()
        assert sum(live.values()) > 0
        warm, dedup_census, total = controller.sandbox_census()
        assert total > 0
        view = controller.build_view()
        assert view.used_bytes > 0


class TestNoDispatchScan:
    def test_warm_dispatch_without_function_scan(self):
        """Dispatching to an idle warm sandbox reads the candidate index,
        not the whole per-function population."""
        platform = build()
        platform.run(Trace.from_arrivals([(0.0, "Vanilla")]))
        controller = platform.controller
        assert controller._index.idle_warm.get("Vanilla"), "no idle warm sandbox"
        controller._function_sandboxes = _Tripwire("_function_sandboxes")
        request = Request(request_id=999, function="Vanilla", arrival_ms=platform.sim.now)
        controller.submit(request)
        record = platform.metrics.requests[999]
        assert record.start_type is StartType.WARM


class TestNoDrainScan:
    def test_drain_check_is_counter_not_scan(self):
        """Platform.run's drain loop consults the outstanding-requests
        counter; the request table is never iterated during the run."""
        platform = build()
        counting = _ValuesCountingDict()
        platform.metrics.requests = counting
        trace = Trace.from_arrivals(
            [(float(i * 500), "Vanilla") for i in range(8)]
        )
        platform.run(trace)
        assert len(counting) == 8
        assert counting.values_calls == 0
        assert platform.metrics.outstanding_requests == 0


class TestCoalescedStarvationTimer:
    def _burst_platform(self, indexed: bool):
        # One node that fits a single big sandbox: a burst of arrivals
        # all queue behind it.
        platform = build(
            config_overrides=dict(nodes=1, node_memory_mb=100.0, seed=5),
            functions=("RNNModel",),
        )
        if not indexed:
            use_scan_control_plane(platform)
        trace = Trace.from_arrivals([(float(i), "RNNModel") for i in range(20)])
        return platform, trace

    def test_single_timer_for_many_queued_requests(self):
        platform, trace = self._burst_platform(indexed=True)
        probes = {}

        def probe():
            controller = platform.controller
            probes["queued"] = len(controller._queue)
            probes["deadlines"] = len(controller._starvation_deadlines)
            probes["pending_events"] = platform.sim.pending_events
            timer = controller._starvation_timer
            probes["armed"] = timer is not None and timer.pending

        platform.sim.at(100.0, probe)
        platform.run(trace)
        assert probes["queued"] >= 15
        # Every queued request holds a slot in the deadline deque...
        assert probes["deadlines"] >= probes["queued"]
        # ...but only ONE starvation event is armed on the heap.
        assert probes["armed"]
        legacy_platform, legacy_trace = self._burst_platform(indexed=False)
        legacy_probe = {}
        legacy_platform.sim.at(
            100.0,
            lambda: legacy_probe.update(pending=legacy_platform.sim.pending_events),
        )
        legacy_platform.run(legacy_trace)
        # The per-request-retry reference has one retry event per queued
        # request on the heap at the same instant; the coalesced timer
        # removes all but one of them.
        assert probes["pending_events"] <= legacy_probe["pending"] - (
            probes["queued"] - 1
        )


class TestIndexInvariants:
    """After a full run the indexes still mirror a fresh scan."""

    def _run(self):
        platform = build(
            config_overrides=dict(nodes=2, node_memory_mb=256.0, seed=8),
            functions=("Vanilla", "LinAlg", "FeatureGen"),
        )
        arrivals = [(float(i * 700), fn) for i, fn in enumerate(
            ["Vanilla", "LinAlg", "FeatureGen"] * 6
        )]
        platform.run(Trace.from_arrivals(arrivals))
        return platform

    def test_candidate_sets_match_scan(self):
        platform = self._run()
        controller = platform.controller
        index, scan = controller._index, ScanSandboxIndex(controller)
        for name in ("idle_warm", "restorable", "abortable"):
            for function in controller._by_function:
                expected = set(getattr(scan, name)[function])
                assert set(getattr(index, name).get(function, {})) == expected

    def test_node_order_matches_sorted_scan(self):
        platform = self._run()
        controller = platform.controller
        expected = sorted(
            platform.nodes, key=lambda n: (n.recomputed_used_bytes(), n.node_id)
        )
        assert controller._usage.snapshot() == expected

    def test_census_matches_scan(self):
        platform = self._run()
        controller = platform.controller
        scan = ScanSandboxIndex(controller)

        def nonzero(counts):
            # The index keeps a key once a function was ever counted;
            # the scan has one for every function with a population.
            return {function: n for function, n in counts.items() if n}

        live, dedup = controller.live_counts()
        assert nonzero(live) == nonzero(scan.live_count) != {}
        assert nonzero(dedup) == nonzero(scan.dedup_count)
        assert controller.sandbox_census() == (
            scan.warm_census,
            scan.dedup_census,
            scan.total,
        )
        assert scan.total > 0
