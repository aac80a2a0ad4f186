"""Tests for platform construction and naming."""

from __future__ import annotations

import pytest

from repro.controller.baselines import AdaptiveKeepAlivePolicy, FixedKeepAlivePolicy
from repro.core.policy import MedesPolicy
from repro.faults.schedule import FaultsConfig
from repro.platform.config import ClusterConfig, ColdStartMode
from repro.platform.platform import PlatformKind, build_platform
from repro.workload.functionbench import FunctionBenchSuite


@pytest.fixture(scope="module")
def small_config():
    return ClusterConfig(nodes=2, node_memory_mb=256.0, content_scale=1 / 256)


@pytest.fixture(scope="module")
def tiny_suite():
    return FunctionBenchSuite.subset(["Vanilla"])


class TestBuildPlatform:
    def test_medes_wiring(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        assert platform.name == "medes"
        assert isinstance(platform.controller.policy, MedesPolicy)
        # Medes platforms carry per-function estimators.
        assert set(platform.controller.stats) == {"Vanilla"}
        assert len(platform.nodes) == 2
        assert len(platform.agents) == 2

    @pytest.mark.parametrize("kind", list(PlatformKind))
    def test_fault_layer_always_wired(self, kind, small_config, tiny_suite):
        """The default (empty) fault layer is built on every platform and
        shared by the controller and every agent."""
        platform = build_platform(kind, small_config, tiny_suite)
        assert small_config.faults == FaultsConfig()
        assert platform.faults.config is small_config.faults
        assert platform.injector.runtime is platform.faults
        assert all(
            agent.transients is platform.faults.transients
            for agent in platform.agents.values()
        )

    def test_fixed_wiring(self, small_config, tiny_suite):
        platform = build_platform(
            PlatformKind.FIXED_KEEP_ALIVE, small_config, tiny_suite,
            fixed_keep_alive_ms=300_000.0,
        )
        assert platform.name == "fixed-ka-5min"
        assert isinstance(platform.controller.policy, FixedKeepAlivePolicy)
        assert platform.controller.stats == {}

    def test_adaptive_wiring(self, small_config, tiny_suite):
        platform = build_platform(
            PlatformKind.ADAPTIVE_KEEP_ALIVE, small_config, tiny_suite
        )
        assert platform.name == "adaptive-ka"
        assert isinstance(platform.controller.policy, AdaptiveKeepAlivePolicy)

    def test_catalyzer_flag_changes_name_and_mode(self, small_config, tiny_suite):
        platform = build_platform(
            PlatformKind.MEDES, small_config, tiny_suite, catalyzer=True
        )
        assert platform.name == "medes+catalyzer"
        assert platform.config.cold_start_mode is ColdStartMode.CATALYZER
        baseline = build_platform(
            PlatformKind.FIXED_KEEP_ALIVE, small_config, tiny_suite, catalyzer=True
        )
        assert baseline.name.endswith("+catalyzer")

    def test_catalyzer_does_not_mutate_input_config(self, small_config, tiny_suite):
        build_platform(PlatformKind.MEDES, small_config, tiny_suite, catalyzer=True)
        assert small_config.cold_start_mode is ColdStartMode.STANDARD

    def test_agents_share_registry_and_store(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        registries = {id(agent.registry) for agent in platform.agents.values()}
        stores = {id(agent.store) for agent in platform.agents.values()}
        assert registries == {id(platform.registry)}
        assert stores == {id(platform.store)}

    def test_node_capacity_from_config(self, small_config, tiny_suite):
        platform = build_platform(PlatformKind.MEDES, small_config, tiny_suite)
        for node in platform.nodes:
            assert node.capacity_bytes == small_config.node_capacity_bytes
