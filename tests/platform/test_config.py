"""Tests for cluster configuration."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.platform.config import (
    CATALYZER_FIXED_MS,
    CATALYZER_MS_PER_MB,
    ClusterConfig,
    ColdStartMode,
)


class TestValidation:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.nodes > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"node_memory_mb": 0},
            {"content_scale": 0.0},
            {"content_scale": 1.5},
            {"base_threshold": 0},
            {"eviction_scan_cap": -1},
            {"memory_sample_interval_ms": 0.0},
            {"memory_sample_interval_ms": -10.0},
            {"base_savings_threshold": -0.1},
            {"base_savings_threshold": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_savings_threshold_endpoints_valid(self, threshold):
        config = ClusterConfig(base_savings_threshold=threshold)
        assert config.base_savings_threshold == threshold


class TestCapacities:
    def test_node_capacity(self):
        config = ClusterConfig(nodes=3, node_memory_mb=2048)
        assert config.node_capacity_bytes == 2048 * MIB
        assert config.cluster_capacity_bytes == 3 * 2048 * MIB


class TestColdStartModes:
    def test_standard_uses_profile(self, linalg_profile):
        config = ClusterConfig()
        assert config.cold_start_ms(linalg_profile) == linalg_profile.cold_start_ms

    def test_catalyzer_restore_model(self, linalg_profile):
        config = ClusterConfig(cold_start_mode=ColdStartMode.CATALYZER)
        expected = CATALYZER_FIXED_MS + CATALYZER_MS_PER_MB * linalg_profile.memory_mb
        assert config.cold_start_ms(linalg_profile) == expected

    def test_catalyzer_faster_than_standard(self, suite):
        config = ClusterConfig(cold_start_mode=ColdStartMode.CATALYZER)
        for profile in suite:
            assert config.cold_start_ms(profile) < profile.cold_start_ms
