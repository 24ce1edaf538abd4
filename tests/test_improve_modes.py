"""Tests for improvement candidate ranking modes."""

import copy

import pytest

from repro.clips.extract import ClipWindowSpec
from repro.improve import improve_routing
from repro.router import OptRouter

#: Small windows keep each clip solve well under a second.
SPEC = ClipWindowSpec(cols=4, rows=5)


class TestRankModes:
    def test_pincost_mode_runs(self, routed_design):
        design, grid, routed = routed_design
        routed = copy.deepcopy(routed)
        report = improve_routing(
            design, grid, routed,
            spec=SPEC, router=OptRouter(time_limit=20.0),
            max_clips=3, rank="pincost",
        )
        assert len(report.clips) == 3
        for clip in report.clips:
            if clip.new_cost is not None:
                assert clip.new_cost <= clip.old_cost + 1e-9

    def test_wiring_mode_targets_busiest_windows(self, routed_design):
        design, grid, routed = routed_design
        routed = copy.deepcopy(routed)
        report = improve_routing(
            design, grid, routed,
            spec=SPEC, router=OptRouter(time_limit=20.0),
            max_clips=3, rank="wiring",
        )
        old_costs = [clip.old_cost for clip in report.clips]
        assert old_costs == sorted(old_costs, reverse=True)

    def test_unknown_mode_rejected(self, routed_design):
        design, grid, routed = routed_design
        with pytest.raises(ValueError):
            improve_routing(
                design, grid, copy.deepcopy(routed), rank="magic"
            )

    def test_gain_property_and_summary(self, routed_design):
        from repro.improve.local import ClipImprovement

        accepted = ClipImprovement("c", 10.0, 8.0, accepted=True)
        rejected = ClipImprovement("c", 10.0, 10.0, accepted=False)
        unproven = ClipImprovement("c", 10.0, None, accepted=False)
        assert accepted.gain == 2.0
        assert rejected.gain == 0.0
        assert unproven.gain == 0.0
