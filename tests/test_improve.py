"""Tests for OptRouter-based local routing improvement.

The fixture hangs a deliberate dead-end spur off one net inside the
top-ranked window, so at least one clip is re-routed strictly cheaper
and the splice path (edge, node and wiring updates) is exercised; the
routing invariants below then hold on a routing that actually changed.
Windows are 4x5 tracks, small enough that every clip solves in well
under a second.
"""

import copy

import pytest

from repro.clips.extract import ClipWindowSpec, extract_clips
from repro.clips.select import select_top_clips
from repro.improve import improve_routing
from repro.improve.local import _base_net_name
from repro.route.detailed_router import DetailedRouter, edges_to_wiring
from repro.router import OptRouter

SPEC = ClipWindowSpec(cols=4, rows=5)


def add_spur(design, grid, routed, clip):
    """Hang a two-edge dead-end stub off a routed clip net's wiring.

    The stub leaves a node of the net's in-window tree (reached from
    one of its clip pins) along that layer into free tracks inside the
    window, so it joins the pin's component (no new clip pin) and any
    optimal re-route drops it.  Returns the spurred net's name.
    """
    x0, y0 = clip.origin
    taken = set().union(*routed.node_sets.values())
    router = DetailedRouter(grid)
    for net in design.nets:
        for access in router.terminal_nodes(design, net):
            taken |= access

    def inside(x, y):
        return x0 <= x < x0 + clip.nx and y0 <= y < y0 + clip.ny

    for clip_net in clip.nets:
        name = _base_net_name(clip_net.name)
        edges = routed.edge_sets[name]
        adjacency = {}
        for edge in edges:
            a, b = tuple(edge)
            if inside(*grid.node_xyz(a)[:2]) and inside(*grid.node_xyz(b)[:2]):
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
        tree = {
            grid.node_id(x + x0, y + y0, z)
            for pin in clip_net.pins
            for x, y, z in pin.access
        } & routed.node_sets[name]
        stack = list(tree)
        while stack:
            for nbr in adjacency.get(stack.pop(), ()):
                if nbr not in tree:
                    tree.add(nbr)
                    stack.append(nbr)
        for node in sorted(tree):
            x, y, z = grid.node_xyz(node)
            for sx, sy, _ in grid.wire_neighbors(x, y, z):
                fx, fy = 2 * sx - x, 2 * sy - y
                if not (inside(sx, sy) and inside(fx, fy)):
                    continue
                step = grid.node_id(sx, sy, z)
                far = grid.node_id(fx, fy, z)
                if step in taken or far in taken:
                    continue
                edges |= {frozenset((node, step)), frozenset((step, far))}
                routed.node_sets[name] |= {step, far}
                routed.routes[name] = edges_to_wiring(grid, name, edges)
                return name
    raise AssertionError(f"no free tracks for a spur in {clip.name}")


@pytest.fixture(scope="module")
def improved(routed_design):
    design, grid, routed = routed_design
    routed = copy.deepcopy(routed)  # session fixture must stay pristine
    target = select_top_clips(
        extract_clips(design, grid, routed, SPEC), k=1
    )[0]
    add_spur(design, grid, routed, target)
    before_cost = routed.routed_cost()
    report = improve_routing(
        design, grid, routed, spec=SPEC,
        router=OptRouter(time_limit=20.0), max_clips=6, rank="pincost",
    )
    return design, grid, routed, before_cost, report, target


class TestImproveRouting:
    def test_spurred_window_is_accepted(self, improved):
        _d, _g, _routed, _before, report, target = improved
        (clip,) = [c for c in report.clips if c.clip_name == target.name]
        assert clip.accepted
        assert clip.gain > 0
        assert report.n_improved >= 1
        assert report.total_gain >= clip.gain

    def test_gain_is_nonnegative(self, improved):
        _d, _g, _routed, _before, report, _t = improved
        assert report.total_gain >= 0
        for clip in report.clips:
            assert clip.gain >= 0

    def test_cost_never_increases(self, improved):
        _d, _g, routed, before, report, _t = improved
        after = routed.routed_cost()
        assert after <= before + 1e-9
        assert before - after == pytest.approx(report.total_gain, abs=1e-6)

    def test_nets_stay_disjoint(self, improved):
        _d, _g, routed, _before, _report, _t = improved
        owner = {}
        for name, nodes in routed.node_sets.items():
            for node in nodes:
                assert owner.setdefault(node, name) == name

    def test_terminals_still_covered(self, improved):
        design, grid, routed, _before, _report, _t = improved
        router = DetailedRouter(grid)
        for net in design.nets:
            if len(net.terms) < 2 or net.name not in routed.node_sets:
                continue
            nodes = routed.node_sets[net.name]
            for access in router.terminal_nodes(design, net):
                assert access & nodes, f"{net.name} lost a terminal"

    def test_trees_stay_connected(self, improved):
        design, grid, routed, _before, _report, _t = improved
        router = DetailedRouter(grid)
        nets_by_name = {n.name: n for n in design.nets}
        for name, edges in routed.edge_sets.items():
            if not edges:
                continue
            adjacency: dict[int, set[int]] = {}
            for edge in edges:
                a, b = tuple(edge)
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
            for access in router.terminal_nodes(design, nets_by_name[name]):
                nodes = sorted(access)
                for node in nodes[1:]:
                    adjacency.setdefault(nodes[0], set()).add(node)
                    adjacency.setdefault(node, set()).add(nodes[0])
            start = next(iter(adjacency))
            reached = {start}
            stack = [start]
            while stack:
                for nbr in adjacency.get(stack.pop(), ()):
                    if nbr not in reached:
                        reached.add(nbr)
                        stack.append(nbr)
            touched = {n for edge in edges for n in edge}
            assert touched <= reached

    def test_summary_renders(self, improved):
        _d, _g, _routed, _before, report, _t = improved
        text = report.summary()
        assert "clips improved" in text

    def test_optimum_never_exceeds_existing_wiring(self, improved):
        """Regression for the pin-feedthrough fix: the ILP optimum of a
        clip can never cost more than the heuristic wiring it would
        replace (the existing wiring is a feasible ILP solution)."""
        _d, _g, _routed, _before, report, _t = improved
        for clip in report.clips:
            if clip.new_cost is not None:
                assert clip.new_cost <= clip.old_cost + 1e-9, clip.clip_name
