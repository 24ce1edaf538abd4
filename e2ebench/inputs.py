"""Seeded inputs of the Δcost benchmark: one clip set shared by every workload.

The clip set is the top-K of a synthetic pool in the ``repro evaluate``
default shape (6x8x4 grid, 4 nets, 1 sink per net, 2 access points),
ranked by ``select_top_clips``.  ``--seed`` relabels it: clip and net
names carry the seed, so every seed gives other payload bytes,
experiment ids, journal records and solve-cache keys, while the
geometry -- and with it the solver work and the Δcost report -- stays
the same.  NOTES.md records why the seed moves no geometry: a fresh
pool per seed, or a mirrored / net-permuted clip, changes which of
several optimal baseline routings HiGHS returns, hence how many
follower rules take warm shortcuts, and spreads ``sweep_s`` by more
than any bound the benchmark may set.
"""

from __future__ import annotations

#: Generator shape: the ``repro evaluate`` CLI defaults.
SHAPE = dict(nx=6, ny=8, nz=4, n_nets=4, sinks_per_net=1, access_points_per_pin=2)
#: Pool generator seeds and the number of clips kept by pin cost.
POOL_SEEDS = range(12)
TOP_K = 5
TECH = "N28-12T"
TITLE = f"Δcost study ({TECH})"


def base_clips():
    """The top-K clips of the pool, looked up through ``repro.clips``
    at call time so a traced run times the ``clips`` layer."""
    import repro.clips as clips_mod

    spec = clips_mod.SyntheticClipSpec(**SHAPE)
    pool = [clips_mod.make_synthetic_clip(spec, seed=s) for s in POOL_SEEDS]
    return clips_mod.select_top_clips(pool, TOP_K)


def relabel(clip, seed: int):
    """``clip`` with seed-tagged clip and net names."""
    from dataclasses import replace

    nets = tuple(
        replace(net, name=f"s{seed}{net.name}") for net in clip.nets
    )
    return replace(clip, name=f"{clip.name}_v{seed}", nets=nets)


def clip_set(seed: int) -> list[dict]:
    """The seeded clip set as serialized dicts: the form the service
    receives, and the form each sweep deserializes into fresh objects
    (so no pass reuses another pass's identity-keyed caches)."""
    from repro.clips.serialization import clip_to_dict

    return [clip_to_dict(relabel(c, seed)) for c in base_clips()]


def rules():
    """All 11 Table-3 rules of the technology, RULE1 (the baseline) first."""
    from repro.eval import rules_for_technology

    return rules_for_technology(TECH)


def render(study) -> str:
    """The report exactly as ``repro evaluate --no-audit`` prints it."""
    from repro.eval import format_delta_cost_table
    from repro.eval.report import format_sorted_traces

    return (
        format_delta_cost_table(study, title=TITLE)
        + "\n"
        + format_sorted_traces(study)
        + "\n"
    )
