"""Property sweep and golden traces for the columnar ``CsrModel`` core.

The object ``Model`` is the construction and oracle representation of
the ILP itself; the columnar cold path must be indistinguishable from
it:

- ``from_model`` / ``to_model`` round-trip losslessly (exact floats,
  names, senses, integrality);
- ``canonical_text`` is byte-for-byte ``write_lp_canonical`` -- the
  solve-cache content address is oblivious to representation (including
  the ``-0.0`` vs ``0.0`` distinction presolve rewrites can produce);
- ``SolveCache.key_for`` yields the same key from either form.

The presolve pass catalog (``csr_reductions.py``) is pinned by
``fixtures/presolve_golden.json``: per corpus entry, the status,
reason, fixes, pass counts, iteration count, column map, live counts
and the sha256 of the reduced model's canonical text.  The corpus is
seeded random MILPs (:func:`seeded_model`), routing ILPs over small
clips under every Table 3 rule, and hand-built models for passes the
other two parts never fire; its entries together fire every pass in
the catalog.  ``decompose_csr`` is held to its partition contract.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import csr_reductions, presolve
from repro.analysis.decompose import decompose_csr
from repro.analysis.presolve import presolve_csr, presolve_routing_ilp
from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import paper_rules
from repro.ilp.csr import CsrModel
from repro.ilp.lp_format import write_lp_canonical
from repro.ilp.model import LinExpr, Model
from repro.ilp.solve_cache import SolveCache
from repro.router import OptRouter


def build_random_model(integer, choice) -> Model:
    """Mixed-type MILP exercising every field the CSR form stores:
    binaries, bounded integers, bounded continuous variables, all three
    senses, constant-only rows, row/objective constants, and zero
    objective coefficients.

    ``integer(lo, hi)`` draws an integer in ``[lo, hi]`` and
    ``choice(seq)`` one element of ``seq``, so the same distribution is
    driven by hypothesis (:func:`random_model`) or by a seeded
    ``random.Random`` (:func:`seeded_model`).
    """
    n_vars = integer(1, 7)
    m = Model(name="prop")
    xs = []
    for i in range(n_vars):
        kind = choice(("binary", "integer", "continuous"))
        if kind == "binary":
            xs.append(m.binary(f"x{i}"))
        elif kind == "integer":
            lo = integer(-3, 2)
            hi = lo + integer(0, 4)
            xs.append(m.integer(f"x{i}", lb=float(lo), ub=float(hi)))
        else:
            lo = integer(-4, 2)
            hi = lo + integer(0, 6)
            xs.append(m.var(f"x{i}", lb=float(lo), ub=float(hi)))

    for _ in range(integer(0, 6)):
        coefs = [integer(-3, 3) for _ in range(n_vars)]
        rhs = integer(-3, 5)
        sense = choice(("<=", ">=", "=="))
        expr = sum((c * x for c, x in zip(coefs, xs)), LinExpr())
        if sense == "<=":
            m.add(expr <= rhs)
        elif sense == ">=":
            m.add(expr >= rhs)
        else:
            m.add(expr == rhs)

    obj = [integer(-5, 5) for _ in range(n_vars)]
    obj_const = integer(-3, 3)
    m.minimize(sum((c * x for c, x in zip(obj, xs)), LinExpr()) + obj_const)
    return m


@st.composite
def random_model(draw):
    return build_random_model(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)),
        lambda seq: draw(st.sampled_from(seq)),
    )


def seeded_model(k: int) -> Model:
    """The :func:`random_model` distribution driven by ``Random(k)``."""
    rng = random.Random(k)
    return build_random_model(rng.randint, rng.choice)


def assert_models_identical(a: Model, b: Model) -> None:
    """Field-exact equality (no tolerance): the round trip is lossless."""
    assert a.name == b.name
    assert [
        (v.index, v.name, v.lb, v.ub, v.is_integer) for v in a.variables
    ] == [(v.index, v.name, v.lb, v.ub, v.is_integer) for v in b.variables]
    assert [
        (c.expr.coefs, c.expr.const, c.sense, c.name) for c in a.constraints
    ] == [(c.expr.coefs, c.expr.const, c.sense, c.name) for c in b.constraints]
    assert a.objective.coefs == b.objective.coefs
    assert a.objective.const == b.objective.const


class TestRoundTrip:
    @given(random_model())
    @settings(max_examples=80, deadline=None)
    def test_model_csr_model_lossless(self, model):
        back = CsrModel.from_model(model).to_model()
        assert_models_identical(model, back)

    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_stats_match(self, model):
        assert CsrModel.from_model(model).stats() == model.stats()


class TestCanonicalBytes:
    @given(random_model())
    @settings(max_examples=80, deadline=None)
    def test_canonical_text_matches_oracle(self, model):
        csr = CsrModel.from_model(model)
        assert csr.canonical_text() == write_lp_canonical(model)

    def test_negative_zero_row_const_stays_distinct(self):
        # Presolve rewrites can leave ``-0.0`` row constants; repr()
        # distinguishes it from ``0.0`` and so must the canonical text.
        for const in (-0.0, 0.0):
            m = Model(name="negzero")
            x = m.binary("x")
            m.add(LinExpr({x.index: 1.0}, const) <= 0.0)
            m.minimize(x)
            csr = CsrModel.from_model(m)
            text = csr.canonical_text()
            assert text == write_lp_canonical(m)
            assert f"| {const!r}" in text

    def test_negative_zero_bound_and_objective(self):
        m = Model(name="negzero2")
        x = m.var("x", lb=-0.0, ub=1.0)
        m.minimize(LinExpr({x.index: 1.0}, -0.0))
        csr = CsrModel.from_model(m)
        assert csr.canonical_text() == write_lp_canonical(m)


class TestCacheKeys:
    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_key_for_is_representation_oblivious(self, model):
        options = {"backend": "highs", "time_limit": 60.0, "presolve": True}
        assert SolveCache.key_for(model, options) == SolveCache.key_for(
            CsrModel.from_model(model), options
        )


# -- golden presolve traces -------------------------------------------------

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "presolve_golden.json"

#: Random corpus size: unseeded entries, then entries with one seeded
#: zero fix on a binary (the seed-fix path routing callers use).
RANDOM_ENTRIES = 300
SEEDED_ENTRIES = 100
SEED_REASON = "sweep seed"

#: ``(spec, seeds)`` of the routing entries: the presolve benchmark's
#: clip shape (2-pin nets, full pass leverage), and a multi-sink shape
#: whose flow variables are continuous columns.
ROUTING_CLIPS = (
    (
        SyntheticClipSpec(
            nx=4, ny=5, nz=6, n_nets=4, sinks_per_net=1,
            access_points_per_pin=2,
        ),
        (0, 1, 2, 3),
    ),
    (
        SyntheticClipSpec(
            nx=5, ny=6, nz=3, n_nets=3, sinks_per_net=2,
            access_points_per_pin=2,
        ),
        (0, 1),
    ),
)


def hand_built_models() -> list[tuple[str, Model]]:
    """Models for passes neither generated corpus fires.

    ``forced-subset``: a row forcing one unit into ``{x1, x2}``, which
    sit inside the unit packing row over ``{x1, x2, x3}``, fixes
    ``x3 = 0`` -- once from a ``>=`` row and once from its negated
    ``<=`` form.  No earlier pass in the catalog can decide either.
    """
    models = []
    for sense in (">=", "<="):
        m = Model(f"forced-subset-{'ge' if sense == '>=' else 'le'}")
        x1, x2, x3 = (m.binary(f"x{i}") for i in (1, 2, 3))
        m.add(x1 + x2 >= 1 if sense == ">=" else -x1 - x2 <= -1)
        m.add(x1 + x2 + x3 <= 1)
        m.minimize(x1 + 2 * x2 - x3)
        models.append(("hand-" + m.name, m))
    return models


def golden_models():
    """Yield ``(entry_id, model, seed_fixes)`` for the MILP entries."""
    for k in range(RANDOM_ENTRIES):
        yield f"random-{k}", seeded_model(k), {}
    for k in range(SEEDED_ENTRIES):
        model = seeded_model(RANDOM_ENTRIES + k)
        binaries = [
            v.index for v in model.variables if (v.lb, v.ub) == (0.0, 1.0)
        ]
        seed = {binaries[k % len(binaries)]: 0.0} if binaries else {}
        yield f"random-seeded-{k}", model, seed
    for entry_id, model in hand_built_models():
        yield entry_id, model, {}


def golden_routing_ilps():
    """Yield ``(entry_id, ilp)`` for the routing entries."""
    router = OptRouter()
    for spec, seeds in ROUTING_CLIPS:
        for seed in seeds:
            clip = make_synthetic_clip(spec, seed=seed)
            for rules in paper_rules():
                entry_id = (
                    f"routing-{spec.nx}x{spec.ny}x{spec.nz}"
                    f"-k{spec.sinks_per_net}-s{seed}-{rules.name}"
                )
                yield entry_id, router.build(clip, rules)


def col_map_runs(col_map: dict[int, int]) -> list[list[int]]:
    """``col_map`` as ``[old_start, new_start, length]`` runs of
    consecutive pairs (lossless; routing maps are a few long runs)."""
    runs: list[list[int]] = []
    for old, new in sorted(col_map.items()):
        if runs and old == runs[-1][0] + runs[-1][2] and (
            new == runs[-1][1] + runs[-1][2]
        ):
            runs[-1][2] += 1
        else:
            runs.append([old, new, 1])
    return runs


def golden_record(pre, reduced_text: str) -> dict:
    """The pinned observables of one presolve run (JSON-ready)."""
    trace = pre.trace
    return {
        "status": None if pre.status is None else pre.status.name,
        "reason": pre.reason,
        "fixed": sorted([j, v] for j, v in trace.fixed.items()),
        "pass_counts": dict(sorted(trace.pass_counts.items())),
        "iterations": trace.iterations,
        "col_map": col_map_runs(trace.col_map),
        "n_vars_after": trace.n_vars_after,
        "n_rows_after": trace.n_rows_after,
        "n_nonzeros_after": trace.n_nonzeros_after,
        "reduced_sha256": (
            hashlib.sha256(reduced_text.encode()).hexdigest()
            if pre.status is None
            else None
        ),
    }


def catalog_pass_names() -> set[str]:
    """Every pass name the catalog and the routing presolve can note."""
    names: set[str] = set()
    for module in (csr_reductions, presolve):
        source = Path(module.__file__).read_text()
        names.update(re.findall(r'note\("([a-z-]+)"', source))
        names.update(re.findall(r'pass_counts\["([a-z-]+)"\]', source))
    return names


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def assert_models_reproduce_golden(golden, *, seeded: bool) -> None:
    """Presolve the MILP entries with (or without) a seeded fix and
    compare each run's trace and reduced model with its golden record."""
    checked = 0
    for entry_id, model, seed in golden_models():
        if bool(seed) != seeded:
            continue
        pre = presolve_csr(
            CsrModel.from_model(model),
            seed_fixes=seed,
            seed_reason=SEED_REASON,
        )
        record = golden_record(pre, pre.reduced_csr.canonical_text())
        assert record == golden[entry_id], entry_id
        checked += 1
    assert checked > 0


class TestReductionEquivalence:
    """The CSR engine reproduces the golden MILP traces exactly."""

    def test_presolve_trace_and_reduction_match(self, golden):
        assert_models_reproduce_golden(golden, seeded=False)

    def test_seed_fixes_match(self, golden):
        assert_models_reproduce_golden(golden, seeded=True)


class TestPresolveGolden:
    """The routing presolve reproduces its golden traces exactly, and
    the corpus covers every pass."""

    def test_routing_ilps_reproduce_golden_traces(self, golden):
        for entry_id, ilp in golden_routing_ilps():
            pre = presolve_routing_ilp(ilp)
            record = golden_record(pre, pre.reduced_csr.canonical_text())
            assert record == golden[entry_id], entry_id

    def test_corpus_fires_every_pass(self, golden):
        # Every fixture entry is one the golden tests regenerate.
        n_routing = sum(len(seeds) for _, seeds in ROUTING_CLIPS)
        assert len(golden) == (
            RANDOM_ENTRIES + SEEDED_ENTRIES + len(hand_built_models())
            + n_routing * len(paper_rules())
        )
        fired = set()
        for record in golden.values():
            fired.update(record["pass_counts"])
        assert catalog_pass_names() - fired == set()
        assert len(catalog_pass_names()) >= 14


def _rows(csr: CsrModel, to_parent=None) -> list[tuple]:
    """(parent columns, coefficients, sense, constant) per row with
    entries, in row order."""
    rows = []
    for r in range(csr.n_rows):
        s, e = int(csr.indptr[r]), int(csr.indptr[r + 1])
        if e > s:
            cols = csr.indices[s:e].tolist()
            rows.append(
                (
                    [to_parent[j] for j in cols] if to_parent else cols,
                    csr.data[s:e].tolist(),
                    int(csr.senses[r]),
                    float(csr.row_const[r]),
                )
            )
    return rows


class TestDecomposeInvariants:
    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_rows_and_columns(self, model):
        csr = CsrModel.from_model(model)
        parts = decompose_csr(csr)
        if csr.n_vars == 0:
            assert parts == []
            return
        # Columns: a partition, ascending within each component, and
        # components ordered by their smallest member; each keeps its
        # bounds and cost, with the objective constant left out.
        members = [list(p.var_map) for p in parts]
        assert all(m == sorted(m) for m in members)
        assert sorted(j for m in members for j in m) == list(range(csr.n_vars))
        assert [m[0] for m in members] == sorted(m[0] for m in members)
        component_of = {j: k for k, m in enumerate(members) for j in m}
        expected: list[list[tuple]] = [[] for _ in parts]
        for row in _rows(csr):
            expected[component_of[row[0][0]]].append(row)
        for k, part in enumerate(parts):
            sub = part.model
            to_parent = {local: j for j, local in part.var_map.items()}
            assert [to_parent[i] for i in range(sub.n_vars)] == members[k]
            assert sub.obj_const == 0.0
            assert sub.obj.tolist() == csr.obj[members[k]].tolist()
            assert sub.lb.tolist() == csr.lb[members[k]].tolist()
            assert sub.ub.tolist() == csr.ub[members[k]].tolist()
            # Rows: each row with entries lands, unchanged and in parent
            # order, in the component of its first column -- and every
            # column it touches lives there too (no row spans two).
            assert _rows(sub, to_parent) == expected[k]
