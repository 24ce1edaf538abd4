"""Restriction-prover tests (``repro.analysis.semantics.restriction``).

The model-level prover must agree with -- or strictly strengthen --
the syntactic ``is_restriction`` predicate on arbitrary rule configs
(hypothesis metamorphic suite), reproduce the recorded verdicts on
every ordered Table-3 pair, discharge rows by each method on small
hand-built models, and stay off the object model in a default sweep;
prover-certified warm starts must leave sweep results identical to a
cold run.
"""

import dataclasses
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.semantics.restriction as restriction
import repro.eval.flow as flow
from repro.analysis.semantics import RestrictionProver, micro_corpus
from repro.analysis.semantics.restriction import discharge_rows
from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import EvalConfig, evaluate_clips, paper_rules
from repro.ilp.csr import CooBuilder, CsrModel
from repro.ilp.model import LinExpr
from repro.router.formulation import BaseFormulation
from repro.router.rules import (
    RuleConfig,
    SadpParams,
    ViaRestriction,
    is_restriction,
)


def _micro_clip(name: str):
    for micro in micro_corpus():
        if micro.clip.name == name:
            return micro.clip
    raise KeyError(name)


#: Shared across tests/examples so BaseFormulation builds are cached.
_PROVER = RestrictionProver()
_CLIP = _micro_clip("mc-via")

_OFFSET = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(
    lambda o: o != (0, 0)
)
_OFFSETS = st.frozensets(_OFFSET, max_size=4).map(lambda s: tuple(sorted(s)))

_RULES = st.builds(
    RuleConfig,
    name=st.just("RND"),
    via_restriction=st.sampled_from(sorted(ViaRestriction, key=lambda v: v.value)),
    sadp_min_metal=st.sampled_from([None, 2, 3]),
    allow_via_shapes=st.booleans(),
    sadp=st.builds(
        SadpParams, opposite_offsets=_OFFSETS, same_offsets=_OFFSETS
    ),
)


class TestMetamorphic:
    """Random rule pairs: the prover never contradicts the predicate."""

    @settings(max_examples=30, deadline=None)
    @given(base=_RULES, other=_RULES)
    def test_prover_agrees_with_or_strengthens_predicate(self, base, other):
        proof = _PROVER.prove(_CLIP, base, other)
        assert proof.predicate == is_restriction(base, other)
        # The buggy direction is impossible: whenever the syntactic
        # predicate claims a restriction, the model-level proof must
        # close.  (holds=True with predicate=False is fine -- the
        # prover sees domination the syntax cannot.)
        assert proof.agrees_with_predicate
        if proof.predicate:
            assert proof.holds

    @settings(max_examples=15, deadline=None)
    @given(rule=_RULES)
    def test_reflexive(self, rule):
        proof = _PROVER.prove(_CLIP, rule, rule)
        assert proof.holds
        assert proof.n_matched == proof.n_rows


class TestTable3:
    """All ordered Table-3 pairs on a via-bearing micro-clip."""

    def test_predicate_prover_agreement_on_all_pairs(self):
        rules = paper_rules()
        strengthened = 0
        for base in rules:
            for other in rules:
                if base.name == other.name:
                    continue
                proof = _PROVER.prove(_CLIP, base, other)
                assert proof.predicate == is_restriction(base, other)
                assert proof.agrees_with_predicate, (
                    f"{base.name} -> {other.name}: predicate says "
                    f"restriction but prover failed on {proof.failures}"
                )
                if proof.holds and not proof.predicate:
                    strengthened += 1
        # The prover is strictly stronger than the syntax on Table 3.
        assert strengthened > 0

    def test_rule1_base_is_vacuous(self):
        rules = {r.name: r for r in paper_rules()}
        proof = _PROVER.prove(_CLIP, rules["RULE1"], rules["RULE7"])
        assert proof.holds
        assert proof.n_rows == 0  # RULE1 adds no delta rows

    def test_via_shape_mismatch_fails_closed(self):
        rule1 = paper_rules()[0]
        shaped = dataclasses.replace(rule1, allow_via_shapes=True)
        proof = _PROVER.prove(_CLIP, rule1, shaped)
        assert not proof.holds
        assert not proof.predicate
        assert proof.agrees_with_predicate


class TestCertifiedWarmSweep:
    """Warm-start sweep under proofs == cold sweep, edge for edge."""

    def test_warm_equals_cold_and_every_edge_is_certified(self):
        spec = SyntheticClipSpec(
            nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
            access_points_per_pin=2,
        )
        clips = [make_synthetic_clip(spec, seed=s) for s in range(2)]
        rules = paper_rules()[:4]
        warm = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=30.0, audit=False),
        )
        cold = evaluate_clips(
            clips, rules,
            EvalConfig(
                time_limit_per_clip=30.0, audit=False, incremental=False
            ),
        )
        # No predicate-vs-prover disagreement in the buggy direction.
        assert warm.restriction_disagreements == []
        certified_edges = 0
        for rule in warm.rule_names:
            warm_outcomes = warm.outcomes[rule]
            cold_outcomes = cold.outcomes[rule]
            assert [
                (o.status, o.cost) for o in warm_outcomes
            ] == [(o.status, o.cost) for o in cold_outcomes]
            for outcome in warm_outcomes:
                # Every consumed warm edge carries a restriction proof.
                if outcome.warm_used:
                    assert outcome.restriction_certified
            certified_edges += warm.restriction_certified_count(rule)
        assert certified_edges > 0


class TestGoldenVerdicts:
    """Recorded ``to_dict()`` of every ordered Table-3 pair on ``_CLIP``
    (fixtures/restriction_table3_mc_via.json, recorded with the
    object-model prover this one replaced)."""

    def test_every_pair_matches_the_recording(self):
        fixture = Path(__file__).parent / "fixtures" / "restriction_table3_mc_via.json"
        golden = json.loads(fixture.read_text())
        rules = paper_rules()
        pairs = [(b, o) for b in rules for o in rules if b.name != o.name]
        assert len(golden) == len(pairs) == 110
        for (base, other), expected in zip(pairs, golden):
            got = _PROVER.prove(_CLIP, base, other).to_dict()
            assert got == expected, (base.name, other.name)


def _core(n_vars: int = 3) -> CsrModel:
    """A core of ``n_vars`` binaries x0.. and one shared row."""
    coo = CooBuilder()
    xs = [coo.binary(f"x{i}") for i in range(n_vars)]
    coo.le(LinExpr({x.index: 1.0 for x in xs}), float(n_vars))
    return coo.freeze("core")


def _delta(core: CsrModel, p_names=(), rows=()) -> CsrModel:
    """``core`` plus fresh binaries ``p_names`` (indexed in the order
    given) and delta ``rows``: (terms by name, sense, rhs)."""
    coo = CooBuilder(base=core)
    index = dict(core.name_to_index)
    for name in p_names:
        index[name] = coo.binary(name).index
    for terms, sense, rhs in rows:
        expr = LinExpr({index[name]: coef for name, coef in terms.items()})
        getattr(coo, sense)(expr, rhs)
    return coo.freeze("delta")


class TestDischargeMethods:
    """Each discharge method on small hand-built models."""

    def test_match_by_name_across_differently_indexed_columns(self):
        core = _core()
        row = ({"pa": 1.0, "pb": 1.0, "x0": 1.0}, "le", 1.0)
        base = _delta(core, ["pa", "pb"], [row])
        other = _delta(core, ["pz", "pb", "pa"], [row])
        assert base.name_to_index["pa"] != other.name_to_index["pa"]
        tally = discharge_rows(base, other, core.n_rows)
        assert tally == (1, 1, 0, 0, ())

    def test_vacuous_rows_need_no_partner(self):
        core = _core()
        base = _delta(core, rows=[
            ({"x0": -1.0, "x1": -1.0}, "le", 0.0),  # -x0 - x1 <= 0
            ({"x2": 1.0}, "ge", -2.0),  # x2 >= -2
        ])
        tally = discharge_rows(base, _delta(core), core.n_rows)
        assert tally == (2, 2, 0, 0, ())

    def test_dominated_le_row(self):
        core = _core()
        base = _delta(core, rows=[({"x0": 1.0, "x1": 1.0}, "le", 1.0)])
        other = _delta(core, rows=[
            ({"x0": 1.0, "x1": 1.0, "x2": 1.0}, "le", 1.0),
        ])
        tally = discharge_rows(base, other, core.n_rows)
        assert tally == (1, 0, 1, 0, ())

    def test_dominated_ge_row(self):
        core = _core()
        base = _delta(core, rows=[({"x0": 1.0, "x1": 1.0}, "ge", 1.0)])
        other = _delta(core, rows=[({"x0": 1.0}, "ge", 1.0)])
        tally = discharge_rows(base, other, core.n_rows)
        assert tally == (1, 0, 1, 0, ())

    def test_near_misses_do_not_dominate(self):
        core = _core()
        # A row of the other sense never dominates.
        base = _delta(core, ["pq"], [({"x0": 1.0, "pq": 1.0}, "ge", 1.0)])
        other = _delta(core, rows=[({"x0": 1.0}, "le", 1.0)])
        tally = discharge_rows(base, other, core.n_rows)
        assert (tally.n_dominated, len(tally.failures)) == (0, 1)
        # Nor does one with a negative term outside the base row, or a
        # looser right-hand side.
        base = _delta(core, rows=[({"x0": 1.0, "x1": 1.0}, "le", 1.0)])
        for loose in (
            ({"x0": 1.0, "x1": 1.0, "x2": -1.0}, "le", 1.0),
            ({"x0": 1.0, "x1": 1.0}, "le", 2.0),
        ):
            tally = discharge_rows(base, _delta(core, rows=[loose]), core.n_rows)
            assert (tally.n_dominated, len(tally.failures)) == (0, 1)

    def test_lp_implied_row(self):
        # x0 <= 0 and x1 <= 1 (binary) imply x0 + x1 <= 1; no single
        # row of other dominates it.
        core = _core()
        base = _delta(core, rows=[({"x0": 1.0, "x1": 1.0}, "le", 1.0)])
        other = _delta(core, rows=[({"x0": 1.0}, "le", 0.0)])
        tally = discharge_rows(base, other, core.n_rows)
        assert tally == (1, 0, 0, 1, ())

    def test_lp_infeasible_other_implies_vacuously(self):
        core = _core()
        base = _delta(core, rows=[({"x0": 1.0, "x1": 1.0, "x2": 1.0}, "le", 0.0)])
        other = _delta(core, rows=[
            ({"x0": 1.0}, "ge", 1.0),
            ({"x0": 1.0}, "le", 0.0),
        ])
        tally = discharge_rows(base, other, core.n_rows)
        assert tally == (1, 0, 0, 1, ())

    def test_base_column_absent_from_other_fails(self):
        core = _core()
        base = _delta(core, ["pq"], [({"pq": 1.0}, "le", 0.0)])
        tally = discharge_rows(base, _delta(core, ["pr"]), core.n_rows)
        assert tally == (
            1, 0, 0, 0,
            ("delta row 1 not implied: LinExpr(1*v3 + 0) <= 0",),
        )

    def test_max_failures_cutoff(self):
        core = _core()
        matched = ({"x0": 1.0, "x1": 1.0}, "le", 1.0)
        rows = [
            ({"p0": 1.0}, "le", 0.0),
            matched,
            ({"p1": 1.0}, "le", 0.0),
            ({"p2": 1.0}, "le", 0.0),  # the cutoff: "..." and stop
            matched,  # after the cutoff: not counted
        ]
        base = _delta(core, ["p0", "p1", "p2"], rows)
        other = _delta(core, rows=[matched])
        tally = discharge_rows(base, other, core.n_rows, max_failures=2)
        assert tally.n_rows == 5
        assert tally.n_matched == 1
        assert tally.failures == (
            "delta row 1 not implied: LinExpr(1*v3 + 0) <= 0",
            "delta row 3 not implied: LinExpr(1*v4 + 0) <= 0",
            "...",
        )


class TestHotPathGuard:
    """A default incremental sweep stays on the CSR arrays: no object
    model, and RULE1-based proofs never specialize the follower."""

    def test_default_sweep_is_obligation_first(self, monkeypatch):
        spec = SyntheticClipSpec(
            nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
            access_points_per_pin=2,
        )
        clips = [make_synthetic_clip(spec, seed=s) for s in range(2)]
        rules = paper_rules()
        to_model_calls = []
        specialized = []
        proving: list[str] = []
        warmed: dict[bool, list] = {True: [], False: []}

        real_to_model = CsrModel.to_model
        real_specialize = BaseFormulation.specialize
        real_prove = restriction.prove_restriction
        real_warm = flow._warm_from_result

        def to_model(self):
            to_model_calls.append(self.name)
            return real_to_model(self)

        def specialize(self, rules):
            specialized.append((tuple(proving), rules.name))
            return real_specialize(self, rules)

        def prove(clip, base, other, **kwargs):
            proving.append(base.name)
            try:
                return real_prove(clip, base, other, **kwargs)
            finally:
                proving.pop()

        def run(prove_restrictions):
            def warm(job, *args, **kwargs):
                out = real_warm(job, *args, **kwargs)
                if out is not job:
                    warmed[prove_restrictions].append(
                        (job.clip.name, job.rules.name)
                    )
                return out

            monkeypatch.setattr(flow, "_warm_from_result", warm)
            return evaluate_clips(
                clips, rules, EvalConfig(prove_restrictions=prove_restrictions)
            )

        monkeypatch.setattr(CsrModel, "to_model", to_model)
        monkeypatch.setattr(BaseFormulation, "specialize", specialize)
        monkeypatch.setattr(restriction, "prove_restriction", prove)
        proved = run(True)

        assert to_model_calls == []
        in_proofs = [name for stack, name in specialized if stack]
        assert in_proofs  # the prover did run
        assert set(in_proofs) == {"RULE1"}  # never the follower

        # Cross-check: the prover certifies exactly the warm edges the
        # syntactic predicate alone would take.
        unproved = run(False)
        assert proved.restriction_disagreements == []
        assert unproved.restriction_disagreements == []
        assert sorted(warmed[True]) == sorted(warmed[False])
        for rule in proved.rule_names:
            assert proved.restriction_certified_count(rule) == sum(
                1 for _, name in warmed[False] if name == rule
            )
        assert sum(
            proved.restriction_certified_count(r) for r in proved.rule_names
        ) == len(warmed[True]) > 0
