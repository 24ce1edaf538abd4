"""Model-level restriction proofs between rule configurations.

:func:`repro.router.rules.is_restriction` answers "is ``other`` a pure
restriction of ``base``?" syntactically, from the rule parameters.
This module answers it *semantically, on the built models*: ``other``
restricts ``base`` on a clip exactly when every feasible point of
``other``'s ILP is feasible in ``base``'s.  Both models come from one
:class:`BaseFormulation` core, so only ``base``'s *delta rows*
(via-adjacency blocking, SADP indicator blocks) need proof: every row
``other`` adds outside the core only tightens it.

The prover is obligation-first: it reads ``base``'s delta section from
its CSR arrays, and when that is empty (RULE1, the baseline of every
Table-3 sweep) the proof holds without specializing ``other`` at all.
Otherwise each base delta row is discharged on the CSR arrays, columns
of both models keyed by a shared variable-*name* rank (per-rule SADP
indicators get fresh indices but deterministic names), by the
cheapest sufficient method:

1. **match** -- the row appears verbatim among ``other``'s delta rows
   (keys: sense, constant and name-ordered terms rounded to 9
   digits), or it is vacuous (holds for every x >= 0);
2. **dominated** -- an ``other`` delta row of the same sense
   pointwise-dominates it over the nonnegative orthant (all model
   variables have lb >= 0);
3. **lp** -- an LP certificate over ``other``'s sparse constraint
   matrix: optimizing the row's left-hand side over ``other``'s LP
   relaxation cannot violate the row.  Sound for the integer hull
   (integer points are LP-feasible); incomplete, so a failed LP never
   *disproves* restriction -- the proof just doesn't hold and callers
   must fall back to a cold solve.

The resulting :class:`RestrictionProof` is what the incremental sweep
(:mod:`repro.eval.flow`) consumes to certify warm-start edges, cross-
checked against the syntactic predicate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.analysis.semantics.report import SCHEMA_VERSION
from repro.clips.clip import Clip
from repro.ilp.csr import _CODE_TO_SENSE, SENSE_EQ, SENSE_GE, SENSE_LE, CsrModel
from repro.ilp.model import LinExpr
from repro.router.formulation import BaseFormulation, formulation_cache
from repro.router.rules import RuleConfig, is_restriction

_TOL = 1e-9
#: LP objective signs per row sense: maximize the LHS against "<=",
#: minimize it against ">=", both for "==".
_LP_SIGNS = {SENSE_LE: (-1.0,), SENSE_GE: (1.0,), SENSE_EQ: (1.0, -1.0)}


@dataclass(frozen=True)
class RestrictionProof:
    """Certificate that ``other`` restricts ``base`` on one clip.

    ``holds`` is True only when *every* base delta row was discharged;
    ``methods`` lists the distinct methods used.  ``predicate`` records
    the syntactic :func:`is_restriction` verdict for cross-checking --
    the prover must confirm every pair the predicate accepts (the
    predicate is the conservative one), and may additionally prove
    pairs the predicate rejects (e.g. rule deltas that fall outside
    the clip's grid).
    """

    clip_name: str
    base_rule: str
    other_rule: str
    holds: bool
    n_rows: int = 0
    n_matched: int = 0
    n_dominated: int = 0
    n_lp: int = 0
    failures: tuple[str, ...] = ()
    predicate: bool = False

    @property
    def methods(self) -> tuple[str, ...]:
        counts = (self.n_matched, self.n_dominated, self.n_lp)
        return tuple(m for m, n in zip(("match", "dominated", "lp"), counts) if n)

    @property
    def agrees_with_predicate(self) -> bool:
        """False only in the buggy direction: the syntactic predicate
        accepted a pair the model-level prover could not certify."""
        return self.holds or not self.predicate

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "restriction_proof",
            "clip": self.clip_name,
            "base": self.base_rule,
            "other": self.other_rule,
            "holds": self.holds,
            "predicate": self.predicate,
            "n_rows": self.n_rows,
            "methods": {
                "match": self.n_matched,
                "dominated": self.n_dominated,
                "lp": self.n_lp,
            },
            "failures": list(self.failures),
        }


def _round9(values: np.ndarray) -> np.ndarray:
    """Python's correctly rounded ``round(v, 9)`` per element (unlike
    ``np.round``), with ``-0.0`` folded into ``0.0`` so keys that
    compare equal as floats also compare equal as bytes."""
    uniq, inverse = np.unique(values, return_inverse=True)
    rounded = np.array([round(v, 9) for v in uniq.tolist()], dtype=np.float64)
    return rounded[inverse.reshape(-1)] + 0.0


class _Section:
    """Rows ``first:`` of a model; ``cols`` relabels its columns by
    name rank, ``indices`` keeps the model's own."""

    def __init__(self, model: CsrModel, first: int, rank: np.ndarray):
        lo = model.indptr[first]
        self.indptr = model.indptr[first:] - lo
        self.indices = model.indices[lo:]
        self.cols = rank[self.indices]
        self.data = model.data[lo:]
        self.senses = model.senses[first:]
        self.const = model.row_const[first:]
        self.rows = np.repeat(np.arange(len(self.senses)), np.diff(self.indptr))

    def keys(self) -> list[tuple]:
        """Canonical row keys: (sense, const, ranks, coefs)."""
        order = np.lexsort((self.cols, self.rows))
        cols = self.cols[order].astype(np.int64).tobytes()
        coefs = _round9(self.data[order]).tobytes()
        ptr = (8 * self.indptr).tolist()
        consts = _round9(self.const).tolist()
        return [
            (sense, consts[r], cols[ptr[r]:ptr[r + 1]], coefs[ptr[r]:ptr[r + 1]])
            for r, sense in enumerate(self.senses.tolist())
        ]

    def vacuous(self) -> np.ndarray:
        """Rows satisfied by every x >= 0, regardless of the model."""
        hi = np.full(len(self.senses), -np.inf)
        lo = np.full(len(self.senses), np.inf)
        np.maximum.at(hi, self.rows, self.data)
        np.minimum.at(lo, self.rows, self.data)
        le = (self.senses == SENSE_LE) & (self.const <= _TOL) & (hi <= _TOL)
        ge = (self.senses == SENSE_GE) & (self.const >= -_TOL) & (lo >= -_TOL)
        return le | ge


class _Candidates:
    """One sense's delta rows of ``other``, by column, with ``>=`` rows
    negated into ``<=`` form (exact in floating point)."""

    def __init__(self, section: _Section, sense: int, n_cols: int):
        self.sign = 1.0 if sense == SENSE_LE else -1.0
        rows = np.flatnonzero(section.senses == sense)
        by_col = sparse.csr_matrix(
            (self.sign * section.data, section.cols, section.indptr),
            shape=(len(section.senses), n_cols),
        )[rows].tocsc()
        self.indptr, self.rows, self.vals = by_col.indptr, by_col.indices, by_col.data
        self.const = self.sign * section.const[rows]
        # Entries no zero base coefficient can dominate, per row.
        self.n_below = np.bincount(self.rows[self.vals < -_TOL], minlength=len(rows))

    def dominate(self, cols: np.ndarray, coefs: np.ndarray, const: float) -> bool:
        """Candidate k dominates the row over x >= 0 when kb <= ko + tol
        and cb <= co + tol on every column of either row."""
        sub = np.zeros((len(self.const), len(cols)))
        for j, col in enumerate(cols.tolist()):
            span = slice(self.indptr[col], self.indptr[col + 1])
            sub[self.rows[span], j] = self.vals[span]
        ok = self.sign * const <= self.const + _TOL
        ok &= np.all(self.sign * coefs <= sub + _TOL, axis=1)
        ok &= self.n_below == np.count_nonzero(sub < -_TOL, axis=1)
        return bool(ok.any())


def _lp_arrays(model: CsrModel) -> dict[str, Any]:
    """``linprog`` inputs for a model's LP relaxation, sparse."""
    matrix = sparse.csr_matrix(
        (model.data, model.indices, model.indptr),
        shape=(model.n_rows, model.n_vars),
    )
    rhs = -model.row_const
    ineq = model.senses != SENSE_EQ
    sign = np.where(model.senses[ineq] == SENSE_GE, -1.0, 1.0)
    return {
        "A_ub": sparse.diags(sign) @ matrix[ineq] if ineq.any() else None,
        "b_ub": sign * rhs[ineq] if ineq.any() else None,
        "A_eq": matrix[~ineq] if not ineq.all() else None,
        "b_eq": rhs[~ineq] if not ineq.all() else None,
        "bounds": np.column_stack((model.lb, model.ub)),
    }


class Discharge(NamedTuple):
    """Per-method tally of one restriction obligation."""

    n_rows: int = 0
    n_matched: int = 0
    n_dominated: int = 0
    n_lp: int = 0
    failures: tuple[str, ...] = ()


def discharge_rows(
    base: CsrModel, other: CsrModel, n_core: int, *, max_failures: int = 5
) -> Discharge:
    """Discharge ``base``'s rows ``n_core:`` against ``other``.

    Both models must share their first ``n_core`` rows (the core).
    Each row is tried by match, dominated, then lp; after
    ``max_failures`` undischarged rows the next one appends ``"..."``
    and the tally stops there.
    """
    n_rows = base.n_rows - n_core
    names, rank = np.unique(
        np.array(base.var_names + other.var_names), return_inverse=True
    )
    rank = rank.reshape(-1)
    mine = _Section(base, n_core, rank[: base.n_vars])
    theirs = _Section(other, n_core, rank[base.n_vars:])
    column_of = np.full(len(names), -1, dtype=np.int64)
    column_of[rank[base.n_vars:]] = np.arange(other.n_vars)

    other_keys = set(theirs.keys())
    matched = mine.vacuous() | np.fromiter(
        (key in other_keys for key in mine.keys()), dtype=bool, count=n_rows
    )

    lp: dict[str, Any] = {}

    def implied(cols: np.ndarray, coefs: np.ndarray, sense: int,
                const: float) -> bool:
        # A column absent from ``other`` is free there: no certificate.
        mapped = column_of[cols]
        if np.any(mapped < 0):
            return False
        objective = np.zeros(other.n_vars)
        objective[mapped] = coefs
        if not lp:
            lp.update(_lp_arrays(other))
        for sign in _LP_SIGNS[sense]:
            result = linprog(sign * objective, method="highs", **lp)
            if result.status == 2:
                return True  # LP-infeasible model: implication is vacuous
            if not result.success:
                return False
            extreme = sign * result.fun + const
            if extreme > _TOL if sign < 0 else extreme < -_TOL:
                return False
        return True

    unmatched = np.flatnonzero(~matched).tolist()
    candidates = (
        {s: _Candidates(theirs, s, len(names)) for s in (SENSE_LE, SENSE_GE)}
        if unmatched else {}
    )
    n_dominated = n_lp = 0
    stop = n_rows
    failures: list[str] = []
    for r in unmatched:
        span = slice(int(mine.indptr[r]), int(mine.indptr[r + 1]))
        cols, coefs = mine.cols[span], mine.data[span]
        sense, const = int(mine.senses[r]), float(mine.const[r])
        if sense in candidates and candidates[sense].dominate(cols, coefs, const):
            n_dominated += 1
        elif implied(cols, coefs, sense, const):
            n_lp += 1
        elif len(failures) < max_failures:
            terms = dict(zip(mine.indices[span].tolist(), coefs.tolist()))
            failures.append(
                f"delta row {n_core + r} not implied: "
                f"{LinExpr(terms, const)!r} {_CODE_TO_SENSE[sense]} 0"
            )
        else:
            failures.append("...")
            stop = r
            break
    return Discharge(
        n_rows=n_rows,
        n_matched=int(np.count_nonzero(matched[:stop])),
        n_dominated=n_dominated,
        n_lp=n_lp,
        failures=tuple(failures),
    )


def prove_restriction(
    clip: Clip,
    base: RuleConfig,
    other: RuleConfig,
    *,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
    max_failures: int = 5,
    formulation: BaseFormulation | None = None,
) -> RestrictionProof:
    """Prove that ``other``'s feasible routings are feasible in ``base``.

    Both models are specialized from one shared core, so the proof
    obligation reduces to ``base``'s delta rows; ``other`` is
    specialized only when there is at least one.  The returned proof
    ``holds`` only when every row was discharged.
    """
    labels: dict[str, Any] = dict(
        clip_name=clip.name,
        base_rule=base.name,
        other_rule=other.name,
        predicate=is_restriction(base, other),
    )
    if base.allow_via_shapes != other.allow_via_shapes:
        return RestrictionProof(
            holds=False,
            failures=("different routing graphs: allow_via_shapes differs",),
            **labels,
        )
    if formulation is None:
        # Shared with the solve path: certifying a restriction and then
        # routing the same clip builds the base formulation once.
        formulation = formulation_cache().base_for(
            clip,
            allow_via_shapes=base.allow_via_shapes,
            wire_cost=wire_cost,
            via_cost=via_cost,
        )
    n_core = formulation.core.n_rows
    base_csr = formulation.specialize(base).csr
    if base_csr.n_rows == n_core:
        return RestrictionProof(holds=True, **labels)
    tally = discharge_rows(
        base_csr,
        formulation.specialize(other).csr,
        n_core,
        max_failures=max_failures,
    )
    return RestrictionProof(holds=not tally.failures, **tally._asdict(), **labels)


@dataclass
class RestrictionProver:
    """Memoizing facade used by the incremental sweep.

    Proofs are cached per (clip identity, base, other); the prover
    keeps strong references to proved clips, so identity keys cannot
    be reused while cached (mirrors
    :class:`repro.router.formulation.FormulationCache`).
    """

    wire_cost: float = 1.0
    via_cost: float = 4.0
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _proofs: dict[tuple, RestrictionProof] = field(default_factory=dict)
    _clips: dict[int, Clip] = field(default_factory=dict)

    def prove(
        self, clip: Clip, base: RuleConfig, other: RuleConfig
    ) -> RestrictionProof:
        key = (id(clip), base, other)
        with self._lock:
            cached = self._proofs.get(key)
            if cached is not None:
                return cached
        # The base formulation comes from the process-wide cache the
        # solve path shares.
        proof = prove_restriction(
            clip, base, other, wire_cost=self.wire_cost, via_cost=self.via_cost
        )
        with self._lock:
            self._clips[id(clip)] = clip
            self._proofs[key] = proof
        return proof

    def clear(self) -> None:
        with self._lock:
            self._proofs.clear()
            self._clips.clear()
