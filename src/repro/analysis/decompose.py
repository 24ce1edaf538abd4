"""Connected-component decomposition of a MILP.

Two variables are connected when they share a constraint row; the
components of that graph are independent subproblems whose objectives
add.  On reduced routing models this splits nets confined to disjoint
regions of the clip graph into separate ILPs that solve much faster
than their union.

Variables that appear in no row form no component here -- the
presolve ``unconstrained-column`` pass fixes those analytically, and
the backends' trivial-model fast path covers any that remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.ilp.csr import CsrModel


@dataclass(frozen=True)
class CsrComponent:
    """One independent subproblem of a decomposed model.

    ``var_map`` maps the parent model's variable index to this
    component's variable index, so sub-solutions can be scattered back
    into the parent's variable space.
    """

    model: CsrModel
    var_map: dict[int, int]


def decompose_csr(csr: CsrModel) -> list[CsrComponent]:
    """Split ``csr`` into independent components.

    Variable connectivity is the bipartite (row, var) incidence graph's
    component structure (``scipy.sparse.csgraph``); a row belongs to the
    component of its first stored entry and keeps its parent row order.
    Components come back ordered by their smallest parent variable
    index (deterministic).  A model with a single component comes back
    as one rebuilt component, so callers treat the single- and
    multi-component cases uniformly.  The parent objective constant is
    NOT distributed -- each component model carries a zero objective
    constant and the caller re-adds ``csr.obj_const`` exactly once when
    merging.
    """
    n = csr.n_vars
    if n == 0:
        return []
    m = csr.n_rows
    entry_counts = np.diff(csr.indptr)
    nnz = len(csr.indices)
    constrained = np.zeros(n, dtype=bool)
    if nnz:
        constrained[csr.indices] = True
        graph = coo_matrix(
            (
                np.ones(nnz, dtype=np.int8),
                (n + np.repeat(np.arange(m, dtype=np.int64), entry_counts),
                 csr.indices),
            ),
            shape=(n + m, n + m),
        )
        labels = connected_components(graph, directed=False)[1][:n]
    else:
        labels = np.arange(n, dtype=np.int64)

    groups: dict[int, list[int]] = {}
    for j in np.flatnonzero(constrained).tolist():
        groups.setdefault(int(labels[j]), []).append(j)
    # Ascending member lists, components ordered by smallest member.
    ordered = sorted(groups.values(), key=lambda members: members[0])
    loose = np.flatnonzero(~constrained).tolist()
    # Unconstrained columns join the first component (they are
    # analytically separable anyway, and presolve normally fixed them).
    if not ordered:
        ordered = [[]]  # single pseudo-component for the loose columns
    if loose:
        ordered[0] = sorted(ordered[0] + loose)

    has_entries = entry_counts > 0
    first_vars = np.full(m, -1, dtype=np.int64)
    first_vars[has_entries] = csr.indices[csr.indptr[:-1][has_entries]]
    local = np.full(n, -1, dtype=np.int64)
    row_names = csr.row_names if len(csr.row_names) == m else None

    components: list[CsrComponent] = []
    for k, members in enumerate(ordered):
        member_array = np.asarray(members, dtype=np.int64)
        local[member_array] = np.arange(len(members), dtype=np.int64)
        in_component = np.zeros(n, dtype=bool)
        in_component[member_array] = True
        row_mask = np.zeros(m, dtype=bool)
        row_mask[has_entries] = in_component[first_vars[has_entries]]
        keep = np.repeat(row_mask, entry_counts)
        counts = entry_counts[row_mask]
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        sub = CsrModel(
            name=f"{csr.name}__c{k}",
            var_names=[csr.var_names[j] for j in members],
            lb=csr.lb[member_array].copy(),
            ub=csr.ub[member_array].copy(),
            integer=csr.integer[member_array].copy(),
            obj=csr.obj[member_array].copy(),
            obj_const=0.0,
            indptr=indptr,
            indices=local[csr.indices[keep]],
            data=csr.data[keep].copy(),
            senses=csr.senses[row_mask].copy(),
            row_const=csr.row_const[row_mask].copy(),
            row_names=(
                [row_names[r] for r in np.flatnonzero(row_mask).tolist()]
                if row_names is not None
                else []
            ),
        )
        components.append(
            CsrComponent(
                model=sub,
                var_map={int(j): i for i, j in enumerate(members)},
            )
        )
    return components
