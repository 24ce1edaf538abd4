"""Pre-solve static analysis: ILP model linting, clip infeasibility
certification, and presolve model reduction (see
``docs/static_analysis.md``)."""

from repro.analysis.findings import (
    InfeasibilityCertificate,
    LintFinding,
    LintReport,
    Severity,
)
from repro.analysis.model_lint import lint_model, lint_routing_ilp
from repro.analysis.certify import certify_infeasible
from repro.analysis.decompose import CsrComponent, decompose_csr
from repro.analysis.presolve import (
    PresolveResult,
    PresolveTrace,
    presolve_csr,
    presolve_routing_ilp,
    solve_reduced,
)

__all__ = [
    "InfeasibilityCertificate",
    "LintFinding",
    "LintReport",
    "Severity",
    "lint_model",
    "lint_routing_ilp",
    "certify_infeasible",
    "CsrComponent",
    "decompose_csr",
    "PresolveResult",
    "PresolveTrace",
    "presolve_csr",
    "presolve_routing_ilp",
    "solve_reduced",
]
