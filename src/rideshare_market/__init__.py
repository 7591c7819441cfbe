"""Exact assignment-market toolkit for shared mobility.

Travelers with origin-destination demands are matched to capacitated
vehicles running fixed routes.  The package computes welfare-optimal
assignments exactly (rational arithmetic throughout), constructs and
verifies traveler-vehicle profit allocations, and synthesizes stable
payment schedules as shortest paths over difference constraints.  Each
optimum carries a dual certificate read off the matching's shortest-path
potentials; each impossible schedule carries Farkas multipliers read off
a negative cycle, checked exactly over the sparse stability rows.  The
exact simplex in :mod:`rideshare_market.lp` and the brute force in
:mod:`rideshare_market.oracles` serve as test oracles; no production path
imports the simplex.
"""

from rideshare_market.errors import (
    CertificateError,
    IncompatiblePairError,
    OracleScaleError,
    StabilityPreconditionError,
    ValidationError,
)
from rideshare_market.network import Edge, Network, ODPair, Route, covers, route_vertex_sequence
from rideshare_market.market import (
    Assignment,
    CompatibilityMatrix,
    MarketInstance,
    Traveler,
    UNASSIGNED,
    Vehicle,
    cost_recovery_gap,
    cost_share,
    surplus,
    surplus_matrix,
    utility,
    valuation,
    welfare_paper,
    welfare_surplus,
)
from rideshare_market.allocation import (
    CheckReport,
    PaymentSchedule,
    ProfitAllocation,
    SynthesisResult,
    Violation,
    blend_allocations,
    check_feasibility,
    check_stability,
    compute_profits,
    synthesize_stable_payments,
)
from rideshare_market.solver import SolveResult, solve_optimal_assignment
from rideshare_market.oracles import (
    assignment_lp_relaxation,
    enumerate_assignments,
    oracle_optimum,
)

#: re-exported from :mod:`rideshare_market.lp`, which is imported on first use
_LP_NAMES = ("Infeasible", "LPProblem", "Optimal", "Unbounded", "lp_solve")


def __getattr__(name):
    if name in _LP_NAMES:
        from rideshare_market import lp

        return getattr(lp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Assignment",
    "CertificateError",
    "CheckReport",
    "CompatibilityMatrix",
    "Edge",
    "IncompatiblePairError",
    "Infeasible",
    "LPProblem",
    "MarketInstance",
    "Network",
    "ODPair",
    "Optimal",
    "OracleScaleError",
    "PaymentSchedule",
    "ProfitAllocation",
    "Route",
    "SolveResult",
    "StabilityPreconditionError",
    "SynthesisResult",
    "Traveler",
    "UNASSIGNED",
    "Unbounded",
    "ValidationError",
    "Vehicle",
    "Violation",
    "assignment_lp_relaxation",
    "blend_allocations",
    "check_feasibility",
    "check_stability",
    "compute_profits",
    "cost_recovery_gap",
    "cost_share",
    "covers",
    "enumerate_assignments",
    "lp_solve",
    "oracle_optimum",
    "route_vertex_sequence",
    "solve_optimal_assignment",
    "surplus",
    "surplus_matrix",
    "synthesize_stable_payments",
    "utility",
    "valuation",
    "welfare_paper",
    "welfare_surplus",
]
