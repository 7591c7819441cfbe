"""Exact assignment-market toolkit for shared mobility.

Travelers with origin-destination demands are matched to capacitated
vehicles running fixed routes.  The package computes welfare-optimal
assignments exactly (rational arithmetic throughout), constructs and verifies
traveler-vehicle profit allocations, and synthesizes stable payment schedules
as shortest paths over difference constraints.  The checkers, the matching, its
dual certificate, the synthesis and the scalar formulas all read one integer
pair table over a common denominator, :class:`CompatibilityMatrix`: its
``pairs`` and the ``int`` columns ``value``, ``share`` and ``surplus``
aligned with them, read by position, and payments in its scale, the
``int``s of a :class:`PaymentSchedule` in table order.  Money text is read
as integer ratios, and ``Fraction``s are made only for a vehicle's cost, an
explicit share and results: the formulas' answers, objectives, dual
certificates, violations, output and a schedule's ``entries``, when read;
the table's own ``entries`` view is built only for a caller that reads it.
Each optimum carries a dual certificate of seat prices from one
Dijkstra run over its vehicles, keyed by the matching's final potentials;
each impossible schedule carries
a proof read off a negative cycle over the payments and seat prices, ``int``
multipliers 1 and -1 checked exactly over its sparse rows, whose right-hand
sides stay ``int``s over the table's ``den`` in :class:`SynthesisResult`.  The
exact simplex in :mod:`rideshare_market.lp` and the brute force in
:mod:`rideshare_market.oracles` serve as test oracles; no production path
imports the simplex, and its names are imported from
:mod:`rideshare_market.lp` itself.
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

__all__ = [
    "Assignment",
    "CertificateError",
    "CheckReport",
    "CompatibilityMatrix",
    "Edge",
    "IncompatiblePairError",
    "MarketInstance",
    "Network",
    "ODPair",
    "OracleScaleError",
    "PaymentSchedule",
    "ProfitAllocation",
    "Route",
    "SolveResult",
    "StabilityPreconditionError",
    "SynthesisResult",
    "Traveler",
    "UNASSIGNED",
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
