"""Mutation score: how many deliberately broken copies of the package the
tests catch.

Run from anywhere, with the standard library and pytest only::

    python3 bench/mutants.py

Each entry of ``MUTANTS`` is one source patch: a file under
``src/rideshare_market``, an ``old`` text that occurs there exactly once,
the ``new`` text that replaces it, why the change is wrong, and the test
node ids, under ``tests/``, that should catch it.  Each mutant is applied
to a fresh temporary copy of ``src/``, never to the working tree; a child
process first confirms that the package it imports is the copy's, then
pytest runs the named tests with ``PYTHONPATH`` set to the copy, under a
timeout of ``TIMEOUT_S`` seconds.  A mutant is killed when pytest fails or
times out.  Every named test first runs once on an unpatched copy, and
must pass there.  A mutant marked ``equivalent`` computes what the package
computes, by the reason given; it is run and reported, and its survival
is expected.

The script prints one line per mutant, then ``killed/total`` and the wall
time, and exits 1 when a mutant that is not marked equivalent survives.
The list only grows: a mutant is never dropped to raise the score.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "rideshare_market"
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    #: a module of the package, relative to ``src/rideshare_market``
    file: str
    old: str
    new: str
    why: str
    #: pytest node ids, relative to the repository root
    tests: tuple
    #: why the mutant computes what the package computes, or ``None``
    equivalent: str | None = None


MUTANTS = (
    # -- the reference checks, as the paper states them
    Mutant(
        "eq8_share_once",
        "allocation.py",
        "Fraction(value - 2 * share, den) - rho",
        "Fraction(value - share, den) - rho",
        "the literal identity subtracts the cost share from the payment and again on its own",
        ("tests/test_allocation.py::test_eq8_status_holds_exactly_at_vmin",
         "tests/test_allocation.py::test_checkers_equal_the_fraction_reference"),
    ),
    Mutant(
        "forced_without_v_min",
        "allocation.py",
        "forced = Fraction(surplus - v_min[pair[0]], den)",
        "forced = Fraction(surplus, den)",
        "the paired-sum identity's right-hand side is the surplus net of v_min",
        ("tests/test_allocation.py::test_feasibility_accepts_valid_allocation",
         "tests/test_acceptance.py::test_checker_soundness_and_mutations"),
    ),
    Mutant(
        "off_match_profit_taken_as_given",
        "allocation.py",
        "            pi = _money(pi)\n",
        "",
        "an off-match profit is money, as a matched one is: a bool or float raises",
        ("tests/test_allocation.py::test_feasibility_reads_off_match_profits_as_money",),
    ),
    Mutant(
        "lp_vehicle_rows_rhs_one",
        "oracles.py",
        "LE, v.capacity) for v in inst.vehicles",
        "LE, 1) for v in inst.vehicles",
        "a vehicle's row bounds its riders by its capacity, not by one",
        ("tests/test_solver.py::test_solver_agrees_with_oracle_and_lp",
         "tests/test_acceptance.py::test_lp_relaxation_integrality"),
    ),
    Mutant(
        "lp_traveler_rows_dropped",
        "oracles.py",
        "rows = [Row(tuple(int(tid == t.id) for tid, _ in pairs), LE, 1) for t in inst.travelers]",
        "rows = []",
        "without its row a traveler may ride several vehicles at once",
        ("tests/test_solver.py::test_solver_agrees_with_oracle_and_lp",
         "tests/test_acceptance.py::test_lp_relaxation_integrality"),
    ),
    # -- the matching and its tie rule
    Mutant(
        "tie_options_by_id_rank",
        "market.py",
        "for (tid, vid), w in zip(inst.compatibility.pairs, weights):",
        "for (tid, vid), w in sorted(zip(inst.compatibility.pairs, weights)):",
        "a rider's options follow the instance's vehicle order, not the ids' string order",
        ("tests/test_metamorphic.py::test_relabelling_ids_relabels_every_output",),
    ),
    Mutant(
        "rows_keep_a_zero_weight_pair",
        "market.py",
        "        if w > 0:\n            adj[row[tid]][col[vid]] = w\n",
        "        if w >= 0:\n            adj[row[tid]][col[vid]] = w\n",
        "a pair of weight 0 gains nothing, and leaving its traveler unassigned comes first",
        ("tests/test_solver.py::test_perturbed_leaves_nonpositive_pairs_out",),
    ),
    Mutant(
        "sink_potential_zero",
        "solver.py",
        "sink_pot = min(pot, default=0)",
        "sink_pot = 0",
        "the sink starts at the least vehicle potential, or a run stops before a negative path",
        ("tests/test_solver.py::test_shortest_augmenting_paths_hand_cases",
         "tests/test_solver.py::test_tie_rule_at_scale"),
    ),
    Mutant(
        "tie_rule_stage_skipped",
        "solver.py",
        "match = first_optimum(adj, cap, paths.match, z)[0]",
        "match = paths.match",
        "without the greedy the matching returns whichever optimum stage 1's scan order finds",
        ("tests/test_solver.py::test_tie_rule_returns_the_first_optimum_in_enumeration_order",),
    ),
    Mutant(
        "greedy_takes_the_last_option",
        "solver.py",
        "o = next(o for o in own if o in via)",
        "o = [o for o in own if o in via][-1]",
        "the tie rule puts a traveler on its first option that an optimum allows",
        ("tests/test_solver.py::test_tie_rule_returns_the_first_optimum_in_enumeration_order",),
    ),
    Mutant(
        "search_moves_a_fixed_traveler",
        "solver.py",
        "if not fixed[t] and a not in via:",
        "if a not in via:",
        "a traveler placed by the tie rule stays where it was placed",
        ("tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching",),
    ),
    Mutant(
        "unassigned_offered_at_positive_surplus",
        "solver.py",
        "if surplus == 0:",
        "if surplus >= 0:",
        "a traveler with y > 0 rides in every optimum (complementary slackness)",
        ("tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching",),
    ),
    Mutant(
        "seated_traveler_kept_from_unassigned",
        "solver.py",
        "        for b in own:\n",
        "        for b in own[match[i] is None :]:\n",
        "a traveler seated by an earlier path may leave again when y = 0",
        ("tests/test_solver.py::test_tie_rule_where_a_seated_traveler_may_leave",),
    ),
    Mutant(
        "turn_starts_at_stage_one",
        "solver.py",
        "        if own[0] == c:\n",
        "        if own[0] == (free if match[i] is None else match[i]):\n",
        "a traveler's turn starts where it sits now, which an earlier path may have changed",
        ("tests/test_solver.py::test_tie_rule_where_a_seated_traveler_may_leave",),
    ),
    Mutant(
        "served_vehicle_unseeded",
        "solver.py",
        "dist = [0 if seated else None for seated in riders]",
        "dist = [None] * len(cap)",
        "the merged node reaches a served vehicle at 0 over a rider's edge back to it",
        ("tests/test_solver.py::test_dual_certificate",
         "tests/test_source.py::test_certificate_runs_no_bellman_ford"),
    ),
    Mutant(
        "seat_price_seed_from_the_last_traveler",
        "solver.py",
        "                if dist[k] is None or -w < dist[k]:\n                    dist[k] = -w\n",
        "                dist[k] = -w\n",
        "the merged node reaches a vehicle through its best unassigned traveler, not its last",
        ("tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching",),
    ),
    Mutant(
        "greedy_skips_unassigned_travelers",
        "solver.py",
        "        if len(own) > 1:\n",
        "        if len(own) > 1 and c != free:\n",
        "an unassigned traveler with y = 0 may take a tight seat, and the tie rule may seat it",
        ("tests/test_solver.py::test_first_optimum_from_any_optimum",),
    ),
    Mutant(
        "shortcut_off_the_sink_potential",
        "solver.py",
        "if pot[k] != sink_pot or sink_pot >= 0:",
        "if sink_pot >= 0:",
        "a path through one traveler is shortest only when its vehicle's potential is the sink's",
        ("tests/test_solver.py::test_shortest_augmenting_paths_hand_cases",
         "tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching"),
    ),
    Mutant(
        "sink_reached_without_a_free_seat",
        "solver.py",
        "if room[j] and here - sink_pot < bound:",
        "if here - sink_pot < bound:",
        "only a vehicle with a free seat has an edge to the sink",
        ("tests/test_solver.py::test_shortest_augmenting_paths_hand_cases",
         "tests/test_solver.py::test_tie_rule_at_scale"),
    ),
    Mutant(
        "run_settles_ties_at_the_bound",
        "solver.py",
        "if d >= bound:",
        "if d > bound:",
        "a vehicle keyed at the best path's reduced cost shortens no path: the run stops before it",
        ("tests/test_solver.py::test_shortest_augmenting_paths_hand_cases",),
    ),
    Mutant(
        "seat_price_run_stops_at_a_free_seat",
        "solver.py",
        "_dijkstra(adj, [0] * len(cap), riders,",
        "_dijkstra(adj, [c - len(r) for c, r in zip(cap, riders)], riders,",
        "the seat prices' sink is the merged node, settled first: the run reaches every vehicle",
        ("tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching",
         "tests/test_solver.py::test_seat_prices_are_the_value_of_one_more_seat"),
    ),
    Mutant(
        "certificate_takes_unknown_ids",
        "allocation.py",
        "        for key in entries:\n            if key not in ids:\n",
        "        for key in ():\n            if key not in ids:\n",
        "a proof read from outside may name a traveler or vehicle the market does not have",
        ("tests/test_solver.py::test_verify_dual_certificate_rejects_broken_proofs",),
    ),
    Mutant(
        "certificate_takes_floats",
        "allocation.py",
        "if type(value) not in (int, Fraction):",
        "if type(value) not in (int, float, Fraction):",
        "a float is no exact amount, and the checks compare exactly",
        ("tests/test_solver.py::test_verify_dual_certificate_rejects_broken_proofs",),
    ),
    Mutant(
        "certificate_takes_a_short_weight_list",
        "allocation.py",
        "if len(weights) != len(pairs):",
        "if len(weights) > len(pairs):",
        "zip stops at the shorter input, so a short weight list would check a prefix of the pairs",
        ("tests/test_solver.py::test_verify_dual_certificate_rejects_broken_proofs",),
    ),
    Mutant(
        "certificate_skips_the_first_pair",
        "allocation.py",
        "for (tid, vid), w in zip(pairs, weights):",
        "for (tid, vid), w in zip(pairs[1:], weights[1:]):",
        "y + z >= w must hold on every compatible pair, the first one too",
        ("tests/test_solver.py::test_verify_dual_certificate_rejects_broken_proofs",),
    ),
    # -- the oracles at scale
    Mutant(
        "perturbed_digit_from_the_wrong_end",
        "oracles.py",
        "for i in reversed(range(len(adj))):",
        "for i in range(len(adj)):",
        "the first traveler's digit is the most significant, or ties go to the last traveler",
        ("tests/test_solver.py::test_perturbed_leaves_nonpositive_pairs_out",
         "tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching"),
    ),
    Mutant(
        "bellman_ford_dual_without_served_seeds",
        "oracles.py",
        "edges = [(None, j, 0) for j in range(len(cap)) if load[j]]",
        "edges = []",
        "the merged node reaches a served vehicle at 0 over a rider's edge back to it",
        ("tests/test_solver.py::test_tie_rule_matches_the_one_stage_charnes_matching",),
    ),
    # -- the pair table
    Mutant(
        "per_seat_share_by_position",
        "market.py",
        "shares = [_per_seat(vehicles[k]) for k in served]",
        "shares = [_per_seat(vehicles[k]) for k in range(len(served))]",
        "each served vehicle's per-seat share is its own, found by its index, not its rank",
        ("tests/test_metamorphic.py::test_padding_adds_only_zero_entries",
         "tests/test_market.py::test_pair_table_matches_a_pair_by_pair_reference"),
    ),
    Mutant(
        "per_seat_share_unreduced",
        "market.py",
        "    g = math.gcd(p, v.capacity)\n",
        "    g = 1\n",
        "a per-seat share is a ratio in lowest terms, or it raises the table's den",
        ("tests/test_market.py::test_pair_table_matches_a_pair_by_pair_reference",),
    ),
    Mutant(
        "trip_memo_taken_as_complete",
        "market.py",
        "ok = known.get(k)\n",
        "ok = known.get(k, False if known else None)\n",
        "the per-trip memo holds only the vehicles asked so far, not every vehicle that serves",
        ("tests/test_metamorphic.py::test_reordering_keeps_the_objective_and_the_duals",
         "tests/test_market.py::test_pair_table_matches_a_pair_by_pair_reference"),
    ),
    Mutant(
        "position_search_one_pair_early",
        "market.py",
        "return self.pairs.index(pair, self.first[pair[0]])",
        "return self.pairs.index(pair, max(0, self.first[pair[0]] - 1))",
        "a pair occurs once in the table, so a search that starts earlier finds it too",
        ("tests/test_allocation.py::test_a_schedule_reads_the_same_by_position_and_by_lookup",),
        equivalent="each pair occurs once in the table, at or after its traveler's first pair",
    ),
    Mutant(
        "compatibility_test_past_the_slice",
        "market.py",
        "pair in self.pairs[start : self.stop[tid]]",
        "pair in self.pairs[start:]",
        "a pair that is not compatible is searched for among its traveler's own pairs alone",
        ("tests/test_market.py::test_a_compatibility_test_reads_only_its_travelers_pairs",),
    ),
    Mutant(
        "surplus_as_value_plus_share",
        "market.py",
        "surplus = list(map(sub, values, shares))",
        "surplus = [v + s for v, s in zip(values, shares)]",
        "a pair's surplus is its valuation minus its cost share",
        ("tests/test_market.py::test_pair_table_matches_a_pair_by_pair_reference",),
    ),
    Mutant(
        "traveler_left_unlifted",
        "market.py",
        "lift = common // den\n",
        "lift = 1\n",
        "a traveler over a divisor of the travelers' common denominator is lifted to it",
        ("tests/test_io_cli.py::test_both_intake_forms_agree",),
    ),
    Mutant(
        "den_keeps_money_off_the_pairs",
        "market.py",
        "cut = math.gcd(common, *highs, *v_min.values(), *values)",
        "cut = 1",
        "the table's denominator is that of its own terms, not of every inconvenience entry",
        ("tests/test_market.py::test_pair_table_den_ignores_money_off_the_pairs",
         "tests/test_io_cli.py::test_both_intake_forms_agree"),
    ),
    Mutant(
        "scaled_range_excludes_zero",
        "market.py",
        "min(inconvenience.values()) >= 0",
        "min(inconvenience.values()) > 0",
        "an inconvenience of 0 is inside [0, v_max]",
        ("tests/test_market.py::test_range_checks_match_fraction_comparisons",
         "tests/test_io_cli.py::test_round_trip_canonical"),
    ),
    Mutant(
        "scaled_range_excludes_v_max",
        "market.py",
        "max(inconvenience.values()) <= v_max",
        "max(inconvenience.values()) < v_max",
        "an inconvenience equal to v_max is inside [0, v_max]",
        ("tests/test_market.py::test_range_checks_match_fraction_comparisons",),
    ),
    # -- welfare
    Mutant(
        "welfare_without_lift",
        "market.py",
        "rides = [matrix.value[k] * lift - pays[k]",
        "rides = [matrix.value[k] - pays[k]",
        "a payment over a finer denominator lifts the valuation to it too",
        ("tests/test_market.py::test_welfare_paper_equals_the_fraction_reference",),
    ),
    Mutant(
        "welfare_idle_taken_as_used",
        "market.py",
        "if v.id not in a.riders)",
        "if v.id in a.riders)",
        "the bookkeeping term is the operating cost of the vehicles that serve nobody",
        ("tests/test_market.py::test_welfare_paper",
         "tests/test_market.py::test_welfare_paper_equals_the_fraction_reference"),
    ),
    # -- profits and the checker
    Mutant(
        "profit_off_by_one",
        "allocation.py",
        "rho[pair] = Fraction(pay - share * lift, common)",
        "rho[pair] = Fraction(pay - share * lift + 1, common)",
        "a matched vehicle's profit is its payment minus its cost share, exactly",
        ("tests/test_allocation.py::test_compute_profits",
         "tests/test_allocation.py::test_checkers_equal_the_fraction_reference"),
    ),
    Mutant(
        "profit_payment_at_first_pair",
        "allocation.py",
        "pay, value, share = pays[k],",
        "pay, value, share = pays[matrix.first[pair[0]]],",
        "a matched payment is the one of its own pair, not of its traveler's first pair",
        ("tests/test_allocation.py::test_checkers_equal_the_fraction_reference",),
    ),
    Mutant(
        "check_payment_at_first_pair",
        "allocation.py",
        "x = pays[k]",
        "x = pays[matrix.first[tid]]",
        "a matched payment is the one of its own pair, not of its traveler's first pair",
        ("tests/test_allocation.py::test_checkers_equal_the_fraction_reference",),
    ),
    Mutant(
        "check_validations_swapped",
        "allocation.py",
        "    common, pays = validate_schedule(inst, t)\n    validate_assignment(inst, a)\n",
        "    validate_assignment(inst, a)\n    common, pays = validate_schedule(inst, t)\n",
        "check_payments names a schedule's error before an assignment's",
        ("tests/test_allocation.py::test_check_payments_feasibility_is_the_profit_path_at_scale",),
    ),
    Mutant(
        "check_eq8_unlifted_v_min",
        "allocation.py",
        "eq8[pair] = x == v_min[tid] * lift",
        "eq8[pair] = x == v_min[tid]",
        "over a finer denominator than the table's, v_min is read lifted",
        ("tests/test_allocation.py::test_eq8_status_holds_exactly_at_vmin",),
    ),
    Mutant(
        "check_violation_over_table_den",
        "allocation.py",
        'Violation("rho_nonneg", pair, Fraction(rho, common), _ZERO)',
        'Violation("rho_nonneg", pair, Fraction(rho, matrix.den), _ZERO)',
        "a violation's value is over the schedule's denominator, which may be finer",
        ("tests/test_allocation.py::test_checkers_equal_the_fraction_reference",),
    ),
    Mutant(
        "seat_profit_taken_as_max",
        "allocation.py",
        "least[vid] = min(rho, least.get(vid, rho))",
        "least[vid] = max(rho, least.get(vid, rho))",
        "a full vehicle's marginal seat profit is its least rider profit",
        ("tests/test_allocation.py::test_classic_core_seat_profit_is_the_least_rider_profit",),
    ),
    Mutant(
        "seat_profit_from_first_rider",
        "allocation.py",
        "least[vid] = min(rho, least.get(vid, rho))",
        "least.setdefault(vid, rho)",
        "the least rider profit is over every rider, not the first",
        ("tests/test_allocation.py::test_classic_core_seat_profit_is_the_least_rider_profit",),
    ),
    Mutant(
        "envy_kinds_swapped",
        "allocation.py",
        'kind = "envy" if tid in own else "unassigned_envy"',
        'kind = "unassigned_envy" if tid in own else "envy"',
        "a rider's envy and an unassigned traveler's are named apart",
        ("tests/test_allocation.py::test_stability_flags_envy",
         "tests/test_allocation.py::test_stability_flags_unassigned_envy"),
    ),
    Mutant(
        "exit_preferred_dropped",
        "allocation.py",
        "if mine < 0:",
        "if False:",
        "a rider whose own ride is worth less than 0 prefers to exit",
        ("tests/test_allocation.py::test_stability_flags_exit_preferred",),
    ),
    # -- synthesis
    Mutant(
        "off_match_payment_floor",
        "allocation.py",
        "x[plus] = max(x[plus], x[minus] + rhs)",
        "x[plus] = max(x[plus], x[minus] + rhs, den)",
        "an off-match payment is the least value its rows allow, which may be 0",
        ("tests/test_metamorphic.py::test_scaling_money_scales_every_amount",),
    ),
    Mutant(
        "feasible_certificate_empty",
        "allocation.py",
        "        if self.proof is None:\n            return None\n",
        "        if self.proof is None:\n            return ()\n",
        "a feasible synthesis has no Farkas multipliers at all, not an empty tuple of them",
        ("tests/test_allocation.py::test_synthesis_on_optimal_assignment",
         "tests/test_allocation.py::test_synthesis_favor_vehicles"),
    ),
    Mutant(
        "travelers_bound_edges_unreversed",
        "allocation.py",
        "edges += [(None, p, 0) for p in matched]",
        "edges += [(p, None, 0) for p in matched]",
        "the travelers' run reverses every edge, the bounds x >= 0 too",
        ("tests/test_allocation.py::test_synthesis_feasible_iff_optimal_on_random_instances",),
    ),
    Mutant(
        "travelers_ge_edge_unnegated",
        "allocation.py",
        "else (m, p, -r) for",
        "else (m, p, r) for",
        "a >= row's edge weighs -rhs in either orientation",
        ("tests/test_allocation.py::test_synthesis_infeasible_off_optimum",),
    ),
    Mutant(
        "view_without_seat_rows",
        "allocation.py",
        "chain(*_stability_system(self.instance, self.assignment)[0])",
        "chain(*_stability_system(self.instance, self.assignment)[0][1:])",
        "each displace row of the payment-only view is summed with its vehicle's seat rows",
        ("tests/test_allocation.py::test_seat_price_rows_equal_the_per_rider_reference",),
    ),
    Mutant(
        "bellman_ford_cycle_in_walk_order",
        "allocation.py",
        "path[path.index(pred[v]) :][::-1]",
        "path[path.index(pred[v]) :]",
        "the walk goes back along the predecessor edges: reversed, it is the cycle's path order",
        ("tests/test_solver.py::test_bellman_ford_returns_a_negative_cycle",
         "tests/test_solver.py::test_bellman_ford_stops_at_the_first_cycle_closed"),
    ),
    Mutant(
        "bellman_ford_one_pass_short",
        "allocation.py",
        "for _ in range(len(nodes)):",
        "for _ in range(len(nodes) - 1):",
        "a path through every node settles in len(nodes) - 1 passes, and one more shows it",
        ("tests/test_solver.py::test_bellman_ford_without_a_verdict_raises",),
    ),
    Mutant(
        "bellman_ford_relaxes_on_ties",
        "allocation.py",
        "dist[u] + w < dist[v]",
        "dist[u] + w <= dist[v]",
        "an edge that only ties a distance relaxes nothing: zero-weight cycles are no proof",
        ("tests/test_allocation.py::test_synthesis_feasible_iff_optimal_on_random_instances",),
    ),
    Mutant(
        "farkas_zero_sum_accepted",
        "allocation.py",
        "if total >= 0 or any(",
        "if total > 0 or any(",
        "the right-hand sides must combine into a negative number: 0 <= 0 holds",
        ("tests/test_allocation.py::test_farkas_check_rejects_broken_multipliers",),
    ),
    Mutant(
        "farkas_sign_unchecked",
        "allocation.py",
        "if mu < 0 if rel == LE else mu > 0:",
        "if False:",
        "a multiplier of the wrong sign flips its row's inequality",
        ("tests/test_allocation.py::test_farkas_check_rejects_broken_multipliers",),
    ),
    Mutant(
        "farkas_takes_floats",
        "allocation.py",
        "if type(mu) not in (int, Fraction):",
        "if type(mu) not in (int, float, Fraction):",
        "a float's rounding may cancel a coefficient that the exact sum leaves negative",
        ("tests/test_allocation.py::test_farkas_check_rejects_broken_multipliers",),
    ),
    # -- money intake and its views
    Mutant(
        "digit_limit_for_exponents_only",
        "market.py",
        'if len(exponent.lstrip("+-")) > MAX_DIGITS or (',
        'if exponent and len(exponent.lstrip("+-")) > MAX_DIGITS or exponent and (',
        "a decimal's digits are counted whether or not it has an exponent",
        ("tests/test_io_cli.py::test_money_past_the_digit_limit_is_a_validation_error_both_ways",
         "tests/test_io_cli.py::test_cli_huge_payment_override_exits_2"),
    ),
    Mutant(
        "exact_number_reads_bools",
        "market.py",
        "    if type(value) is int:\n",
        "    if isinstance(value, int):\n",
        "a bool is an int to Python, but a JSON true is no amount",
        ("tests/test_io_cli.py::test_payment_values_stay_type_strict",),
    ),
    Mutant(
        "exact_ratio_unreduced",
        "market.py",
        "            g = math.gcd(p, q)\n",
        "            g = 1\n",
        "a money string's ratio is in lowest terms, as Fraction's is",
        ("tests/test_io_cli.py::test_exact_ratio_is_the_reduced_ratio_of_exact_number",),
    ),
    Mutant(
        "library_money_strings_by_fraction",
        "market.py",
        "        return exact_number(x)\n",
        "        return Fraction(x) if isinstance(x, str) else exact_number(x)\n",
        "the library reads money text by the documents' grammar, which refuses ' 3' and '1_000'",
        ("tests/test_io_cli.py::test_the_library_reads_money_strings_as_documents_do",),
    ),
    Mutant(
        "view_v_max_from_v_min",
        "market.py",
        "_View(lambda t: Fraction(t.ints[1], t.ints[0]))",
        "_View(lambda t: Fraction(t.ints[2], t.ints[0]))",
        "a parsed traveler's v_max is the second of its ints, v_min the third",
        ("tests/test_io_cli.py::test_round_trip_canonical",
         "tests/test_io_cli.py::test_repeated_money_strings_parse_exactly"),
    ),
    # -- the parser
    Mutant(
        "key_count_skipped",
        "instance_io.py",
        'if sum(sizes) != text.count(":"):',
        "if False:",
        "only the count of keys shows that a document repeats none",
        ("tests/test_io_cli.py::test_duplicate_keys_are_a_validation_error",
         "tests/test_source.py::test_only_a_count_mismatch_decodes_with_the_pairs_hook"),
    ),
    Mutant(
        "distinct_value_memo_over_every_type",
        "instance_io.py",
        "if type(x) is not int or x < 0:",
        "if not isinstance(x, int) or x < 0:",
        "1, 1.0 and true are equal, but only 1 is money",
        ("tests/test_io_cli.py::test_payment_values_stay_type_strict",),
    ),
    Mutant(
        "payments_not_read_again",
        "instance_io.py",
        "    while finer:  # at the table's den",
        "    if finer:  # at the table's den",
        "a payment finer than the table's den makes the walk start once more, at a scale it fits",
        ("tests/test_io_cli.py::test_every_form_of_a_schedule_agrees",),
    ),
    Mutant(
        "scale_floors_a_finer_denominator",
        "instance_io.py",
        "        if self.den % q:\n            raise KeyError(text)\n",
        "",
        "a money string whose denominator does not divide the scale misses, not rounds down",
        ("tests/test_io_cli.py::test_both_intake_forms_agree",
         "tests/test_io_cli.py::test_a_scale_never_changes_a_value_it_holds"),
    ),
    Mutant(
        "scale_tests_the_numerator",
        "instance_io.py",
        "        if self.den % q:\n",
        "        if self.den % p:\n",
        "a money string fits a scale when its denominator divides it, whatever its numerator",
        ("tests/test_io_cli.py::test_a_scale_never_changes_a_value_it_holds",
         "tests/test_io_cli.py::test_both_intake_forms_agree"),
    ),
    Mutant(
        "row_scale_from_bounds_only",
        "instance_io.py",
        "den = math.lcm(*{q for _, q in values})",
        "den = math.lcm(values[0][1], values[1][1])",
        "a traveler's own scale is over every value of its row, the inconvenience too",
        ("tests/test_io_cli.py::test_both_intake_forms_agree",),
    ),
    Mutant(
        "payment_sign_unchecked",
        "instance_io.py",
        "if len(ints) != count or min(scaled.values(), default=0) < 0:",
        "if len(ints) != count:",
        "a negative payment string is named, not priced",
        ("tests/test_io_cli.py::test_each_payment_problem_alone_keeps_its_text",
         "tests/test_io_cli.py::test_payment_values_stay_type_strict"),
    ),
    # -- the CLI's payments and output
    Mutant(
        "overrides_over_table_den",
        "cli.py",
        "den, lifted = scale_to_integers(priced.values(), base.den)",
        "den, lifted = scale_to_integers(priced.values(), matrix.den)",
        "overrides are scaled over the document's denominator, which may be finer",
        ("tests/test_io_cli.py::test_an_override_prints_what_the_document_priced_so_prints",),
    ),
    Mutant(
        "complete_document_ints_unlifted",
        "cli.py",
        "ints = [up * x for x in base.ints]",
        "ints = list(base.ints)",
        "an override over a finer denominator lifts the document's payments to it",
        ("tests/test_io_cli.py::test_an_override_prints_what_the_document_priced_so_prints",),
    ),
    Mutant(
        "partial_document_ints_unlifted",
        "cli.py",
        "ints[matrix.position(pair)] = up * x",
        "ints[matrix.position(pair)] = x",
        "a partly priced document's payments are lifted with the overrides",
        ("tests/test_io_cli.py::test_an_override_prints_what_the_document_priced_so_prints",),
    ),
    Mutant(
        "break_even_default_unlifted",
        "cli.py",
        "ints = [lift * s if s > 0 else 0",
        "ints = [s if s > 0 else 0",
        "the break-even default is the surplus over the schedule's denominator",
        ("tests/test_io_cli.py::test_every_form_of_a_schedule_agrees",
         "tests/test_io_cli.py::test_payment_intake_builds_a_scaled_schedule_or_raises"),
    ),
    Mutant(
        "machine_output_indented",
        "cli.py",
        'text = json.dumps(doc, default=str) + "\\n"',
        'text = json.dumps(doc, default=str, indent=2) + "\\n"',
        "machine output is one line, as json.dumps writes it",
        ("tests/test_io_cli.py::test_machine_output_is_what_json_dump_writes",),
    ),
)


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / PACKAGE / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text does not occur exactly once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def fails(mutant: Mutant | None, tests) -> tuple:
    """``(failed, seconds)`` of pytest on ``tests`` over a copy of ``src/``,
    patched by ``mutant`` unless it is ``None``."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            _apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"the child imports {where}, not the copy")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
            failed = done.returncode != 0
        except subprocess.TimeoutExpired:
            failed = True
    return failed, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    # every named test must pass on the unpatched copy, or no kill means anything
    named = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    failed, seconds = fails(None, named)
    verdict = "FAILED" if failed else "passed"
    print(f"unpatched copy, {len(named)} tests: {verdict}, {seconds:.1f} s")
    if failed:
        return 1
    killed = survived = 0
    for mutant in MUTANTS:
        dead, seconds = fails(mutant, mutant.tests)
        killed += dead
        if dead:
            verdict = "killed"
        elif mutant.equivalent:
            verdict = f"equivalent ({mutant.equivalent})"
        else:
            verdict = "SURVIVED"
            survived += 1
        print(f"{mutant.name}: {verdict}, {seconds:.1f} s", flush=True)
    print(f"{killed}/{len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
