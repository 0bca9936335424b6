"""Construction weights, swap neighborhood, and tabu search discipline."""

import math

import numpy as np
import pytest

from conftest import (
    make_case,
    make_scenarios,
    mirrored_instance,
    off_triangle_instance,
    point_mass,
    square_instance,
)
from fcmurp import heuristics
from fcmurp.detsolve import EXACT_TARGET_LIMIT, solve_deterministic_greedy
from fcmurp.heuristics import (
    ConstructionWeights,
    TabuParams,
    TwoStageEvaluator,
    construct_detailed,
    construction_weights,
    tabu_improve,
)
from fcmurp.instgen import GenConfig, assign_quadrants, generate_instance
from fcmurp.model import RouteSet, Scenario, ScenarioSet, nominal_feasibility, route_cost
from fcmurp.recourse import evaluate_recourse, penalty
from oracles import recompute_weights, swap_bounds_by_loop, tabu_by_full_evaluation


def low_fuel_delta(instance, scale=0.4):
    fuel = np.array(instance.nominal_fuel) * scale
    return ScenarioSet((Scenario(id=0, probability=1.0, fuel=fuel),), label="low")


def test_construction_weights_match_independent_recount():
    inst, qmap = make_case(seed=9, n_targets=6, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=4, count=4)
    res = construct_detailed(inst, delta)
    d, wc, ef = recompute_weights(inst, delta, res.scenario_solutions)
    assert np.allclose(res.weights.discount, d, atol=1e-12, rtol=0.0)
    assert np.allclose(res.weights.weighted_cost, wc, atol=1e-12, rtol=0.0)
    assert np.allclose(res.weights.expected_fuel, ef, atol=1e-9, rtol=0.0)
    assert np.all(res.weights.discount <= 1.0 + 1e-12)
    assert np.all(res.weights.discount >= -1e-12)


def test_construction_weights_tables_are_frozen():
    inst, qmap = make_case(seed=9, n_targets=4, vehicles=1)
    delta = make_scenarios(inst, qmap, seed=4, count=2)
    res = construct_detailed(inst, delta)
    with pytest.raises(ValueError):
        res.weights.discount[0, 0] = 0.5


def test_shared_edge_counts_once_in_the_discount():
    inst = square_instance(vehicles=2)
    # both routes leave home through the same refuel depot
    shared = RouteSet(((0, 1, 2, 0), (0, 1, 3, 0)))
    delta = point_mass(inst)
    weights = construction_weights(inst, delta, [(0, shared)])
    assert weights.discount[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert weights.discount[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert weights.discount[2, 1] == pytest.approx(1.0, abs=1e-15)


def test_unsolved_scenario_keeps_fuel_weight_but_no_discount():
    inst, qmap = make_case(seed=9, n_targets=4, vehicles=1)
    delta = make_scenarios(inst, qmap, seed=4, count=2)
    weights = construction_weights(inst, delta, [(s.id, None) for s in delta])
    assert np.array_equal(weights.discount, np.ones_like(weights.discount))
    expected = math.fsum(s.probability * float(s.fuel[0, 5]) for s in delta)
    assert weights.expected_fuel[0, 5] == pytest.approx(expected, abs=1e-12)


def test_scenarios_are_processed_by_probability_then_id():
    inst = square_instance(vehicles=1)
    f = np.array(inst.nominal_fuel)
    delta = ScenarioSet(
        (
            Scenario(id=3, probability=0.2, fuel=f),
            Scenario(id=1, probability=0.5, fuel=f * 0.9),
            Scenario(id=2, probability=0.2, fuel=f * 1.1),
            Scenario(id=0, probability=0.1, fuel=f),
        ),
        label="mixed",
    )
    res = construct_detailed(inst, delta)
    assert [sid for sid, _ in res.scenario_solutions] == [1, 2, 3, 0]


def test_construct_returns_routes_and_uses_exact_engine_on_small_cases():
    inst, qmap = make_case(seed=9, n_targets=5, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=4, count=3)
    res = construct_detailed(inst, delta)
    assert res.final_nodes > 0
    assert res.fallback == "none"
    assert nominal_feasibility(res.routes, inst)


def test_construct_switches_to_greedy_beyond_the_exact_limit():
    inst, qmap = make_case(seed=9, n_targets=EXACT_TARGET_LIMIT + 1, vehicles=3)
    delta = make_scenarios(inst, qmap, seed=4, count=2)
    res = construct_detailed(inst, delta)
    assert res.final_nodes == 0
    assert nominal_feasibility(res.routes, inst)


def test_construct_reinserts_depots_when_expected_fuel_is_laxer():
    inst = generate_instance(GenConfig(seed=1, n_targets=5, vehicles=2, fuel_factor=1.3))
    res = construct_detailed(inst, low_fuel_delta(inst))
    assert res.fallback == "reinserted"
    assert nominal_feasibility(res.routes, inst)


def test_construct_falls_back_to_scenario_solutions_when_final_solve_fails():
    inst = square_instance(vehicles=2)
    res = construct_detailed(inst, point_mass(inst, scale=100.0))
    assert res.fallback == "scenario_solution"
    assert res.scenario_solutions == ((0, None),)
    greedy = solve_deterministic_greedy(inst)
    assert res.routes.canonical() == greedy.routes.canonical()


def test_construct_rejects_an_empty_scenario_set():
    inst = square_instance()
    with pytest.raises(ValueError):
        construct_detailed(inst, ScenarioSet((), label="empty"))


def test_evaluator_requires_calibration_before_scoring():
    inst = square_instance(vehicles=2)
    ev = TwoStageEvaluator(inst, point_mass(inst))
    with pytest.raises(RuntimeError):
        ev.evaluate(((2,), (3,)))


def test_evaluator_matches_recourse_and_insertion_modules():
    inst, qmap = make_case(seed=14, n_targets=5, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=7, count=3)
    start = construct_detailed(inst, delta).routes
    bare = start.bare_sequences(inst)
    ev = TwoStageEvaluator(inst, delta)
    ev.calibrate(bare)
    assert ev.nu == penalty(inst, ev.parts(bare)[2])
    scored = ev.evaluate(bare)
    assert scored.stage1 == pytest.approx(route_cost(scored.routes, inst), abs=1e-9)
    for k, s in enumerate(delta):
        plan = evaluate_recourse(scored.routes, s, inst)
        assert scored.betas[k] == pytest.approx(plan.beta, abs=1e-9)
    objective = scored.stage1
    for k, s in enumerate(delta):
        term = scored.betas[k] if math.isfinite(scored.betas[k]) else ev.nu
        objective += s.probability * term
    assert scored.objective == objective
    again = ev.evaluate(bare)
    assert again.objective == scored.objective
    assert again.routes == scored.routes


def test_evaluator_charges_the_penalty_for_unrecoverable_scenarios():
    inst = square_instance(vehicles=1)
    ev = TwoStageEvaluator(inst, point_mass(inst, scale=100.0))
    bare = ((2, 3),)
    ev.calibrate(bare)
    scored = ev.evaluate(bare)
    assert scored.betas == (math.inf,)
    assert not scored.feasible
    assert scored.objective == scored.stage1 + ev.nu


def test_evaluator_returns_none_for_uninsertable_groupings():
    inst = square_instance(vehicles=1, fuel_factor=1.5)
    ev = TwoStageEvaluator(inst, point_mass(inst))
    assert ev.parts(((2, 3),)) is None
    assert ev.evaluate(((2, 3),)) is None


def test_tabu_params_are_validated():
    with pytest.raises(ValueError):
        TabuParams(iterations=0)
    with pytest.raises(ValueError):
        TabuParams(iterations=10, stall_limit=11)
    with pytest.raises(ValueError):
        TabuParams(iterations=10, stall_limit=0)
    with pytest.raises(ValueError):
        TabuParams(tenure=0)
    assert TabuParams().resolved_tenure(10) == 7
    assert TabuParams().resolved_tenure(30) == 9
    assert TabuParams(tenure=2).resolved_tenure(30) == 2


def tabu_setup(seed=14, n=6, m=2, count=3, scenario_seed=7):
    inst, qmap = make_case(seed=seed, n_targets=n, vehicles=m)
    delta = make_scenarios(inst, qmap, seed=scenario_seed, count=count)
    return inst, delta, construct_detailed(inst, delta).routes


def test_tabu_moves_respect_the_tenure_without_aspiration():
    inst, delta, start = tabu_setup()
    tenure = 4
    res = tabu_improve(start, delta, TabuParams(iterations=60, stall_limit=60, tenure=tenure), inst)
    last_pick = {}
    for row in res.move_log:
        k, kind, move, objective, aspiration = row
        assert kind in ("move", "stagnant", "reset")
        assert isinstance(objective, float)
        if kind != "move":
            assert move is None
            continue
        if move in last_pick and not aspiration:
            assert k > last_pick[move] + tenure
        last_pick[move] = k


def test_tabu_best_is_monotone_and_resets_return_to_it():
    inst, delta, start = tabu_setup()
    params = TabuParams(iterations=40, stall_limit=40, tenure=3)
    res = tabu_improve(start, delta, params, inst)
    assert res.feasible

    ev = TwoStageEvaluator(inst, delta)
    bare = start.bare_sequences(inst)
    ev.calibrate(bare)
    best = ev.evaluate(bare).objective
    for row in res.move_log:
        _, kind, _, objective, _ = row
        if kind == "move":
            assert math.isfinite(objective)
            best = min(best, objective)
        elif kind == "reset":
            assert objective == best
    assert res.objective == best


def test_longer_tabu_runs_never_end_worse():
    inst, delta, start = tabu_setup()
    short = tabu_improve(start, delta, TabuParams(iterations=15, stall_limit=15), inst)
    long = tabu_improve(start, delta, TabuParams(iterations=60, stall_limit=60), inst)
    assert long.objective <= short.objective
    assert short.move_log == long.move_log[: len(short.move_log)]


def test_tabu_is_deterministic():
    inst, delta, start = tabu_setup()
    params = TabuParams(iterations=25, stall_limit=25, tenure=5)
    a = tabu_improve(start, delta, params, inst)
    b = tabu_improve(start, delta, params, inst)
    assert a.move_log == b.move_log
    assert a.objective == b.objective
    assert a.routes == b.routes


def test_tabu_stops_on_the_stall_limit():
    inst, delta, start = tabu_setup(n=5)
    res = tabu_improve(start, delta, TabuParams(iterations=400, stall_limit=6), inst)
    assert res.iterations < 400


def test_tabu_tenure_of_one_still_blocks_the_next_iteration():
    inst, delta, start = tabu_setup(n=5)
    res = tabu_improve(start, delta, TabuParams(iterations=30, stall_limit=30, tenure=1), inst)
    last_pick = {}
    for k, kind, move, _, aspiration in res.move_log:
        if kind != "move":
            continue
        if move in last_pick and not aspiration:
            assert k > last_pick[move] + 1
        last_pick[move] = k


def test_tabu_warns_when_no_candidate_is_recoverable():
    inst = square_instance(vehicles=2)
    start = RouteSet(((0, 2, 0), (0, 3, 0)))
    res = tabu_improve(start, point_mass(inst, scale=100.0), TabuParams(iterations=5, stall_limit=5), inst)
    assert not res.feasible
    assert res.warning is not None
    assert all(not math.isfinite(b) for b in res.betas)


def test_tabu_rejects_an_uninsertable_start():
    inst = square_instance(vehicles=1, fuel_factor=1.5)
    bad = RouteSet(((0, 2, 3, 0),))
    with pytest.raises(ValueError):
        tabu_improve(bad, point_mass(inst), TabuParams(iterations=5, stall_limit=5), inst)


def test_tabu_improves_on_a_poor_start():
    inst, qmap = make_case(seed=21, n_targets=6, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=3, count=3)
    start = construct_detailed(inst, delta).routes
    res = tabu_improve(start, delta, TabuParams(iterations=80, stall_limit=40), inst)
    ev = TwoStageEvaluator(inst, delta)
    bare = start.bare_sequences(inst)
    ev.calibrate(bare)
    assert res.objective <= ev.evaluate(bare).objective
    assert nominal_feasibility(res.routes, inst)


# (seed, targets, fuel factor, scale of scenario 0's fuel)
SCAN_CASES = (
    (2, 8, 1.0, 1.0),
    (5, 8, 1.0, 1.0),
    (14, 8, 2.25, 2.2),
    (3, 20, 1.05, 1.0),
    (3, 20, 1.0, 1.0),
    (12, 20, 2.25, 1.0),
)


def scan_case(seed, n, fuel_factor, scale):
    """Instance, sample (scenario 0's fuel scaled), greedy start and params."""
    inst, qmap = make_case(seed=seed, n_targets=n, vehicles=3, fuel_factor=fuel_factor)
    sampled = make_scenarios(inst, qmap, seed=seed + 1, count=3)
    delta = ScenarioSet(
        tuple(
            Scenario(id=s.id, probability=s.probability, fuel=s.fuel * (scale if s.id == 0 else 1.0))
            for s in sampled
        ),
        label=f"scaled:{scale}",
    )
    start = solve_deterministic_greedy(inst).routes
    return inst, delta, start, TabuParams(iterations=30, stall_limit=30)


def test_tabu_scan_matches_full_evaluation():
    results = []
    oracle_results = []
    penalized_starts = 0
    for case in SCAN_CASES:
        inst, delta, start, params = scan_case(*case)
        got = tabu_improve(start, delta, params, inst)
        want = tabu_by_full_evaluation(start, delta, params, inst)
        assert got == want
        results.append(got)
        oracle_results.append(want)
        ev = TwoStageEvaluator(inst, delta)
        ev.calibrate(start.bare_sequences(inst))
        penalized_starts += not ev.evaluate(start.bare_sequences(inst)).feasible
    assert penalized_starts >= 1
    assert any(not r.feasible for r in results)
    # the full evaluation inserts every neighbor: some have no insertion
    assert any(r.infeasible_sequences for r in oracle_results)
    assert any(r.aspirations for r in results) and any(r.resets for r in results)
    for r, full in zip(results, oracle_results):
        assert r.moves + r.stagnant == r.iterations
        assert full.infeasible_sequences < full.sequences
        assert r.sequences <= full.sequences


@pytest.mark.parametrize("case", SCAN_CASES)
def test_swap_bounds_never_exceed_exact_objectives(monkeypatch, case):
    scanned = []
    swap_bounds = heuristics._swap_bounds

    def recorded(evaluator, bare, entries, pairs):
        bounds = swap_bounds(evaluator, bare, entries, pairs)
        scanned.append((evaluator, bare, pairs, bounds))
        return bounds

    monkeypatch.setattr(heuristics, "_swap_bounds", recorded)
    inst, delta, start, params = scan_case(*case)
    assert inst.min_detour_increment >= 0.0
    res = tabu_improve(start, delta, params, inst)
    assert len(scanned) == res.scans
    evaluator = scanned[0][0]
    slack = heuristics._bound_slack(evaluator)
    assert 0.0 < slack < 1e-6
    checked = 0
    for _, bare, pairs, bounds in scanned:
        assert all(math.isfinite(b) for b in bounds)
        for move, bound in zip(pairs, bounds):
            ev = evaluator.evaluate(heuristics._swap_targets(bare, *move))
            if ev is not None:
                # admissible up to the stop test's rounding margin
                assert bound <= ev.objective + slack
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("case", [*SCAN_CASES, None])
def test_swap_bounds_match_the_one_swap_at_a_time_reference(monkeypatch, case):
    checked = []
    swap_bounds = heuristics._swap_bounds

    def compared(evaluator, bare, entries, pairs):
        bounds = swap_bounds(evaluator, bare, entries, pairs)
        moves = [tuple(p) for p in pairs.tolist()]
        assert bounds.tolist() == swap_bounds_by_loop(evaluator, bare, entries, moves)
        checked.append(bare)
        return bounds

    monkeypatch.setattr(heuristics, "_swap_bounds", compared)
    if case is None:
        # a detour can pay here: every bound is -inf
        inst = off_triangle_instance()
        delta = make_scenarios(inst, assign_quadrants(inst, 5), seed=6, count=3)
        start = solve_deterministic_greedy(inst).routes
        params = TabuParams(iterations=10, stall_limit=10)
    else:
        inst, delta, start, params = scan_case(*case)
    res = tabu_improve(start, delta, params, inst)
    assert len(checked) == res.scans > 1


def test_negative_detours_score_every_swap():
    inst = off_triangle_instance()
    assert inst.min_detour_increment < 0.0
    delta = make_scenarios(inst, assign_quadrants(inst, 5), seed=6, count=3)
    start = solve_deterministic_greedy(inst).routes
    params = TabuParams(iterations=20, stall_limit=20)
    res = tabu_improve(start, delta, params, inst)
    assert res.scored == res.scans * inst.n_targets * (inst.n_targets - 1) // 2
    assert res == tabu_by_full_evaluation(start, delta, params, inst)


@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_tied_swaps_keep_the_full_evaluation_tie_break(scale):
    inst = mirrored_instance()
    delta = point_mass(inst, scale=scale)
    start = solve_deterministic_greedy(inst).routes
    ev = TwoStageEvaluator(inst, delta)
    bare = start.bare_sequences(inst)
    ev.calibrate(bare)
    objectives = [
        ev.evaluate(heuristics._swap_targets(bare, *move)).objective
        for move in ((2, 3), (2, 4), (3, 4))
    ]
    assert len(set(objectives)) < len(objectives)
    params = TabuParams(iterations=10, stall_limit=10)
    res = tabu_improve(start, delta, params, inst)
    # a tied swap's bound is within the slack of the best objective: all scored
    assert res.scored == res.scans * 3
    assert res == tabu_by_full_evaluation(start, delta, params, inst)


def test_tabu_scans_each_state_once(monkeypatch):
    scored = []
    swap_objective = heuristics._swap_objective

    def counted(evaluator, bare, entries, where, t1, t2):
        scored.append((bare, t1, t2))
        return swap_objective(evaluator, bare, entries, where, t1, t2)

    monkeypatch.setattr(heuristics, "_swap_objective", counted)
    inst, delta, start = tabu_setup()
    params = TabuParams(iterations=40, stall_limit=40, tenure=3)
    res = tabu_improve(start, delta, params, inst)
    # a reset returns to the best state, whose swaps were scanned already
    assert res.resets > 0
    assert 0 < res.scans < res.iterations
    assert len(set(scored)) == len(scored) == res.scored
    assert res.scored < res.scans * inst.n_targets * (inst.n_targets - 1) // 2
    assert res.legs > 0
    assert res == tabu_by_full_evaluation(start, delta, params, inst)
