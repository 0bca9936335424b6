"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single summary line; run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_case, make_scenarios, tight_layouts
from fcmurp.cli import main as cli_main
from fcmurp.detsolve import (
    optimal_depot_insertion,
    solve_deterministic_exact,
    solve_deterministic_greedy,
)
from fcmurp.heuristics import (
    TabuParams,
    TwoStageEvaluator,
    construct_detailed,
    tabu_improve,
)
from fcmurp.instgen import GenConfig, generate_instance, sample_scenarios
from fcmurp.model import Scenario, nominal_feasibility
from fcmurp.recourse import evaluate_recourse
from fcmurp.stochsolve import (
    SaaConfig,
    gamma_seed,
    lambda_seed,
    saa_lower_bound,
    saa_upper_bound,
    solve_evp,
)
from oracles import enumerate_deterministic, recompute_weights, recourse_by_enumeration


def edge_count(routes):
    return sum(len(r) - 1 for r in routes.routes)


def recourse_triples(count):
    """Seeded (instance, routes, scenario) stream, alternating nominal and
    inflated realizations so detour handling is exercised."""
    made = 0
    seed = 0
    while made < count:
        seed += 1
        n = 3 + seed % 4
        m = 1 + seed % 2
        try:
            inst, qmap = make_case(seed=seed, n_targets=n, vehicles=m)
        except ValueError:
            continue
        sol = solve_deterministic_greedy(inst)
        if sol is None or edge_count(sol.routes) > 10:
            continue
        scen = make_scenarios(inst, qmap, seed=seed * 31 + 7, count=1)
        base = scen.scenarios[0]
        for scale in (1.0, 1.45):
            if made == count:
                break
            yield inst, sol.routes, Scenario(
                id=base.id, probability=1.0, fuel=np.array(base.fuel) * scale
            )
            made += 1


def test_criterion_1_recourse_oracle_equivalence():
    start = time.perf_counter()
    agreements = 0
    for inst, routes, scenario in recourse_triples(200):
        fast = evaluate_recourse(routes, scenario, inst)
        slow = recourse_by_enumeration(routes, scenario, inst)
        assert fast.feasible == slow.feasible
        assert fast.beta == slow.beta
        assert fast.detoured_edges == slow.detoured_edges
        assert fast.inserted_depots == slow.inserted_depots
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 200
    assert elapsed < 30.0
    print(f"criterion 1: PASS - 200/200 exact recourse agreements in {elapsed:.1f}s")


def twenty_instances():
    made = []
    seed = 1000
    while len(made) < 20:
        seed += 1
        n = 3 + seed % 4
        m = 1 + seed % 2
        try:
            inst, _ = make_case(seed=seed, n_targets=n, vehicles=m)
        except ValueError:
            continue
        made.append(inst)
    return made


def test_criterion_2_deterministic_exactness():
    start = time.perf_counter()
    for inst in twenty_instances():
        sol = solve_deterministic_exact(inst)
        ref = enumerate_deterministic(
            inst, score=lambda seq: optimal_depot_insertion(seq, inst)
        )
        assert sol is not None and ref is not None
        assert sol.cost == pytest.approx(ref[1], abs=1e-6)
        assert sol.routes.canonical().routes == tuple(sorted(ref[0]))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2: PASS - 20/20 exact matches vs enumeration in {elapsed:.1f}s")


def test_criterion_3_pruning_safety():
    start = time.perf_counter()
    instances = [*twenty_instances(), *tight_layouts(20, seed=4)]
    saved = 0
    for inst in instances:
        on = solve_deterministic_exact(inst, strengthened_pruning=True)
        off = solve_deterministic_exact(inst, strengthened_pruning=False)
        assert on.cost == off.cost
        assert on.routes.canonical() == off.routes.canonical()
        saved += on.nodes < off.nodes
    # on the twenty generated instances the switch cuts nothing; the tight
    # layouts keep this check from comparing a search with itself
    assert saved >= 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3: PASS - pruning toggle preserved {len(instances)}/{len(instances)} "
        f"optima, cutting nodes on {saved}, in {elapsed:.1f}s"
    )


def test_criterion_4_saa_bound_ordering():
    start = time.perf_counter()
    ordered = 0
    margins = []
    for seed in (41, 42, 43, 44, 45):
        inst, qmap = make_case(seed=seed, n_targets=6, vehicles=2)
        config = SaaConfig(replications=5, sample_size=3, seed=seed)
        lb = saa_lower_bound(inst, qmap, config)
        lam = sample_scenarios(inst, qmap, seed=lambda_seed(seed), count=200)
        candidates = []
        for sol in lb.solutions:
            if sol.routes not in candidates:
                candidates.append(sol.routes)
        ub = saa_upper_bound(candidates, lam, inst)
        combined = math.hypot(lb.estimate.standard_error, ub.estimate.standard_error)
        margin = ub.estimate.mean + 2.0 * combined - lb.estimate.mean
        margins.append(margin)
        if margin >= 0.0:
            ordered += 1
    elapsed = time.perf_counter() - start
    assert ordered >= 4, f"ordering held on {ordered}/5, margins {margins}"
    assert elapsed < 600.0
    print(f"criterion 4: PASS - LB <= UB + 2se on {ordered}/5 instances in {elapsed:.1f}s")


def test_criterion_5_vss_positivity_trend():
    start = time.perf_counter()
    wins = 0
    pcts = []
    for idx in range(10):
        n = 8 if idx < 5 else 10
        seed = 500 + idx
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=3)
        candidates = []
        for k in range(2):
            delta = make_scenarios(inst, qmap, seed=gamma_seed(seed, k), count=3)
            built = construct_detailed(inst, delta).routes
            improved = tabu_improve(
                built, delta, TabuParams(iterations=60, stall_limit=30), inst
            )
            if improved.feasible and improved.routes not in candidates:
                candidates.append(improved.routes)
        assert candidates, f"seed {seed}: no feasible heuristic candidate"
        lam = sample_scenarios(inst, qmap, seed=lambda_seed(seed), count=200)
        evp = solve_evp(inst)
        scored = saa_upper_bound(candidates + [evp.routes], lam, inst)
        eev = scored.per_candidate[-1]
        h = min(scored.per_candidate[:-1])
        if h <= eev:
            wins += 1
        pcts.append(0.0 if eev == 0 else 100.0 * (eev - h) / eev)
    elapsed = time.perf_counter() - start
    mean_pct = math.fsum(pcts) / len(pcts)
    assert wins >= 8, f"H <= EEV on {wins}/10, pcts {pcts}"
    assert mean_pct > 0.0, f"mean VSS% {mean_pct} not positive: {pcts}"
    assert elapsed < 900.0
    print(
        f"criterion 5: PASS - H <= EEV on {wins}/10, mean VSS% {mean_pct:.2f} "
        f"in {elapsed:.1f}s"
    )


def test_criterion_6_gamma_sampler_moments():
    rng = np.random.default_rng(60406)
    mean = 40.0
    draws = rng.gamma(4.0, 0.25 * mean, size=1_000_000)
    mean_err = abs(float(draws.mean()) - mean) / mean
    std_err = abs(float(draws.std()) - 0.5 * mean) / (0.5 * mean)
    assert mean_err < 0.01
    assert std_err < 0.03
    print(
        f"criterion 6: PASS - 1e6 draws, mean off by {100 * mean_err:.3f}%, "
        f"std off by {100 * std_err:.3f}%"
    )


def test_criterion_7_tabu_discipline():
    params = TabuParams(iterations=40, stall_limit=40)
    worst = 0.0
    for seed in range(701, 731):
        inst, qmap = make_case(seed=seed, n_targets=20, vehicles=3)
        delta = make_scenarios(inst, qmap, seed=gamma_seed(seed, 0), count=3)
        run_start = time.perf_counter()
        start_routes = construct_detailed(inst, delta).routes
        res = tabu_improve(start_routes, delta, params, inst)
        run_elapsed = time.perf_counter() - run_start
        worst = max(worst, run_elapsed)
        assert run_elapsed < 60.0

        tenure = params.resolved_tenure(inst.n_targets)
        last_pick = {}
        for k, kind, move, _, aspiration in res.move_log:
            if kind != "move":
                continue
            if move in last_pick and not aspiration:
                assert k > last_pick[move] + tenure, f"seed {seed}: move {move} at {k}"
            last_pick[move] = k

        evaluator = TwoStageEvaluator(inst, delta)
        bare = start_routes.bare_sequences(inst)
        evaluator.calibrate(bare)
        snapshots = [evaluator.evaluate(bare).objective]
        snapshots.extend(obj for _, kind, _, obj, _ in res.move_log if kind == "reset")
        snapshots.append(res.objective)
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later <= earlier + 1e-9, f"seed {seed}: best increased"

        assert nominal_feasibility(res.routes, inst)
    print(f"criterion 7: PASS - 30/30 disciplined runs, slowest {worst:.1f}s")


def test_criterion_8_construction_formula_check():
    inst, qmap = make_case(seed=88, n_targets=6, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=8, count=3)
    res = construct_detailed(inst, delta)
    d, wc, ef = recompute_weights(inst, delta, res.scenario_solutions)
    assert np.allclose(res.weights.discount, d, atol=1e-9, rtol=0.0)
    assert np.allclose(res.weights.weighted_cost, wc, atol=1e-9, rtol=0.0)
    assert np.allclose(res.weights.expected_fuel, ef, atol=1e-9, rtol=0.0)
    print("criterion 8: PASS - discount, weighted-cost, and fuel tables match to 1e-9")


def test_criterion_9_pipeline_determinism(tmp_path):
    runner = CliRunner()

    def pipeline(root):
        os.makedirs(root, exist_ok=True)
        steps = [
            ["generate", "--seed", "3", "--targets", "5", "--vehicles", "2", "--out", root],
            [
                "scenarios",
                "--instance", os.path.join(root, "instance.json"),
                "--quadrants", os.path.join(root, "quadrants.json"),
                "--seed", "9", "--count", "4",
                "--out", os.path.join(root, "scenarios.json"),
            ],
            [
                "solve",
                "--instance", os.path.join(root, "instance.json"),
                "--quadrants", os.path.join(root, "quadrants.json"),
                "--mode", "saa", "--seed", "3",
                "--n", "2", "--m", "2", "--lambda", "50",
                "--out", root,
            ],
            [
                "report", os.path.join(root, "result.json"),
                "--format", "csv", "--out", os.path.join(root, "table.csv"),
            ],
        ]
        for step in steps:
            result = runner.invoke(cli_main, step)
            assert result.exit_code == 0, f"{step[0]}: {result.output}"

    one = str(tmp_path / "one")
    two = str(tmp_path / "two")
    pipeline(one)
    pipeline(two)
    compared = []
    for name in ("instance.json", "quadrants.json", "scenarios.json", "solution.json", "result.json", "table.csv"):
        a = open(os.path.join(one, name), "rb").read()
        b = open(os.path.join(two, name), "rb").read()
        assert a == b, f"{name} differs between identical-seed runs"
        compared.append(name)
    print(f"criterion 9: PASS - byte-identical across reruns: {', '.join(compared)}")
