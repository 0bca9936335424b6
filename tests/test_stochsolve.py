"""Sampled two-stage solving, bound estimators, and the VSS pipeline."""

import dataclasses
import itertools
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from conftest import (
    make_case,
    make_scenarios,
    mirrored_instance,
    point_mass,
    square_instance,
)
from fcmurp import instgen
from fcmurp.detsolve import (
    EXACT_TARGET_LIMIT,
    optimal_depot_insertion,
    solve_deterministic_exact,
    solve_deterministic_greedy,
)
from fcmurp.instgen import ScenarioStream, sample_scenarios
from fcmurp.model import RouteSet, Scenario, ScenarioSet, route_cost
from fcmurp.recourse import BestDepotTable, LegMemo, evaluate_recourse
from fcmurp.stochsolve import (
    BoundEstimate,
    SaaConfig,
    _pattern_score,
    SaaReport,
    gamma_seed,
    lambda_seed,
    saa_lower_bound,
    saa_upper_bound,
    solve_evp,
    solve_saa_problem,
)
from oracles import best_pattern_by_enumeration, enumerate_saa, recourse_by_enumeration


def plan_value(routes, gamma, instance):
    """Plan-level recomputation of the sampled objective, library fold order."""
    value = route_cost(routes, instance)
    for s in gamma:
        value += s.probability * evaluate_recourse(routes, s, instance).beta
    return value


def test_sampled_solver_matches_double_enumeration():
    for seed, n, m in ((5, 3, 1), (6, 3, 2), (7, 4, 2)):
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=m)
        gamma = make_scenarios(inst, qmap, seed=seed + 50, count=2)
        sol = solve_saa_problem(inst, gamma)
        ref = enumerate_saa(
            inst, gamma, lambda routes, s: recourse_by_enumeration(routes, s, inst).beta
        )
        assert sol is not None and ref is not None
        assert sol.value == pytest.approx(ref[1], abs=1e-9)
        assert sol.value == pytest.approx(plan_value(sol.routes, gamma, inst), abs=1e-12)


def check_pattern_search(seq, inst, gamma):
    """Pattern search vs enumeration: exact value, attaining route, tie-break.

    The search scores the deterministic optimum first and then accepts only
    strict improvements in enumeration order, so among tied optima it keeps
    the deterministic pattern if that ties, else the first one enumerated.
    Returns the number of tied optima (0 when nothing is recoverable).
    """
    tables = tuple(BestDepotTable(s.fuel, inst.n_depots) for s in gamma)
    got = _pattern_score(seq, LegMemo(inst, gamma))
    ref = best_pattern_by_enumeration(seq, inst, gamma, tables)
    if ref is None:
        assert got is None
        return 0
    assert got is not None
    realized, value = got
    assert value == ref[0]
    assert realized in ref[1]
    base = optimal_depot_insertion(seq, inst)[0]
    assert realized == (base if base in ref[1] else ref[1][0])
    return len(ref[1])


def test_pattern_search_matches_pattern_enumeration_exactly():
    rng = np.random.default_rng(2024)
    scored = 0
    for seed, vehicles in ((5, 1), (9, 2), (21, 1), (33, 2)):
        inst, qmap = make_case(seed=seed, n_targets=5, vehicles=vehicles)
        samples = [point_mass(inst)] + [
            make_scenarios(inst, qmap, seed=seed + 100 * count, count=count)
            for count in (1, 2, 3)
        ]
        for gamma in samples:
            for length in (2, 3, 4):
                seq = tuple(int(t) for t in rng.permutation(inst.target_indices)[:length])
                scored += check_pattern_search(seq, inst, gamma) > 0
    assert scored > 0


def test_pattern_search_keeps_the_tie_break_on_a_symmetric_layout():
    inst = mirrored_instance()
    ties = 0
    for scale in (1.0, 1.2):
        gamma = point_mass(inst, scale=scale)
        for length in (2, 3):
            for seq in itertools.permutations(inst.target_indices, length):
                ties += check_pattern_search(seq, inst, gamma) > 1
    assert ties > 0


def test_point_mass_sample_reduces_to_the_deterministic_problem():
    for seed in (3, 8):
        inst, _ = make_case(seed=seed, n_targets=5, vehicles=2)
        gamma = point_mass(inst)
        sol = solve_saa_problem(inst, gamma)
        det = solve_deterministic_exact(inst)
        assert sol.value == pytest.approx(det.cost, abs=1e-9)
        plan = evaluate_recourse(sol.routes, next(iter(gamma)), inst)
        assert plan.beta == 0.0


def test_duplicate_scenarios_do_not_change_the_optimum():
    inst, qmap = make_case(seed=4, n_targets=4, vehicles=2)
    base = make_scenarios(inst, qmap, seed=2, count=1)
    s = next(iter(base))
    doubled = ScenarioSet(
        (
            Scenario(id=0, probability=0.5, fuel=np.array(s.fuel)),
            Scenario(id=1, probability=0.5, fuel=np.array(s.fuel)),
        ),
        label="doubled",
    )
    one = solve_saa_problem(inst, base)
    two = solve_saa_problem(inst, doubled)
    assert two.value == pytest.approx(one.value, abs=1e-9)
    assert two.routes.canonical() == one.routes.canonical()


def test_sampled_solver_returns_none_when_nothing_is_recoverable():
    inst = square_instance(vehicles=2)
    gamma = point_mass(inst, scale=100.0)
    assert solve_saa_problem(inst, gamma) is None


def test_sampled_solver_rejects_non_metric_costs():
    base = square_instance()
    cost = np.array(base.cost)
    cost[0, 2] = cost[2, 0] = 100.0
    inst = dataclasses.replace(base, cost=cost)
    assert not inst.metric
    with pytest.raises(ValueError, match="metric"):
        solve_saa_problem(inst, point_mass(inst))


def test_sampled_solver_rejects_surplus_vehicles():
    inst, _ = make_case(seed=4, n_targets=3, vehicles=2)
    object.__setattr__(inst, "vehicles", 4)
    with pytest.raises(ValueError, match="vehicles"):
        solve_saa_problem(inst, point_mass(inst))


def test_seed_streams_are_disjoint_and_deterministic():
    for seed in range(0, 100, 7):
        lam = lambda_seed(seed)
        gammas = [gamma_seed(seed, k) for k in range(50)]
        assert len(set(gammas)) == 50
        assert lam not in gammas
    assert gamma_seed(3, 0) == gamma_seed(3, 0)
    assert gamma_seed(3, 0) != gamma_seed(4, 0)


def test_bound_estimate_statistics_match_the_stdlib():
    values = [12.5, 9.75, 11.0, 10.25]
    est = BoundEstimate(values, label="x")
    assert est.mean == pytest.approx(statistics.fmean(values), abs=1e-12)
    assert est.dispersion == pytest.approx(statistics.variance(values), abs=1e-12)
    assert est.standard_error == pytest.approx(
        math.sqrt(statistics.variance(values) / 4), abs=1e-12
    )
    assert est.values == tuple(values)
    flat = BoundEstimate([5.0, 5.0, 5.0])
    assert flat.dispersion == 0.0
    assert flat.standard_error == 0.0
    single = BoundEstimate([2.0])
    assert single.dispersion == 0.0
    with pytest.raises(ValueError):
        BoundEstimate(())


def test_bound_estimate_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(BoundEstimate)] == ["values", "label"]


def test_saa_config_is_validated():
    with pytest.raises(ValueError):
        SaaConfig(replications=1)
    with pytest.raises(ValueError):
        SaaConfig(sample_size=0)


def test_lower_bound_replication_arithmetic_and_determinism():
    inst, qmap = make_case(seed=4, n_targets=4, vehicles=1)
    config = SaaConfig(replications=3, sample_size=2, seed=9)
    res = saa_lower_bound(inst, qmap, config)
    assert len(res.solutions) == 3
    assert res.gamma_seeds == tuple(gamma_seed(9, k) for k in range(3))
    assert res.estimate.values == tuple(s.value for s in res.solutions)
    assert res.estimate.mean == pytest.approx(
        math.fsum(res.estimate.values) / 3, abs=1e-12
    )
    assert res.estimate.label == "gamma:seed=9:N=3:M=2"
    again = saa_lower_bound(inst, qmap, config)
    assert again.estimate == res.estimate


def test_upper_bound_picks_the_cheapest_candidate():
    inst, qmap = make_case(seed=13, n_targets=5, vehicles=2)
    lam = make_scenarios(inst, qmap, seed=lambda_seed(13), count=40)
    evp = solve_evp(inst).routes
    alt = solve_saa_problem(inst, make_scenarios(inst, qmap, seed=gamma_seed(13, 0), count=3)).routes
    res = saa_upper_bound([evp, alt], lam, inst)
    assert len(res.per_candidate) == 2
    assert res.estimate.mean == min(res.per_candidate)
    assert res.per_candidate[res.index] == res.estimate.mean
    assert res.routes in (evp, alt)
    assert len(res.estimate.values) == len(lam)
    assert res.estimate.label == lam.label
    # winner's per-scenario values recompute from first principles
    stage1 = route_cost(res.routes, inst)
    for k, s in enumerate(lam):
        beta = evaluate_recourse(res.routes, s, inst).beta
        assert math.isfinite(beta)
        assert res.estimate.values[k] == pytest.approx(stage1 + beta, abs=1e-9)
    assert res.penalized_scenarios == 0


def test_upper_bound_charges_the_penalty_for_unrecoverable_scenarios():
    inst = square_instance(vehicles=2)
    routes = RouteSet(((0, 2, 0), (0, 3, 0)))
    nominal = np.array(inst.nominal_fuel)
    lam = ScenarioSet(
        (
            Scenario(id=0, probability=0.5, fuel=nominal.copy()),
            Scenario(id=1, probability=0.5, fuel=nominal * 100.0),
        ),
        label="half-bad",
    )
    res = saa_upper_bound([routes], lam, inst)
    assert res.penalized_scenarios == 1
    stage1 = route_cost(routes, inst)
    # calibrated penalty: no observed detour cost, so twice the home round trips
    expected_nu = 2.0 * math.fsum(
        float(inst.cost[0, t]) + float(inst.cost[t, 0]) for t in inst.target_indices
    )
    assert res.estimate.values == (stage1, stage1 + expected_nu)


def test_eev_is_the_single_candidate_out_of_sample_cost():
    inst, qmap = make_case(seed=13, n_targets=4, vehicles=2)
    lam = make_scenarios(inst, qmap, seed=lambda_seed(5), count=25)
    evp = solve_evp(inst)
    alone = saa_upper_bound([evp.routes], lam, inst)
    assert alone.reference is None
    joint = saa_upper_bound([evp.routes], lam, inst, reference=evp.routes)
    assert joint.reference == alone.estimate == joint.estimate
    assert joint.penalty == alone.penalty
    assert joint.recourse_shares == alone.recourse_shares * 2
    # a reference changes neither the candidates' scores nor the choice
    alt = solve_saa_problem(inst, make_scenarios(inst, qmap, seed=gamma_seed(5, 0), count=3))
    scored = saa_upper_bound([alt.routes], lam, inst, reference=evp.routes)
    assert scored.penalized_scenarios == 0
    assert scored.reference == alone.estimate
    assert scored.estimate == saa_upper_bound([alt.routes], lam, inst).estimate


def test_a_reference_equal_to_a_candidate_up_to_route_order_shares_its_score():
    # seed 21: folding the EV routes in the other route order moves the
    # out-of-sample mean by one ulp, so scoring both would split them
    inst, qmap = make_case(seed=21, n_targets=5, vehicles=2)
    lam = make_scenarios(inst, qmap, seed=21, count=20)
    evp = solve_evp(inst).routes
    permuted = RouteSet(tuple(reversed(evp.routes)))
    assert permuted != evp and permuted.canonical() == evp.canonical()
    res = saa_upper_bound([permuted], lam, inst, reference=evp)
    assert res.reference == res.estimate
    assert res.reference.mean == res.estimate.mean
    assert res.recourse_shares == (res.recourse_shares[0],) * 2
    assert res.recourse_shares[0] > 0.0


def bound_bits(res):
    """Every number an upper-bound pass reports, floats as ``float.hex``."""
    estimates = [res.estimate, *([] if res.reference is None else [res.reference])]
    return (
        res.routes,
        res.index,
        [[v.hex() for v in est.values] for est in estimates],
        [est.label for est in estimates],
        [m.hex() for m in res.per_candidate],
        res.penalty.hex(),
        [share.hex() for share in res.recourse_shares],
        res.penalized_scenarios,
        res.scored_route_sets,
    )


@pytest.mark.parametrize("walk_share", [instgen.LOCKSTEP_MEMORY_SHARE, math.inf])
def test_upper_bound_over_a_stream_equals_the_pass_over_the_set(monkeypatch, walk_share):
    # seed 0 at 4 targets: the EV routes leave some scenarios unrecoverable
    monkeypatch.setattr(instgen, "LOCKSTEP_MEMORY_SHARE", walk_share)
    inst, qmap = make_case(seed=0, n_targets=4, vehicles=2)
    evp = solve_evp(inst).routes
    alt = solve_saa_problem(inst, make_scenarios(inst, qmap, seed=gamma_seed(0, 0), count=3)).routes
    seed = lambda_seed(0)
    whole = saa_upper_bound([alt], sample_scenarios(inst, qmap, seed, 300), inst, reference=evp)
    stream = ScenarioStream(inst, qmap, seed, 300)
    streamed = saa_upper_bound([alt], stream, inst, reference=evp)
    assert whole.penalized_scenarios > 0
    assert bound_bits(streamed) == bound_bits(whole)
    assert stream.rejections == sample_scenarios(inst, qmap, seed, 300).rejections


def test_upper_bound_over_a_stream_holds_no_sample():
    # 2,000 scenarios of a 20-target instance hold 10 MB of fuel matrices
    inst, qmap = make_case(seed=12, n_targets=20, vehicles=3)
    routes = solve_evp(inst).routes
    seed, count = lambda_seed(0), 2_000
    limit = count * inst.nominal_fuel.nbytes / 4

    def peak(draw):
        tracemalloc.start()
        try:
            saa_upper_bound([routes], draw(inst, qmap, seed, count), inst)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(ScenarioStream) < limit
    # the same pass over the set drawn whole: the check can fail
    assert peak(sample_scenarios) > limit


def test_evp_engines_agree_and_validate():
    inst, _ = make_case(seed=13, n_targets=5, vehicles=2)
    exact = solve_evp(inst)
    assert exact == solve_deterministic_exact(inst)
    greedy = solve_deterministic_greedy(inst)
    assert greedy.cost >= exact.cost - 1e-9
    large, _ = make_case(seed=13, n_targets=EXACT_TARGET_LIMIT + 1, vehicles=2)
    assert solve_evp(large) == solve_deterministic_greedy(large)
    laxer = solve_evp(inst, mean_fuel=np.array(inst.nominal_fuel) * 0.5)
    assert laxer.cost <= exact.cost + 1e-9
    with pytest.raises(RuntimeError):
        solve_evp(inst, mean_fuel=np.array(inst.nominal_fuel) * 100.0)


def test_lower_bound_stays_below_the_upper_bound_on_a_small_case():
    inst, qmap = make_case(seed=27, n_targets=4, vehicles=2)
    config = SaaConfig(replications=3, sample_size=2, seed=27)
    lb = saa_lower_bound(inst, qmap, config)
    lam = make_scenarios(inst, qmap, seed=lambda_seed(27), count=60)
    candidates = [s.routes for s in lb.solutions]
    ub = saa_upper_bound(candidates, lam, inst)
    spread = 4.0 * math.hypot(lb.estimate.standard_error, ub.estimate.standard_error)
    assert lb.estimate.mean <= ub.estimate.mean + spread + 1e-9


def frozen_estimate(mean, label):
    return BoundEstimate(values=(mean,), label=label)


def reference_report(eev=513.20, ub=455.24, h=477.68, label="lambda:seed=1:count=2000"):
    return SaaReport(
        instance_name="ref",
        ev=430.0,
        ev_optimal=True,
        eev=frozen_estimate(eev, label),
        lb=None,
        ub=None if ub is None else frozen_estimate(ub, label),
        h=None if h is None else frozen_estimate(h, label),
        solution=RouteSet(((0, 1, 0),)),
    )


def test_vss_arithmetic_on_reference_values():
    report = reference_report()
    assert report.vss == pytest.approx(513.20 - 455.24, abs=1e-9)
    assert report.vss_pct == pytest.approx(100.0 * (513.20 - 455.24) / 513.20, abs=1e-9)
    only_h = reference_report(ub=None)
    assert only_h.vss == pytest.approx(513.20 - 477.68, abs=1e-9)


def test_vss_refuses_mixed_samples_and_missing_estimates():
    mixed = reference_report()
    with pytest.raises(ValueError, match="mixed-sample"):
        SaaReport(
            instance_name=mixed.instance_name,
            ev=mixed.ev,
            ev_optimal=mixed.ev_optimal,
            eev=mixed.eev,
            lb=None,
            ub=frozen_estimate(455.24, "lambda:seed=2:count=2000"),
            h=None,
            solution=mixed.solution,
        )
    missing = reference_report(ub=None, h=None)
    assert missing.vss is None and missing.vss_pct is None
    zeroed = reference_report(eev=0.0, ub=0.0, h=None)
    assert (zeroed.vss, zeroed.vss_pct) == (0.0, 0.0)


def test_report_vss_takes_the_better_of_ub_and_h():
    label = "lambda:seed=1:count=2000"
    rep = SaaReport(
        instance_name="ref",
        ev=430.0,
        ev_optimal=True,
        eev=frozen_estimate(513.20, label),
        lb=None,
        ub=frozen_estimate(455.24, label),
        h=frozen_estimate(477.68, label),
        solution=RouteSet(((0, 1, 0),)),
    )
    assert rep.vss == pytest.approx(57.96, abs=1e-9)
    assert rep.vss_pct == pytest.approx(100.0 * 57.96 / 513.20, abs=1e-6)
    assert rep.ev == 430.0
    assert rep.instance_name == "ref"
