"""Recourse evaluator: leg dynamic program against the subset enumeration
and the node sweep."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    make_case,
    mirrored_instance,
    off_triangle_instance,
    point_mass,
    random_realized_routes,
    square_instance,
)
from fcmurp import recourse
from fcmurp.detsolve import optimal_depot_insertion, solve_deterministic_greedy
from fcmurp.instgen import assign_quadrants, sample_scenarios
from fcmurp.model import RouteSet, Scenario, nominal_feasibility
from fcmurp.recourse import (
    BestDepotTable,
    LegMemo,
    evaluate_recourse,
    penalty,
)
from oracles import (
    leg_best_by_sweep,
    realized_routes,
    recourse_by_enumeration,
    route_beta,
    segments_feasible,
)


def scaled(instance, factor, sid=0):
    return Scenario(
        id=sid, probability=1.0, fuel=np.array(instance.nominal_fuel) * factor
    )


def seeded_triples(count, start=0):
    """Deterministic (instance, routes, scenario) sweep for oracle comparison."""
    made = 0
    seed = start
    while made < count:
        seed += 1
        n = 3 + seed % 4
        m = 1 + seed % 2
        if m > n:
            continue
        try:
            inst, qmap = make_case(seed=seed, n_targets=n, vehicles=m)
        except ValueError:
            continue
        sol = solve_deterministic_greedy(inst)
        if sol is None:
            continue
        scen = sample_scenarios(inst, qmap, seed=seed * 31 + 7, count=1)
        yield inst, sol.routes, scen.scenarios[0]
        made += 1


def test_dp_matches_oracle_bit_for_bit():
    for inst, routes, scenario in seeded_triples(60):
        fast = evaluate_recourse(routes, scenario, inst)
        slow = recourse_by_enumeration(routes, scenario, inst)
        assert fast.feasible == slow.feasible
        if fast.feasible:
            assert fast.beta == slow.beta
            assert fast.detoured_edges == slow.detoured_edges
            assert fast.inserted_depots == slow.inserted_depots
        else:
            assert math.isinf(fast.beta) and math.isinf(slow.beta)


def test_dp_matches_independent_enumeration():
    for inst, routes, scenario in seeded_triples(40, start=1000):
        fast = evaluate_recourse(routes, scenario, inst)
        ref = recourse_by_enumeration(routes, scenario, inst).beta
        if math.isinf(ref):
            assert not fast.feasible
        else:
            assert fast.feasible
            assert fast.beta == ref


def kernel_cases():
    """(instance, routes, scenario) at 5 to 20 targets, sampled fuel at 1.0x
    and 1.6x, a hopeless tank, the mirrored tie layout, and a depot pulled
    off the triangle inequality, where detours can pay on their own."""
    for seed, n in ((3, 5), (5, 8), (7, 12), (12, 20)):
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=3)
        routes = solve_deterministic_greedy(inst).routes
        for s in sample_scenarios(inst, qmap, seed=seed, count=8):
            for factor in (1.0, 1.6):
                yield inst, routes, Scenario(id=s.id, probability=1.0, fuel=s.fuel * factor)
        yield inst, routes, scaled(inst, 100.0)
    inst = mirrored_instance()
    for seq in ((2, 3, 4), (3, 2, 4), (4, 2, 3), (2, 4, 3)):
        routes = RouteSet((optimal_depot_insertion(seq, inst)[0],))
        for factor in (1.0, 1.2, 1.5, 2.0):
            yield inst, routes, scaled(inst, factor)
    # routes planned on the metric original fly past depot 1, so recourse
    # detours through it can pay even on legs that fit as planned
    inst = off_triangle_instance()
    routes = solve_deterministic_greedy(make_case(seed=5, n_targets=8, vehicles=3)[0]).routes
    for s in sample_scenarios(inst, assign_quadrants(inst, 5), seed=5, count=8):
        yield inst, routes, s
    for factor in (1.0, 1.6, 100.0):
        yield inst, routes, scaled(inst, factor)


def test_leg_labels_match_the_node_sweep_bit_for_bit(monkeypatch):
    fits = []
    check = recourse._direct_leg_fits

    def counted(*args):
        fits.append(check(*args))
        return fits[-1]

    monkeypatch.setattr(recourse, "_direct_leg_fits", counted)
    cases = list(kernel_cases())
    plans = []
    betas = []
    legs = voluntary = 0
    for inst, routes, scen in cases:
        table = BestDepotTable(scen.fuel, inst.n_depots)
        args = (table.fuel_rows, inst.cost_rows, inst.fuel_capacity, table.depot_of)
        nd = inst.n_depots
        as_planned = True
        for route in routes.routes:
            stops = [p for p, v in enumerate(route) if v < nd]
            for a, b in zip(stops, stops[1:]):
                got = recourse._leg_best(route, a, b, *args, nd)
                assert got == leg_best_by_sweep(route, a, b, *args, nd)
                as_planned &= check(route, a, b, table.fuel_rows, inst.fuel_capacity)
                legs += 1
        checks = len(fits)
        plans.append(evaluate_recourse(routes, scen, inst, table))
        betas.append([route_beta(r, scen, inst, table) for r in routes.routes])
        # the direct-leg shortcut is only tried where no detour can pay
        assert (len(fits) > checks) == (inst.min_detour_increment >= 0.0)
        if inst.min_detour_increment < 0.0 and as_planned and plans[-1].detoured_edges:
            voluntary += 1
    # the reference runs every leg through the node sweep, shortcut off
    monkeypatch.setattr(recourse, "_leg_best", leg_best_by_sweep)
    monkeypatch.setattr(recourse, "_direct_leg_fits", lambda *args: False)
    for (inst, routes, scen), plan, beta in zip(cases, plans, betas):
        ref = evaluate_recourse(routes, scen, inst)
        assert plan.detoured_edges == ref.detoured_edges
        assert plan.inserted_depots == ref.inserted_depots
        assert plan.beta == ref.beta
        assert plan.feasible == ref.feasible
        assert beta == [route_beta(r, scen, inst) for r in routes.routes]
        if inst.min_detour_increment < 0.0:
            assert plan.beta == recourse_by_enumeration(routes, scen, inst).beta
    assert legs > 200
    assert sum(bool(p.detoured_edges) for p in plans) > 10
    assert sum(not p.feasible for p in plans) > 4
    # off the triangle, plans detour on legs that fit as planned, where a
    # shortcut would have flown them direct
    assert voluntary > 0
    # the shortcut both fires and falls through to the DP
    assert fits.count(True) > 100 and fits.count(False) > 100


def test_leg_memo_matches_route_beta_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(61)
    cases = []
    for seed, n in ((3, 5), (7, 12), (12, 20)):
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=3)
        # usage-style discounts break the triangle inequality: detours can
        # pay, so the direct-leg shortcut is off
        discount = rng.uniform(0.3, 1.0, size=inst.cost.shape)
        discounted = dataclasses.replace(inst, cost=np.array(inst.cost) * discount)
        for case in (inst, discounted):
            cases.append((case, sample_scenarios(case, qmap, seed=seed, count=4)))
    off = off_triangle_instance()
    cases.append((off, sample_scenarios(off, assign_quadrants(off, 5), seed=5, count=4)))
    shortcut_off = infinite = detoured = 0
    for inst, sampled in cases:
        # 1.6x fuel leaves some legs unrecoverable, 100x all of them
        scenarios = [
            *sampled,
            *(Scenario(id=10 + s.id, probability=1.0, fuel=s.fuel * 1.6) for s in sampled),
            scaled(inst, 100.0, sid=99),
        ]
        tables = [BestDepotTable(s.fuel, inst.n_depots) for s in scenarios]
        memo = LegMemo(inst, scenarios)
        routes = list(random_realized_routes(inst, rng, 30))
        for route in routes:
            got = memo.route_betas(route)
            assert got == tuple(route_beta(route, s, inst, t) for s, t in zip(scenarios, tables))
            assert memo.route_betas(route) == got
            infinite += sum(math.isinf(b) for b in got[:-1])
            detoured += sum(0.0 < b < math.inf for b in got)
        legs = {r[a : b + 1] for r in routes for a, b in recourse._leg_bounds(r, inst.n_depots)}
        assert len(memo) == len(legs)
        shortcut_off += inst.min_detour_increment < 0.0
    assert shortcut_off >= 3
    assert infinite > 50 and detoured > 50
    # the memo calls the module's leg kernels as they are at call time
    calls = []

    def counted(*args):
        calls.append(args)
        return leg_best_by_sweep(*args)

    monkeypatch.setattr(recourse, "_leg_best", counted)
    monkeypatch.setattr(recourse, "_direct_leg_fits", lambda *args: False)
    memo = LegMemo(inst, scenarios)
    patched = [memo.route_betas(route) for route in routes]
    # with the shortcut off, one DP per (leg, scenario)
    assert len(calls) == len(legs) * len(scenarios)
    assert patched == [
        tuple(route_beta(route, s, inst, t) for s, t in zip(scenarios, tables))
        for route in routes
    ]


def test_point_mass_on_feasible_routes_needs_no_detour():
    inst, _ = make_case(seed=8, n_targets=5, vehicles=2)
    routes = solve_deterministic_greedy(inst).routes
    assert nominal_feasibility(routes, inst)
    plan = evaluate_recourse(routes, point_mass(inst).scenarios[0], inst)
    assert plan.feasible
    assert plan.beta == 0.0
    assert plan.detoured_edges == ()


def test_inflated_fuel_forces_detours_and_stays_walkable():
    inst, _ = make_case(seed=8, n_targets=6, vehicles=2)
    routes = solve_deterministic_greedy(inst).routes
    hit = False
    for factor in (1.2, 1.4, 1.6, 1.8, 2.0):
        s = scaled(inst, factor)
        plan = evaluate_recourse(routes, s, inst)
        if not plan.feasible:
            break
        realized = realized_routes(routes, plan)
        for seq in realized:
            assert segments_feasible(seq, s.fuel, inst)
        if plan.detoured_edges:
            hit = True
            assert plan.beta > 0.0
            # detours only split target-target edges
            for r, p in plan.detoured_edges:
                i, j = routes.routes[r][p], routes.routes[r][p + 1]
                assert inst.is_target(i) and inst.is_target(j)
    assert hit


def test_unrecoverable_scenario_is_flagged():
    inst, _ = make_case(seed=8, n_targets=4, vehicles=1)
    routes = solve_deterministic_greedy(inst).routes
    s = scaled(inst, 50.0)
    plan = evaluate_recourse(routes, s, inst)
    assert not plan.feasible
    assert math.isinf(plan.beta)
    slow = recourse_by_enumeration(routes, s, inst)
    assert not slow.feasible


def manual_best_depot(fuel, depots, i, j):
    """Cheapest entry-plus-exit depot of edge (i, j), ties to the smallest."""
    return min(depots, key=lambda d: (float(fuel[i, d]) + float(fuel[d, j]), d))


def test_best_depot_table_matches_manual_argmin():
    inst, qmap = make_case(seed=14, n_targets=5, vehicles=2)
    s = sample_scenarios(inst, qmap, seed=3, count=1).scenarios[0]
    table = BestDepotTable(s.fuel, inst.n_depots)
    n = inst.n_vertices
    for i in range(n):
        for j in range(n):
            assert table.depot_of(i, j) == manual_best_depot(s.fuel, inst.depot_indices, i, j)


def test_best_depot_tie_takes_smallest_index():
    inst = square_instance()
    fuel = np.full((4, 4), 2.0)
    np.fill_diagonal(fuel, 0.0)
    table = BestDepotTable(fuel, inst.n_depots)
    assert table.depot_of(2, 3) == 0  # depots 0 and 1 tie at 4.0
    for i in range(4):
        for j in range(4):
            assert table.depot_of(i, j) == manual_best_depot(fuel, inst.depot_indices, i, j)


def test_on_demand_best_depots_match_the_numpy_argmin():
    inst, qmap = make_case(seed=14, n_targets=6, vehicles=2)
    n, nd = inst.n_vertices, inst.n_depots
    scenarios = list(sample_scenarios(inst, qmap, seed=3, count=3))
    # an exact tie in through-fuel between depots 1 and 3 on edge (t, u),
    # with depot 2 cheaper into t but dearer out of it
    t, u = nd, nd + 1
    fuel = scenarios[0].fuel.copy()
    fuel[t, 1], fuel[1, u] = 10.0, 20.0
    fuel[t, 3], fuel[3, u] = 20.0, 10.0
    fuel[t, 2], fuel[2, u] = 5.0, 40.0
    for d in (0, 4):
        fuel[t, d] = fuel[d, u] = 50.0
    scenarios.append(Scenario(id=9, probability=1.0, fuel=fuel))
    for s in scenarios:
        lazy = BestDepotTable(s.fuel, nd)
        for i in range(n):
            for j in range(n):
                assert lazy.depot_of(i, j) == manual_best_depot(s.fuel, range(nd), i, j), (i, j)
    assert lazy.depot_of(t, u) == 1


def test_route_beta_agrees_with_plan_total():
    inst, qmap = make_case(seed=21, n_targets=6, vehicles=2)
    routes = solve_deterministic_greedy(inst).routes
    for s in sample_scenarios(inst, qmap, seed=5, count=4):
        plan = evaluate_recourse(routes, s, inst)
        per_route = [route_beta(r, s, inst) for r in routes.routes]
        if plan.feasible:
            assert math.fsum(per_route) == pytest.approx(plan.beta, abs=1e-9)
        else:
            assert any(math.isinf(b) for b in per_route)


def test_evaluators_refuse_a_table_of_another_scenario():
    inst, qmap = make_case(seed=21, n_targets=6, vehicles=2)
    routes = solve_deterministic_greedy(inst).routes
    first, second = sample_scenarios(inst, qmap, seed=5, count=2)
    table = BestDepotTable(first.fuel, inst.n_depots)
    with pytest.raises(ValueError, match="another realization"):
        evaluate_recourse(routes, second, inst, table)
    # an equal realization in another array fits the same table
    twin = dataclasses.replace(first, fuel=first.fuel.copy())
    assert evaluate_recourse(routes, twin, inst, table) == evaluate_recourse(routes, first, inst)


def test_penalty_policy_dominates_observed_betas():
    inst, _ = make_case(seed=8, n_targets=5, vehicles=2)
    nu = penalty(inst, [3.0, 11.5, math.inf])
    round_trips = 2.0 * math.fsum(
        float(inst.cost[0, t]) + float(inst.cost[t, 0]) for t in inst.target_indices
    )
    assert nu == 11.5 + round_trips
    assert penalty(inst, []) == round_trips


def test_recourse_surface_is_pinned():
    assert list(inspect.signature(penalty).parameters) == ["instance", "betas"]
    for gone in ("precompute_best_depot", "PenaltyPolicy", "recourse_oracle"):
        assert not hasattr(recourse, gone)
    assert not hasattr(BestDepotTable, "depot")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000), factor=st.sampled_from(
    [1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 3.0]
))
def test_dp_oracle_agreement_property(seed, factor):
    n = 3 + seed % 3
    try:
        inst, _ = make_case(seed=seed, n_targets=n, vehicles=1 + seed % 2)
    except ValueError:
        return
    sol = solve_deterministic_greedy(inst)
    if sol is None:
        return
    s = scaled(inst, factor)
    fast = evaluate_recourse(sol.routes, s, inst)
    slow = recourse_by_enumeration(sol.routes, s, inst)
    assert fast.feasible == slow.feasible
    if fast.feasible:
        assert fast.beta == slow.beta
