"""Deterministic solvers: insertion DP, branch and bound, greedy."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    make_case,
    make_scenarios,
    mirrored_instance,
    off_triangle_instance,
    tight_layouts,
)
from fcmurp import detsolve
from fcmurp.detsolve import (
    EXACT_TARGET_LIMIT,
    branching_order,
    optimal_depot_insertion,
    solve_deterministic,
    solve_deterministic_exact,
    solve_deterministic_greedy,
)
from fcmurp.heuristics import construct_detailed, construction_weights
from fcmurp.instgen import GenConfig, generate_instance
from fcmurp.model import RouteSet, make_instance, nominal_feasibility, route_cost
from fcmurp.stochsolve import SaaSolution, gamma_seed, solve_evp, solve_saa_problem
from oracles import (
    assignment_by_enumeration,
    best_insertion,
    depot_insertion_by_sweep,
    enumerate_deterministic,
)


def exact_cases(count, start=0, max_targets=5, max_vehicles=2):
    made = 0
    seed = start
    while made < count:
        seed += 1
        n = 3 + seed % (max_targets - 2)
        m = 1 + seed % max_vehicles
        if m > n:
            continue
        try:
            inst, _ = make_case(seed=seed, n_targets=n, vehicles=m)
        except ValueError:
            continue
        yield inst
        made += 1


def test_branching_order_sorts_by_distance_then_id():
    inst, _ = make_case(seed=6, n_targets=5, vehicles=2)
    order = branching_order(inst)
    costs = [float(inst.cost[0, t]) for t in order]
    assert costs == sorted(costs, reverse=True)
    assert set(order) == set(inst.target_indices)
    # force an exact tie and check the id break
    c = np.array(inst.cost)
    t0, t1 = order[0], order[1]
    c[0, t1] = c[0, t0]
    tied = dataclasses.replace(inst, cost=c)
    tied_order = branching_order(tied)
    assert tied_order.index(min(t0, t1)) < tied_order.index(max(t0, t1))


def test_insertion_dp_matches_enumeration():
    checked = 0
    for inst in exact_cases(8):
        targets = list(inst.target_indices)
        for size in (1, 2, 3, 4):
            # a 4-target sequence has 6^5 patterns: check every 24th order
            stride = 24 if size == 4 else 1
            orders = itertools.permutations(targets[: size + 1], size)
            for seq in itertools.islice(orders, 0, None, stride):
                fast = optimal_depot_insertion(seq, inst)
                slow = best_insertion(seq, inst)
                checked += 1
                if fast is None:
                    assert slow is None
                else:
                    assert slow is not None
                    assert fast[0] == slow[0]
                    assert fast[1] == slow[1]
    assert checked > 100


def discounted_problem(inst, qmap, seed):
    """Construction's final problem: usage-discounted costs, expected fuel."""
    delta = make_scenarios(inst, qmap, seed=seed, count=3)
    solutions = []
    for s in delta:
        sol = solve_deterministic_greedy(dataclasses.replace(inst, nominal_fuel=s.fuel))
        solutions.append((s.id, None if sol is None else sol.routes))
    weights = construction_weights(inst, delta, solutions)
    return dataclasses.replace(
        inst, cost=weights.weighted_cost, nominal_fuel=weights.expected_fuel
    )


def test_insertion_labels_match_the_node_sweep_bit_for_bit(monkeypatch):
    shortcuts = []
    check = detsolve.route_fits

    def counted(*args):
        shortcuts.append(check(*args))
        return shortcuts[-1]

    monkeypatch.setattr(detsolve, "route_fits", counted)
    rng = np.random.default_rng(44)
    found = missing = 0
    discounted = 0
    cases = []
    for seed, n in ((3, 5), (5, 8), (7, 12), (12, 20)):
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=3)
        nominal = np.array(inst.nominal_fuel)
        problems = [
            inst,
            discounted_problem(inst, qmap, seed),
            dataclasses.replace(inst, nominal_fuel=nominal * 1.6),
            dataclasses.replace(inst, nominal_fuel=nominal * 100.0),
        ]
        discounted += problems[1].min_detour_increment < 0.0
        cases.append((inst, problems))
    # a depot off the triangle inequality: insertions can pay on their own
    off_triangle = off_triangle_instance()
    off_nominal = np.array(off_triangle.nominal_fuel)
    off_problems = [
        off_triangle,
        dataclasses.replace(off_triangle, nominal_fuel=off_nominal * 1.6),
    ]
    cases.append((off_triangle, off_problems))
    for inst, problems in cases:
        n = inst.n_targets
        targets = np.array(inst.target_indices)
        for problem in problems:
            checks = len(shortcuts)
            for _ in range(80):
                length = int(rng.integers(1, min(n, 9) + 1))
                seq = tuple(int(t) for t in rng.permutation(targets)[:length])
                got = optimal_depot_insertion(seq, problem)
                assert got == depot_insertion_by_sweep(seq, problem)
                found += got is not None
                missing += got is None
            # the shortcut is only tried where no insertion can pay
            assert (len(shortcuts) > checks) == (problem.min_detour_increment >= 0.0)
    mirrored = mirrored_instance()
    for scale in (1.0, 1.2, 1.5):
        problem = dataclasses.replace(
            mirrored, nominal_fuel=np.array(mirrored.nominal_fuel) * scale
        )
        for length in (1, 2, 3):
            for seq in itertools.permutations(mirrored.target_indices, length):
                assert optimal_depot_insertion(seq, problem) == depot_insertion_by_sweep(
                    seq, problem
                )
    assert off_triangle.min_detour_increment < 0.0
    assert discounted == 4
    assert found > 600 and missing > 80
    # the bare route both fits and fails often enough to test each branch
    assert shortcuts.count(True) > 100 and shortcuts.count(False) > 100


def one_ulp_tie_problem(scale):
    """Two labels one ulp apart that tie after a later fold.

    Home 0, refuel depots 1 and 2, targets 3 and 4, route 0-3-4-0, tank 10.
    The bare route dies at target 3 (9.5 burnt, no reserve left), so the
    first edge must detour: through depot 2 the delta is exactly 2.0, through
    depot 1 it is 2.0 + 2**-51, one ulp more, at the same fuel. Edge 3-4 is
    too long to fly direct, and its detours add 8.0 - 1.0 to both; at 10.0
    the ulp is rounded away, so both labels tie and depot 1's pattern, the
    smaller one, must win. A dominance rule without rounding slack drops the
    depot-1 label at the first edge and returns the depot-2 route instead.
    Costs are multiplied by a power of two ``scale``, which keeps every
    value exact up to the same rounding, so a slack that does not grow
    with the costs fails at the larger scales.
    """
    inst = make_instance(
        target_coords=[(3.0, 0.0), (4.0, 0.0)],
        refuel_coords=[(1.0, 0.0), (2.0, 0.0)],
        home_coord=(0.0, 0.0),
        vehicles=1,
    )
    cost = np.full((5, 5), 4.0)
    np.fill_diagonal(cost, 0.0)
    cost[0, 3] = cost[3, 4] = 1.0
    cost[0, 1] = cost[0, 2] = 1.0
    cost[1, 3] = 2.0 + 2.0**-51
    cost[2, 3] = 2.0
    fuel = np.ones((5, 5))
    np.fill_diagonal(fuel, 0.0)
    fuel[0, 3] = fuel[3, 4] = 9.5
    return dataclasses.replace(inst, cost=cost * scale, nominal_fuel=fuel, fuel_capacity=10.0)


@pytest.mark.parametrize("scale", [1.0, 2.0**20, 2.0**40])
def test_insertion_keeps_a_label_that_ties_only_after_rounding(scale):
    problem = one_ulp_tie_problem(scale)
    got = optimal_depot_insertion((3, 4), problem)
    assert got == depot_insertion_by_sweep((3, 4), problem)
    assert got[0] == (0, 1, 3, 0, 4, 0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.sampled_from([1.0, 1e3, 1e6]),
    factor=st.sampled_from([1.0, 1.6]),
)
def test_insertion_matches_the_sweep_on_non_metric_costs(seed, scale, factor):
    # small integer costs nudged by a few ulps, so labels tie or nearly tie
    inst, _ = make_case(seed=seed % 50, n_targets=6, vehicles=2)
    rng = np.random.default_rng(seed)
    n = inst.n_vertices
    nudge = 1.0 + rng.choice([0.0, 0.0, 2.0**-52, -(2.0**-53), 2.0**-51], size=(n, n))
    cost = scale * rng.integers(1, 6, size=(n, n)) * nudge
    problem = dataclasses.replace(
        inst, cost=cost, nominal_fuel=np.array(inst.nominal_fuel) * factor
    )
    targets = np.array(inst.target_indices)
    for _ in range(15):
        length = int(rng.integers(1, n - inst.n_depots + 1))
        seq = tuple(int(t) for t in rng.permutation(targets)[:length])
        assert optimal_depot_insertion(seq, problem) == depot_insertion_by_sweep(seq, problem)


def test_overridden_problems_keep_their_own_insertion_memo():
    inst, qmap = make_case(seed=7, n_targets=12, vehicles=3)
    rng = np.random.default_rng(8)
    targets = np.array(inst.target_indices)
    seqs = {
        tuple(int(t) for t in rng.permutation(targets)[: int(rng.integers(1, 10))])
        for _ in range(60)
    }
    for seq in seqs:
        assert optimal_depot_insertion(seq, inst) == depot_insertion_by_sweep(seq, inst)
    filled = dict(inst.insertions)
    assert set(filled) == seqs
    overridden = (
        dataclasses.replace(inst),
        dataclasses.replace(inst, nominal_fuel=np.array(inst.nominal_fuel) * 1.6),
        dataclasses.replace(inst, cost=np.array(inst.cost) * 2.0),
        discounted_problem(inst, qmap, 7),
    )
    differ = 0
    for problem in overridden:
        for seq in seqs:
            got = optimal_depot_insertion(seq, problem)
            assert got == depot_insertion_by_sweep(seq, problem)
            differ += got != filled[seq]
        assert set(problem.insertions) == seqs
    assert inst.insertions == filled
    assert differ > 100
    # solving the instance fills its own memo
    greedy = solve_deterministic_greedy(inst)
    assert greedy == solve_deterministic_greedy(dataclasses.replace(inst))
    assert len(inst.insertions) > len(filled)


def test_insertion_rejects_empty_sequence():
    inst, _ = make_case(seed=6, n_targets=4, vehicles=1)
    with pytest.raises(ValueError):
        optimal_depot_insertion((), inst)


def test_insertion_returns_none_when_capacity_is_hopeless():
    inst, _ = make_case(seed=6, n_targets=4, vehicles=1)
    problem = dataclasses.replace(inst, nominal_fuel=np.array(inst.nominal_fuel) * 100.0)
    seq = tuple(inst.target_indices)[:2]
    assert optimal_depot_insertion(seq, problem) is None


def test_exact_matches_enumeration_with_ties():
    # Route-set enumeration is scored with the insertion solver, which the
    # dedicated DP-vs-pattern test above verifies independently; the full
    # doubled check below covers both layers at once on tiny cases.
    for inst in exact_cases(10):
        sol = solve_deterministic_exact(inst)
        ref = enumerate_deterministic(
            inst, score=lambda seq: optimal_depot_insertion(seq, inst)
        )
        if sol is None:
            assert ref is None
            continue
        assert ref is not None
        ref_routes, ref_total = ref
        assert sol.cost == pytest.approx(ref_total, abs=1e-6)
        assert sol.cost == ref_total
        assert sol.routes.canonical().routes == tuple(sorted(ref_routes))
        assert sol.optimal


def test_exact_matches_full_double_enumeration():
    # Both layers brute forced: every route set and every depot pattern.
    for seed, n, m in ((21, 3, 1), (22, 4, 1), (23, 4, 2)):
        inst, _ = make_case(seed=seed, n_targets=n, vehicles=m)
        sol = solve_deterministic_exact(inst)
        ref = enumerate_deterministic(inst)
        assert sol is not None and ref is not None
        assert sol.cost == ref[1]
        assert sol.routes.canonical().routes == tuple(sorted(ref[0]))


def test_exact_matches_enumeration_where_insertions_pay():
    # Discounted and off-triangle costs, where a depot detour can cost less
    # than the edge it replaces, so edge floors fall below the costs.
    problems = []
    for seed in range(1, 13):
        inst, qmap = make_case(seed=seed, n_targets=3 + seed % 4, vehicles=1 + seed % 3)
        problems.append(discounted_problem(inst, qmap, seed))
    off_triangle = off_triangle_instance()
    problems.append(off_triangle)
    problems.append(
        dataclasses.replace(off_triangle, nominal_fuel=np.array(off_triangle.nominal_fuel) * 1.6)
    )
    below = 0
    for problem in problems:
        floor = problem.edge_floor_rows
        below += floor != problem.cost_rows
        for u, w in itertools.permutations(range(problem.n_vertices), 2):
            direct, detours = problem.detour_options(u, w)
            assert floor[u][w] == min([direct, *(via for _, _, via in detours)])
        sol = solve_deterministic_exact(problem)
        ref = enumerate_deterministic(
            problem, score=lambda seq: optimal_depot_insertion(seq, problem)
        )
        if sol is None:
            assert ref is None
            continue
        assert ref is not None
        assert sol.cost == ref[1]
        assert sol.routes.canonical().routes == tuple(sorted(ref[0]))
        assert sol.optimal
    assert below == len(problems)


def test_discounted_construction_solves_prune_to_few_nodes():
    # a bound that budgets one worst-case insertion per edge instead of
    # pricing edges at their floors takes about 300,000 nodes on each
    inst, qmap = make_case(seed=2, n_targets=8, vehicles=3)
    for k in range(3):
        delta = make_scenarios(inst, qmap, seed=gamma_seed(0, k), count=5)
        assert construct_detailed(inst, delta).final_nodes <= 1_000


def bare_completions(open_seq, unvisited, m_rem):
    """Every way to finish a search node: the rest of the open route and the
    ``m_rem`` new non-empty routes, as bare sequences (repeats allowed)."""
    size = len(unvisited)
    for perm in itertools.permutations(sorted(unvisited)):
        if m_rem == 0:
            yield ((*open_seq, *perm),)
            continue
        for tail in range(size - m_rem + 1):
            for cuts in itertools.combinations(range(tail + 1, size), m_rem - 1):
                bounds = (tail, *cuts, size)
                yield (
                    (*open_seq, *perm[:tail]),
                    *(perm[a:b] for a, b in zip(bounds, bounds[1:])),
                )


def settle_cold(cost, rows, cols):
    """The library's assignment solver from zero duals with every row
    unassigned: the relaxation and its value, inf without an assignment."""
    size = len(cost)
    relax = ([0.0] * size, [0.0] * size, [-1] * size, list(cols), list(rows))
    if not detsolve._settle(cost, relax):
        return relax, math.inf
    return relax, detsolve._dual_value(relax)


def degree_counts(floor, last, unvisited, m_rem):
    """The larger of two degree counts of a node's completions: each sink at
    its cheapest possible source, or each source at its cheapest possible
    sink, with edges priced at their floors."""
    ends = (last, *unvisited)
    into = leave = 0.0
    for u in unvisited:
        into += min(floor[p][u] for p in (*ends, *((0,) if m_rem else ())) if p != u)
    into += min(floor[v][0] for v in ends)
    for v in ends:
        leave += min(floor[v][w] for w in (0, *unvisited) if w != v)
    if m_rem and unvisited:
        into += m_rem * min(floor[u][0] for u in unvisited)
        leave += m_rem * min(floor[0][u] for u in unvisited)
    return max(into, leave)


def random_costs(rng, k, forbidden_share):
    """A k x k matrix of integer-valued floats in [-20, 100), negative as on
    discounted floors, with a share of its arcs forbidden (inf)."""
    cost = rng.integers(-20, 100, size=(k, k)).astype(float)
    cost[rng.random((k, k)) < forbidden_share] = math.inf
    return cost.tolist()


def test_assignment_matches_enumeration():
    rng = np.random.default_rng(18)
    infeasible = negative = 0
    for k in range(1, 8):
        for trial in range(24):
            cost = random_costs(rng, k, (0.0, 0.2, 0.6)[trial % 3])
            if trial % 4 == 3:
                # real-valued costs: the fold order may move the last bits
                cost = [[c + float(rng.random()) for c in row] for row in cost]
            _, value = settle_cold(cost, range(k), range(k))
            expected = assignment_by_enumeration(cost)
            if trial % 4 == 3:
                assert value == pytest.approx(expected, abs=1e-9)
            else:
                assert value == expected
            infeasible += expected == math.inf
            negative += expected < 0.0
    assert infeasible >= 10 and negative >= 5
    # layouts without a finite assignment
    inf = math.inf
    layouts = [
        ([[inf]], [0], [0]),
        ([[1.0, 2.0], [inf, inf]], [0, 1], [0, 1]),
        # two rows can only use the same column
        ([[4.0, inf, inf], [5.0, inf, inf], [1.0, 2.0, 3.0]], [0, 1, 2], [0, 1, 2]),
    ]
    # the search's arcs at a node with fewer unvisited targets than routes
    # to open: rows t1, t2 and two home copies, columns t2 and three home
    # copies, and home copies may not follow each other
    inst = make_case(seed=3, n_targets=3, vehicles=3)[0]
    home = inst.n_vertices
    t1, t2, _ = inst.target_indices
    layouts.append(
        (detsolve._relaxation_arcs(inst), [t1, t2, home, home + 1], [t2, home, home + 1, home + 2])
    )
    for cost, rows, cols in layouts:
        assert assignment_by_enumeration([[cost[i][j] for j in cols] for i in rows]) == inf
        assert settle_cold(cost, rows, cols)[1] == inf


def test_warm_resolve_equals_a_cold_solve():
    rng = np.random.default_rng(19)
    checked = 0
    for k in range(2, 8):
        for trial in range(30):
            cost = random_costs(rng, k, 0.15)
            parent, value = settle_cold(cost, range(k), range(k))
            if value == math.inf:
                continue
            saved = [list(part) for part in parent]
            # one deleted pair extends a route; two close one and open the next
            pairs = 1 + trial % 2 if k > 2 else 1
            rows = [int(r) for r in rng.choice(k, size=pairs, replace=False)]
            cols = [int(c) for c in rng.choice(k, size=pairs, replace=False)]
            child = parent
            for r, c in zip(rows, cols):
                child = detsolve._drop(child, r, c)
            u, v = child[0], child[1]
            kept_rows = [i for i in range(k) if i not in rows]
            kept_cols = [j for j in range(k) if j not in cols]
            # the parent's duals stay feasible, so what is left bounds the child
            floor_value = sum(u[i] for i in kept_rows) + sum(v[j] for j in kept_cols)
            sub = [[cost[i][j] for j in kept_cols] for i in kept_rows]
            expected = assignment_by_enumeration(sub)
            assert settle_cold(sub, range(k - pairs), range(k - pairs))[1] == expected
            settled = detsolve._settle(cost, child)
            assert settled == (expected < math.inf)
            if settled:
                assert floor_value <= expected
                assert detsolve._dual_value(child) == expected
                checked += 1
            # the parent is left as it was
            assert [list(part) for part in parent] == saved
    assert checked >= 120


def test_solvers_do_not_depend_on_the_cost_unit():
    # the search margins are fixed shares of the largest |cost|: scaling
    # every cost by a power of two scales every total and margin exactly,
    # so each search makes the same comparisons
    scales = (2.0**-20, 2.0**20, 2.0**40)
    for seed in range(40):
        inst, _ = make_case(seed=seed, n_targets=3 + seed % 5, vehicles=1 + seed % 2)
        base = solve_deterministic_exact(inst)
        for scale in scales:
            got = solve_deterministic_exact(dataclasses.replace(inst, cost=inst.cost * scale))
            assert (got.routes, got.nodes, got.cost) == (base.routes, base.nodes, base.cost * scale)
    for seed in range(12):
        inst, _ = make_case(seed=seed, n_targets=20, vehicles=3)
        base = solve_deterministic_greedy(inst)
        for scale in scales:
            got = solve_deterministic_greedy(dataclasses.replace(inst, cost=inst.cost * scale))
            assert (got.routes, got.cost) == (base.routes, base.cost * scale)


def test_completion_bound_never_exceeds_the_cheapest_completion():
    # Closed routes only remove targets and add the same score to both sides,
    # so each partial state is an open route, the unvisited targets and the
    # routes still to open, with nothing scored yet. Its bound is the
    # assignment relaxation the search settles there: the root's with the
    # visited targets and used home copies deleted, re-solved warm.
    rng = np.random.default_rng(10)
    states = feasible = discounted = tight = 0
    for seed in range(1, 13):
        n = 3 + seed % 4
        m = 1 + seed % 3
        inst, qmap = make_case(seed=seed, n_targets=n, vehicles=m)
        home = inst.n_vertices
        for problem in (inst, discounted_problem(inst, qmap, seed)):
            cost = problem.cost_rows
            floor = problem.edge_floor_rows
            arcs = detsolve._relaxation_arcs(problem)
            slots = [*inst.target_indices, *range(home, home + m)]
            root, _ = settle_cold(arcs, slots, slots)
            margin = problem.bound_margin
            budget_unit = min(0.0, problem.min_detour_increment)
            discounted += budget_unit < 0.0
            old_min_in = [
                min(cost[p][u] for p in range(inst.n_vertices) if p != u)
                for u in range(inst.n_vertices)
            ]
            for _ in range(8):
                targets = [int(t) for t in rng.permutation(inst.target_indices)]
                closed = int(rng.integers(0, m))
                m_rem = m - 1 - closed
                # closed routes take one target each at least, the open route one
                taken = int(rng.integers(closed + 1, n - m_rem + 1))
                open_len = int(rng.integers(1, taken - closed + 1))
                open_seq = targets[taken - open_len : taken]
                unvisited = set(targets[taken:])
                open_bare = open_floor = 0.0
                for a, b in zip((0, *open_seq), open_seq):
                    open_bare += cost[a][b]
                    open_floor += floor[a][b]
                # delete the rows of visited targets but the last, the home
                # copies of the routes opened, the columns of visited targets
                # and the home copies of the routes closed
                relax = root
                rows = [*targets[: taken - 1], *range(home, home + closed + 1)]
                cols = [*targets[:taken], *range(home, home + closed)]
                for r, c in zip(rows, cols):
                    relax = detsolve._drop(relax, r, c)
                assert detsolve._settle(arcs, relax)
                value = detsolve._dual_value(relax)
                node_rows = [open_seq[-1], *unvisited, *range(home + closed + 1, home + m)]
                node_cols = [*unvisited, *range(home + closed, home + m)]
                assert value == pytest.approx(settle_cold(arcs, node_rows, node_cols)[1], abs=1e-9)
                bound = open_floor + value
                best_realized = math.inf
                for routes in bare_completions(open_seq, unvisited, m_rem):
                    realized = 0.0
                    for seq in routes:
                        scored = optimal_depot_insertion(seq, problem)
                        realized += math.inf if scored is None else scored[1]
                    best_realized = min(best_realized, realized)
                assert bound <= best_realized + margin
                # the bound before the relaxation took the larger degree count
                counts = open_floor + degree_counts(floor, open_seq[-1], unvisited, m_rem)
                assert bound >= counts - margin
                # the bound before that priced each target at its cheapest
                # edge from anywhere and budgeted one worst-case insertion per edge
                edges = open_len + 1 + len(unvisited) + m_rem
                old = open_bare + sum(old_min_in[u] for u in unvisited)
                old += min(cost[v][0] for v in (open_seq[-1], *unvisited))
                if m_rem:
                    old += m_rem * min(cost[u][0] for u in unvisited)
                old += edges * budget_unit
                assert bound >= old - margin
                states += 1
                feasible += best_realized < math.inf
                tight += bound > old + margin
    assert discounted >= 4
    assert states >= 150 and feasible >= 150 and tight >= 100


def test_saa_n8_searches_stay_small():
    # the benchmark's saa-n8 instance and replications: the degree-count
    # bound took 1,101 nodes on the EV solve and 1,169 and 1,166 nodes on
    # the replications, which priced 714 and 722 legs; the assignment bound
    # takes 412, 410 and 410 nodes and prices 160 and 156 legs (171 and 168
    # without pricing the closing arc before a route is scored)
    inst, qmap = make_case(seed=2, n_targets=8, vehicles=3)
    assert solve_deterministic_exact(inst).nodes <= 430
    for k in range(2):
        sample = make_scenarios(inst, qmap, seed=gamma_seed(0, k), count=5)
        solution = solve_saa_problem(inst, sample)
        assert solution.nodes <= 430
        assert solution.legs <= 165


def test_pruning_toggle_preserves_the_optimum():
    saved = 0
    for inst in [*exact_cases(6, start=300), *tight_layouts(20, seed=6)]:
        on = solve_deterministic_exact(inst, strengthened_pruning=True)
        off = solve_deterministic_exact(inst, strengthened_pruning=False)
        assert on.cost == off.cost
        assert on.routes.canonical() == off.routes.canonical()
        assert on.nodes <= off.nodes
        saved += on.nodes < off.nodes
    # the switch must cut something, or this check compares a search with itself
    assert saved >= 1


def test_exact_solutions_are_feasible_and_recomputable():
    for inst in exact_cases(6, start=600):
        sol = solve_deterministic_exact(inst)
        assert nominal_feasibility(sol.routes, inst)
        assert route_cost(sol.routes, inst) == pytest.approx(sol.cost, abs=1e-9)


def test_greedy_is_feasible_and_never_beats_exact():
    for inst in exact_cases(8, start=900):
        greedy = solve_deterministic_greedy(inst)
        if greedy is None:
            continue
        assert nominal_feasibility(greedy.routes, inst)
        exact = solve_deterministic_exact(inst)
        assert greedy.cost >= exact.cost - 1e-9


def test_single_target_round_trip():
    for seed in (1, 2, 3):
        inst = generate_instance(GenConfig(seed=seed, n_targets=1, vehicles=1))
        sol = solve_deterministic_exact(inst)
        t = next(iter(inst.target_indices))
        assert sol.routes.routes == ((0, t, 0),)
        assert sol.cost == float(inst.cost[0, t]) + float(inst.cost[t, 0])


def test_more_vehicles_than_targets_is_rejected():
    inst, _ = make_case(seed=12, n_targets=3, vehicles=2)
    forced = generate_instance(GenConfig(seed=12, n_targets=3, vehicles=3))
    solve_deterministic_exact(forced)  # m == n is allowed
    with pytest.raises(ValueError):
        bad = generate_instance(GenConfig(seed=12, n_targets=3, vehicles=3))
        object.__setattr__(bad, "vehicles", 4)
        solve_deterministic_exact(bad)


def rebuilt(inst, **matrices):
    """A new instance from the coordinates and settings of ``inst``, with
    the given ``cost`` or ``nominal_fuel`` in place of its own."""
    coords = [tuple(c) for c in inst.coordinates.tolist()]
    fresh = make_instance(
        target_coords=coords[inst.n_depots :],
        refuel_coords=coords[1 : inst.n_depots],
        home_coord=coords[0],
        vehicles=inst.vehicles,
        grid=inst.grid,
    )
    return dataclasses.replace(
        fresh,
        fuel_capacity=inst.fuel_capacity,
        cost=np.array(matrices.get("cost", inst.cost)),
        nominal_fuel=np.array(matrices.get("nominal_fuel", inst.nominal_fuel)),
    )


def test_a_replaced_instance_shares_no_memo_with_its_parent():
    inst, _ = make_case(seed=2, n_targets=8, vehicles=3)
    nominal = solve_deterministic_exact(inst)
    filled = dict(inst.insertions)
    heavy = dataclasses.replace(inst, nominal_fuel=inst.nominal_fuel * 1.6)
    assert heavy.insertions == {} and heavy.insertions is not inst.insertions
    fresh = rebuilt(inst, nominal_fuel=np.array(inst.nominal_fuel) * 1.6)
    solved = solve_deterministic_exact(heavy)
    assert solved == solve_deterministic_exact(fresh)
    assert solved.cost > nominal.cost
    assert heavy.insertions == fresh.insertions
    assert inst.insertions == filled
    for name in ("fuel_rows", "exit_fuel_list", "edge_floor_rows", "label_slack_unit"):
        assert getattr(heavy, name) == getattr(fresh, name)
    assert heavy.fuel_rows != inst.fuel_rows
    moved = 0
    for u, w in itertools.permutations(range(inst.n_vertices), 2):
        assert heavy.detour_options(u, w) == fresh.detour_options(u, w)
        moved += heavy.detour_options(u, w) != inst.detour_options(u, w)
    assert moved > 0


def test_evp_mean_fuel_is_shape_checked_and_applied():
    inst, _ = make_case(seed=12, n_targets=4, vehicles=1)
    with pytest.raises(ValueError, match="mean_fuel shape"):
        solve_evp(inst, mean_fuel=np.zeros((2, 2)))
    base = solve_evp(inst)
    assert solve_evp(inst, mean_fuel=inst.nominal_fuel) == base
    heavier = np.array(inst.nominal_fuel) * 1.6
    heavy = solve_evp(inst, mean_fuel=heavier.tolist())
    assert heavy == solve_deterministic_exact(rebuilt(inst, nominal_fuel=heavier))
    assert heavy.cost > base.cost
    assert heavy.routes.canonical() != base.routes.canonical()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exact_enumeration_agreement_property(seed):
    n = 3 + seed % 3
    m = 1 + seed % 2
    try:
        inst, _ = make_case(seed=seed, n_targets=n, vehicles=m)
    except ValueError:
        return
    sol = solve_deterministic_exact(inst)
    ref = enumerate_deterministic(
        inst, score=lambda seq: optimal_depot_insertion(seq, inst)
    )
    if sol is None:
        assert ref is None
        return
    assert sol.cost == ref[1]
    assert sol.routes.canonical().routes == tuple(sorted(ref[0]))


def test_exact_search_surface_is_pinned():
    params = inspect.signature(solve_deterministic_exact).parameters
    assert list(params) == ["instance", "strengthened_pruning"]
    assert params["strengthened_pruning"].default is True
    assert not hasattr(detsolve, "BnBConfig")
    assert not hasattr(detsolve, "DetProblem")
    assert "optimal" not in {f.name for f in dataclasses.fields(SaaSolution)}


def test_engine_rule_is_one_target_limit():
    small, _ = make_case(seed=6, n_targets=EXACT_TARGET_LIMIT, vehicles=2)
    large, _ = make_case(seed=6, n_targets=EXACT_TARGET_LIMIT + 1, vehicles=2)
    exact = solve_deterministic(small)
    assert exact == solve_deterministic_exact(small)
    assert exact.optimal and exact.nodes > 0
    greedy = solve_deterministic(large)
    assert greedy == solve_deterministic_greedy(large)
    assert not greedy.optimal and greedy.nodes == 0
