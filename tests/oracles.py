"""Independent brute-force reference implementations for the test suite.

Everything here favors obvious enumeration over speed and deliberately
avoids the library's dynamic programs, so agreement between the two is
meaningful. Accumulation orders mirror the library's documented folds where
tests assert exact float equality.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from fcmurp import instgen, recourse
from fcmurp.detsolve import branching_order
from fcmurp.heuristics import (
    TabuParams,
    TabuResult,
    TwoStageEvaluator,
    _swap_targets,
    _target_pairs,
)
from fcmurp.model import Instance, RecoursePlan, RouteSet, Scenario, ScenarioSet


def route_beta(route, scenario: Scenario, instance: Instance, table=None) -> float:
    """Minimum recourse cost of a single route, inf when unrecoverable.

    Reference for ``recourse.LegMemo.route_betas``: each leg priced without a
    memo and summed left to right per route, with a leg the direct-leg
    shortcut flies as planned skipped rather than added as 0.0. The leg
    kernels are looked up on ``recourse`` at call time, so a test that
    patches them patches this reference too.
    """
    if table is None:
        table = recourse.BestDepotTable(scenario.fuel, instance.n_depots)
    fuel, depot_of = recourse._rows(scenario, table)
    cost = instance.cost_rows
    cap = instance.fuel_capacity
    nd = instance.n_depots
    direct_wins = instance.min_detour_increment >= 0.0
    route = tuple(route)
    total = 0.0
    for a, b in recourse._leg_bounds(route, nd):
        if direct_wins and recourse._direct_leg_fits(route, a, b, fuel, cap):
            continue
        leg = recourse._leg_best(route, a, b, fuel, cost, cap, depot_of, nd)
        if leg is None:
            return math.inf
        total += leg[0]
    return float(total)


def recompute_weights(instance, delta, solutions):
    """Set-based recount of the construction tables, entry by entry."""
    n = instance.n_vertices
    by_id = {s.id: s for s in delta}
    discount = np.ones((n, n))
    for sid, routes in solutions:
        if routes is None:
            continue
        edges = set()
        for route in routes.routes:
            edges.update(zip(route, route[1:]))
        for i, j in edges:
            discount[i, j] -= by_id[sid].probability
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            expected[i, j] = math.fsum(
                by_id[sid].probability * float(by_id[sid].fuel[i, j])
                for sid, _ in solutions
            )
    return discount, instance.cost * discount, expected


def insertion_patterns(seq: Sequence[int], problem: Instance):
    """Every (realized route, delta, pattern) with at most one depot per edge."""
    route = (0, *seq, 0)
    edges = len(route) - 1
    nd = problem.n_depots
    choices = [None] + list(range(nd))
    for combo in itertools.product(choices, repeat=edges):
        bad = False
        for p, d in enumerate(combo):
            if d is not None and (d == route[p] or d == route[p + 1]):
                bad = True
                break
        if bad:
            continue
        realized = [0]
        delta = 0.0
        pattern = []
        for p in range(edges):
            d = combo[p]
            if d is not None:
                realized.append(d)
                delta += (
                    float(problem.cost[route[p], d])
                    + float(problem.cost[d, route[p + 1]])
                    - float(problem.cost[route[p], route[p + 1]])
                )
                pattern.append((p, d))
            realized.append(route[p + 1])
        yield tuple(realized), delta, tuple(pattern)


def walk_feasible(realized: Sequence[int], fuel: np.ndarray, instance: Instance) -> bool:
    """Fuel walk with full refuel at depots and the exit-reserve rule at targets."""
    cap = instance.fuel_capacity
    nd = instance.n_depots
    exit_fuel = [
        min(float(fuel[v, d]) for d in instance.depot_indices if d != v)
        if v >= nd
        else 0.0
        for v in range(instance.n_vertices)
    ]
    running = 0.0
    for a, b in zip(realized, realized[1:]):
        running += float(fuel[a, b])
        if running > cap:
            return False
        if b >= nd and running + exit_fuel[b] > cap:
            return False
        if b < nd:
            running = 0.0
    return True


def best_insertion(seq: Sequence[int], problem: Instance):
    """Enumerated counterpart of optimal_depot_insertion: same tie-breaks."""
    best = None
    for realized, delta, pattern in insertion_patterns(seq, problem):
        if not walk_feasible(realized, problem.nominal_fuel, problem):
            continue
        key = (delta, pattern)
        if best is None or key < best[0]:
            best = (key, realized)
    if best is None:
        return None
    realized = best[1]
    total = 0.0
    for a, b in zip(realized, realized[1:]):
        total += float(problem.cost[a, b])
    return realized, total


def best_pattern_by_enumeration(seq, instance: Instance, gamma: ScenarioSet, tables):
    """Minimum sampled value of one route over every insertion pattern.

    Keeps the nominally feasible patterns, drops any with an unrecoverable
    scenario, and folds the value as the pattern search's leaves do: realized
    edge costs left to right, then probability-weighted recourse scenario by
    scenario. Returns (value, every realized route attaining it) or None.
    """
    best_value = None
    best_routes: list = []
    for realized, _, _ in insertion_patterns(seq, instance):
        if not walk_feasible(realized, instance.nominal_fuel, instance):
            continue
        value = 0.0
        for a, b in zip(realized, realized[1:]):
            value += float(instance.cost[a, b])
        recoverable = True
        for k, s in enumerate(gamma):
            beta = route_beta(realized, s, instance, tables[k])
            if math.isinf(beta):
                recoverable = False
                break
            value += s.probability * beta
        if not recoverable:
            continue
        if best_value is None or value < best_value:
            best_value, best_routes = value, [realized]
        elif value == best_value:
            best_routes.append(realized)
    if best_value is None:
        return None
    return best_value, tuple(best_routes)


def route_set_candidates(problem: Instance):
    """All bare route sets, blocks ordered by the solver's branching rank."""
    order = branching_order(problem)
    rank = {t: i for i, t in enumerate(order)}
    targets = frozenset(problem.target_indices)
    m = problem.vehicles

    def rec(remaining: frozenset, blocks: tuple, prev_rank: int):
        if len(blocks) == m:
            if not remaining:
                yield blocks
            return
        slots_left = m - len(blocks) - 1
        for first in sorted(remaining, key=lambda t: rank[t]):
            if rank[first] <= prev_rank:
                continue
            rest = remaining - {first}
            for size in range(0, len(rest) - slots_left + 1):
                for extra in itertools.combinations(sorted(rest), size):
                    for perm in itertools.permutations(extra):
                        yield from rec(
                            rest - set(extra),
                            blocks + ((first, *perm),),
                            rank[first],
                        )

    yield from rec(targets, (), -1)


def enumerate_deterministic(problem: Instance, score=None):
    """Exhaustive minimum over all route sets; mirrors the solver's folds.

    Route scores accumulate left to right in block-rank order and ties break
    on the sorted realized-route tuple, matching the branch-and-bound leaf
    rule, so exact equality against the solver is expected. ``score`` maps a
    bare sequence to (realized route, cost); the default is the pattern
    enumeration, which is only affordable on very small cases, so search
    tests pass the separately verified insertion solver instead.
    """
    if score is None:
        score = lambda seq: best_insertion(seq, problem)
    memo: dict = {}

    def scored_seq(seq):
        if seq not in memo:
            memo[seq] = score(seq)
        return memo[seq]

    best_total = math.inf
    best_routes = None
    best_key = None
    for blocks in route_set_candidates(problem):
        total = 0.0
        realized_all = []
        dead = False
        for seq in blocks:
            scored = scored_seq(seq)
            if scored is None:
                dead = True
                break
            realized, score_val = scored
            realized_all.append(realized)
            total = total + score_val
        if dead:
            continue
        key = tuple(sorted(realized_all))
        if total < best_total or (
            total == best_total and (best_key is None or key < best_key)
        ):
            best_total = total
            best_routes = tuple(realized_all)
            best_key = key
    if best_routes is None:
        return None
    return best_routes, best_total


def assignment_by_enumeration(cost: Sequence[Sequence[float]]) -> float:
    """Minimum cost of a perfect assignment of a square matrix, trying every
    permutation. A forbidden arc is priced at inf, so a matrix without a
    finite assignment gives inf."""
    best = math.inf
    for perm in itertools.permutations(range(len(cost))):
        total = 0.0
        for i, j in enumerate(perm):
            total += cost[i][j]
        best = min(best, total)
    return best


def segments_feasible(realized: Sequence[int], fuel: np.ndarray, instance: Instance) -> bool:
    """Plain capacity walk: recourse legs carry no exit reserve at targets."""
    cap = instance.fuel_capacity
    nd = instance.n_depots
    running = 0.0
    for a, b in zip(realized, realized[1:]):
        running += float(fuel[a, b])
        if running > cap:
            return False
        if b < nd:
            running = 0.0
    return True


def realized_routes(routes: RouteSet, plan) -> tuple[tuple[int, ...], ...]:
    """Per-route visit sequences with a recourse plan's detour depots
    spliced in."""
    out = []
    for r, route in enumerate(routes.routes):
        seq = [route[0]]
        for p in range(len(route) - 1):
            key = (r, p)
            if key in plan.inserted_depots:
                seq.append(plan.inserted_depots[key])
            seq.append(route[p + 1])
        out.append(tuple(seq))
    return tuple(out)


def recourse_by_enumeration(
    routes: RouteSet, scenario: Scenario, instance: Instance
) -> RecoursePlan:
    """Minimum-cost recourse plan over every subset of target-target edges.

    Independent of the library: detours go through the depot minimizing the
    two realized hops (smallest index on ties), at most one per edge, and a
    plan counts only if every refuel-to-refuel stretch of the realized walk
    fits the capacity. Ties between equal-cost subsets of a route go to the
    lexicographically smallest position tuple. The plan lists the detoured
    edges sorted, each with its depot, and refolds the chosen increments in
    route-then-position order, mirroring the library's plan total; where no
    plan works it is infeasible, with cost inf.
    """
    fuel = scenario.fuel
    cost = instance.cost
    nd = instance.n_depots

    def dhat(i: int, j: int) -> int:
        return min(
            instance.depot_indices,
            key=lambda d: (float(fuel[i, d]) + float(fuel[d, j]), d),
        )

    chosen: list[tuple[int, int]] = []
    for r, route in enumerate(routes.routes):
        edges = [
            p for p in range(len(route) - 1) if route[p] >= nd and route[p + 1] >= nd
        ]
        best = None
        for k in range(len(edges) + 1):
            for subset in itertools.combinations(edges, k):
                realized = []
                beta = 0.0
                for p in range(len(route) - 1):
                    realized.append(route[p])
                    if p in subset:
                        i, j = route[p], route[p + 1]
                        d = dhat(i, j)
                        realized.append(d)
                        beta += (float(cost[i, d]) + float(cost[d, j])) - float(
                            cost[i, j]
                        )
                realized.append(route[-1])
                if not segments_feasible(realized, fuel, instance):
                    continue
                key = (beta, subset)
                if best is None or key < best:
                    best = key
        if best is None:
            return RecoursePlan(scenario.id, (), {}, math.inf)
        chosen.extend((r, p) for p in best[1])
    detoured = tuple(sorted(chosen))
    depots = {}
    total = 0.0
    for r, p in detoured:
        route = routes.routes[r]
        i, j = route[p], route[p + 1]
        d = depots[r, p] = dhat(i, j)
        total += (float(cost[i, d]) + float(cost[d, j])) - float(cost[i, j])
    return RecoursePlan(scenario.id, detoured, depots, total)


def enumerate_saa(
    instance: Instance, gamma: ScenarioSet, beta_of
) -> Optional[tuple[tuple[tuple[int, ...], ...], float]]:
    """Exhaustive two-stage optimum over route sets and insertion patterns.

    ``beta_of(route_set, scenario)`` supplies the recourse cost so callers
    can plug in either the library evaluator or the enumeration above
    (its plan's ``beta``).
    """
    best = None
    for blocks in route_set_candidates(instance):
        per_route_options = []
        for seq in blocks:
            options = [
                (realized,)
                for realized, _, _ in insertion_patterns(seq, instance)
                if walk_feasible(realized, instance.nominal_fuel, instance)
            ]
            per_route_options.append(options)
        if any(not opts for opts in per_route_options):
            continue
        for combo in itertools.product(*per_route_options):
            realized_set = RouteSet(tuple(c[0] for c in combo))
            stage1 = 0.0
            for r in realized_set.routes:
                for a, b in zip(r, r[1:]):
                    stage1 += float(instance.cost[a, b])
            expected = 0.0
            recoverable = True
            for s in gamma:
                beta = beta_of(realized_set, s)
                if math.isinf(beta):
                    recoverable = False
                    break
                expected += s.probability * beta
            if not recoverable:
                continue
            value = stage1 + expected
            if best is None or value < best[1]:
                best = (realized_set.routes, value)
    return best


def sample_scenarios_by_draw(
    instance: Instance,
    qmap,
    seed: int,
    count: int,
    gamma_shape: float = 4.0,
    gamma_scale_ratio: float = 0.25,
    distribution: str = "gamma",
) -> ScenarioSet:
    """Reference sampler: one ``rng.gamma(shape, scale)`` call per try.

    Same streams, edge order, acceptance rule and retry budget as
    ``instgen.sample_scenarios``, written edge by edge and draw by draw,
    counting the rejected draws.
    """
    n = instance.n_vertices
    mean_fuel = instance.nominal_fuel
    scenarios = []
    rejected = 0
    for sid in range(count):
        fuel = np.array(mean_fuel, dtype=float)
        if distribution == "gamma":
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, instgen._STREAM_SCENARIO, sid))
            )
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    ends = (qmap.vertex_labels[i], qmap.vertex_labels[j])
                    if instgen.CONGESTED in ends:
                        label = instgen.CONGESTED
                    elif instgen.SPARSE in ends:
                        label = instgen.SPARSE
                    else:
                        continue
                    mean = float(mean_fuel[i, j])
                    scale = gamma_scale_ratio * mean
                    for tries in range(instgen.REJECTION_LIMIT):
                        draw = float(rng.gamma(gamma_shape, scale))
                        if draw >= mean if label == instgen.CONGESTED else draw <= mean:
                            rejected += tries
                            break
                    else:
                        raise instgen.SamplerError(
                            f"no acceptable {label} draw in {instgen.REJECTION_LIMIT} "
                            f"tries (shape={gamma_shape}, scale={scale}, mean={mean})"
                        )
                    fuel[i, j] = draw
        scenarios.append(Scenario(id=sid, probability=1.0 / count, fuel=fuel))
    return ScenarioSet(
        tuple(scenarios),
        label=f"{distribution}:seed={seed}:count={count}",
        rejections=rejected,
    )


def depot_insertion_by_sweep(seq: Sequence[int], problem: Instance):
    """Node-by-node formulation of ``optimal_depot_insertion``.

    One sweep from the start and one from every (edge, depot) node, each
    run to the end of the route once the nodes before it are final. The
    label sweep in the library must return the same realized route and the
    same cost, bit for bit.
    """
    if not seq:
        raise ValueError("cannot route an empty target sequence")
    route = (0, *seq, 0)
    fuel = problem.fuel_rows
    cost = problem.cost_rows
    cap = problem.fuel_capacity
    exit_fuel = problem.exit_fuel_list
    nd = problem.n_depots
    last = len(route) - 1
    # node (p, d): depot d inserted on edge p; value = (cost delta, pattern)
    node_val: list[list] = [[None] * nd for _ in range(last)]
    end_val = None

    def sweep(value, pos: int, running: float) -> None:
        nonlocal end_val
        while True:
            v = route[pos]
            if running > cap:
                return
            if v >= nd and running + exit_fuel[v] > cap:
                return
            if pos == last:
                if end_val is None or value < end_val:
                    end_val = value
                return
            nxt = route[pos + 1]
            vals = node_val[pos]
            fuel_v = fuel[v]
            cost_v = cost[v]
            for d in range(nd):
                if d == v or d == nxt:
                    continue
                if running + fuel_v[d] <= cap:
                    cand = (
                        value[0] + (cost_v[d] + cost[d][nxt]) - cost_v[nxt],
                        value[1] + ((pos, d),),
                    )
                    if vals[d] is None or cand < vals[d]:
                        vals[d] = cand
            running = running + fuel_v[nxt]
            pos += 1

    sweep((0.0, ()), 0, 0.0)
    for p in range(last):
        nxt = route[p + 1]
        for d in range(nd):
            val = node_val[p][d]
            if val is not None:
                sweep(val, p + 1, fuel[d][nxt])
    if end_val is None:
        return None
    pattern = dict(end_val[1])
    realized: list[int] = [0]
    for p in range(last):
        if p in pattern:
            realized.append(pattern[p])
        realized.append(route[p + 1])
    total = 0.0
    for a, b in zip(realized, realized[1:]):
        total += cost[a][b]
    return tuple(realized), total


def leg_best_by_sweep(route, a, b, fuel, cost, cap, depot_of, nd):
    """Node-by-node formulation of ``recourse._leg_best`` (same arguments).

    One sweep from the leg's opening depot and one from every mid-edge
    detour node; returns ``(cost, positions)`` or None.
    """
    cands = [p for p in range(a, b) if route[p] >= nd and route[p + 1] >= nd]
    cand_pos = {p: idx for idx, p in enumerate(cands)}
    node_val: list = [None] * len(cands)
    end_val = None

    def sweep(value, pos: int, running: float) -> None:
        # value applies at arrival to route[pos] with fuel `running` since reset
        nonlocal end_val
        while True:
            if running > cap:
                return
            if pos == b:
                if end_val is None or value < end_val:
                    end_val = value
                return
            v, nxt = route[pos], route[pos + 1]
            fuel_v = fuel[v]
            idx = cand_pos.get(pos)
            if idx is not None:
                d = depot_of(v, nxt)
                if running + fuel_v[d] <= cap:
                    cost_v = cost[v]
                    cand = (
                        value[0] + ((cost_v[d] + cost[d][nxt]) - cost_v[nxt]),
                        value[1] + (pos,),
                    )
                    if node_val[idx] is None or cand < node_val[idx]:
                        node_val[idx] = cand
            running = running + fuel_v[nxt]
            pos += 1

    sweep((0.0, ()), a, 0.0)
    for idx, p in enumerate(cands):
        if node_val[idx] is None:
            continue
        d = depot_of(route[p], route[p + 1])
        sweep(node_val[idx], p + 1, fuel[d][route[p + 1]])
    return end_val


def tabu_by_full_evaluation(
    initial: RouteSet, delta: ScenarioSet, params: TabuParams, instance: Instance
) -> TabuResult:
    """``tabu_improve`` with every neighbor evaluated as a whole route set.

    Same selection, tabu, aspiration, reset and stall rules; every swap of
    every iteration goes through ``TwoStageEvaluator.evaluate`` instead of
    the library's bound-ordered scan that re-scores only the routes a swap
    changes, so the result must be equal to the library's. Its work
    counters (``sequences``, ``infeasible_sequences``) count every
    neighbor's insertion.
    """
    tenure = params.resolved_tenure(instance.n_targets)
    evaluator = TwoStageEvaluator(instance, delta)
    bare0 = initial.bare_sequences(instance)
    evaluator.calibrate(bare0)
    current = evaluator.evaluate(bare0)
    if current is None:
        raise ValueError("initial routes cannot be made nominally feasible")
    best = current
    tabu_until: dict[tuple[int, int], int] = {}
    log: list[tuple] = []
    since_improve = 0
    since_reset = 0
    iterations = 0
    for k in range(1, params.iterations + 1):
        iterations = k
        chosen = None  # (objective, move, evaluation, aspiration)
        fallback = None
        for move in _target_pairs(instance):
            t1, t2 = move
            ev = evaluator.evaluate(_swap_targets(current.bare, t1, t2))
            if ev is None:
                continue
            # a swap stays tabu through iteration (made at) + tenure
            is_tabu = tabu_until.get(move, 0) >= k
            aspires = ev.objective < best.objective
            if is_tabu and not aspires:
                continue
            cand = (ev.objective, move)
            if ev.objective < current.objective:
                if chosen is None or cand < (chosen[0], chosen[1]):
                    chosen = (ev.objective, move, ev, is_tabu and aspires)
            if not is_tabu:
                if fallback is None or cand < (fallback[0], fallback[1]):
                    fallback = (ev.objective, move, ev, False)
        if chosen is None:
            chosen = fallback
        improved = False
        if chosen is None:
            log.append((k, "stagnant", None, current.objective, False))
        else:
            _, move, ev, aspiration = chosen
            current = ev
            tabu_until[move] = k + tenure
            log.append((k, "move", move, ev.objective, aspiration))
            if ev.feasible and ev.objective < best.objective:
                best = ev
                improved = True
        if improved:
            since_improve = 0
            since_reset = 0
        else:
            since_improve += 1
            since_reset += 1
        if since_improve >= params.stall_limit:
            break
        if since_reset >= math.ceil(math.sqrt(k)):
            current = best
            since_reset = 0
            log.append((k, "reset", None, current.objective, False))
    warning = None
    if not best.feasible:
        warning = "no recoverable solution found; returning best penalized candidate"
    return TabuResult(
        routes=best.routes,
        objective=best.objective,
        stage1=best.stage1,
        betas=best.betas,
        iterations=iterations,
        move_log=tuple(log),
        warning=warning,
        sequences=evaluator.sequences,
        infeasible_sequences=evaluator.infeasible_sequences,
    )


def swap_bounds_by_loop(
    evaluator: TwoStageEvaluator,
    bare: tuple[tuple[int, ...], ...],
    entries,
    pairs: Sequence[tuple[int, int]],
) -> list[float]:
    """Reference for ``heuristics._swap_bounds``: one swap at a time.

    The same bound with the same additions in the same order, written as a
    plain loop over ``pairs`` on the list rows of the costs; the library's
    numpy version must match it bit for bit.
    """
    if evaluator.instance.min_detour_increment < 0.0:
        return [-math.inf] * len(pairs)
    cost = evaluator.instance.cost_rows
    padded = [(0, *seq, 0) for seq in bare]
    alone = []
    for route in padded:
        total = 0.0
        for a, b in zip(route, route[1:]):
            total += cost[a][b]
        alone.append(total)

    def rest(*changed: int) -> float:
        kept = [e for r, e in enumerate(entries) if r not in changed]
        return evaluator.objective_floor(*evaluator.fold(kept))

    # (first, last) changed route -> the bound before the swap's edge changes
    base = {}
    for r1 in range(len(padded)):
        base[r1, r1] = rest(r1) + alone[r1]
        for r2 in range(r1 + 1, len(padded)):
            base[r1, r2] = rest(r1, r2) + alone[r1] + alone[r2]
    # target -> (route, position, left and right neighbor, cost of its edges)
    slot = {}
    for r, route in enumerate(padded):
        for i in range(1, len(route) - 1):
            left, t, right = route[i - 1 : i + 2]
            slot[t] = (r, i, left, right, cost[left][t] + cost[t][right])
    bounds = []
    for t1, t2 in pairs:
        r1, i1, left1, right1, out1 = slot[t1]
        r2, i2, left2, right2, out2 = slot[t2]
        before = base[(r1, r2) if r1 <= r2 else (r2, r1)]
        if r1 == r2 and abs(i1 - i2) == 1:
            # neighbors: left -> a -> b -> right becomes left -> b -> a -> right
            a, b = (t1, t2) if i1 < i2 else (t2, t1)
            left, right = slot[a][2], slot[b][3]
            bounds.append(
                before
                - (cost[left][a] + cost[a][b] + cost[b][right])
                + (cost[left][b] + cost[b][a] + cost[a][right])
            )
            continue
        bounds.append(
            before
            - out1
            - out2
            + (cost[left1][t2] + cost[t2][right1])
            + (cost[left2][t1] + cost[t1][right2])
        )
    return bounds
