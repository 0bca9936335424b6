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

from fcmurp import instgen
from fcmurp.detsolve import DetProblem, branching_order
from fcmurp.model import Instance, RouteSet, Scenario, ScenarioSet
from fcmurp.recourse import route_beta


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


def insertion_patterns(seq: Sequence[int], problem: DetProblem):
    """Every (realized route, delta, pattern) with at most one depot per edge."""
    inst = problem.instance
    route = (0, *seq, 0)
    edges = len(route) - 1
    nd = inst.n_depots
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


def best_insertion(seq: Sequence[int], problem: DetProblem):
    """Enumerated counterpart of optimal_depot_insertion: same tie-breaks."""
    best = None
    for realized, delta, pattern in insertion_patterns(seq, problem):
        if not walk_feasible(realized, problem.fuel, problem.instance):
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
    problem = DetProblem(instance)
    best_value = None
    best_routes: list = []
    for realized, _, _ in insertion_patterns(seq, problem):
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


def route_set_candidates(problem: DetProblem):
    """All bare route sets, blocks ordered by the solver's branching rank."""
    inst = problem.instance
    order = branching_order(problem)
    rank = {t: i for i, t in enumerate(order)}
    targets = frozenset(inst.target_indices)
    m = inst.vehicles

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


def enumerate_deterministic(problem: DetProblem, score=None):
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


def recourse_by_enumeration(
    routes: RouteSet, scenario: Scenario, instance: Instance
) -> float:
    """Minimum detour cost over every subset of target-target edges.

    Independent of the library: detours go through the depot minimizing the
    two realized hops (smallest index on ties), at most one per edge, and a
    plan counts only if every refuel-to-refuel stretch of the realized walk
    fits the capacity. The returned cost refolds the chosen increments in
    route-then-position order, mirroring the library's plan total.
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
            return math.inf
        chosen.extend((r, p) for p in best[1])
    total = 0.0
    for r, p in sorted(chosen):
        route = routes.routes[r]
        i, j = route[p], route[p + 1]
        d = dhat(i, j)
        total += (float(cost[i, d]) + float(cost[d, j])) - float(cost[i, j])
    return total


def enumerate_saa(
    instance: Instance, gamma: ScenarioSet, beta_of
) -> Optional[tuple[tuple[tuple[int, ...], ...], float]]:
    """Exhaustive two-stage optimum over route sets and insertion patterns.

    ``beta_of(route_set, scenario)`` supplies the recourse cost so callers
    can plug in either the library evaluator or the enumeration above.
    """
    problem = DetProblem(instance)
    best = None
    for blocks in route_set_candidates(problem):
        per_route_options = []
        for seq in blocks:
            options = [
                (realized,)
                for realized, _, _ in insertion_patterns(seq, problem)
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
    ``instgen.sample_scenarios``, written edge by edge and draw by draw.
    """
    n = instance.n_vertices
    mean_fuel = instance.nominal_fuel
    scenarios = []
    for sid in range(count):
        fuel = np.array(mean_fuel, dtype=float)
        if distribution == "gamma":
            rng = instgen._substream(seed, instgen._STREAM_SCENARIO, sid)
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
                    for _ in range(instgen.REJECTION_LIMIT):
                        draw = float(rng.gamma(gamma_shape, scale))
                        if draw >= mean if label == instgen.CONGESTED else draw <= mean:
                            break
                    else:
                        raise instgen.SamplerError(
                            f"no acceptable {label} draw in {instgen.REJECTION_LIMIT} "
                            f"tries (shape={gamma_shape}, scale={scale}, mean={mean})"
                        )
                    fuel[i, j] = draw
        scenarios.append(Scenario(id=sid, probability=1.0 / count, fuel=fuel))
    return ScenarioSet(tuple(scenarios), label=f"{distribution}:seed={seed}:count={count}")
