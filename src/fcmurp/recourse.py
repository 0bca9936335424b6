"""Second-stage recourse: detour insertion under realized fuel burn.

Given first-stage routes and one fuel realization, the recourse decision is
which target-to-target edges to replace by a detour through the realization's
best refuel depot for that edge (the depot minimizing entry-plus-exit fuel).
Edges already touching a depot are flown as planned. ``evaluate_recourse``
solves this exactly with a per-leg shortest-path DP, one left-to-right sweep
of (cost, detours, fuel since refuel) labels over each depot-to-depot leg,
accumulating fuel and cost strictly left to right along each route; the
brute-force reference that enumerates every keep/detour subset lives with
the tests (``tests/oracles.py``) and agrees with it exactly, not
approximately. The DP reads list rows cached on the instance and the
best-depot table, which finds an edge's best depot only when a leg that
overflows the tank asks for it. ``penalty`` prices a scenario no detour
plan recovers. Search code scores single routes against a fixed scenario
sample through ``LegMemo``, which prices each distinct (leg, scenario) once.
Both price a leg through ``_leg_recourse``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .model import Instance, RecoursePlan, RouteSet, Scenario

__all__ = [
    "BestDepotTable",
    "penalty",
    "evaluate_recourse",
    "LegMemo",
]


class BestDepotTable:
    """Per ordered vertex pair: the depot with cheapest through-fuel.

    ``depot_of(i, j)`` is the depot index d minimizing ``fuel[i, d] +
    fuel[d, j]`` under one scenario's realization ``fuel``, ties going to
    the smallest index. It is computed the first time a pair is asked for,
    from the list rows ``fuel_rows`` with the same additions as the numpy
    argmin, and kept in a row list made when its row is first asked for;
    the recourse DP asks only for target-to-target edges of legs that
    overflow the tank, a small share of the pairs.
    """

    def __init__(self, fuel: np.ndarray, n_depots: int) -> None:
        self.fuel = fuel
        self.n_depots = n_depots
        self._rows: list[Optional[list[int]]] = [None] * len(fuel)

    @cached_property
    def fuel_rows(self) -> list[list[float]]:
        return self.fuel.tolist()

    def depot_of(self, i: int, j: int) -> int:
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [-1] * len(self._rows)
        best = row[j]
        if best < 0:
            fuel = self.fuel_rows
            fuel_i = fuel[i]
            best, through = 0, fuel_i[0] + fuel[0][j]
            for d in range(1, self.n_depots):
                value = fuel_i[d] + fuel[d][j]
                if value < through:
                    best, through = d, value
            row[j] = best
        return best


def penalty(instance: Instance, betas: Sequence[float]) -> float:
    """Objective penalty charged per unrecoverable scenario: the largest
    finite recourse cost in ``betas`` plus twice all home round trips.

    The additive term dominates any single detour cost on the testbed, so
    the penalty stays above every recourse cost met during a search.
    """
    finite = [b for b in betas if math.isfinite(b)]
    base = max(finite, default=0.0)
    cost = instance.cost
    slack = 2.0 * math.fsum(
        float(cost[0, t]) + float(cost[t, 0]) for t in instance.target_indices
    )
    return base + slack


def _check_shape(instance: Instance, scenario: Scenario) -> None:
    n = instance.n_vertices
    if scenario.fuel.shape != (n, n):
        raise ValueError(
            f"scenario {scenario.id} fuel shape {scenario.fuel.shape} "
            f"does not match instance ({n}, {n})"
        )


def _leg_best(
    route: tuple[int, ...],
    a: int,
    b: int,
    fuel: list[list[float]],
    cost: list[list[float]],
    cap: float,
    depot_of: Callable[[int, int], int],
    nd: int,
):
    """Cheapest detour pattern for one depot-to-depot leg, or None.

    One left-to-right sweep over the leg's positions carries labels (detour
    cost, detoured positions, fuel burnt since the last refuel); a label,
    a refuelled one included, is dropped as soon as its fuel passes the
    capacity. On a target-to-target edge each label within reach of the
    edge's best depot offers a detour through it; the lexicographically
    smallest (cost, positions) offer refuels a new label on the far side.
    Fuel is accumulated edge by edge in route order so
    feasibility decisions match the enumeration oracle bit for bit. ``fuel``
    and ``cost`` are list rows of the realization and the instance costs,
    and ``depot_of`` gives an edge's best depot (``BestDepotTable.depot_of``).
    Returns ``(cost, positions)``.
    """
    labels = [(0.0, (), 0.0)]
    for pos in range(a, b):
        v = route[pos]
        nxt = route[pos + 1]
        fuel_v = fuel[v]
        step = fuel_v[nxt]
        offer = None
        advanced = []
        if v >= nd and nxt >= nd:
            d = depot_of(v, nxt)
            to_depot = fuel_v[d]
            cost_v = cost[v]
            # the detour increment, same fold as evaluate_recourse's beta
            inc = (cost_v[d] + cost[d][nxt]) - cost_v[nxt]
            for value, pattern, running in labels:
                if running + to_depot <= cap:
                    cand = value + inc
                    if offer is None or cand < offer[0]:
                        offer = (cand, pattern + (pos,))
                    elif cand == offer[0]:
                        extended = pattern + (pos,)
                        if extended < offer[1]:
                            offer = (cand, extended)
                ahead = running + step
                if ahead <= cap:
                    advanced.append((value, pattern, ahead))
            refilled = fuel[d][nxt]
            if offer is not None and refilled <= cap:
                advanced.append((offer[0], offer[1], refilled))
        else:
            for value, pattern, running in labels:
                ahead = running + step
                if ahead <= cap:
                    advanced.append((value, pattern, ahead))
        if not advanced:
            return None
        labels = advanced
    return min((value, pattern) for value, pattern, _ in labels)


def _direct_leg_fits(
    route: tuple[int, ...], a: int, b: int, fuel: list[list[float]], cap: float
) -> bool:
    """Whether ``_leg_best`` keeps the detour-free label of a leg to its end.

    The same check in the same order: the capacity after each edge of the
    left-folded realized fuel.
    """
    running = 0.0
    for p in range(a, b):
        running += fuel[route[p]][route[p + 1]]
        if running > cap:
            return False
    return True


def _leg_recourse(
    route: tuple[int, ...],
    a: int,
    b: int,
    fuel: list[list[float]],
    cap: float,
    depot_of: Callable[[int, int], int],
    instance: Instance,
):
    """Cheapest detour pattern ``(cost, positions)`` for one leg, or None.

    ``_leg_best``'s answer, with a direct-leg shortcut: when
    ``instance.min_detour_increment >= 0.0`` and the leg flown as planned
    fits the tank, the answer is ``(0.0, ())`` without running the DP. Every
    detour increment is then at least 0.0 and rounding is monotone, so no
    detour pattern costs less than 0.0, and on a tie the DP keeps the empty
    pattern; its answer is ``(0.0, ())`` either way.
    """
    if instance.min_detour_increment >= 0.0 and _direct_leg_fits(route, a, b, fuel, cap):
        return 0.0, ()
    return _leg_best(route, a, b, fuel, instance.cost_rows, cap, depot_of, instance.n_depots)


@lru_cache(maxsize=32)
def _leg_bounds(route: tuple[int, ...], nd: int) -> tuple[tuple[int, int], ...]:
    """First and last positions of each depot-to-depot leg, in route order.

    Cached: the out-of-sample pass asks for the legs of the same few routes
    once per scenario. The cache is small, since the searches meet thousands
    of routes once each and would otherwise keep them all.
    """
    stops = [p for p, v in enumerate(route) if v < nd]
    return tuple(zip(stops, stops[1:]))


def _rows(scenario: Scenario, table: BestDepotTable) -> tuple[list, Callable[[int, int], int]]:
    """Fuel rows and best-depot lookup for one scenario under its own table.

    Refuses a table built for another fuel realization. The identity test
    comes first, so a table built from this scenario costs one pointer
    comparison.
    """
    if table.fuel is not scenario.fuel and not np.array_equal(table.fuel, scenario.fuel):
        raise ValueError(
            f"best-depot table was built for another realization than scenario {scenario.id}"
        )
    return table.fuel_rows, table.depot_of


def evaluate_recourse(
    routes: RouteSet,
    scenario: Scenario,
    instance: Instance,
    table: Optional[BestDepotTable] = None,
) -> RecoursePlan:
    """Exact minimum-cost recourse plan for one scenario.

    Routes are assumed nominally feasible and their target order is never
    altered; only mid-edge depot detours may be spliced in, at most one per
    edge, each leg priced by ``_leg_recourse``. Returns an infeasible plan
    with infinite cost when some leg cannot be recovered. A given ``table``
    must be built from this scenario's fuel; another raises ValueError.
    Without one, the plan's best depots are computed as the legs need them.
    Detours are found in (route, position) order, and beta folds their
    increments ``(cost[i][d] + cost[d][j]) - cost[i][j]`` as they are.
    """
    _check_shape(instance, scenario)
    if table is None:
        table = BestDepotTable(scenario.fuel, instance.n_depots)
    fuel, depot_of = _rows(scenario, table)
    cost = instance.cost_rows
    cap = instance.fuel_capacity
    nd = instance.n_depots
    detours: list[tuple[int, int]] = []
    depots: dict[tuple[int, int], int] = {}
    beta = 0.0
    for r, route in enumerate(routes.routes):
        for a, b in _leg_bounds(route, nd):
            leg = _leg_recourse(route, a, b, fuel, cap, depot_of, instance)
            if leg is None:
                return RecoursePlan(scenario.id, (), {}, math.inf)
            for p in leg[1]:
                i, j = route[p], route[p + 1]
                d = depots[r, p] = depot_of(i, j)
                detours.append((r, p))
                beta += (cost[i][d] + cost[d][j]) - cost[i][j]
    return RecoursePlan(scenario.id, tuple(detours), depots, beta)


class LegMemo:
    """Per-scenario recourse of single routes, one leg DP per (leg, scenario).

    The tank is refilled at every depot stop, so a leg's recourse cost
    depends only on its vertex sequence and the scenario, not on the route
    around it. The memo maps each depot-to-depot leg met so far to one entry
    per scenario of ``scenarios``: inf where no detour plan recovers it, else
    the cost ``_leg_recourse`` finds. ``route_betas`` folds a route's legs
    left to right per scenario from +0.0; no leg cost is -0.0, so a leg
    flown as planned leaves the sum's bits unchanged. Build one memo per
    scenario sample; it builds each scenario's best-depot table, kept in
    ``tables`` in scenario order.
    """

    def __init__(self, instance: Instance, scenarios: Sequence[Scenario]) -> None:
        self.instance = instance
        self.scenarios = tuple(scenarios)
        for s in self.scenarios:
            _check_shape(instance, s)
        self.tables = tuple(BestDepotTable(s.fuel, instance.n_depots) for s in self.scenarios)
        self._rows = [(t.fuel_rows, t.depot_of) for t in self.tables]
        self._costs: dict[tuple[int, ...], tuple[float, ...]] = {}

    def __len__(self) -> int:
        """Distinct legs met so far."""
        return len(self._costs)

    def _leg_costs(self, leg: tuple[int, ...]) -> tuple[float, ...]:
        inst = self.instance
        cap = inst.fuel_capacity
        last = len(leg) - 1
        out = []
        for fuel, depot_of in self._rows:
            best = _leg_recourse(leg, 0, last, fuel, cap, depot_of, inst)
            out.append(math.inf if best is None else best[0])
        return tuple(out)

    def route_betas(self, route: Sequence[int]) -> tuple[float, ...]:
        """Minimum recourse cost of ``route`` in every scenario, in order;
        inf where the route is unrecoverable."""
        route = tuple(route)
        costs = self._costs
        legs = []
        for a, b in _leg_bounds(route, self.instance.n_depots):
            leg = route[a : b + 1]
            entry = costs.get(leg)
            if entry is None:
                entry = costs[leg] = self._leg_costs(leg)
            legs.append(entry)
        betas = []
        for k in range(len(self._rows)):
            total = 0.0
            for entry in legs:
                value = entry[k]
                if value == math.inf:
                    total = math.inf
                    break
                total += value
            betas.append(total)
        return tuple(betas)
