"""Core problem data types and route-level checks.

Vertices are addressed by integer index into ``Instance.vertices``. Index 0 is
always the home depot, indices ``1..k`` the refuel depots, and the remaining
indices the targets. Routes are tuples of vertex indices that start and end at
index 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "RouteStructureError",
    "Instance",
    "Scenario",
    "ScenarioSet",
    "RouteSet",
    "RecoursePlan",
    "make_instance",
    "euclidean_matrix",
    "is_metric",
    "depot_radius",
    "validate_instance",
    "route_cost",
    "route_fits",
    "nominal_feasibility",
]

PROB_TOL = 1e-9
# Triangle-inequality tolerance of ``is_metric``; solvers that rely on metric
# costs budget it once per edge in their pruning slack.
METRIC_TOL = 1e-9


class RouteStructureError(ValueError):
    """A route set violates the structural contract (not a cost question)."""


def euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Dense pairwise Euclidean distances; diagonal left at zero."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def is_metric(matrix: np.ndarray) -> bool:
    """True when the matrix satisfies the triangle inequality within
    ``METRIC_TOL``."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    for k in range(n):
        # broadcast check of m[i,j] <= m[i,k] + m[k,j] + METRIC_TOL for all i, j
        if np.any(m > m[:, k][:, None] + m[k, :][None, :] + METRIC_TOL):
            return False
    return True


@dataclass(frozen=True)
class Instance:
    """A routing instance over one home depot, refuel depots, and targets.

    ``cost`` and ``nominal_fuel`` are dense float64 matrices over the full
    vertex ordering; diagonal entries are ignored. ``fuel_capacity`` is the
    per-segment fuel budget between consecutive depot visits.

    An instance is also the deterministic problem the solvers of
    ``detsolve`` take. A problem under other fuel or costs, such as one
    scenario's fuel or discounted costs, is the instance with its matrices
    swapped in: ``dataclasses.replace(instance, nominal_fuel=..., cost=...)``.
    The copy starts with empty caches, so it shares no table or memo with
    the instance it came from.
    """

    vertices: tuple[str, ...]
    n_refuel: int
    coordinates: np.ndarray
    cost: np.ndarray
    nominal_fuel: np.ndarray
    vehicles: int
    fuel_capacity: float
    grid: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("coordinates", "cost", "nominal_fuel"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_depots(self) -> int:
        return self.n_refuel + 1

    @property
    def n_targets(self) -> int:
        return self.n_vertices - self.n_depots

    @property
    def depot_indices(self) -> range:
        return range(0, self.n_depots)

    @property
    def target_indices(self) -> range:
        return range(self.n_depots, self.n_vertices)

    def is_target(self, v: int) -> bool:
        return v >= self.n_depots

    @cached_property
    def lam(self) -> float:
        """``depot_radius`` of ``coordinates``."""
        return depot_radius(self.coordinates, self.n_depots)

    @cached_property
    def metric(self) -> bool:
        """Whether ``cost`` satisfies the triangle inequality (``is_metric``)."""
        return is_metric(self.cost)

    # Plain-list mirrors of the matrices for scalar hot loops: indexing a
    # list of floats is several times cheaper than a numpy scalar lookup, and
    # the values and the IEEE arithmetic on them are the same.
    @cached_property
    def cost_rows(self) -> list[list[float]]:
        return self.cost.tolist()

    @cached_property
    def fuel_rows(self) -> list[list[float]]:
        return self.nominal_fuel.tolist()

    @cached_property
    def exit_fuel_list(self) -> list[float]:
        return self.min_exit_fuel.tolist()

    @cached_property
    def min_detour_increment(self) -> float:
        """Smallest ``(cost[v][d] + cost[d][w]) - cost[v][w]`` over edges
        ``v != w`` and depots ``d`` other than both; inf without such a
        detour. Subtraction rounds monotonically, so each edge's cheapest
        detour (``_cheapest_detours``) less its cost gives the same bits.

        Non-negative for metric costs. Then no detour can pay: every detour
        label of the insertion DP and of the recourse leg DP starts at one of
        these increments and every later fold stays at or above 0.0, so the
        detour-free label (0.0, the empty pattern) wins every comparison,
        ties included, and both DPs skip their sweep when the detour-free
        route is fuel feasible. Swapped-in costs can make it negative.
        """
        cost = self.cost
        off_diagonal = ~np.eye(len(cost), dtype=bool)
        increments = (_cheapest_detours(cost, self.n_depots) - cost)[off_diagonal]
        return float(increments.min()) if increments.size else math.inf

    @cached_property
    def min_exit_fuel(self) -> np.ndarray:
        """Per-vertex cheapest nominal fuel to reach any depot."""
        return min_exit_fuel(self.nominal_fuel, self.n_depots)

    @cached_property
    def min_entry_fuel(self) -> np.ndarray:
        """Per-vertex cheapest nominal fuel from any depot."""
        return min_entry_fuel(self.nominal_fuel, self.n_depots)

    @cached_property
    def _detour_rows(self) -> list[Optional[list]]:
        return [None] * self.n_vertices

    def detour_options(self, v: int, w: int) -> tuple[float, tuple[tuple[int, float, float], ...]]:
        """The direct cost of edge (v, w) and the depot detours off it.

        Each detour is ``(d, fuel[v][d], cost[v][d] + cost[d][w])`` for a depot
        ``d`` other than ``v`` and ``w``, sorted by the fuel to reach it, so a
        sweep can stop at the first depot out of reach. Built the first time
        a sweep crosses the edge and kept in a row list made when its row is
        first asked for, so an instance pays only for the edges its sweeps
        cross.
        """
        rows = self._detour_rows
        row = rows[v]
        if row is None:
            row = rows[v] = [None] * len(rows)
        entry = row[w]
        if entry is None:
            cost = self.cost_rows
            cost_v = cost[v]
            fuel_v = self.fuel_rows[v]
            detours = [
                (d, fuel_v[d], cost_v[d] + cost[d][w])
                for d in self.depot_indices
                if d != v and d != w
            ]
            detours.sort(key=lambda option: option[1])
            entry = row[w] = (cost_v[w], tuple(detours))
        return entry

    @cached_property
    def insertions(self) -> dict[tuple[int, ...], Optional[tuple[tuple[int, ...], float]]]:
        """Memo of ``detsolve.optimal_depot_insertion`` on this instance,
        keyed by the bare sequence; the answer depends on nothing else."""
        return {}

    @cached_property
    def edge_floor_rows(self) -> list[list[float]]:
        """Per edge (u, w): its cheapest realization, ``cost[u][w]`` or a
        detour ``cost[u][d] + cost[d][w]`` through a depot ``d`` not in
        {u, w}, added as in ``detour_options``; the cost itself wherever no
        detour is cheaper, as on metric costs."""
        return np.minimum(self.cost, _cheapest_detours(self.cost, self.n_depots)).tolist()

    @cached_property
    def bound_margin(self) -> float:
        """Slack of the exact searches' cuts (``detsolve._branch_routes``,
        ``stochsolve._pattern_score``): ``2**-37`` of the largest |cost|. Scaling every cost by a power of
        two scales it and every total exactly, so no answer moves."""
        return 2.0**-37 * float(np.abs(self.cost).max())

    @cached_property
    def label_slack_unit(self) -> float:
        """Per-instance factor of the insertion sweep's dominance margin.

        ``detsolve.optimal_depot_insertion`` drops a label only when its
        delta exceeds a dominating label's by more than
        ``slack = unit * L * (L + 1)`` on a route of L edges. A dropped label
        must end strictly worse than its dominator after every remaining
        fold, so the slack has to cover the worst rounding drift of those
        folds. Let C be the largest |cost|. A delta sums at most L increments
        of at most 3C each, so with rounding every |delta| and every
        |delta + via| stays below B = 4(L + 1)C. One ``(x + via) - direct``
        step rounds twice per label, each time by at most u|result| with
        u = 2**-53, so it shrinks the gap between two labels by at most 4uB;
        at most L steps remain, a drift of at most 16uL(L + 1)C. Twice that,
        the unit 32uC, also covers the rounding of ``best + slack`` in the
        test itself.
        """
        return 32.0 * 2.0**-53 * float(np.abs(self.cost).max())


def depot_radius(coordinates: np.ndarray, n_depots: int) -> float:
    """The largest Euclidean distance from a depot (home depot included) to a
    target: the instance's lambda, which scales the default fuel capacity."""
    return float(
        max(
            float(np.linalg.norm(coordinates[d] - coordinates[t]))
            for d in range(n_depots)
            for t in range(n_depots, len(coordinates))
        )
    )


def _cheapest_detours(cost: np.ndarray, n_depots: int) -> np.ndarray:
    """Per ordered pair (u, w): the cheapest ``cost[u][d] + cost[d][w]``
    over depots ``d`` other than u and w, inf where there is none."""
    via = cost[:, :n_depots, None] + cost[None, :n_depots, :]
    for d in range(n_depots):
        via[d, d, :] = via[:, d, d] = math.inf
    return via.min(axis=1)


def min_exit_fuel(fuel: np.ndarray, n_depots: int) -> np.ndarray:
    out = fuel[:, :n_depots].min(axis=1)
    out.flags.writeable = False
    return out


def min_entry_fuel(fuel: np.ndarray, n_depots: int) -> np.ndarray:
    out = fuel[:n_depots, :].min(axis=0)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Scenario:
    """One realization of the random fuel-consumption matrix."""

    id: int
    probability: float
    fuel: np.ndarray

    def __post_init__(self) -> None:
        self.fuel.flags.writeable = False
        if not (0.0 < self.probability <= 1.0):
            raise ValueError(f"scenario {self.id}: probability {self.probability} outside (0, 1]")


@dataclass(frozen=True)
class ScenarioSet:
    """An ordered collection of scenarios whose probabilities sum to one.

    ``rejections`` counts the draws the sampler rejected while making the
    set (0 for a set built or read otherwise), a work counter outside
    equality.
    """

    scenarios: tuple[Scenario, ...]
    label: str = ""
    rejections: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        total = math.fsum(s.probability for s in self.scenarios)
        if self.scenarios and abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, expected 1")
        ids = [s.id for s in self.scenarios]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate scenario ids")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)


@dataclass(frozen=True)
class RouteSet:
    """Exactly one route per vehicle; every route starts and ends at depot 0."""

    routes: tuple[tuple[int, ...], ...]

    def canonical(self) -> "RouteSet":
        """Route order normalized for comparisons; visit order untouched."""
        return RouteSet(tuple(sorted(self.routes)))

    def bare_sequences(self, instance: Instance) -> tuple[tuple[int, ...], ...]:
        """Per-route target sequences with every depot visit stripped."""
        return tuple(
            tuple(v for v in route if instance.is_target(v)) for route in self.routes
        )


@dataclass(frozen=True)
class RecoursePlan:
    """Second-stage repair of one route set under one scenario.

    ``detoured_edges`` holds ``(route_index, edge_position)`` pairs; the edge
    at position p connects route vertices p and p+1. ``inserted_depots`` maps
    each detoured edge to the depot spliced into it. ``beta`` is the summed
    detour cost, ``inf`` when the scenario is not recoverable.
    """

    scenario_id: int
    detoured_edges: tuple[tuple[int, int], ...]
    inserted_depots: Mapping[tuple[int, int], int]
    beta: float

    @property
    def feasible(self) -> bool:
        """Whether some detour plan recovers the scenario."""
        return math.isfinite(self.beta)


def make_instance(
    target_coords: Sequence[tuple[float, float]],
    refuel_coords: Sequence[tuple[float, float]],
    home_coord: tuple[float, float],
    vehicles: int,
    fuel_factor: float = 2.25,
    grid: Optional[float] = None,
) -> Instance:
    """Assemble an instance with Euclidean cost and nominal fuel matrices
    and a fuel capacity of ``fuel_factor`` times the maximum
    depot-to-target distance.

    Other matrices or another capacity go in by
    ``dataclasses.replace(instance, ...)``.
    """
    coords = np.array([home_coord, *refuel_coords, *target_coords], dtype=float)
    n_refuel = len(refuel_coords)
    n_depots = n_refuel + 1
    vertex_ids = [f"d{i}" for i in range(n_depots)] + [
        f"t{i}" for i in range(1, len(target_coords) + 1)
    ]
    return Instance(
        vertices=tuple(vertex_ids),
        n_refuel=n_refuel,
        coordinates=coords,
        cost=euclidean_matrix(coords),
        nominal_fuel=euclidean_matrix(coords),
        vehicles=vehicles,
        fuel_capacity=float(fuel_factor * depot_radius(coords, n_depots)),
        grid=grid,
    )


def validate_instance(
    instance: Instance, scenario_set: Optional[ScenarioSet] = None
) -> tuple[str, ...]:
    """Reasons to refuse the instance, and the scenario set when given: bad
    shapes, non-finite numbers, negative fuel between two vertices, a
    capacity that is not positive and targets no depot round trip can
    reach. Empty when both are usable."""
    refusals: list[str] = []
    n = instance.n_vertices
    off_diagonal = ~np.eye(n, dtype=bool)
    if instance.n_targets < 1:
        refusals.append("instance has no targets")
    if instance.vehicles < 1:
        refusals.append("vehicle count must be at least 1")
    if instance.n_refuel < 0:
        refusals.append(f"refuel depot count must be at least 0, got {instance.n_refuel}")
    if instance.n_targets >= 1 and instance.vehicles > instance.n_targets:
        refusals.append(
            f"{instance.vehicles} vehicles exceed {instance.n_targets} targets "
            "(empty routes are not allowed)"
        )
    shapes_ok = True
    for name, mat in (("cost", instance.cost), ("nominal_fuel", instance.nominal_fuel)):
        if mat.shape != (n, n):
            refusals.append(f"{name} matrix shape {mat.shape} != ({n}, {n})")
            shapes_ok = False
    if instance.coordinates.shape != (n, 2):
        refusals.append(f"coordinates shape {instance.coordinates.shape} != ({n}, 2)")
        shapes_ok = False
    for name, arr in (
        ("coordinates", instance.coordinates),
        ("cost", instance.cost),
        ("nominal_fuel", instance.nominal_fuel),
    ):
        if not np.isfinite(arr).all():
            refusals.append(f"{name} has non-finite entries")
    if shapes_ok and (instance.nominal_fuel[off_diagonal] < 0).any():
        refusals.append("nominal_fuel has negative entries off the diagonal")
    capacity = instance.fuel_capacity
    if not (math.isfinite(capacity) and capacity > 0):
        refusals.append(f"fuel capacity must be finite and positive, got {capacity!r}")
    elif shapes_ok and instance.n_refuel >= 0:
        exit_fuel = instance.min_exit_fuel
        entry_fuel = instance.min_entry_fuel
        for t in instance.target_indices:
            if entry_fuel[t] + exit_fuel[t] > capacity:
                refusals.append(
                    f"target {instance.vertices[t]} unreachable: cheapest depot "
                    f"round trip needs {entry_fuel[t] + exit_fuel[t]:.6g} fuel, "
                    f"capacity is {capacity:.6g}"
                )
    for s in scenario_set or ():
        if s.fuel.shape != (n, n):
            refusals.append(f"scenario {s.id} fuel shape {s.fuel.shape} != ({n}, {n})")
        elif not np.isfinite(s.fuel).all():
            refusals.append(f"scenario {s.id} fuel has non-finite entries")
        elif (s.fuel[off_diagonal] < 0).any():
            refusals.append(f"scenario {s.id} fuel has negative entries off the diagonal")
    return tuple(refusals)


def check_route_structure(routes: RouteSet, instance: Instance) -> None:
    """Raise RouteStructureError unless the route set is well formed."""
    if len(routes.routes) != instance.vehicles:
        raise RouteStructureError(
            f"expected {instance.vehicles} routes, got {len(routes.routes)}"
        )
    seen: dict[int, int] = {}
    for r, route in enumerate(routes.routes):
        if len(route) < 3:
            raise RouteStructureError(f"route {r} is empty (visits no target)")
        if route[0] != 0 or route[-1] != 0:
            raise RouteStructureError(f"route {r} must start and end at the home depot")
        has_target = False
        for a, b in zip(route, route[1:]):
            if a == b:
                raise RouteStructureError(f"route {r} repeats vertex {a} consecutively")
        for v in route[1:-1]:
            if v < 0 or v >= instance.n_vertices:
                raise RouteStructureError(f"route {r} references unknown vertex {v}")
            if instance.is_target(v):
                has_target = True
                if v in seen:
                    raise RouteStructureError(
                        f"target {instance.vertices[v]} visited more than once"
                    )
                seen[v] = r
        if not has_target:
            raise RouteStructureError(f"route {r} is empty (visits no target)")
    missing = [v for v in instance.target_indices if v not in seen]
    if missing:
        names = ", ".join(instance.vertices[v] for v in missing)
        raise RouteStructureError(f"targets left unvisited: {names}")


def route_cost(routes: RouteSet, instance: Instance) -> float:
    """Total first-stage edge cost of a structurally valid route set."""
    check_route_structure(routes, instance)
    cost = instance.cost
    total = 0.0
    for route in routes.routes:
        for a, b in zip(route, route[1:]):
            total += cost[a, b]
    return total


def route_fits(route: Sequence[int], instance: Instance) -> bool:
    """Fuel-check one realized route under nominal consumption.

    Walks the route edge by edge on ``fuel_rows``, folding fuel left to
    right: after each edge the fuel burnt since the last depot must be at
    most the capacity, the tank refills at a depot, and on arrival at a
    target enough fuel must remain to reach some depot
    (``exit_fuel_list``).
    """
    fuel = instance.fuel_rows
    cap = instance.fuel_capacity
    exit_fuel = instance.exit_fuel_list
    nd = instance.n_depots
    used = 0.0
    for a, b in zip(route, route[1:]):
        used += fuel[a][b]
        if used > cap:
            return False
        if b < nd:
            used = 0.0
        elif used + exit_fuel[b] > cap:
            return False
    return True


def nominal_feasibility(routes: RouteSet, instance: Instance) -> bool:
    """Fuel-check a route set under nominal consumption: whether every
    route passes ``route_fits``. Raises RouteStructureError unless the set
    is well formed.
    """
    check_route_structure(routes, instance)
    return all(route_fits(route, instance) for route in routes.routes)
