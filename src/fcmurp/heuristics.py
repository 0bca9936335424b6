"""Two-stage heuristics: scenario-weighted construction and tabu search.

The construction heuristic solves one deterministic problem per scenario,
discounts edge costs by how often scenario solutions use them, and solves a
final deterministic problem under the discounted costs and expected fuel.
The tabu search then walks the swap neighborhood of the penalized two-stage
objective: first-stage cost plus probability-weighted recourse, with a fixed
penalty for scenarios no detour plan can recover. ``fcmurp solve`` runs
them for the replications the exact sampled solver cannot take
(``stochsolve.exact_replications``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .detsolve import (
    optimal_depot_insertion,
    solve_deterministic,
    solve_deterministic_greedy,
)
from .model import Instance, RouteSet, ScenarioSet, nominal_feasibility
from .recourse import LegMemo, penalty

__all__ = [
    "ConstructionWeights",
    "ConstructionResult",
    "TabuParams",
    "TwoStageEvaluator",
    "Evaluation",
    "TabuResult",
    "construction_weights",
    "construct_detailed",
    "tabu_improve",
]


@dataclass(frozen=True)
class ConstructionWeights:
    """Edge tables driving the final construction solve.

    ``discount[i, j]`` is one minus the total probability of scenarios whose
    solution uses edge (i, j); ``weighted_cost`` is the elementwise product
    with the instance cost; ``expected_fuel`` is the probability-weighted
    fuel across all scenarios.
    """

    discount: np.ndarray
    weighted_cost: np.ndarray
    expected_fuel: np.ndarray

    def __post_init__(self) -> None:
        for mat in (self.discount, self.weighted_cost, self.expected_fuel):
            mat.flags.writeable = False


@dataclass(frozen=True)
class ConstructionResult:
    """Constructed routes, the tables behind them and the search's work.

    ``scenario_nodes`` holds the branch-and-bound nodes of each per-scenario
    solve in processing order and ``final_nodes`` those of the final
    discounted solve: 0 for the greedy solver, None where a solve found no
    routes. They are work counters, left out of equality.
    """

    routes: RouteSet
    weights: ConstructionWeights
    scenario_solutions: tuple[tuple[int, Optional[RouteSet]], ...]
    fallback: str  # "none", "reinserted", or "scenario_solution"
    scenario_nodes: tuple[Optional[int], ...] = field(default=(), compare=False)
    final_nodes: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class TabuParams:
    """Knobs for the tabu search; defaults are project choices, not givens."""

    iterations: int = 500
    stall_limit: int = 100
    tenure: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 1 <= self.stall_limit <= self.iterations:
            raise ValueError("stall_limit must be in [1, iterations]")
        if self.tenure is not None and self.tenure < 1:
            raise ValueError("tenure must be >= 1")

    def resolved_tenure(self, n_targets: int) -> int:
        if self.tenure is not None:
            return self.tenure
        return max(7, math.ceil(0.3 * n_targets))


def _used_edges(routes: RouteSet) -> set[tuple[int, int]]:
    # indicator semantics: an edge flown twice still counts once
    edges: set[tuple[int, int]] = set()
    for route in routes.routes:
        edges.update(zip(route, route[1:]))
    return edges


def construction_weights(
    instance: Instance,
    delta: ScenarioSet,
    solutions: Sequence[tuple[int, Optional[RouteSet]]],
) -> ConstructionWeights:
    """Discount, weighted-cost, and expected-fuel tables from per-scenario
    solutions, processed in the given order."""
    n = instance.n_vertices
    by_id = {s.id: s for s in delta}
    discount = np.ones((n, n), dtype=float)
    for sid, routes in solutions:
        if routes is None:
            continue
        p = by_id[sid].probability
        for i, j in sorted(_used_edges(routes)):
            discount[i, j] -= p
    expected = np.zeros((n, n), dtype=float)
    for sid, _ in solutions:
        s = by_id[sid]
        expected += s.probability * s.fuel
    return ConstructionWeights(
        discount=discount,
        weighted_cost=instance.cost * discount,
        expected_fuel=expected,
    )


def _scenario_order(delta: ScenarioSet):
    return sorted(delta, key=lambda s: (-s.probability, s.id))


def construct_detailed(instance: Instance, delta: ScenarioSet) -> ConstructionResult:
    """Scenario-weighted construction with full intermediate tables.

    Scenarios are processed in decreasing probability order (id tie-break).
    Per-scenario problems that have no feasible solution contribute nothing
    to the discount table but keep their weight in the expected fuel. Every
    solve is ``solve_deterministic``'s: exact up to ``EXACT_TARGET_LIMIT``
    targets, greedy beyond it.
    """
    ordered = _scenario_order(delta)
    solutions: list[tuple[int, Optional[RouteSet]]] = []
    nodes: list[Optional[int]] = []
    for s in ordered:
        sol = solve_deterministic(replace(instance, nominal_fuel=s.fuel))
        solutions.append((s.id, None if sol is None else sol.routes))
        nodes.append(None if sol is None else sol.nodes)
    weights = construction_weights(instance, delta, solutions)
    final = solve_deterministic(
        replace(instance, cost=weights.weighted_cost, nominal_fuel=weights.expected_fuel)
    )

    routes, fallback = None, "none"
    if final is not None:
        if nominal_feasibility(final.routes, instance):
            routes = final.routes
        else:
            # expected fuel can be laxer than nominal: re-insert depots
            reinserted = []
            for seq in final.routes.bare_sequences(instance):
                ins = optimal_depot_insertion(seq, instance)
                if ins is None:
                    reinserted = None
                    break
                reinserted.append(ins[0])
            if reinserted is not None:
                routes = RouteSet(tuple(reinserted))
                fallback = "reinserted"
    if routes is None:
        routes = _best_feasible_fallback(instance, delta, solutions)
        fallback = "scenario_solution"
    return ConstructionResult(
        routes=routes,
        weights=weights,
        scenario_solutions=tuple(solutions),
        fallback=fallback,
        scenario_nodes=tuple(nodes),
        final_nodes=None if final is None else final.nodes,
    )


def _best_feasible_fallback(
    instance: Instance,
    delta: ScenarioSet,
    solutions: Sequence[tuple[int, Optional[RouteSet]]],
) -> RouteSet:
    candidates: list[RouteSet] = []
    for _, routes in solutions:
        if routes is not None and nominal_feasibility(routes, instance):
            candidates.append(routes)
    nominal = solve_deterministic_greedy(instance)
    if nominal is not None:
        candidates.append(nominal.routes)
    if not candidates:
        raise RuntimeError("construction found no nominally feasible routes")
    evaluator = TwoStageEvaluator(instance, delta)
    bares = [cand.bare_sequences(instance) for cand in candidates]
    evaluator.calibrate(*bares)
    scored = []
    for bare in bares:
        ev = evaluator.evaluate(bare)
        if ev is None:
            continue
        scored.append((ev.objective, ev.routes.canonical().routes, ev.routes))
    if not scored:
        raise RuntimeError("construction found no nominally feasible routes")
    scored.sort(key=lambda x: (x[0], x[1]))
    return scored[0][2]


# One memoized bare sequence: realized route, first-stage cost, and its
# recourse cost per scenario (inf where the scenario is unrecoverable).
RouteScore = tuple[tuple[int, ...], float, tuple[float, ...]]


@dataclass(frozen=True)
class Evaluation:
    """One candidate under the penalized two-stage objective."""

    bare: tuple[tuple[int, ...], ...]
    routes: RouteSet
    stage1: float
    betas: tuple[float, ...]
    objective: float

    @property
    def feasible(self) -> bool:
        return all(math.isfinite(b) for b in self.betas)


class TwoStageEvaluator:
    """Penalized two-stage objective with one memo per bare sequence.

    The memo maps a bare target sequence to its realized route (the optimal
    depot insertion under nominal fuel), that route's first-stage cost and
    its recourse cost in every scenario of ``delta``, or to None when no
    insertion exists. Insertions come from the instance's insertion memo
    and recourse from one ``LegMemo`` on ``delta``, so each bare
    sequence is inserted once per instance and each leg priced once per
    evaluator. Scores fold first-stage costs and recourse sums over
    the routes in route order, so a route set costs the same however its
    routes reached the memo. The penalty is set once by ``calibrate``
    (largest recourse cost seen at calibration plus twice all home round
    trips) and then held fixed.
    """

    def __init__(self, instance: Instance, delta: ScenarioSet) -> None:
        self.instance = instance
        self.delta = delta
        self._legs = LegMemo(instance, delta)
        self._probabilities = tuple(s.probability for s in delta)
        self._memo: dict[tuple[int, ...], Optional[RouteScore]] = {}
        self.nu: Optional[float] = None

    @property
    def sequences(self) -> int:
        """Distinct bare sequences inserted so far."""
        return len(self._memo)

    @property
    def infeasible_sequences(self) -> int:
        """Inserted sequences that no depot insertion makes feasible."""
        return sum(entry is None for entry in self._memo.values())

    @property
    def legs(self) -> int:
        """Distinct depot-to-depot legs priced so far."""
        return len(self._legs)

    def route(self, seq: tuple[int, ...]) -> Optional[RouteScore]:
        """Realized route, first-stage cost and per-scenario recourse of one
        bare sequence; None when it cannot be made nominally feasible."""
        if seq in self._memo:
            return self._memo[seq]
        ins = optimal_depot_insertion(seq, self.instance)
        entry = None
        if ins is not None:
            realized, stage1 = ins
            entry = (realized, stage1, self._legs.route_betas(realized))
        self._memo[seq] = entry
        return entry

    def fold(self, entries: Sequence[RouteScore]) -> tuple[float, tuple[float, ...]]:
        """First-stage cost and per-scenario recourse sums, in route order."""
        stage1 = 0.0
        betas = (0.0,) * len(self._probabilities)
        for _, cost, route_betas in entries:
            stage1 += cost
            betas = tuple(map(operator.add, betas, route_betas))
        return stage1, betas

    def objective(self, stage1: float, betas: Sequence[float]) -> float:
        """Penalized objective: the penalty replaces unrecoverable scenarios."""
        nu = self.nu
        objective = stage1
        for p, b in zip(self._probabilities, betas):
            objective += p * (b if math.isfinite(b) else nu)
        return objective

    def objective_floor(self, stage1: float, betas: Sequence[float]) -> float:
        """``objective`` with each scenario charged ``min(nu, beta)``.

        When no route's recourse can be negative, adding routes only raises
        a recourse sum or makes it inf (charged nu), so this floors the
        recourse part of the objective of any route set holding these
        routes; an inf sum still costs nu.
        """
        nu = self.nu
        objective = stage1
        for p, b in zip(self._probabilities, betas):
            objective += p * min(nu, b)
        return objective

    def parts(
        self, bare: Sequence[tuple[int, ...]]
    ) -> Optional[tuple[tuple[tuple[int, ...], ...], float, tuple[float, ...]]]:
        """Realized routes, first-stage cost, per-scenario recourse sums."""
        entries = []
        for seq in bare:
            entry = self.route(tuple(seq))
            if entry is None:
                return None
            entries.append(entry)
        stage1, betas = self.fold(entries)
        return tuple(e[0] for e in entries), stage1, betas

    def calibrate(self, *bares: Sequence[tuple[int, ...]]) -> None:
        """Set the penalty from the recourse costs of the given route sets
        (``recourse.penalty``); route sets with no insertion add
        none."""
        observed: list[float] = []
        for bare in bares:
            parts = self.parts(bare)
            if parts is not None:
                observed.extend(parts[2])
        self.nu = penalty(self.instance, observed)

    def evaluate(self, bare: Sequence[tuple[int, ...]]) -> Optional[Evaluation]:
        """The penalized score of one route set; None when some route has no
        insertion. Needs a calibrated penalty."""
        parts = self.parts(bare)
        if parts is None:
            return None
        if self.nu is None:
            raise RuntimeError("penalty not calibrated")
        realized, stage1, betas = parts
        return Evaluation(
            bare=tuple(tuple(q) for q in bare),
            routes=RouteSet(realized),
            stage1=stage1,
            betas=betas,
            objective=self.objective(stage1, betas),
        )


def _swap_targets(
    bare: tuple[tuple[int, ...], ...], t1: int, t2: int
) -> tuple[tuple[int, ...], ...]:
    out = []
    for seq in bare:
        out.append(tuple(t2 if v == t1 else t1 if v == t2 else v for v in seq))
    return tuple(out)


def _target_pairs(instance: Instance):
    targets = list(instance.target_indices)
    for a in range(len(targets)):
        for b in range(a + 1, len(targets)):
            yield (targets[a], targets[b])


@dataclass(frozen=True)
class TabuResult:
    """Best solution of a tabu run, its move log and its work counters.

    The counters read off the move log are part of the answer. The work
    counters are left out of equality: ``sequences`` (distinct bare
    sequences inserted) and ``infeasible_sequences`` (those no depot
    insertion could make feasible), ``legs`` (distinct legs priced),
    ``scans`` (distinct states whose neighborhood was scanned) and
    ``scored`` (swaps scored exactly, over all states).
    """

    routes: RouteSet
    objective: float
    stage1: float
    betas: tuple[float, ...]
    iterations: int
    move_log: tuple[tuple, ...]
    warning: Optional[str]
    sequences: int = field(default=0, compare=False)
    infeasible_sequences: int = field(default=0, compare=False)
    legs: int = field(default=0, compare=False)
    scans: int = field(default=0, compare=False)
    scored: int = field(default=0, compare=False)

    @property
    def feasible(self) -> bool:
        """Whether every scenario of the search sample is recoverable."""
        return all(math.isfinite(b) for b in self.betas)

    def _count(self, kind: str) -> int:
        return sum(row[1] == kind for row in self.move_log)

    @property
    def moves(self) -> int:
        return self._count("move")

    @property
    def stagnant(self) -> int:
        return self._count("stagnant")

    @property
    def resets(self) -> int:
        return self._count("reset")

    @property
    def aspirations(self) -> int:
        return sum(bool(row[4]) for row in self.move_log)


def _swap_objective(
    evaluator: TwoStageEvaluator,
    bare: tuple[tuple[int, ...], ...],
    entries: list[RouteScore],
    where: dict[int, tuple[int, int]],
    t1: int,
    t2: int,
) -> Optional[float]:
    """Objective after swapping two targets, re-scoring only changed routes.

    Changed routes are inserted in increasing route index and the first one
    without a feasible insertion ends the move, as a full evaluation of the
    swapped route set would; unchanged routes keep their memoized scores.
    """
    r1, i1 = where[t1]
    r2, i2 = where[t2]
    trial = list(entries)
    if r1 == r2:
        seq = list(bare[r1])
        seq[i1], seq[i2] = t2, t1
        changed = ((r1, seq),)
    else:
        seq1 = list(bare[r1])
        seq1[i1] = t2
        seq2 = list(bare[r2])
        seq2[i2] = t1
        changed = ((r1, seq1), (r2, seq2)) if r1 < r2 else ((r2, seq2), (r1, seq1))
    for r, seq in changed:
        entry = evaluator.route(tuple(seq))
        if entry is None:
            return None
        trial[r] = entry
    return evaluator.objective(*evaluator.fold(trial))


def _bound_slack(evaluator: TwoStageEvaluator) -> float:
    """Rounding margin of the swap bound's stop test (see ``_swap_bounds``).

    A bound is admissible in exact arithmetic but folded in another order
    than the objective it bounds, so the scan stops only where a bound
    exceeds the best exact objective by more than both folds can drift. Let
    u = 2**-53, C the largest |cost|, n targets, m routes and K scenarios.
    A realized route set has at most E = 2(n + m) edges (one depot at most
    per bare edge), so its first-stage cost is at most A = EC in size, a
    recourse sum (at most n + m increments of at most 3C) at most 2A, and
    every partial fold of an objective or a bound at most M = 3A + max(|nu|,
    2A). Each of the two values takes at most N = 4E + 2K + 16 roundings of
    at most uM each, which also absorbs the real increments behind float
    increments >= 0.0 (each at least -6uC). So a computed objective lies at
    most 2NuM below its computed bound; twice that, 4NuM, also covers the
    rounding of the test itself.
    """
    instance = evaluator.instance
    edges = 2 * (instance.n_targets + instance.vehicles)
    size = edges * float(np.abs(instance.cost).max())
    magnitude = 3.0 * size + max(abs(evaluator.nu), 2.0 * size)
    steps = 4 * edges + 2 * len(evaluator.delta) + 16
    return 4.0 * steps * 2.0**-53 * magnitude


def _swap_bounds(
    evaluator: TwoStageEvaluator,
    bare: tuple[tuple[int, ...], ...],
    entries: list[RouteScore],
    pairs: np.ndarray,
) -> np.ndarray:
    """A lower bound on the objective of each swap in ``pairs`` (a k x 2
    array of target pairs).

    Unchanged routes keep their first-stage cost and recourse, and each
    scenario's recourse term is floored at ``min(nu, beta)`` of their sum
    (``TwoStageEvaluator.objective_floor``). Each changed route is priced at
    its bare cost: flown with no depot inserted and no recourse. Both are
    admissible when no detour increment is negative, since every inserted
    depot and every recourse detour then adds at least 0.0; otherwise every
    bound is -inf. The unchanged part is folded once per set of changed
    routes and a swapped route's bare cost follows from the edges the swap
    replaces, so bounds differ from exact folds by rounding (``_bound_slack``).
    The swaps are priced together with numpy, each bound with the same
    additions in the same order as one swap at a time.
    """
    if evaluator.instance.min_detour_increment < 0.0:
        return np.full(len(pairs), -math.inf)
    instance = evaluator.instance
    rows = instance.cost_rows
    cost = instance.cost
    padded = [(0, *seq, 0) for seq in bare]
    alone = []
    for route in padded:
        total = 0.0
        for a, b in zip(route, route[1:]):
            total += rows[a][b]
        alone.append(total)

    def rest(*changed: int) -> float:
        kept = [e for r, e in enumerate(entries) if r not in changed]
        return evaluator.objective_floor(*evaluator.fold(kept))

    # (first, last) changed route, either way round -> the bound before the
    # swap's edge changes
    base = np.empty((len(padded), len(padded)))
    for r1 in range(len(padded)):
        base[r1, r1] = rest(r1) + alone[r1]
        for r2 in range(r1 + 1, len(padded)):
            base[r1, r2] = base[r2, r1] = rest(r1, r2) + alone[r1] + alone[r2]
    # per target: its route, position, and left and right neighbor
    slot = [[0] * instance.n_vertices for _ in range(4)]
    for r, route in enumerate(padded):
        for i in range(1, len(route) - 1):
            t = route[i]
            slot[0][t], slot[1][t], slot[2][t], slot[3][t] = r, i, route[i - 1], route[i + 1]
    route_of, pos_of, left_of, right_of = np.array(slot, dtype=np.intp)
    t1, t2 = pairs[:, 0], pairs[:, 1]
    r1, r2 = route_of[t1], route_of[t2]
    left1, right1 = left_of[t1], right_of[t1]
    left2, right2 = left_of[t2], right_of[t2]
    out1 = cost[left1, t1] + cost[t1, right1]
    out2 = cost[left2, t2] + cost[t2, right2]
    before = base[r1, r2]
    bounds = (
        before
        - out1
        - out2
        + (cost[left1, t2] + cost[t2, right1])
        + (cost[left2, t1] + cost[t1, right2])
    )
    # neighbors: left -> a -> b -> right becomes left -> b -> a -> right
    near = np.flatnonzero((r1 == r2) & (np.abs(pos_of[t1] - pos_of[t2]) == 1))
    if near.size:
        first = pos_of[t1[near]] < pos_of[t2[near]]
        a = np.where(first, t1[near], t2[near])
        b = np.where(first, t2[near], t1[near])
        left, right = left_of[a], right_of[b]
        bounds[near] = (
            before[near]
            - (cost[left, a] + cost[a, b] + cost[b, right])
            + (cost[left, b] + cost[b, a] + cost[a, right])
        )
    return bounds


class _StateScan:
    """One state's swaps in bound order, scored exactly as far as needed.

    ``order`` holds swap indices sorted by bound (index tie-break) and
    ``bounds`` their bounds in that order, as a numpy array, since a scan is
    kept for every state met (the 190 bounds of a 20-target state take
    1.5 KB); ``objectives`` holds the exact objectives of the first
    ``len(objectives)`` swaps in that order (None: no insertion), so the
    scored swaps are always a prefix of the order.
    """

    def __init__(
        self,
        evaluator: TwoStageEvaluator,
        bare: tuple[tuple[int, ...], ...],
        pairs: np.ndarray,
    ) -> None:
        self.entries = [evaluator.route(seq) for seq in bare]
        self.where = {t: (r, i) for r, seq in enumerate(bare) for i, t in enumerate(seq)}
        bounds = _swap_bounds(evaluator, bare, self.entries, pairs)
        values = bounds.tolist()
        self.order = sorted(range(len(values)), key=values.__getitem__)
        self.bounds = bounds[self.order]
        self.objectives: list[Optional[float]] = []


def tabu_improve(
    initial: RouteSet,
    delta: ScenarioSet,
    params: TabuParams,
    instance: Instance,
) -> TabuResult:
    """Swap-neighborhood tabu search on the penalized two-stage objective.

    Each iteration weighs every target swap of the current solution, picks the
    best admissible improving neighbor (admissible: not tabu, or beating the
    best-so-far objective), else the best non-tabu neighbor, and marks the
    move tabu for the tenure. The best solution is only replaced by feasible
    improvements; the current solution resets to it after ceil(sqrt(k))
    non-improving iterations, and the search stops after the stall limit.

    A swap changes one route (both targets on it) or two; scoring it
    re-scores only those from the evaluator's memo and folds the objective
    over all routes exactly as a full evaluation does. Most swaps cannot
    win, so a scan scores them lazily: each swap gets a lower bound
    (``_swap_bounds``), swaps are scored in bound order, and the scan stops
    once the next bound exceeds the best exact non-tabu objective by more
    than the rounding slack (``_bound_slack``). Every unscored swap is then
    strictly worse than a scored admissible one, so none can be chosen, be
    the fallback or win a tie: the chosen moves, objectives and move log are
    those of evaluating every neighbor in full. Bounds and exact objectives
    are kept per state, and a state met again (after a reset, say) scores
    more swaps only where its new tabu status needs them; the tabu,
    aspiration and choice rules still run on every iteration. Where a
    detour increment is negative the bound is -inf and every swap is scored.

    Move log rows are (iteration, kind, move, objective, aspiration) with
    kind one of "move", "stagnant", "reset".
    """
    tenure = params.resolved_tenure(instance.n_targets)
    evaluator = TwoStageEvaluator(instance, delta)
    bare0 = initial.bare_sequences(instance)
    evaluator.calibrate(bare0)
    current = evaluator.evaluate(bare0)
    if current is None:
        raise ValueError("initial routes cannot be made nominally feasible")
    best = current
    pairs = list(_target_pairs(instance))
    pair_array = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    slack = _bound_slack(evaluator)
    scans: dict[tuple[tuple[int, ...], ...], _StateScan] = {}
    # each swap's last tabu iteration; a move is tabu while it is >= k
    tabu_until: dict[tuple[int, int], int] = {}
    log: list[tuple] = []
    since_improve = 0
    since_reset = 0
    iterations = 0
    for k in range(1, params.iterations + 1):
        iterations = k
        bare = current.bare
        scan = scans.get(bare)
        if scan is None:
            scan = scans[bare] = _StateScan(evaluator, bare, pair_array)
        objectives = scan.objectives
        chosen = None  # (objective, move, aspiration)
        fallback = None
        limit = math.inf  # best exact non-tabu objective plus the slack
        for pos, index in enumerate(scan.order):
            if scan.bounds[pos] > limit:
                break
            move = pairs[index]
            if pos == len(objectives):
                objectives.append(
                    _swap_objective(evaluator, bare, scan.entries, scan.where, *move)
                )
            objective = objectives[pos]
            if objective is None:
                continue
            is_tabu = tabu_until.get(move, 0) >= k
            aspires = objective < best.objective
            if is_tabu and not aspires:
                continue
            cand = (objective, move)
            if objective < current.objective:
                if chosen is None or cand < chosen[:2]:
                    chosen = (objective, move, is_tabu and aspires)
            if not is_tabu:
                if fallback is None or cand < fallback[:2]:
                    fallback = (objective, move, False)
                    limit = objective + slack
        if chosen is None:
            chosen = fallback
        improved = False
        if chosen is None:
            log.append((k, "stagnant", None, current.objective, False))
        else:
            _, move, aspiration = chosen
            ev = evaluator.evaluate(_swap_targets(bare, *move))
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
        legs=evaluator.legs,
        scans=len(scans),
        scored=sum(len(scan.objectives) for scan in scans.values()),
    )
