"""Sample-average approximation: exact small-instance solving and bounds.

The sampled two-stage problem minimizes first-stage cost plus the average
recourse cost over a scenario sample. ``solve_saa_problem`` searches route
sets exactly, jointly optimizing each route's depot-insertion pattern against
the sampled objective; replication means give a statistical lower bound and
out-of-sample evaluation an upper bound. Where ``exact_replications`` is
false, ``fcmurp solve`` runs construction + tabu (``heuristics``) instead.
The mean-value pipeline (EV, EEV, VSS) scores its routes in the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .detsolve import (
    EXACT_TARGET_LIMIT,
    DetSolution,
    _branch_routes,
    optimal_depot_insertion,
    solve_deterministic,
)
from .instgen import QuadrantMap, ScenarioStream, sample_scenarios
from .model import METRIC_TOL, Instance, RouteSet, ScenarioSet, route_cost
from .recourse import BestDepotTable, LegMemo, evaluate_recourse, penalty

__all__ = [
    "SaaConfig",
    "BoundEstimate",
    "SaaSolution",
    "LowerBoundResult",
    "UpperBoundResult",
    "SaaReport",
    "gamma_seed",
    "lambda_seed",
    "exact_replications",
    "solve_saa_problem",
    "saa_lower_bound",
    "saa_upper_bound",
    "solve_evp",
]

# Desk-scale guardrail for the exact sampled solver; its target limit is
# detsolve's EXACT_TARGET_LIMIT.
SAA_SAMPLE_LIMIT = 10


@dataclass(frozen=True)
class SaaConfig:
    """Replication layout for the lower/upper bound estimators.

    ``replications`` samples of ``sample_size`` scenarios each, drawn from
    streams keyed by ``seed``.
    """

    replications: int = 10
    sample_size: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ValueError("replications must be >= 2 for the dispersion statistic")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


def gamma_seed(seed: int, k: int) -> int:
    """Seed for the k-th replication sample; disjoint from the lambda seed."""
    return seed * 1_000_003 + k + 1


def lambda_seed(seed: int) -> int:
    """Seed for the out-of-sample evaluation set."""
    return seed * 1_000_003 + 999_983


@dataclass(frozen=True)
class BoundEstimate:
    """Replicated values, their mean and two spread statistics.

    ``values`` are stored as floats and must be finite and not empty; the
    statistics are computed from them. ``dispersion`` is the squared spread
    sum divided by count minus one (0.0 for one value), reported verbatim;
    ``standard_error`` is the conventional sqrt(dispersion / count).
    """

    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("cannot estimate from zero values")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("estimate values must be finite")
        object.__setattr__(self, "values", values)

    @cached_property
    def mean(self) -> float:
        return float(math.fsum(self.values) / len(self.values))

    @cached_property
    def dispersion(self) -> float:
        vals, mean = self.values, self.mean
        if len(vals) == 1:
            return 0.0
        return float(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))

    @cached_property
    def standard_error(self) -> float:
        return math.sqrt(self.dispersion / len(self.values))


@dataclass(frozen=True)
class SaaSolution:
    """A sampled optimum; ``legs`` counts the distinct legs whose recourse
    the search priced (``LegMemo``), a work counter outside equality."""

    routes: RouteSet
    value: float
    nodes: int
    legs: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LowerBoundResult:
    """Replication optima and their mean; ``rejections`` counts each
    replication's rejected sampler draws, a work counter outside equality."""

    estimate: BoundEstimate
    solutions: tuple[SaaSolution, ...]
    gamma_seeds: tuple[int, ...]
    rejections: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class UpperBoundResult:
    """Out-of-sample scores from one pass over the evaluation sample.

    ``routes``/``estimate``/``index`` describe the cheapest candidate and
    ``reference`` the optional reference route set (for instance the
    mean-value solution, giving EEV). ``penalized_scenarios`` counts the
    scenarios charged ``penalty`` for the chosen candidate plus the
    reference. ``recourse_shares`` holds, per candidate in order and then
    for the reference, the share of scenarios whose plan detours or that no
    plan recovers. ``scored_route_sets`` counts the route sets the pass
    evaluated: the candidates, plus the reference unless it equals one of
    them up to route order.
    """

    routes: RouteSet
    estimate: BoundEstimate
    per_candidate: tuple[float, ...]
    index: int
    penalized_scenarios: int
    penalty: float
    reference: Optional[BoundEstimate]
    recourse_shares: tuple[float, ...]
    scored_route_sets: int


@dataclass(frozen=True)
class SaaReport:
    """One instance's evaluation row; estimates absent in lighter modes.

    The value of the stochastic solution is computed from the estimates:
    ``vss`` is EEV's mean minus the smaller of the UB and H means, and
    ``vss_pct`` that difference as a percentage of EEV's mean (0.0 when the
    mean is 0); both are None without EEV or without UB and H. UB and H must
    come from EEV's evaluation sample: mismatched labels raise.
    """

    instance_name: str
    ev: float
    ev_optimal: bool
    eev: Optional[BoundEstimate]
    lb: Optional[BoundEstimate]
    ub: Optional[BoundEstimate]
    h: Optional[BoundEstimate]
    solution: RouteSet

    def __post_init__(self) -> None:
        if self.eev is None:
            return
        for est in (self.ub, self.h):
            if est is not None and est.label != self.eev.label:
                raise ValueError(
                    f"estimate label {est.label!r} does not match EEV label "
                    f"{self.eev.label!r}: refusing a mixed-sample comparison"
                )

    @cached_property
    def vss(self) -> Optional[float]:
        anchors = [est.mean for est in (self.ub, self.h) if est is not None]
        if self.eev is None or not anchors:
            return None
        return float(self.eev.mean - min(anchors))

    @cached_property
    def vss_pct(self) -> Optional[float]:
        if self.vss is None:
            return None
        eev = self.eev.mean
        return 0.0 if eev == 0 else float(100.0 * self.vss / eev)


def _pattern_score(
    seq: tuple[int, ...], legs: LegMemo
) -> Optional[tuple[tuple[int, ...], float]]:
    """Best insertion pattern for one route under the sampled objective.

    Minimizes realized first-stage cost plus probability-weighted recourse
    over all nominally feasible depot insertions; patterns leaving any
    scenario unrecoverable are rejected. ``legs`` prices recourse on the
    sample ``legs.scenarios`` of instance ``legs.instance``.

    The search starts from the deterministic optimum and walks the patterns
    depth first, pruning a prefix when its first-stage cost plus the bare
    cost of the remaining edges exceeds the best value so far. Under metric
    costs no depot insertion and no recourse detour is cheaper than the edge
    it replaces, so the bound is admissible; its slack is
    ``Instance.bound_margin`` for fold order plus the metric tolerance once
    per remaining edge (insertions) and once per route edge (recourse). Only
    strict improvements replace the incumbent, so pruned subtrees could
    never have changed the answer or its tie-break.
    """
    instance = legs.instance
    base = optimal_depot_insertion(seq, instance)
    if base is None:
        return None
    route = (0, *seq, 0)
    last = len(route) - 1
    fuel = instance.fuel_rows
    cost = instance.cost_rows
    cap = instance.fuel_capacity
    exit_fuel = instance.exit_fuel_list
    nd = instance.n_depots
    probs = [s.probability for s in legs.scenarios]
    suffix = [0.0] * (last + 1)
    for pos in range(last - 1, -1, -1):
        suffix[pos] = cost[route[pos]][route[pos + 1]] + suffix[pos + 1]
    margin = instance.bound_margin
    slack = [margin + METRIC_TOL * ((last - pos) + last) for pos in range(last + 1)]

    def leaf_value(realized: tuple[int, ...]) -> Optional[float]:
        total = 0.0
        for a, b in zip(realized, realized[1:]):
            total += cost[a][b]
        for p, b in zip(probs, legs.route_betas(realized)):
            if not math.isfinite(b):
                return None
            total += p * b
        return total

    best_realized, best_score = base[0], leaf_value(base[0])

    def dfs(pos: int, used: float, stage1: float, prefix: list[int]) -> None:
        nonlocal best_realized, best_score
        if best_score is not None and stage1 + suffix[pos] > best_score + slack[pos]:
            return
        if pos == last:
            realized = tuple(prefix)
            if realized == base[0]:
                return
            value = leaf_value(realized)
            if value is not None and (best_score is None or value < best_score):
                best_score = value
                best_realized = realized
            return
        v = route[pos]
        nxt = route[pos + 1]
        fuel_v = fuel[v]
        cost_v = cost[v]
        # fly the edge as planned
        u2 = used + fuel_v[nxt]
        if u2 <= cap and (nxt < nd or u2 + exit_fuel[nxt] <= cap):
            prefix.append(nxt)
            dfs(pos + 1, 0.0 if nxt < nd else u2, stage1 + cost_v[nxt], prefix)
            prefix.pop()
        # or insert one refuel depot on the edge
        for d in range(nd):
            if d == v or d == nxt:
                continue
            if used + fuel_v[d] > cap:
                continue
            u3 = fuel[d][nxt]
            if u3 > cap or (nxt >= nd and u3 + exit_fuel[nxt] > cap):
                continue
            prefix.append(d)
            prefix.append(nxt)
            dfs(pos + 1, 0.0 if nxt < nd else u3, stage1 + cost_v[d] + cost[d][nxt], prefix)
            prefix.pop()
            prefix.pop()

    dfs(0, 0.0, 0.0, [0])
    if best_score is None:
        return None
    return best_realized, float(best_score)


def exact_replications(instance: Instance, sample_size: int) -> bool:
    """Whether replications of ``sample_size`` scenarios on ``instance`` are
    solved exactly: within both limits and on metric costs, which
    ``solve_saa_problem``'s pruning bound needs."""
    return (
        instance.n_targets <= EXACT_TARGET_LIMIT
        and sample_size <= SAA_SAMPLE_LIMIT
        and instance.metric
    )


def solve_saa_problem(instance: Instance, gamma: ScenarioSet) -> Optional[SaaSolution]:
    """Exact minimizer of sampled first-stage-plus-recourse cost.

    Searches all route sets; each closed route is scored by the best
    insertion pattern against every scenario in the sample. Returns None
    when no route set is recoverable in every scenario.
    """
    if not instance.metric:
        raise ValueError(
            "sampled exact solver requires metric costs: "
            "the pruning bound assumes nonnegative detour increments"
        )
    if instance.vehicles > instance.n_targets:
        raise ValueError("more vehicles than targets: empty routes are not allowed")
    legs = LegMemo(instance, gamma)
    memo: dict[tuple[int, ...], Optional[tuple[tuple[int, ...], float]]] = {}

    def score(seq: tuple[int, ...]):
        if seq not in memo:
            memo[seq] = _pattern_score(seq, legs)
        return memo[seq]

    routes, total, nodes = _branch_routes(instance, score)
    if routes is None:
        return None
    route_set = RouteSet(routes)
    # report the canonical composition: first-stage cost plus plan-level
    # recourse, identical to an oracle re-evaluation of the same routes
    value = route_cost(route_set, instance)
    for k, s in enumerate(gamma):
        plan = evaluate_recourse(route_set, s, instance, legs.tables[k])
        value += s.probability * plan.beta
    return SaaSolution(routes=route_set, value=float(value), nodes=nodes, legs=len(legs))


def saa_lower_bound(
    instance: Instance,
    qmap: QuadrantMap,
    config: SaaConfig,
) -> LowerBoundResult:
    """Replicated sampled optima and their mean, the statistical lower bound.

    Each replication draws its own scenario sample from a replication-keyed
    stream, solves it exactly, and contributes one value. Replications run
    one after another in seed order: the work is pure Python, so threads
    would share one interpreter lock and finish no sooner.
    """
    seeds = tuple(gamma_seed(config.seed, k) for k in range(config.replications))
    if lambda_seed(config.seed) in seeds:
        raise ValueError("replication seeds collide with the evaluation seed")

    def solve_one(seed: int) -> tuple[SaaSolution, int]:
        sample = sample_scenarios(
            instance, qmap, seed=seed, count=config.sample_size
        )
        sol = solve_saa_problem(instance, sample)
        if sol is None:
            raise RuntimeError(
                f"replication seed {seed}: no route set is recoverable "
                "in every sampled scenario"
            )
        return sol, sample.rejections

    solved = tuple(solve_one(s) for s in seeds)
    solutions = tuple(sol for sol, _ in solved)
    estimate = BoundEstimate(
        [s.value for s in solutions],
        label=f"gamma:seed={config.seed}:N={config.replications}:M={config.sample_size}",
    )
    return LowerBoundResult(
        estimate=estimate,
        solutions=solutions,
        gamma_seeds=seeds,
        rejections=tuple(rejected for _, rejected in solved),
    )


def saa_upper_bound(
    candidates: Sequence[RouteSet],
    lam: Union[ScenarioSet, ScenarioStream],
    instance: Instance,
    reference: Optional[RouteSet] = None,
) -> UpperBoundResult:
    """Out-of-sample cost of each candidate; returns the argmin.

    One pass over ``lam``, iterated once, so a ``ScenarioStream`` is drawn
    as it is scored: each scenario gets one best-depot table, which
    computes only the depots its overflowing legs ask for, every scored
    route set gets one recourse evaluation against it, and neither the
    scenario nor its table is kept. The scored route sets are the
    candidates, then ``reference`` when given, unless a candidate is the
    same route set up to route order: the reference then takes that
    candidate's scores, so its estimate equals the candidate's exactly.
    Per-scenario values are first-stage cost plus that scenario's recourse
    cost, so each estimate mean is the sampled expectation. Scenarios no
    detour plan can recover are charged the penalty and counted. The
    penalty is calibrated on every finite recourse cost of the same pass
    (``recourse.penalty``), so candidate and reference scores stay
    comparable.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    scored = list(candidates)
    ref = None  # the reference's row in ``scored``
    if reference is not None:
        keys = [c.canonical() for c in candidates]
        key = reference.canonical()
        if key in keys:
            ref = keys.index(key)
        else:
            ref = len(scored)
            scored.append(reference)
    betas: list[list[float]] = [[] for _ in scored]
    needs_recourse = [0] * len(scored)
    for s in lam:
        table = BestDepotTable(s.fuel, instance.n_depots)
        for r, routes in enumerate(scored):
            plan = evaluate_recourse(routes, s, instance, table)
            betas[r].append(plan.beta)
            needs_recourse[r] += bool(plan.detoured_edges) or not plan.feasible
    nu = penalty(instance, [b for row in betas for b in row])
    estimates = []
    penalized = []
    for routes, row in zip(scored, betas):
        stage1 = route_cost(routes, instance)
        values = [stage1 + b if math.isfinite(b) else stage1 + nu for b in row]
        estimates.append(BoundEstimate(values, label=lam.label))
        penalized.append(sum(not math.isfinite(b) for b in row))
    # cheapest mean, ties to the smallest canonical route set, then the first
    index = min(
        range(len(candidates)),
        key=lambda i: (estimates[i].mean, candidates[i].canonical().routes),
    )
    rows = [*range(len(candidates)), *([] if ref is None else [ref])]
    return UpperBoundResult(
        routes=candidates[index],
        estimate=estimates[index],
        per_candidate=tuple(e.mean for e in estimates[: len(candidates)]),
        index=index,
        penalized_scenarios=penalized[index] + (0 if ref is None else penalized[ref]),
        penalty=nu,
        reference=None if ref is None else estimates[ref],
        recourse_shares=tuple(needs_recourse[r] / len(lam) for r in rows),
        scored_route_sets=len(scored),
    )


def solve_evp(instance: Instance, mean_fuel: Optional[np.ndarray] = None) -> DetSolution:
    """Mean-value problem: deterministic solve with fuel at its mean.

    The default mean is the instance's nominal matrix; pass ``mean_fuel`` to
    use a distribution mean instead, swapped in for ``nominal_fuel``.
    ``solve_deterministic`` solves it: exactly up to ``EXACT_TARGET_LIMIT``
    targets, greedily beyond it.
    """
    if mean_fuel is not None:
        mean_fuel = np.array(mean_fuel, dtype=float)
        n = instance.n_vertices
        if mean_fuel.shape != (n, n):
            raise ValueError(f"mean_fuel shape {mean_fuel.shape} != ({n}, {n})")
        instance = replace(instance, nominal_fuel=mean_fuel)
    sol = solve_deterministic(instance)
    if sol is None:
        raise RuntimeError("mean-value problem is infeasible")
    return sol
