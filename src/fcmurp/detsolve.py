"""Deterministic solvers: exact branch and bound plus a greedy incumbent.

The exact solver enumerates target-to-vehicle assignments and visit orders by
appending one target at a time, closing routes in canonical first-target
order so every route multiset is met exactly once. Closed routes are scored
immediately by the depot-insertion DP, which both completes the costing and
catches fuel-infeasible sequences early. Nodes are bounded by an assignment
relaxation whose duals each child inherits, so a child is priced in O(1) and
re-solved by an augmenting path or two only when it is entered. The search
is intended for roughly a dozen targets; beyond that use the greedy solver
or the tabu search.

Every solver takes a ``model.Instance`` and routes under its ``cost`` and
``nominal_fuel``. A deterministic problem under other fuel or costs is an
instance with its matrices swapped in by ``dataclasses.replace``, and the
tables and insertion memo the solvers use are cached on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .model import Instance, RouteSet, route_fits

__all__ = [
    "DetSolution",
    "optimal_depot_insertion",
    "solve_deterministic_exact",
    "solve_deterministic_greedy",
    "solve_deterministic",
    "branching_order",
    "EXACT_TARGET_LIMIT",
]

# Largest target count the exact searches (deterministic and sampled) are
# used for; beyond it callers switch to the greedy solver or tabu search,
# since the search is exponential in the target count.
EXACT_TARGET_LIMIT = 8


@dataclass(frozen=True)
class DetSolution:
    routes: RouteSet
    cost: float
    optimal: bool
    nodes: int


def branching_order(instance: Instance) -> tuple[int, ...]:
    """Targets sorted by decreasing cost from the home depot, id tie-break."""
    cost = instance.cost
    return tuple(
        sorted(instance.target_indices, key=lambda t: (-float(cost[0, t]), t))
    )


def optimal_depot_insertion(
    seq: Sequence[int], instance: Instance
) -> Optional[tuple[tuple[int, ...], float]]:
    """Cheapest depot insertion making one target sequence fuel feasible.

    At most one depot per edge and any depot may be used, including the home
    depot. Feasibility means every refuel-to-refuel stretch burns at most the
    capacity and each target is reached with enough fuel left to exit to some
    depot. Returns the realized route and its cost, or None when no insertion
    pattern works.

    One left-to-right sweep over route positions carries resource labels
    (fuel burnt since the last refuel, cost delta, insertion pattern), as in
    a resource-constrained shortest path. At each position a label dies when
    its fuel exceeds the capacity or, at a target, leaves no reserve to exit;
    a live label is offered to every depot within reach on the next edge and
    then flies the edge. Each depot on an edge keeps the lexicographically
    smallest (delta, pattern) offered to it, which is final once the position
    is done and refuels a new label on the far side of the detour. Ties go
    to the lexicographically smallest pattern of (edge, depot) pairs.

    Two rules skip work whose answer is forced, and leave every answer and
    its tie-break as the full sweep would:

    - *Bare route.* When ``instance.min_detour_increment >= 0.0`` and the
      route flown without insertions passes ``model.route_fits`` (under a
      positive capacity, the checks the sweep makes of the insertion-free
      label, in the same order), the bare route is returned without a sweep. Every insertion delta starts at
      ``via - direct >= 0.0`` and rounding is monotone, so no label ends
      below 0.0, and on a tie the empty pattern is the smallest.
    - *Dominance.* After each position the labels are sorted by fuel, and a
      label is dropped when its delta exceeds the smallest delta of a kept
      label (which has at most its fuel) by more than a slack (see
      ``Instance.label_slack_unit``). The kept label can make every move
      the dropped one can, and since the slack outlasts the rounding drift
      of the remaining folds it stays strictly cheaper, so the dropped
      label's pattern could never have won a tie either.

    Answers are memoised on ``instance`` (``Instance.insertions``), so each
    bare sequence is swept at most once per instance.
    """
    if not seq:
        raise ValueError("cannot route an empty target sequence")
    seq = tuple(seq)
    memo = instance.insertions
    if seq in memo:
        return memo[seq]
    memo[seq] = answer = _insert_depots(seq, instance)
    return answer


def _insert_depots(
    seq: tuple[int, ...], instance: Instance
) -> Optional[tuple[tuple[int, ...], float]]:
    """``optimal_depot_insertion`` without its memo."""
    route = (0, *seq, 0)
    if instance.min_detour_increment >= 0.0 and route_fits(route, instance):
        realized = route
    else:
        realized = _insertion_sweep(route, instance)
        if realized is None:
            return None
    cost = instance.cost_rows
    total = 0.0
    for a, b in zip(realized, realized[1:]):
        total += cost[a][b]
    return realized, total


def _insertion_sweep(route: tuple[int, ...], instance: Instance) -> Optional[tuple[int, ...]]:
    """The label sweep of ``optimal_depot_insertion``: the realized route of
    the best pattern, or None."""
    fuel = instance.fuel_rows
    options = instance.detour_options
    cap = instance.fuel_capacity
    exit_fuel = instance.exit_fuel_list
    nd = instance.n_depots
    last = len(route) - 1
    slack = instance.label_slack_unit * last * (last + 1)
    labels = [(0.0, 0.0, ())]
    for pos in range(last):
        v = route[pos]
        nxt = route[pos + 1]
        direct, detours = options(v, nxt)
        reserve = exit_fuel[v] if v >= nd else None
        step = fuel[v][nxt]
        slots: list = [None] * nd
        advanced = []
        # labels are sorted by fuel: once one dies, so do all after it
        for running, delta, pattern in labels:
            if running > cap:
                break
            if reserve is not None and running + reserve > cap:
                break
            for d, to_depot, via in detours:
                if running + to_depot > cap:
                    break
                # same fold as delta + (cost[v][d] + cost[d][nxt]) - cost[v][nxt]
                value = (delta + via) - direct
                slot = slots[d]
                if slot is None or value < slot[0]:
                    slots[d] = (value, pattern + ((pos, d),))
                elif value == slot[0]:
                    extended = pattern + ((pos, d),)
                    if extended < slot[1]:
                        slots[d] = (value, extended)
            advanced.append((running + step, delta, pattern))
        for d in range(nd):
            slot = slots[d]
            if slot is not None:
                advanced.append((fuel[d][nxt], slot[0], slot[1]))
        if not advanced:
            return None
        advanced.sort()
        labels = []
        bound = math.inf
        for label in advanced:
            delta = label[1]
            if delta > bound:
                continue
            labels.append(label)
            if delta + slack < bound:
                bound = delta + slack
    end = None
    for running, delta, pattern in labels:
        if running <= cap and (end is None or (delta, pattern) < end):
            end = (delta, pattern)
    if end is None:
        return None
    inserted = dict(end[1])
    realized: list[int] = [0]
    for p in range(last):
        if p in inserted:
            realized.append(inserted[p])
        realized.append(route[p + 1])
    return tuple(realized)


def _augment(
    cost: list[list[float]],
    u: list[float],
    v: list[float],
    owner: list[int],
    cols: list[int],
    row: int,
) -> bool:
    """Assign ``row`` along one shortest augmenting path (Jonker & Volgenant
    1987), over the active columns ``cols``.

    ``owner[j]`` is the row holding column j, or -1 while it is free. The
    duals ``u`` (rows) and ``v`` (columns) satisfy ``u[i] + v[j] <= cost[i][j]``
    for every holding row i and active column j, with equality on the arcs
    held; they stay so and ``row`` joins them, whatever its dual was. A
    Dijkstra search over reduced costs grows a tree from ``row`` until it
    reaches a free column, shifting the duals of the tree by each step's
    slack, then flips the held arcs along the path. Returns False when every
    path to a free column crosses an infinite (forbidden) arc.
    """
    inf = math.inf
    slack = [inf] * len(cost)
    via = [-1] * len(cost)
    unreached = list(cols)
    reached: list[int] = []
    i = row
    j_in = -1
    while True:
        cost_i = cost[i]
        u_i = u[i]
        delta = inf
        pick = -1
        for j in unreached:
            s = cost_i[j] - u_i - v[j]
            if s < slack[j]:
                slack[j] = s
                via[j] = j_in
            else:
                s = slack[j]
            if s < delta:
                delta = s
                pick = j
        if pick < 0:
            return False
        u[row] += delta
        for j in reached:
            u[owner[j]] += delta
            v[j] -= delta
        for j in unreached:
            slack[j] -= delta
        unreached.remove(pick)
        reached.append(pick)
        i = owner[pick]
        if i < 0:
            break
        j_in = pick
    j = pick
    while j >= 0:
        prev = via[j]
        owner[j] = row if prev < 0 else owner[prev]
        j = prev
    return True


# An assignment problem part way through being solved: the row and column
# duals, each column's holding row (-1 while free), the active columns, and
# the active rows that hold no column yet.
_Assignment = tuple[list[float], list[float], list[int], list[int], list[int]]


def _settle(cost: list[list[float]], relax: _Assignment) -> bool:
    """Augment until every active row of ``relax`` holds a column, in place;
    False when that needs a forbidden arc."""
    u, v, owner, cols, loose = relax
    while loose:
        if not _augment(cost, u, v, owner, cols, loose.pop()):
            return False
    return True


def _drop(relax: _Assignment, row: int, col: int) -> _Assignment:
    """A copy of ``relax`` without ``row`` and ``col``.

    Deleting a row and a column leaves the duals feasible, so the rest of
    the duals still bound the smaller problem from below. The column ``row``
    held is freed and the row that held ``col`` waits to be reassigned.
    """
    u, v, owner, cols, loose = relax
    owner = owner[:]
    holder = owner[col]
    cols = [j for j in cols if j != col]
    if row in loose:
        loose = [r for r in loose if r != row]
    else:
        loose = loose[:]
        for j in cols:
            if owner[j] == row:
                owner[j] = -1
                break
    if holder >= 0 and holder != row:
        loose.append(holder)
    return u[:], v[:], owner, cols, loose


def _dual_value(relax: _Assignment) -> float:
    """The dual objective of a settled assignment: its minimum cost."""
    u, v, owner, cols, _ = relax
    total = 0.0
    for j in cols:
        total += u[owner[j]] + v[j]
    return total


def _min_arrival_step(
    instance: Instance, prev_best: float, prev_vertex: int, vertex: int
) -> float:
    """Lower bound on arrival fuel at ``vertex`` over all insertion patterns."""
    fuel = instance.fuel_rows
    cap = instance.fuel_capacity
    fuel_prev = fuel[prev_vertex]
    best = prev_best + fuel_prev[vertex]
    for d in range(instance.n_depots):
        if d == prev_vertex or d == vertex:
            continue
        if prev_best + fuel_prev[d] <= cap and fuel[d][vertex] < best:
            best = fuel[d][vertex]
    return best


def _relaxation_arcs(instance: Instance) -> list[list[float]]:
    """Arc costs of the search's assignment relaxation.

    Row and column j stand for vertex j up to the last target, then for one
    home copy per vehicle; the refuel depots' rows and columns stay unused.
    An arc costs its edge floor (``Instance.edge_floor_rows``), and arcs
    from a vertex to itself, home to home included, are forbidden (inf).
    """
    floor = instance.edge_floor_rows
    ends = [*range(instance.n_vertices), *[0] * instance.vehicles]
    return [[math.inf if a == b else floor[a][b] for b in ends] for a in ends]


def _branch_routes(
    instance: Instance,
    score_route: Callable[[tuple[int, ...]], Optional[tuple[tuple[int, ...], float]]],
    strengthened_pruning: bool = True,
) -> tuple[Optional[tuple[tuple[int, ...], ...]], float, int]:
    """Shared search over target partitions and orders.

    ``score_route`` turns a closed bare sequence into a realized route and
    its exact contribution to the objective (None when infeasible); the
    completion bound prices bare edges at their floors, so a score must
    never undercut the floors of its sequence's bare edges.

    The completion bound is an assignment relaxation (Carpaneto & Toth
    1980) over ``Instance.edge_floor_rows``. Every completion of a node
    gives one successor to each of its sources (the open route's last
    vertex, each unvisited target, and one home copy per route still to
    open) among its sinks (each unvisited target, and one home copy per
    route still to close), so the cheapest such assignment bounds it, with
    self-loops and home-to-home arcs forbidden. The relaxation has one row
    and one column per target and per vehicle's home copy, and a node's is
    the root's with rows and columns deleted: a child appending t after
    ``last`` deletes row ``last`` and column t, and closing a route deletes
    row ``last`` and a home column, opening one a home row. Deleting keeps
    the parent's duals feasible, so a child is priced in O(1) as its
    parent's dual value less the deleted duals plus the fixed arcs. A child
    that passes is re-solved from its parent's duals by the few augmenting
    paths the deletions call for, and cut before it is counted, extended or
    scored when the exact value exceeds the incumbent.

    Completion bounds are admissible but folded in another order than leaf
    totals, so at exact ties they can overshoot by an ulp and prune the
    lexicographically preferred twin. A node is cut only when its bound
    exceeds the incumbent by more than ``Instance.bound_margin``, which
    keeps tie leaves reachable and only ever widens the search.

    The incumbent is the greedy solution: its bare sequences scored by
    ``score_route``, the scores folded left to right, plus the margin.
    Seeding slightly above its value forces the search to revisit it as a
    leaf, so the answer carries the canonical fold and tie-break key.
    Returns the best routes, their total and the number of nodes.
    """
    floor = instance.edge_floor_rows
    cap = instance.fuel_capacity
    exit_fuel = instance.exit_fuel_list
    margin = instance.bound_margin
    order = branching_order(instance)
    rank = {t: i for i, t in enumerate(order)}

    arcs = _relaxation_arcs(instance)
    home = instance.n_vertices

    best_total = math.inf
    best_routes = None
    best_key = None
    greedy = solve_deterministic_greedy(instance)
    if greedy is not None:
        scored = [score_route(seq) for seq in greedy.routes.bare_sequences(instance)]
        if None not in scored:
            best_total = 0.0
            for _, score in scored:
                best_total += score
            best_total += margin
            best_routes = tuple(realized for realized, _ in scored)
            best_key = tuple(sorted(best_routes))
    nodes = 0

    def extend(
        seq: list[int],
        first_rank: int,
        last: int,
        bare: float,
        fuel_lb: float,
        unvisited: set[int],
        m_rem: int,
        acc: float,
        closed: list[tuple[int, ...]],
        relax: _Assignment,
        end_row: int,
        rest: float,
    ) -> None:
        """Descend into each child that appends an unvisited target to the
        open route ``seq`` ending at ``last``. An empty ``seq`` opens a route
        from home, and its first target must rank after ``first_rank``, the
        just-closed route's first target. ``relax`` is the relaxation the
        children are cut from, ``end_row`` its row for the open route's end
        and ``rest`` its dual value without that row."""
        if len(unvisited) <= m_rem:
            return
        opening = not seq
        v = relax[1]
        owner = relax[2]
        for t in order:
            if t not in unvisited or (opening and rank[t] <= first_rank):
                continue
            t_bare = bare + floor[last][t]
            if acc + t_bare + (rest - v[t]) > best_total + margin:
                continue
            t_fuel_lb = _min_arrival_step(instance, fuel_lb, last, t)
            if t_fuel_lb > cap:
                continue
            if strengthened_pruning and t_fuel_lb + exit_fuel[t] > cap:
                continue
            # home rows are interchangeable: drop the one already holding t
            row = owner[t] if opening and owner[t] >= home else end_row
            seq.append(t)
            descend(
                seq, rank[t] if opening else first_rank, t_bare, t_fuel_lb,
                unvisited - {t}, m_rem, acc, closed, _drop(relax, row, t),
            )
            seq.pop()

    def descend(
        seq: list[int],
        first_rank: int,
        bare: float,
        fuel_lb: float,
        unvisited: set[int],
        m_rem: int,
        acc: float,
        closed: list[tuple[int, ...]],
        relax: _Assignment,
    ) -> None:
        """Settle the node's relaxation and cut it on its exact value, or
        count it, extend its open route ``seq``, then close it."""
        nonlocal best_total, best_routes, best_key, nodes
        if not _settle(arcs, relax):
            return
        value = _dual_value(relax)
        if acc + bare + value > best_total + margin:
            return
        nodes += 1
        last = seq[-1]
        u, v, owner, cols, _ = relax
        extend(
            seq, first_rank, last, bare, fuel_lb, unvisited, m_rem, acc, closed,
            relax, last, value - u[last],
        )
        if m_rem == 0 and unvisited:
            return
        # closing deletes row ``last`` and a home column, the one ``last``
        # holds if it holds one; the rest of the duals price every completion
        # that closes here, before the route is scored
        home_col = cols[-1]
        for j in cols:
            if owner[j] == last:
                if j >= home:
                    home_col = j
                break
        rest = value - u[last] - v[home_col]
        if acc + bare + floor[last][0] + rest > best_total + margin:
            return
        end_lb = _min_arrival_step(instance, fuel_lb, last, 0)
        if end_lb > cap:
            return
        scored = score_route(tuple(seq))
        if scored is None:
            return
        realized, score = scored
        acc2 = acc + score
        closed.append(realized)
        if m_rem == 0:
            key = tuple(sorted(closed))
            if acc2 < best_total or (acc2 == best_total and (best_key is None or key < best_key)):
                best_total = acc2
                best_routes = tuple(closed)
                best_key = key
        else:
            start_row = next(owner[j] for j in cols if owner[j] >= home)
            extend(
                [], first_rank, 0, 0.0, 0.0, unvisited, m_rem - 1, acc2, closed,
                _drop(relax, last, home_col), start_row, rest - u[start_row],
            )
        closed.pop()

    size = len(arcs)
    slots = [*instance.target_indices, *range(home, size)]
    root = ([0.0] * size, [0.0] * size, [-1] * size, slots, list(slots))
    if _settle(arcs, root):
        extend(
            [], -1, 0, 0.0, 0.0, set(instance.target_indices), instance.vehicles - 1, 0.0, [],
            root, home, _dual_value(root) - root[0][home],
        )
    return best_routes, best_total, nodes


def solve_deterministic_exact(
    instance: Instance, strengthened_pruning: bool = True
) -> Optional[DetSolution]:
    """Minimum-cost routes under the instance's matrices, or None if
    infeasible.

    ``strengthened_pruning`` also cuts a child whose arrival fuel leaves no
    reserve to exit to a depot; the answer is the same either way.
    """
    if instance.vehicles > instance.n_targets:
        raise ValueError("more vehicles than targets: empty routes are not allowed")

    routes, total, nodes = _branch_routes(
        instance, lambda seq: optimal_depot_insertion(seq, instance), strengthened_pruning
    )
    if routes is None:
        return None
    return DetSolution(
        routes=RouteSet(routes),
        cost=float(total),
        optimal=True,
        nodes=nodes,
    )


def _two_opt(seq: list[int], cost: list[list[float]], margin: float) -> list[int]:
    """In-place style 2-opt on one bare sequence; safe for asymmetric costs.
    ``cost`` holds the list rows of the cost matrix, and a reversal is kept
    only when it cuts the bare cost by more than ``margin``."""

    def bare_cost(s: Sequence[int]) -> float:
        tour = (0, *s, 0)
        return float(sum(cost[a][b] for a, b in zip(tour, tour[1:])))

    best = list(seq)
    best_cost = bare_cost(best)
    improved = True
    while improved:
        improved = False
        for i in range(len(best) - 1):
            for j in range(i + 1, len(best)):
                cand = best[:i] + best[i : j + 1][::-1] + best[j + 1 :]
                cand_cost = bare_cost(cand)
                if cand_cost < best_cost - margin:
                    best, best_cost = cand, cand_cost
                    improved = True
    return best


def solve_deterministic_greedy(instance: Instance) -> Optional[DetSolution]:
    """Nearest-neighbor assignment, 2-opt per route, then depot insertion.

    Quick incumbent generator: structurally valid and fuel feasible when it
    returns at all, with cost at or above the exact optimum.
    """
    if instance.vehicles > instance.n_targets:
        raise ValueError("more vehicles than targets: empty routes are not allowed")
    cost = instance.cost_rows
    m = instance.vehicles
    unvisited = set(instance.target_indices)
    seqs: list[list[int]] = [[] for _ in range(m)]
    while unvisited:
        empties = [r for r in range(m) if not seqs[r]]
        must_fill = len(unvisited) <= len(empties)
        candidates = []
        for r in range(m):
            if not seqs[r]:
                if empties and r != empties[0]:
                    continue
            elif must_fill:
                continue
            last = seqs[r][-1] if seqs[r] else 0
            for u in sorted(unvisited):
                candidates.append((cost[last][u], r, u))
        c, r, u = min(candidates)
        seqs[r].append(u)
        unvisited.remove(u)
    realized: list[tuple[int, ...]] = []
    total = 0.0
    margin = 2.0**-10 * instance.bound_margin  # 2**-47 of the largest |cost|
    for seq in seqs:
        seq = _two_opt(seq, cost, margin)
        result = optimal_depot_insertion(seq, instance)
        if result is None:
            return None
        route, rcost = result
        realized.append(route)
        total += rcost
    return DetSolution(
        routes=RouteSet(tuple(realized)),
        cost=float(total),
        optimal=False,
        nodes=0,
    )


def solve_deterministic(instance: Instance) -> Optional[DetSolution]:
    """Solve exactly up to ``EXACT_TARGET_LIMIT`` targets and greedily
    beyond it."""
    if instance.n_targets <= EXACT_TARGET_LIMIT:
        return solve_deterministic_exact(instance)
    return solve_deterministic_greedy(instance)
