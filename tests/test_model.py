"""Core data model: matrices, instances, routes, and feasibility walks."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fcmurp
from conftest import make_case, random_realized_routes, square_instance
from fcmurp.model import (
    PROB_TOL,
    Instance,
    RouteSet,
    RouteStructureError,
    Scenario,
    ScenarioSet,
    check_route_structure,
    euclidean_matrix,
    is_metric,
    make_instance,
    min_entry_fuel,
    min_exit_fuel,
    nominal_feasibility,
    route_cost,
    route_fits,
    validate_instance,
)
from oracles import segments_feasible, walk_feasible


def test_euclidean_matrix_matches_pairwise_norms():
    coords = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    m = euclidean_matrix(coords)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 0.0)
    assert m[0, 1] == pytest.approx(5.0)
    assert m[1, 2] == pytest.approx(5.0)
    assert m[0, 2] == pytest.approx(10.0)
    assert np.array_equal(m, m.T)


def test_is_metric_accepts_euclidean_and_rejects_violations():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
    m = euclidean_matrix(coords)
    assert is_metric(m)
    bad = m.copy()
    bad[0, 1] = 100.0
    assert not is_metric(bad)


def test_square_instance_layout():
    inst = square_instance()
    # depots first: home then refuel sites, targets after
    assert inst.n_vertices == 4
    assert inst.n_depots == 2
    assert inst.n_targets == 2
    assert list(inst.depot_indices) == [0, 1]
    assert list(inst.target_indices) == [2, 3]
    assert not inst.is_target(1) and inst.is_target(2)
    assert inst.lam == pytest.approx(4.0)
    assert inst.fuel_capacity == pytest.approx(9.0)
    assert inst.cost[0, 2] == pytest.approx(3.0)
    assert inst.cost[2, 3] == pytest.approx(5.0)


def test_lambda_is_max_depot_target_distance():
    inst, _ = make_case(seed=3, n_targets=6, vehicles=2)
    coords, nd = inst.coordinates, inst.n_depots
    radius = max(
        math.dist(coords[d], coords[t]) for d in range(nd) for t in range(nd, inst.n_vertices)
    )
    assert inst.lam == pytest.approx(radius)
    assert inst.fuel_capacity == pytest.approx(2.25 * inst.lam)


def test_instance_matrices_are_frozen():
    inst = square_instance()
    with pytest.raises(ValueError):
        inst.cost[0, 1] = 99.0


def test_min_exit_and_entry_fuel():
    inst = square_instance()
    exit_fuel = min_exit_fuel(inst.nominal_fuel, inst.n_depots)
    entry_fuel = min_entry_fuel(inst.nominal_fuel, inst.n_depots)
    # target 2 at (3,0): home 3 away, refuel depot 4 away
    assert exit_fuel[2] == pytest.approx(3.0)
    assert entry_fuel[2] == pytest.approx(3.0)
    assert exit_fuel[3] == pytest.approx(3.0)


def test_scenario_probability_bounds():
    fuel = np.zeros((2, 2))
    with pytest.raises(ValueError):
        Scenario(id=0, probability=0.0, fuel=fuel.copy())
    with pytest.raises(ValueError):
        Scenario(id=0, probability=1.5, fuel=fuel.copy())
    Scenario(id=0, probability=1.0, fuel=fuel.copy())


def test_scenario_set_validation():
    fuel = np.zeros((2, 2))
    half = lambda i: Scenario(id=i, probability=0.5, fuel=fuel.copy())
    ScenarioSet((half(0), half(1)))
    with pytest.raises(ValueError):
        ScenarioSet((half(0),))
    with pytest.raises(ValueError):
        ScenarioSet((half(0), half(0)))
    with pytest.raises(ValueError, match="sum to 0"):
        ScenarioSet(())
    # tolerance admits float dust around one
    eps = Scenario(id=0, probability=1.0 - PROB_TOL / 2, fuel=fuel.copy())
    ScenarioSet((eps,))


def test_canonical_sorts_routes_only():
    rs = RouteSet(((0, 3, 0), (0, 2, 0)))
    assert rs.canonical().routes == ((0, 2, 0), (0, 3, 0))
    assert rs.canonical().canonical() == rs.canonical()


def test_bare_sequences_strip_depots():
    inst = square_instance(vehicles=2)
    rs = RouteSet(((0, 2, 1, 0), (0, 3, 0)))
    assert rs.bare_sequences(inst) == ((2,), (3,))


def test_check_route_structure_rejections():
    inst = square_instance(vehicles=1)
    check_route_structure(RouteSet(((0, 2, 3, 0),)), inst)
    cases = [
        RouteSet(((0, 2, 3, 0), (0, 2, 0))),  # wrong route count
        RouteSet(((0, 2, 0),)),  # target 3 missing
        RouteSet(((0, 2, 2, 3, 0),)),  # target repeated
        RouteSet(((0, 2, 1, 1, 3, 0),)),  # depot repeated
        RouteSet(((2, 3, 0),)),  # must start at home
        RouteSet(((0, 2, 3),)),  # must end at home
        RouteSet(((0, 2, 9, 0),)),  # unknown vertex
    ]
    for rs in cases:
        with pytest.raises(RouteStructureError):
            check_route_structure(rs, inst)


def test_route_cost_is_edge_fold():
    inst = square_instance(vehicles=1)
    rs = RouteSet(((0, 2, 1, 3, 0),))
    expected = (
        float(inst.cost[0, 2])
        + float(inst.cost[2, 1])
        + float(inst.cost[1, 3])
        + float(inst.cost[3, 0])
    )
    assert route_cost(rs, inst) == expected


def test_nominal_feasibility_hand_case():
    inst = square_instance(vehicles=1)
    assert nominal_feasibility(RouteSet(((0, 2, 1, 3, 0),)), inst)
    # direct 0-2-3-0 burns 12 on one segment and strands target 3
    assert not nominal_feasibility(RouteSet(((0, 2, 3, 0),)), inst)


def test_arrival_reserve_rejects_stranded_target():
    # capacity 9: reaching target 3 via 2 leaves 8 burned, exit needs 3 more
    inst = square_instance(vehicles=1)
    running = float(inst.nominal_fuel[0, 2] + inst.nominal_fuel[2, 3])
    reserve = float(min_exit_fuel(inst.nominal_fuel, inst.n_depots)[3])
    assert running <= inst.fuel_capacity < running + reserve
    assert not nominal_feasibility(RouteSet(((0, 2, 3, 0),)), inst)


def test_route_fits_matches_the_walk_oracle():
    rng = np.random.default_rng(17)
    outcomes = {True: 0, False: 0}
    stranded = 0
    for seed, n in ((3, 5), (7, 12), (12, 20)):
        inst, _ = make_case(seed=seed, n_targets=n, vehicles=3)
        heavy = dataclasses.replace(inst, nominal_fuel=np.array(inst.nominal_fuel) * 1.6)
        for problem in (inst, heavy):
            fuel = problem.nominal_fuel
            for route in random_realized_routes(problem, rng, 40):
                # every prefix: the walk up to each vertex of the route
                for k in range(2, len(route) + 1):
                    walk = route[:k]
                    fits = route_fits(walk, problem)
                    assert fits == walk_feasible(walk, fuel, problem), walk
                    outcomes[fits] += 1
                    # the tank lasts, but the last target leaves no exit reserve
                    stranded += not fits and segments_feasible(walk, fuel, problem)
    assert outcomes[True] > 500 and outcomes[False] > 500
    assert stranded > 20
    # a whole route stranded by the reserve alone: on fuel off the triangle
    # inequality, 0-2-3-0 burns 5 of 9, but target 2 is reached with 3 burnt
    # and its nearest depot is 7 away
    fuel = np.array(square_instance().nominal_fuel)
    fuel[0, 2], fuel[2, 3], fuel[3, 0] = 3.0, 1.0, 1.0
    fuel[2, 0] = fuel[2, 1] = 7.0
    inst = dataclasses.replace(square_instance(), nominal_fuel=fuel)
    assert inst.fuel_capacity == pytest.approx(9.0)
    assert segments_feasible((0, 2, 3, 0), fuel, inst)
    assert not route_fits((0, 2, 3, 0), inst)
    assert not walk_feasible((0, 2, 3, 0), fuel, inst)


def test_validate_instance_flags_unreachable_targets():
    inst = make_instance(
        target_coords=[(50.0, 50.0)],
        refuel_coords=[(1.0, 0.0)],
        home_coord=(0.0, 0.0),
        vehicles=1,
    )
    assert validate_instance(inst) == ()
    inst = dataclasses.replace(inst, fuel_capacity=10.0)
    refusals = validate_instance(inst)
    assert refusals
    assert any("reach" in m for m in refusals)


def test_validate_instance_accepts_generated(small_case):
    inst, _ = small_case
    assert validate_instance(inst) == ()


@given(st.permutations([2, 3, 4, 5]))
def test_canonical_is_order_invariant(perm):
    routes = tuple((0, t, 0) for t in perm)
    rs = RouteSet(routes)
    assert rs.canonical().routes == tuple(sorted(routes))


def test_model_surface_is_pinned():
    assert list(inspect.signature(is_metric).parameters) == ["matrix"]
    assert list(inspect.signature(make_instance).parameters) == [
        "target_coords", "refuel_coords", "home_coord", "vehicles", "fuel_factor", "grid",
    ]
    assert not hasattr(RouteSet, "from_sequences")
    for gone in ("nominal_problem", "is_depot"):
        assert not hasattr(Instance, gone)


def test_importing_the_model_loads_no_other_layer():
    code = (
        "import json, sys, fcmurp.model; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'fcmurp')))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fcmurp.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == ["fcmurp", "fcmurp.model"]
