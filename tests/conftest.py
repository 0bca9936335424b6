"""Shared instance builders for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fcmurp.instgen import (
    GenConfig,
    assign_quadrants,
    generate_instance,
    sample_scenarios,
)
from fcmurp.model import Instance, Scenario, ScenarioSet, make_instance, validate_instance


def make_case(seed: int, n_targets: int, vehicles: int, **kwargs):
    """Instance plus quadrant map from one seed."""
    config = GenConfig(seed=seed, n_targets=n_targets, vehicles=vehicles, **kwargs)
    instance = generate_instance(config)
    return instance, assign_quadrants(instance, seed)


def make_scenarios(instance, qmap, seed: int, count: int, **kwargs) -> ScenarioSet:
    return sample_scenarios(instance, qmap, seed=seed, count=count, **kwargs)


def square_instance(vehicles: int = 1, fuel_factor: float = 2.25) -> Instance:
    """Tiny hand-checkable layout: home at origin, one refuel depot, two targets."""
    return make_instance(
        target_coords=[(3.0, 0.0), (0.0, 4.0)],
        refuel_coords=[(3.0, 4.0)],
        home_coord=(0.0, 0.0),
        vehicles=vehicles,
        fuel_factor=fuel_factor,
    )


def mirrored_instance() -> Instance:
    """Exact tie layout: depot 1 at (0, 8) and home mirror each other about
    the edge between targets 2 and 3, so detours through either cost exactly
    the same."""
    return make_instance(
        target_coords=[(-3.0, 4.0), (3.0, 4.0), (0.0, -4.0)],
        refuel_coords=[(0.0, 8.0)],
        home_coord=(0.0, 0.0),
        vehicles=1,
        fuel_factor=1.6,
    )


def off_triangle_instance() -> Instance:
    """A generated 8-target instance with refuel depot 1 pulled off the
    triangle inequality: every cost and nominal fuel into or out of it is
    cut to 0.3x, so depot 1 is often the best-fuel depot of an edge, some
    detours through it cost less than the direct edge, and
    ``min_detour_increment`` is negative."""
    inst, _ = make_case(seed=5, n_targets=8, vehicles=3)
    cost = np.array(inst.cost)
    fuel = np.array(inst.nominal_fuel)
    for mat in (cost, fuel):
        mat[1, :] *= 0.3
        mat[:, 1] *= 0.3
    return dataclasses.replace(inst, cost=cost, nominal_fuel=fuel)


def tight_layouts(count: int, seed: int) -> list[Instance]:
    """``count`` valid layouts whose tank barely covers them: 3-6 targets,
    1-2 vehicles and 1-3 refuel depots at random sites on a 20 x 20 square
    around home, fuel factor 1.0-1.6. On such layouts the exact search's
    exit-reserve prune (``strengthened_pruning``) cuts nodes now and then,
    where on ``make_case`` instances it has not been seen to cut any."""
    rng = np.random.default_rng(seed)
    made = []
    while len(made) < count:
        n = int(rng.integers(3, 7))
        vehicles = int(rng.integers(1, 3))
        targets = rng.uniform(-10.0, 10.0, size=(n, 2)).tolist()
        refuel = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 4)), 2)).tolist()
        fuel_factor = float(rng.uniform(1.0, 1.6))
        inst = make_instance(targets, refuel, (0.0, 0.0), vehicles, fuel_factor=fuel_factor)
        if not validate_instance(inst):
            made.append(inst)
    return made


def random_realized_routes(inst, rng, count):
    """Routes over up to nine random targets with refuel stops spliced in
    at random, as insertions and recourse plans leave them."""
    nd = inst.n_depots
    targets = np.array(inst.target_indices)
    for _ in range(count):
        route = [0]
        for t in rng.permutation(targets)[: int(rng.integers(1, min(inst.n_targets, 9) + 1))]:
            d = int(rng.integers(0, nd))
            if rng.random() < 0.3 and d != route[-1]:
                route.append(d)
            route.append(int(t))
        route.append(0)
        yield tuple(route)


def point_mass(instance: Instance, scale: float = 1.0, sid: int = 0) -> ScenarioSet:
    """Single certain scenario at ``scale`` times the nominal matrix."""
    fuel = np.array(instance.nominal_fuel, dtype=float) * scale
    return ScenarioSet(
        (Scenario(id=sid, probability=1.0, fuel=fuel),), label=f"point:{scale}"
    )


@pytest.fixture
def small_case():
    return make_case(seed=11, n_targets=5, vehicles=2)
