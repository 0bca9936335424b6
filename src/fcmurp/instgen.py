"""Random instance and scenario generation on the unit-grid testbed.

All randomness flows through numpy's seeded 64-bit PCG64 generator. Substreams
are derived per purpose (coordinates, quadrant roles, each scenario) from a
``SeedSequence`` over ``(seed, stream tag, ...)`` so results do not depend on
evaluation order or thread count. Gamma variates come from the generator's
built-in sampler (Marsaglia-Tsang for shape >= 1). The scenario sampler
draws them in blocks of ``standard_gamma`` and multiplies each by its edge's
scale, which on PCG64 equals one ``gamma(shape, scale)`` call per draw, bit
for bit; a scenario owns its substream, so unused variates at the end of a
block change nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, Scenario, ScenarioSet, make_instance, validate_instance

__all__ = [
    "GenConfig",
    "QuadrantMap",
    "SamplerError",
    "QuadrantMapError",
    "generate_instance",
    "assign_quadrants",
    "sample_scenarios",
]

_STREAM_COORDS = 1
_STREAM_QUADRANT = 2
_STREAM_SCENARIO = 3

REJECTION_LIMIT = 10_000
# Layouts ``generate_instance`` draws before it calls a configuration infeasible.
MAX_RETRIES = 50

CONGESTED = "congested"
SPARSE = "sparse"
MEAN = "mean"


class SamplerError(RuntimeError):
    """Conditional sampling failed to accept a draw within the retry budget."""


class QuadrantMapError(ValueError):
    """A quadrant map that does not label the instance's vertices."""


def _substream(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic testbed generator."""

    seed: int
    n_targets: int
    vehicles: int
    n_refuel_depots: int = 4
    fuel_factor: float = 2.25
    grid: float = 100.0


@dataclass(frozen=True)
class QuadrantMap:
    """Congestion roles for the four grid quadrants and every vertex.

    Quadrant q of a point is ``2 * (y >= grid/2) + (x >= grid/2)``; exactly
    one quadrant is congested, one sparse, and the remaining two neutral.
    """

    seed: int
    grid: float
    quadrant_labels: tuple[str, str, str, str]
    vertex_labels: tuple[str, ...]

    @property
    def congested_quadrant(self) -> int:
        return self.quadrant_labels.index(CONGESTED)

    @property
    def sparse_quadrant(self) -> int:
        return self.quadrant_labels.index(SPARSE)


def quadrant_of(x: float, y: float, grid: float) -> int:
    mid = grid / 2.0
    return (2 if y >= mid else 0) + (1 if x >= mid else 0)


def _refuel_sites(k: int, grid: float) -> list[tuple[float, float]]:
    centers = [
        (0.25 * grid, 0.25 * grid),
        (0.25 * grid, 0.75 * grid),
        (0.75 * grid, 0.25 * grid),
        (0.75 * grid, 0.75 * grid),
    ]
    if k <= 4:
        return centers[:k]
    # beyond the four quadrant centers, spread extras on a circle
    sites = list(centers)
    extra = k - 4
    for i in range(extra):
        angle = 2.0 * math.pi * i / extra
        sites.append(
            (grid / 2.0 + 0.25 * grid * math.cos(angle),
             grid / 2.0 + 0.25 * grid * math.sin(angle))
        )
    return sites


def generate_instance(config: GenConfig) -> Instance:
    """Draw a testbed instance; retries until every target is reachable.

    Targets are uniform on the grid, the home depot sits at the center, and
    refuel depots at the quadrant centers. Costs and nominal fuel are both
    Euclidean; capacity is ``fuel_factor`` times the largest depot-to-target
    distance.
    """
    if config.n_targets < 1:
        raise ValueError("need at least one target")
    if config.vehicles < 1 or config.vehicles > config.n_targets:
        raise ValueError("vehicle count must be in 1..n_targets")
    home = (config.grid / 2.0, config.grid / 2.0)
    refuel = _refuel_sites(config.n_refuel_depots, config.grid)
    for attempt in range(MAX_RETRIES):
        rng = _substream(config.seed, _STREAM_COORDS, attempt)
        pts = rng.uniform(0.0, config.grid, size=(config.n_targets, 2))
        instance = make_instance(
            target_coords=[tuple(p) for p in pts],
            refuel_coords=refuel,
            home_coord=home,
            vehicles=config.vehicles,
            fuel_factor=config.fuel_factor,
            grid=config.grid,
        )
        result = validate_instance(instance)
        if not result.fatal:
            return instance
    raise ValueError(
        f"infeasible configuration: no reachable layout in {MAX_RETRIES} "
        f"attempts (fuel_factor={config.fuel_factor})"
    )


def assign_quadrants(instance: Instance, seed: int) -> QuadrantMap:
    """Pick one congested and one sparse quadrant, label every vertex."""
    grid = instance.grid
    if grid is None:
        grid = float(instance.coordinates.max())
    rng = _substream(seed, _STREAM_QUADRANT)
    congested = int(rng.integers(4))
    sparse = int(rng.choice([q for q in range(4) if q != congested]))
    labels = [MEAN] * 4
    labels[congested] = CONGESTED
    labels[sparse] = SPARSE
    vertex_labels = tuple(
        labels[quadrant_of(float(x), float(y), grid)] for x, y in instance.coordinates
    )
    return QuadrantMap(
        seed=seed,
        grid=grid,
        quadrant_labels=tuple(labels),
        vertex_labels=vertex_labels,
    )


def _edge_label(qmap: QuadrantMap, i: int, j: int) -> str:
    a, b = qmap.vertex_labels[i], qmap.vertex_labels[j]
    if CONGESTED in (a, b):
        return CONGESTED
    if SPARSE in (a, b):
        return SPARSE
    return MEAN


def _gamma_edges(
    instance: Instance, qmap: QuadrantMap, gamma_scale_ratio: float
) -> tuple[np.ndarray, np.ndarray, list[tuple[bool, float, float]]]:
    """Non-neutral directed edges in row-major order.

    Returns their row and column indices and, per edge, whether it is
    congested (else sparse), its mean and its gamma scale.
    """
    mean_rows = instance.nominal_fuel.tolist()
    rows, cols, specs = [], [], []
    for i, row in enumerate(mean_rows):
        for j, mean in enumerate(row):
            if i == j:
                continue
            label = _edge_label(qmap, i, j)
            if label == MEAN:
                continue
            scale = gamma_scale_ratio * mean
            if scale < 0:
                raise ValueError(f"negative gamma scale {scale!r} on edge ({i}, {j})")
            rows.append(i)
            cols.append(j)
            specs.append((label == CONGESTED, mean, scale))
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), specs


def sample_scenarios(
    instance: Instance,
    qmap: QuadrantMap,
    seed: int,
    count: int,
    gamma_shape: float = 4.0,
    gamma_scale_ratio: float = 0.25,
    distribution: str = "gamma",
    label: str = "",
) -> ScenarioSet:
    """Draw equiprobable fuel scenarios correlated by quadrant role.

    An edge is labelled by its endpoints' quadrant roles: every directed
    edge with a congested endpoint is rejection-sampled at or above its
    mean, edges with a sparse but no congested endpoint at or below it, and
    purely neutral edges consume exactly the mean. Draws are gamma with
    shape ``gamma_shape`` and scale ``gamma_scale_ratio`` times the edge's
    nominal fuel; each try consumes one variate, at most ``REJECTION_LIMIT``
    per edge, edges taken in row-major order. Each scenario uses its own
    substream of ``seed``, so the set is reproducible regardless of sampling
    order. Variates are drawn in blocks of standard gamma and scaled one by
    one, which reproduces per-draw ``rng.gamma`` calls bit for bit. The
    set's ``rejections`` counts the rejected draws.
    """
    if count < 1:
        raise ValueError("need at least one scenario")
    if distribution not in ("gamma", "point-mass"):
        raise ValueError(f"unsupported distribution {distribution!r}")
    n = instance.n_vertices
    if len(qmap.vertex_labels) != n:
        raise QuadrantMapError(
            f"quadrant map labels {len(qmap.vertex_labels)} vertices, "
            f"instance has {n}"
        )
    mean_fuel = instance.nominal_fuel
    if distribution == "gamma":
        rows, cols, specs = _gamma_edges(instance, qmap, gamma_scale_ratio)
    else:
        rows, cols, specs = None, None, []
    block_size = 3 * len(specs)
    limit = REJECTION_LIMIT
    prob = 1.0 / count
    scenarios = []
    rejected = 0
    for sid in range(count):
        fuel = np.array(mean_fuel, dtype=float)
        if specs:
            rng = _substream(seed, _STREAM_SCENARIO, sid)
            block = rng.standard_gamma(gamma_shape, size=block_size).tolist()
            k = 0
            drawn = 0  # variates of earlier blocks
            values = []
            for congested, mean, scale in specs:
                tries = 0
                while True:
                    if k == block_size:
                        block = rng.standard_gamma(gamma_shape, size=block_size).tolist()
                        k = 0
                        drawn += block_size
                    value = block[k] * scale
                    k += 1
                    if (value >= mean) if congested else (value <= mean):
                        break
                    tries += 1
                    if tries >= limit:
                        role = CONGESTED if congested else SPARSE
                        raise SamplerError(
                            f"no acceptable {role} draw in {limit} tries "
                            f"(shape={gamma_shape}, scale={scale}, mean={mean})"
                        )
                values.append(value)
            fuel[rows, cols] = values
            # one accepted variate per edge, every other one consumed was rejected
            rejected += drawn + k - len(specs)
        scenarios.append(Scenario(id=sid, probability=prob, fuel=fuel))
    if not label:
        label = f"{distribution}:seed={seed}:count={count}"
    return ScenarioSet(tuple(scenarios), label=label, rejections=rejected)
