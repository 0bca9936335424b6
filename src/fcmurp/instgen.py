"""Random instance and scenario generation on the unit-grid testbed.

All randomness flows through numpy's seeded 64-bit PCG64 generator. Substreams
are derived per purpose (coordinates, quadrant roles, each scenario) from a
``SeedSequence`` over ``(seed, stream tag, ...)`` so results do not depend on
evaluation order or thread count. Gamma variates come from the generator's
built-in sampler (Marsaglia-Tsang for shape >= 1), with the testbed's shape
and scale ratio fixed as ``GAMMA_SHAPE`` and ``GAMMA_SCALE_RATIO``. The
scenario sampler draws them in blocks of ``standard_gamma`` and multiplies
each by its edge's scale, which on PCG64 equals one ``gamma(shape, scale)``
call per draw, bit for bit; a scenario owns its substream, so unused
variates at the end of a block change nothing. A large sample's scenarios
are walked through their first blocks in chunks, in lockstep, with one
numpy call per edge per chunk; a scenario that walk cannot decide is walked
again one variate at a time, so both give the same values and rejection
counts (``sample_scenarios``). ``ScenarioStream`` yields the same scenarios
as they are drawn, for a pass that need not hold the whole sample.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import Instance, Scenario, ScenarioSet, make_instance, validate_instance

__all__ = [
    "GenConfig",
    "QuadrantMap",
    "SamplerError",
    "QuadrantMapError",
    "ScenarioStream",
    "generate_instance",
    "assign_quadrants",
    "check_quadrant_map",
    "sample_scenarios",
]

_STREAM_COORDS = 1
_STREAM_QUADRANT = 2
_STREAM_SCENARIO = 3

# The testbed's gamma draws: shape 4 and scale a quarter of the edge's
# nominal fuel, so the unconditioned mean is nominal and the spread half of it.
GAMMA_SHAPE = 4.0
GAMMA_SCALE_RATIO = 0.25
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
    """The generator ``np.random.default_rng(np.random.SeedSequence(key))``.

    ``SeedSequence`` turns each int of its entropy into 32-bit words, one
    word for an int below 2**32; a uint32 array of such ints is already
    those words and skips the per-int conversion, about a third of the time
    it takes to open a stream. Larger keys go in as the tuple.
    """
    if all(0 <= k < 1 << 32 for k in key):
        entropy = np.array(key, dtype=np.uint32)
    else:
        entropy = key
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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
        if not validate_instance(instance):
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


def check_quadrant_map(instance: Instance, qmap: QuadrantMap) -> None:
    """Raise QuadrantMapError unless ``qmap`` labels every vertex of ``instance``."""
    n = instance.n_vertices
    if len(qmap.vertex_labels) != n:
        raise QuadrantMapError(
            f"quadrant map labels {len(qmap.vertex_labels)} vertices, "
            f"instance has {n}"
        )


def _edge_label(qmap: QuadrantMap, i: int, j: int) -> str:
    a, b = qmap.vertex_labels[i], qmap.vertex_labels[j]
    if CONGESTED in (a, b):
        return CONGESTED
    if SPARSE in (a, b):
        return SPARSE
    return MEAN


def _gamma_edges(
    instance: Instance, qmap: QuadrantMap
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
            scale = GAMMA_SCALE_RATIO * mean
            if scale < 0:
                raise ValueError(f"negative gamma scale {scale!r} on edge ({i}, {j})")
            rows.append(i)
            cols.append(j)
            specs.append((label == CONGESTED, mean, scale))
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), specs


def _threshold_is_exact(specs: list[tuple[bool, float, float]], threshold: float) -> bool:
    """Whether a congested edge accepts a standard-gamma draw g iff
    g >= threshold, and a sparse one iff g <= threshold.

    An edge accepts g when ``g * scale >= mean`` (``<= mean`` if sparse),
    which rounds monotonically in g for ``scale >= 0``. So it is enough that
    each edge accepts the threshold and rejects its float neighbour on the
    other side. With ``GAMMA_SCALE_RATIO`` 0.25 scale and threshold are
    exact, and only a zero or subnormal mean breaks the rule.
    """
    below = math.nextafter(threshold, -math.inf)
    above = math.nextafter(threshold, math.inf)
    for congested, mean, scale in specs:
        if congested:
            if not threshold * scale >= mean or below * scale >= mean:
                return False
        elif not threshold * scale <= mean or above * scale <= mean:
            return False
    return True


def _draw_by_variate(
    rng: np.random.Generator,
    specs: list[tuple[bool, float, float]],
    gamma_shape: float,
    limit: int,
) -> tuple[list[float], int]:
    """One scenario's accepted values and the variates it consumed.

    Walks the scenario's stream one variate at a time, edge by edge, drawing
    blocks of ``3 * len(specs)`` standard-gamma variates as they run out.
    Raises SamplerError when an edge rejects ``limit`` variates in a row.
    """
    block_size = 3 * len(specs)
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
    return values, drawn + k


# Scenarios the lockstep walk advances together. Each edge costs one numpy
# call per chunk, and the walk's scratch holds 24 bytes per variate of each
# first block in the chunk (28 KB per scenario at 20 targets, where a fuel
# matrix takes 5 KB). At 20 targets and 1,000 scenarios, chunks of 32
# sampled a few percent faster than 16 but raised the heuristic run's peak
# RSS by about 0.45 MB.
LOCKSTEP_SCENARIOS = 16
# A sample is walked in lockstep only when a chunk's scratch is at most this
# share of the fuel bytes of all its scenarios; smaller samples are walked
# one variate at a time. The rule sizes the walk to the sample, not to the
# memory it holds: a ``ScenarioStream`` holds one chunk's walk at a time,
# not ``count`` fuel matrices, so at 20 targets a streamed sample of a few
# hundred scenarios or more takes the lockstep walk and holds its scratch.
# On a sample materialized whole, at 8 targets and 200 scenarios, a chunk
# of 16 raised the SAA run's peak RSS by 0.2 MB, and chunks small enough to
# avoid that (5) sampled no faster than the one-variate walk.
LOCKSTEP_MEMORY_SHARE = 0.2


class _Lockstep:
    """Walks a chunk of scenarios through their first blocks, in lockstep.

    Row s of ``draws`` holds scenario s's first block of ``3 * edges``
    standard-gamma variates and two spare cells, which hold NaN so that no
    edge accepts them. Every edge of a role accepts the same draws: a
    congested one those at or above ``threshold``, a sparse one those at or
    below it (``_threshold_is_exact``). Per role, ``walk`` builds a table
    that maps each cell of a row to the flat index just past the first
    variate at or after it that the role accepts, or to the row's last
    spare cell when none is left. One ``take`` per edge then moves every
    scenario of the chunk past the variate its edge accepts. ``draws`` and
    ``steps`` are allocated once and reused from chunk to chunk.
    """

    def __init__(
        self, specs: list[tuple[bool, float, float]], threshold: float, chunk: int
    ) -> None:
        block = 3 * len(specs)
        width = block + 2
        self.block_size = block
        self.threshold = threshold
        self.congested = [c for c, _, _ in specs]
        self.scales = np.array([s for _, _, s in specs])
        self.draws = np.full((chunk, width), math.nan)
        self.starts = np.arange(0, chunk * width, width, dtype=np.intp)
        self.past = np.arange(1, width + 1, dtype=np.intp)
        self.steps = np.empty((len(specs), chunk), dtype=np.intp)
        self._step_rows = list(self.steps)

    def walk(self, limit: int) -> tuple[np.ndarray, list[int], list[bool]]:
        """Accepted values (chunk x edges), variates consumed and, per
        scenario, whether the walk decided it.

        A scenario is undecided when it needs a variate past its first
        block (it consumed more than the block holds) or when some edge
        rejects ``limit`` variates in a row; its values are then
        meaningless.
        """
        block_size = self.block_size
        draws = self.draws
        tables = []
        for accept in (draws <= self.threshold, draws >= self.threshold):
            table = np.where(accept, self.past, block_size + 1)
            table += self.starts[:, None]
            # a row's spare cells hold its "none left" index, below every
            # index of the next row: one running minimum from the end
            # restarts at each row
            flat = table.reshape(-1)
            reverse = flat[::-1]
            np.minimum.accumulate(reverse, out=reverse)
            tables.append(flat)
        prev = self.starts
        for congested, row in zip(self.congested, self._step_rows):
            tables[congested].take(prev, out=row)
            prev = row
        del tables  # free them before the arrays below
        steps = self.steps
        consumed = steps[-1] - self.starts
        decided = consumed <= block_size
        if block_size > limit:
            # variates consumed per edge, its accepted one included
            spans = steps.copy()
            spans[1:] -= steps[:-1]
            spans[0] -= self.starts
            decided &= (spans <= limit).all(axis=0)
        # scenario by edge
        accepted = draws.reshape(-1).take(steps.T - 1)
        accepted *= self.scales
        return accepted, consumed.tolist(), decided.tolist()


class ScenarioStream:
    """An equiprobable fuel sample drawn one chunk at a time as it is iterated.

    It yields, in id order, the scenarios that ``sample_scenarios`` returns
    for the same arguments, bit for bit, and has the same ``len`` and
    ``label``. It checks its arguments as ``sample_scenarios`` does, and
    reads the module's sampler constants, when it is made. Each iteration
    draws the sample afresh from its substreams, one lockstep chunk at a
    time, and yields each scenario as soon as it is drawn, so a pass that
    drops each scenario once it is scored holds one chunk's walk and one
    fuel matrix, whatever ``count`` is. After a full iteration
    ``rejections`` counts the draws it rejected and ``draw_seconds`` the
    wall time it spent drawing, without the time its consumer spent
    between scenarios; both are None until an iteration has run to its
    end. SamplerError is raised at the scenario whose draw fails, after
    the scenarios before it have been yielded.
    """

    def __init__(
        self,
        instance: Instance,
        qmap: QuadrantMap,
        seed: int,
        count: int,
        distribution: str = "gamma",
    ) -> None:
        if count < 1:
            raise ValueError("need at least one scenario")
        if distribution not in ("gamma", "point-mass"):
            raise ValueError(f"unsupported distribution {distribution!r}")
        check_quadrant_map(instance, qmap)
        self.label = f"{distribution}:seed={seed}:count={count}"
        self.rejections: Optional[int] = None
        self.draw_seconds: Optional[float] = None
        self._mean_fuel = instance.nominal_fuel
        self._seed = seed
        self._count = count
        self._gamma_shape = GAMMA_SHAPE
        self._limit = REJECTION_LIMIT
        if distribution == "gamma":
            self._rows, self._cols, self._specs = _gamma_edges(instance, qmap)
        else:
            self._rows, self._cols, self._specs = None, None, []
        self._lockstep_threshold = None  # None: walk one variate at a time
        specs = self._specs
        scratch = LOCKSTEP_SCENARIOS * 24 * (3 * len(specs) + 2)  # see _Lockstep
        if specs and scratch <= LOCKSTEP_MEMORY_SHARE * count * self._mean_fuel.nbytes:
            threshold = 1.0 / GAMMA_SCALE_RATIO
            if _threshold_is_exact(specs, threshold):
                self._lockstep_threshold = threshold

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Scenario]:
        seed, count, specs = self._seed, self._count, self._specs
        rows, cols, mean_fuel = self._rows, self._cols, self._mean_fuel
        gamma_shape, limit = self._gamma_shape, self._limit
        chunk = 1
        lockstep = None
        if self._lockstep_threshold is not None:
            chunk = LOCKSTEP_SCENARIOS
            lockstep = _Lockstep(specs, self._lockstep_threshold, chunk)
        prob = 1.0 / count
        self.rejections = self.draw_seconds = None
        rejected = 0
        seconds = 0.0
        for first in range(0, count, chunk):
            start = time.perf_counter()
            sids = range(first, min(first + chunk, count))
            decided = [False] * len(sids)
            if lockstep is not None:
                for row, sid in enumerate(sids):
                    rng = _substream(seed, _STREAM_SCENARIO, sid)
                    rng.standard_gamma(gamma_shape, out=lockstep.draws[row, : lockstep.block_size])
                values, consumed, decided = lockstep.walk(limit)
            for row, sid in enumerate(sids):
                fuel = np.array(mean_fuel, dtype=float)
                used = 0
                if decided[row]:
                    fuel[rows, cols] = values[row]
                    used = consumed[row]
                elif specs:
                    rng = _substream(seed, _STREAM_SCENARIO, sid)
                    walked, used = _draw_by_variate(rng, specs, gamma_shape, limit)
                    fuel[rows, cols] = walked
                # one accepted variate per edge, every other one consumed was rejected
                rejected += used - len(specs)
                scenario = Scenario(id=sid, probability=prob, fuel=fuel)
                seconds += time.perf_counter() - start
                yield scenario
                start = time.perf_counter()
        self.rejections = rejected
        self.draw_seconds = seconds


def sample_scenarios(
    instance: Instance,
    qmap: QuadrantMap,
    seed: int,
    count: int,
    distribution: str = "gamma",
) -> ScenarioSet:
    """Draw equiprobable fuel scenarios correlated by quadrant role.

    An edge is labelled by its endpoints' quadrant roles: every directed
    edge with a congested endpoint is rejection-sampled at or above its
    mean, edges with a sparse but no congested endpoint at or below it, and
    purely neutral edges consume exactly the mean. Draws are gamma with
    shape ``GAMMA_SHAPE`` and scale ``GAMMA_SCALE_RATIO`` times the edge's
    nominal fuel; each try consumes one variate, at most ``REJECTION_LIMIT``
    per edge, edges taken in row-major order, and the predicate
    ``draw * scale >= mean`` (``<= mean`` for sparse edges) decides each
    try. Each scenario uses its own substream of ``seed``, so the set is
    reproducible regardless of sampling order. The set's ``rejections``
    counts the rejected draws.

    Variates are drawn in blocks of ``3 * edges`` standard gamma and scaled
    one by one, which reproduces per-draw ``rng.gamma`` calls bit for bit.
    When the sample is large enough (``LOCKSTEP_MEMORY_SHARE``), its
    scenarios are walked ``LOCKSTEP_SCENARIOS`` at a time in lockstep
    through their first blocks (``_Lockstep``), each edge finding every
    scenario's next acceptable variate with one numpy call. That walk
    needs one acceptance threshold per role, ``1 / GAMMA_SCALE_RATIO``, to
    decide every edge exactly (``_threshold_is_exact``); where it does not,
    as on an edge of zero mean, the whole sample is walked one variate at a
    time. A scenario the lockstep walk cannot decide (it runs past its
    first block or reaches the rejection limit) is walked again one variate
    at a time from a fresh copy of its substream, refilling its block and
    raising SamplerError as the limit requires; so every scenario gets the
    values and the count of the one-variate walk.

    The set is one full iteration of ``ScenarioStream``, which draws the
    same scenarios a chunk at a time for a pass that need not hold them all.
    """
    stream = ScenarioStream(instance, qmap, seed, count, distribution)
    return ScenarioSet(tuple(stream), label=stream.label, rejections=stream.rejections)
