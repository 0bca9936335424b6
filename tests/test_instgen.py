"""Instance generator and quadrant-correlated scenario sampler."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from conftest import make_case
from fcmurp import instgen
from fcmurp.instgen import (
    CONGESTED,
    MEAN,
    SPARSE,
    GenConfig,
    QuadrantMapError,
    SamplerError,
    ScenarioStream,
    assign_quadrants,
    generate_instance,
    quadrant_of,
    sample_scenarios,
)
from fcmurp.model import ScenarioSet, make_instance, validate_instance
from oracles import sample_scenarios_by_draw


def test_generate_instance_shape_and_capacity():
    inst = generate_instance(GenConfig(seed=2, n_targets=7, vehicles=3))
    assert inst.n_targets == 7
    assert inst.n_depots == 5  # home plus four refuel sites
    assert inst.vehicles == 3
    assert inst.grid == 100.0
    assert inst.fuel_capacity == pytest.approx(2.25 * inst.lam)
    assert validate_instance(inst) == ()


def test_generate_instance_is_deterministic():
    a = generate_instance(GenConfig(seed=9, n_targets=5, vehicles=2))
    b = generate_instance(GenConfig(seed=9, n_targets=5, vehicles=2))
    assert np.array_equal(a.coordinates, b.coordinates)
    assert np.array_equal(a.cost, b.cost)
    c = generate_instance(GenConfig(seed=10, n_targets=5, vehicles=2))
    assert not np.array_equal(a.coordinates, c.coordinates)


def test_refuel_sites_sit_at_quadrant_centers():
    inst = generate_instance(GenConfig(seed=2, n_targets=3, vehicles=1))
    refuel = {tuple(inst.coordinates[d]) for d in range(1, inst.n_depots)}
    assert refuel == {(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)}
    assert tuple(inst.coordinates[0]) == (50.0, 50.0)


def test_generate_validates_config():
    with pytest.raises(ValueError):
        generate_instance(GenConfig(seed=1, n_targets=0, vehicles=1))
    with pytest.raises(ValueError):
        generate_instance(GenConfig(seed=1, n_targets=3, vehicles=4))
    with pytest.raises(ValueError, match="infeasible configuration"):
        generate_instance(GenConfig(seed=1, n_targets=8, vehicles=1, fuel_factor=0.05))


def test_quadrant_of_splits_at_midlines():
    assert quadrant_of(0.0, 0.0, 100.0) == 0
    assert quadrant_of(60.0, 0.0, 100.0) == 1
    assert quadrant_of(0.0, 60.0, 100.0) == 2
    assert quadrant_of(60.0, 60.0, 100.0) == 3
    # midline points belong to the upper/right side
    assert quadrant_of(50.0, 0.0, 100.0) == 1
    assert quadrant_of(0.0, 50.0, 100.0) == 2
    assert quadrant_of(50.0, 50.0, 100.0) == 3


def test_assign_quadrants_roles_and_labels():
    inst, qmap = make_case(seed=4, n_targets=8, vehicles=2)
    labels = qmap.quadrant_labels
    assert sorted(labels) == sorted([CONGESTED, SPARSE, MEAN, MEAN])
    for v, (x, y) in enumerate(inst.coordinates):
        assert qmap.vertex_labels[v] == labels[quadrant_of(float(x), float(y), 100.0)]
    again = assign_quadrants(inst, 4)
    assert again == qmap


def test_sample_scenarios_probabilities_and_label():
    inst, qmap = make_case(seed=4, n_targets=5, vehicles=2)
    scen = sample_scenarios(inst, qmap, seed=17, count=4)
    assert len(scen) == 4
    assert [s.id for s in scen] == [0, 1, 2, 3]
    assert all(s.probability == 0.25 for s in scen)
    assert scen.label == "gamma:seed=17:count=4"


def test_sample_scenarios_respects_quadrant_conditioning():
    inst, qmap = make_case(seed=4, n_targets=8, vehicles=2)
    scen = sample_scenarios(inst, qmap, seed=23, count=3)
    mean = inst.nominal_fuel
    n = inst.n_vertices
    for s in scen:
        assert np.array_equal(np.diag(s.fuel), np.diag(mean))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                a, b = qmap.vertex_labels[i], qmap.vertex_labels[j]
                if CONGESTED in (a, b):
                    assert s.fuel[i, j] >= mean[i, j]
                elif SPARSE in (a, b):
                    assert s.fuel[i, j] <= mean[i, j]
                else:
                    assert s.fuel[i, j] == mean[i, j]


def test_sample_scenarios_deterministic_and_prefix_stable():
    inst, qmap = make_case(seed=4, n_targets=5, vehicles=2)
    a = sample_scenarios(inst, qmap, seed=5, count=3)
    b = sample_scenarios(inst, qmap, seed=5, count=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.fuel, y.fuel)
    # each scenario draws from its own substream, so prefixes agree
    longer = sample_scenarios(inst, qmap, seed=5, count=6)
    for x, y in zip(a, longer):
        assert np.array_equal(x.fuel, y.fuel)
    other = sample_scenarios(inst, qmap, seed=6, count=3)
    assert not np.array_equal(a.scenarios[0].fuel, other.scenarios[0].fuel)


def test_point_mass_distribution_copies_the_mean():
    inst, qmap = make_case(seed=4, n_targets=4, vehicles=1)
    scen = sample_scenarios(inst, qmap, seed=1, count=2, distribution="point-mass")
    for s in scen:
        assert np.array_equal(s.fuel, inst.nominal_fuel)


def test_sample_scenarios_rejects_bad_arguments():
    inst, qmap = make_case(seed=4, n_targets=4, vehicles=1)
    with pytest.raises(ValueError):
        sample_scenarios(inst, qmap, seed=1, count=0)
    with pytest.raises(ValueError):
        sample_scenarios(inst, qmap, seed=1, count=2, distribution="uniform")


def test_sample_scenarios_signature_is_pinned():
    params = inspect.signature(sample_scenarios).parameters
    assert list(params) == ["instance", "qmap", "seed", "count", "distribution"]
    assert (instgen.GAMMA_SHAPE, instgen.GAMMA_SCALE_RATIO) == (4.0, 0.25)


def test_gamma_moments_small_sample():
    """Quick version of the moment check; the full-scale one is in acceptance."""
    rng = np.random.default_rng(123)
    mean = 40.0
    draws = rng.gamma(4.0, 0.25 * mean, size=200_000)
    assert abs(draws.mean() - mean) / mean < 0.02
    assert abs(draws.std() - 0.5 * mean) / (0.5 * mean) < 0.05


@pytest.fixture(params=["default", "lockstep"])
def walk(request, monkeypatch):
    """Run a test as the sizes choose the walk, then with every gamma sample
    walked in lockstep (the small samples here would go one variate at a
    time)."""
    if request.param == "lockstep":
        monkeypatch.setattr(instgen, "LOCKSTEP_MEMORY_SHARE", math.inf)
    return request.param


def assert_same_fuel(got, want):
    assert len(got) == len(want)
    assert got.rejections == want.rejections
    for a, b in zip(got, want):
        assert a.id == b.id and a.probability == b.probability
        assert a.fuel.tobytes() == b.fuel.tobytes()


def drain(stream):
    """One full pass over ``stream``, as the set it yields and counts."""
    scenarios = tuple(stream)
    return ScenarioSet(scenarios, label=stream.label, rejections=stream.rejections)


SAMPLER_CASES = [(4, 5, 2), (7, 5, 1), (2, 8, 3), (11, 8, 2), (12, 20, 3), (21, 20, 2)]


@pytest.mark.parametrize("seed,n_targets,vehicles", SAMPLER_CASES)
def test_batched_sampler_matches_per_draw_oracle(seed, n_targets, vehicles):
    inst, qmap = make_case(seed=seed, n_targets=n_targets, vehicles=vehicles)
    for sample_seed, count in ((seed + 100, 1), (seed * 1_000_003 + 999_983, 50)):
        got = sample_scenarios(inst, qmap, seed=sample_seed, count=count)
        assert_same_fuel(got, sample_scenarios_by_draw(inst, qmap, sample_seed, count))
        assert got.rejections > 0
    point = sample_scenarios(inst, qmap, seed=3, count=2, distribution="point-mass")
    assert_same_fuel(
        point, sample_scenarios_by_draw(inst, qmap, 3, 2, distribution="point-mass")
    )


def test_batched_sampler_matches_the_oracle_off_the_default_shape(monkeypatch):
    inst, qmap = make_case(seed=4, n_targets=6, vehicles=2)
    for shape, ratio in ((2.0, 0.5), (9.0, 1.0 / 9.0), (4.5, 0.3)):
        with monkeypatch.context() as patch:
            patch.setattr(instgen, "GAMMA_SHAPE", shape)
            patch.setattr(instgen, "GAMMA_SCALE_RATIO", ratio)
            got = sample_scenarios(inst, qmap, seed=8, count=20)
        want = sample_scenarios_by_draw(
            inst, qmap, 8, 20, gamma_shape=shape, gamma_scale_ratio=ratio
        )
        assert_same_fuel(got, want)


def test_rejection_limit_error_matches_the_oracle(monkeypatch):
    inst, qmap = make_case(seed=4, n_targets=8, vehicles=2)
    monkeypatch.setattr(instgen, "REJECTION_LIMIT", 1)
    with pytest.raises(SamplerError) as lib:
        sample_scenarios(inst, qmap, seed=5, count=3)
    with pytest.raises(SamplerError) as ref:
        sample_scenarios_by_draw(inst, qmap, 5, 3)
    assert str(lib.value) == str(ref.value)
    assert str(lib.value).startswith("no acceptable ")
    assert " draw in 1 tries (shape=4.0, scale=" in str(lib.value)


def test_lockstep_walk_matches_the_oracle_on_small_samples(monkeypatch):
    # the three tests above, with every sample walked in lockstep: their
    # samples are too small for it by default
    monkeypatch.setattr(instgen, "LOCKSTEP_MEMORY_SHARE", math.inf)
    for case in SAMPLER_CASES:
        test_batched_sampler_matches_per_draw_oracle(*case)
    test_batched_sampler_matches_the_oracle_off_the_default_shape(monkeypatch)
    test_rejection_limit_error_matches_the_oracle(monkeypatch)


def test_sampler_refills_past_the_first_block_like_the_oracle(monkeypatch, walk):
    # scale ratio 0.125 at shape 4: a congested edge accepts a Gamma(4, 1)
    # draw of at least 8, about 4% of them, so scenarios run past their
    # first block of 3 variates per edge; the ratio is a power of two, so
    # one threshold still decides every edge and the lockstep walk runs
    inst, qmap = make_case(seed=4, n_targets=6, vehicles=2)
    monkeypatch.setattr(instgen, "GAMMA_SCALE_RATIO", 0.125)
    edges = len(instgen._gamma_edges(inst, qmap)[2])
    shape = {"gamma_shape": 4.0, "gamma_scale_ratio": 0.125}
    got = sample_scenarios(inst, qmap, seed=8, count=5)
    assert_same_fuel(got, sample_scenarios_by_draw(inst, qmap, 8, 5, **shape))
    # variates consumed: one accepted per edge plus the rejected ones
    assert got.rejections + 5 * edges > 5 * 3 * edges
    # a limit above the block size fails an edge only after a refill; at
    # ratio 1/16 a congested edge accepts about one draw in 10,000
    monkeypatch.setattr(instgen, "GAMMA_SCALE_RATIO", 0.0625)
    monkeypatch.setattr(instgen, "REJECTION_LIMIT", 300)
    assert 3 * edges < 300
    with pytest.raises(SamplerError) as lib:
        sample_scenarios(inst, qmap, seed=8, count=5)
    with pytest.raises(SamplerError) as ref:
        sample_scenarios_by_draw(inst, qmap, 8, 5, gamma_shape=4.0, gamma_scale_ratio=0.0625)
    assert str(lib.value) == str(ref.value)
    assert " draw in 300 tries (shape=4.0, scale=" in str(lib.value)


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to record each call's arguments in the list it
    returns."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_scenarios_the_lockstep_walk_cannot_decide_are_walked_per_variate(monkeypatch):
    inst, qmap = make_case(seed=2, n_targets=8, vehicles=3)
    want = sample_scenarios_by_draw(inst, qmap, 41, 40)
    walked = count_calls(monkeypatch, instgen, "_draw_by_variate")
    monkeypatch.setattr(instgen, "LOCKSTEP_MEMORY_SHARE", math.inf)
    assert_same_fuel(sample_scenarios(inst, qmap, seed=41, count=40), want)
    assert not walked
    # at shape 3 a congested edge accepts about a quarter of its draws, so
    # some scenarios run past their first block: those fall back
    monkeypatch.setattr(instgen, "GAMMA_SHAPE", 3.0)
    got = sample_scenarios(inst, qmap, seed=41, count=40)
    want = sample_scenarios_by_draw(inst, qmap, 41, 40, gamma_shape=3.0)
    assert_same_fuel(got, want)
    assert 0 < len(walked) < 40
    assert_same_fuel(drain(ScenarioStream(inst, qmap, 41, 40)), want)


def test_large_samples_take_the_lockstep_walk(monkeypatch):
    inst, qmap = make_case(seed=12, n_targets=20, vehicles=3)
    walks = []
    lockstep_walk = instgen._Lockstep.walk

    def counted(self, limit):
        walks.append(limit)
        return lockstep_walk(self, limit)

    monkeypatch.setattr(instgen._Lockstep, "walk", counted)
    # a 20-target fuel matrix takes 5 KB and a chunk's scratch 450 KB
    small = sample_scenarios(inst, qmap, seed=7, count=300)
    assert not walks
    large = sample_scenarios(inst, qmap, seed=7, count=500)
    assert len(walks) == 32
    assert_same_fuel(large, sample_scenarios_by_draw(inst, qmap, 7, 500))
    assert [s.fuel.tobytes() for s in small] == [s.fuel.tobytes() for s in large][:300]


def zero_mean_case(role):
    """A target placed on refuel depot 1, whose quadrant plays ``role``:
    the edges between the two have mean 0 and are gamma sampled."""
    inst = make_instance(
        target_coords=[(25.0, 25.0), (10.0, 80.0), (70.0, 60.0), (80.0, 10.0)],
        refuel_coords=[(25.0, 25.0), (25.0, 75.0), (75.0, 25.0), (75.0, 75.0)],
        home_coord=(50.0, 50.0),
        vehicles=2,
        grid=100.0,
    )
    seed = next(s for s in range(100) if assign_quadrants(inst, s).quadrant_labels[0] == role)
    return inst, assign_quadrants(inst, seed)


def test_zero_scale_skips_the_lockstep_walk(monkeypatch, walk):
    walks = count_calls(monkeypatch, instgen._Lockstep, "walk")
    for role in (CONGESTED, SPARSE):
        inst, qmap = zero_mean_case(role)
        assert inst.nominal_fuel[5, 1] == 0.0 and qmap.vertex_labels[5] == role
        # large enough for the lockstep walk but for the zero-mean edges
        got = sample_scenarios(inst, qmap, seed=5, count=500)
        assert_same_fuel(got, sample_scenarios_by_draw(inst, qmap, 5, 500))
        assert all(s.fuel[5, 1] == 0.0 for s in got)
    assert not walks


def test_one_threshold_decides_every_testbed_edge(monkeypatch):
    for case in SAMPLER_CASES:
        inst, qmap = make_case(*case)
        assert instgen._threshold_is_exact(instgen._gamma_edges(inst, qmap)[2], 4.0)
    for role in (CONGESTED, SPARSE):
        inst, qmap = zero_mean_case(role)
        assert not instgen._threshold_is_exact(instgen._gamma_edges(inst, qmap)[2], 4.0)
    # at ratio 0.3 neither the scale nor the threshold 1 / 0.3 is exact
    monkeypatch.setattr(instgen, "GAMMA_SCALE_RATIO", 0.3)
    inst, qmap = make_case(*SAMPLER_CASES[0])
    assert not instgen._threshold_is_exact(instgen._gamma_edges(inst, qmap)[2], 1 / 0.3)


@pytest.mark.parametrize(
    "key", [(0, 3, 0), (999_983, 3, 517), (2**32 - 1, 1, 7), (2**32, 3, 1), (5 * 10**12, 2)]
)
def test_substreams_are_seed_sequence_streams(key):
    got = instgen._substream(*key).standard_gamma(4.0, size=16)
    want = np.random.default_rng(np.random.SeedSequence(key)).standard_gamma(4.0, size=16)
    assert got.tobytes() == want.tobytes()


def test_sampler_refuses_a_quadrant_map_of_another_instance():
    inst, qmap = make_case(seed=4, n_targets=5, vehicles=2)
    short = dataclasses.replace(qmap, vertex_labels=qmap.vertex_labels[:-1])
    with pytest.raises(QuadrantMapError, match="labels 9 vertices, instance has 10"):
        sample_scenarios(inst, short, seed=1, count=2)


def poisson_cdf_below(k: int, x: float) -> float:
    """P(Poisson(x) < k), which is the regularized upper gamma Q(k, x)."""
    return math.exp(-x) * math.fsum(x**i / math.factorial(i) for i in range(k))


def test_sampler_conditional_means_match_the_closed_form():
    # shape k = 4, scale mean / 4: a draw is mean * G / 4 with G ~ Gamma(4, 1),
    # congested edges keep G >= 4 and sparse ones G <= 4, so
    # E[G | G >= k] = k Q(k+1, k) / Q(k, k) and E[G | G <= k] the lower analogue
    k = 4
    upper = poisson_cdf_below(k + 1, k) / poisson_cdf_below(k, k)
    lower = (1.0 - poisson_cdf_below(k + 1, k)) / (1.0 - poisson_cdf_below(k, k))
    assert upper == pytest.approx(1.451, abs=5e-4)
    assert lower == pytest.approx(0.655, abs=5e-4)
    inst, qmap = make_case(seed=2, n_targets=8, vehicles=3)
    scen = sample_scenarios(inst, qmap, seed=41, count=400)
    nominal = inst.nominal_fuel
    ratios = {CONGESTED: [], SPARSE: [], MEAN: []}
    n = inst.n_vertices
    for s in scen:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                ends = (qmap.vertex_labels[i], qmap.vertex_labels[j])
                role = CONGESTED if CONGESTED in ends else SPARSE if SPARSE in ends else MEAN
                ratios[role].append(s.fuel[i, j] / nominal[i, j])
    assert ratios[MEAN] and set(ratios[MEAN]) == {1.0}
    for role, expected in ((CONGESTED, upper), (SPARSE, lower)):
        sample = np.array(ratios[role])
        assert sample.size >= 5_000
        standard_error = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - expected) < 4.0 * standard_error, role


@pytest.mark.parametrize("seed,n_targets,vehicles", SAMPLER_CASES)
def test_stream_matches_the_set_and_the_per_draw_oracle(seed, n_targets, vehicles, walk, monkeypatch):
    inst, qmap = make_case(seed=seed, n_targets=n_targets, vehicles=vehicles)
    walks = count_calls(monkeypatch, instgen._Lockstep, "walk")
    sample_seed = seed * 1_000_003 + 999_983
    for distribution, count in (("gamma", 50), ("point-mass", 3)):
        stream = ScenarioStream(inst, qmap, sample_seed, count, distribution)
        assert len(stream) == count
        assert stream.rejections is None and stream.draw_seconds is None
        want = sample_scenarios_by_draw(inst, qmap, sample_seed, count, distribution=distribution)
        # a second pass draws the same bytes and counts the same rejections
        for _ in range(2):
            got = drain(stream)
            assert got.label == want.label
            assert_same_fuel(got, want)
            assert stream.draw_seconds >= 0.0
        # a pass cut short leaves no count behind
        next(iter(stream))
        assert stream.rejections is None and stream.draw_seconds is None
        assert_same_fuel(sample_scenarios(inst, qmap, sample_seed, count, distribution), want)
    # 50 scenarios are too few for the lockstep walk unless it is forced
    assert bool(walks) == (walk == "lockstep")


def test_stream_raises_the_sampler_error_at_the_same_scenario(monkeypatch, walk):
    # at limit 13 this sample's scenario 30 is the first an edge fails, in
    # the second chunk of the lockstep walk
    inst, qmap = make_case(seed=4, n_targets=8, vehicles=2)
    monkeypatch.setattr(instgen, "REJECTION_LIMIT", 13)
    want = sample_scenarios_by_draw(inst, qmap, 5, 30)
    with pytest.raises(SamplerError) as ref:
        sample_scenarios_by_draw(inst, qmap, 5, 31)
    with pytest.raises(SamplerError) as whole:
        sample_scenarios(inst, qmap, 5, 60)
    stream = ScenarioStream(inst, qmap, 5, 60)
    for _ in range(2):
        drawn = []
        with pytest.raises(SamplerError) as lib:
            for scenario in stream:
                drawn.append(scenario)
        assert str(lib.value) == str(whole.value) == str(ref.value)
        assert [s.id for s in drawn] == list(range(30))
        assert [s.fuel.tobytes() for s in drawn] == [s.fuel.tobytes() for s in want]
        assert stream.rejections is None


def test_stream_checks_its_arguments_when_made():
    inst, qmap = make_case(seed=4, n_targets=5, vehicles=2)
    with pytest.raises(ValueError):
        ScenarioStream(inst, qmap, 1, 0)
    with pytest.raises(ValueError):
        ScenarioStream(inst, qmap, 1, 2, "uniform")
    short = dataclasses.replace(qmap, vertex_labels=qmap.vertex_labels[:-1])
    with pytest.raises(QuadrantMapError):
        ScenarioStream(inst, short, 1, 2)
