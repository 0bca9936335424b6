"""End-to-end command-line behavior: exit codes, seeds, and stable bytes."""

import functools
import importlib
import inspect
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_case
import fcmurp.cli
import fcmurp.instgen
import fcmurp.stochsolve
from fcmurp.cli import main
from fcmurp.detsolve import EXACT_TARGET_LIMIT
from fcmurp.files import CSV_HEADER, FORMAT_VERSION
from fcmurp.instgen import (
    GenConfig,
    SamplerError,
    ScenarioStream,
    generate_instance,
    sample_scenarios,
)
from fcmurp.stochsolve import exact_replications, gamma_seed, lambda_seed


@pytest.fixture
def runner():
    return CliRunner()


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def gen(runner, out, *, seed=0, targets=4, vehicles=2, extra=()):
    args = [
        "generate",
        "--seed",
        str(seed),
        "--targets",
        str(targets),
        "--vehicles",
        str(vehicles),
        "--out",
        out,
        *extra,
    ]
    return runner.invoke(main, args)


def gen_above_limit(runner, out, **kwargs):
    """An instance one target above the exact limit: either two-stage mode
    name runs construction + tabu on it."""
    return gen(runner, out, targets=EXACT_TARGET_LIMIT + 1, **kwargs)


def test_generate_writes_stable_artifacts(runner, tmp_path):
    first = gen(runner, str(tmp_path / "run1"))
    assert first.exit_code == 0, first.output
    assert "lambda = " in first.output
    assert "F = " in first.output
    second = gen(runner, str(tmp_path / "run2"))
    assert second.exit_code == 0
    for name in ("instance.json", "quadrants.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b
    assert read_json(tmp_path / "run1" / "instance.json")["kind"] == "instance"


def test_generate_usage_and_infeasibility_exit_codes(runner, tmp_path):
    zero = runner.invoke(main, ["generate", "--targets", "0", "--out", str(tmp_path)])
    assert zero.exit_code == 2
    surplus = gen(runner, str(tmp_path), targets=3, vehicles=5)
    assert surplus.exit_code == 2
    assert "--vehicles" in surplus.output
    cramped = gen(runner, str(tmp_path), extra=("--fuel-factor", "0.05"))
    assert cramped.exit_code == 4


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--grid", "nan"),
        ("--grid", "inf"),
        ("--grid", "-5"),
        ("--fuel-factor", "nan"),
        ("--fuel-factor", "inf"),
    ],
)
def test_generate_refuses_sizes_that_are_not_finite_and_positive(runner, tmp_path, flag, value):
    out = tmp_path / "inst"
    args = ["generate", "--targets", "4", "--out", str(out), flag, value]
    output = invoke_one_line_error(runner, args, 2)
    assert flag in output
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "scenarios", "solve", "evaluate"])
def test_negative_seeds_are_usage_errors(runner, tmp_path, command):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    instance = os.path.join(src, "instance.json")
    quadrants = os.path.join(src, "quadrants.json")
    rest = {
        "generate": ["--targets", "4", "--out", str(tmp_path / "out")],
        "scenarios": ["--instance", instance, "--quadrants", quadrants, "--count", "2",
                      "--out", str(tmp_path / "scen.json")],
        "solve": ["--instance", instance, "--quadrants", quadrants, "--mode", "evp",
                  "--out", str(tmp_path / "out")],
        "evaluate": ["--instance", instance, "--quadrants", quadrants,
                     "--solution", os.path.join(src, "solution.json")],
    }[command]
    res = runner.invoke(main, [command, "--seed", "-1", *rest])
    assert res.exit_code == 2, res.output
    assert "'--seed'" in res.output
    assert not (tmp_path / "out").exists() and not (tmp_path / "scen.json").exists()


def test_generate_takes_its_seed_from_the_flag_alone(runner, tmp_path):
    args = ["generate", "--seed", "1", "--targets", "4", "--vehicles", "2", "--out"]
    plain = runner.invoke(main, [*args, str(tmp_path / "plain")])
    assert plain.exit_code == 0, plain.output
    env = runner.invoke(main, [*args, str(tmp_path / "env")], env={"FCMURP_SEED": "2"})
    assert env.exit_code == 0, env.output
    for name in ("instance.json", "quadrants.json"):
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def readme_quick_start():
    """The README's quick-start commands, each with the output lines shown
    under it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            steps.append((shlex.split(command), []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_readme_quick_start_matches_the_cli(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = readme_quick_start()
    assert [argv[:2] for argv, _ in steps] == [
        ["fcmurp", "generate"], ["fcmurp", "solve"], ["fcmurp", "report"],
    ]
    for argv, shown in steps:
        res = runner.invoke(main, argv[1:])
        assert res.exit_code == 0, res.output
        printed = iter(res.stdout.splitlines())
        for line in shown:
            # in order: each search resumes after the previous match
            assert line in printed, (argv, line, res.stdout)


def test_scenarios_command_writes_a_scenario_set(runner, tmp_path):
    out = str(tmp_path)
    assert gen(runner, out).exit_code == 0
    scen = runner.invoke(
        main,
        [
            "scenarios",
            "--instance",
            os.path.join(out, "instance.json"),
            "--quadrants",
            os.path.join(out, "quadrants.json"),
            "--seed",
            "5",
            "--count",
            "3",
            "--out",
            os.path.join(out, "scen.json"),
        ],
    )
    assert scen.exit_code == 0, scen.output
    doc = read_json(tmp_path / "scen.json")
    assert doc["kind"] == "scenario_set"
    assert doc["label"] == "gamma:seed=5:count=3"
    assert len(doc["scenarios"]) == 3
    missing = runner.invoke(
        main,
        [
            "scenarios",
            "--instance",
            os.path.join(out, "nope.json"),
            "--quadrants",
            os.path.join(out, "quadrants.json"),
            "--count",
            "2",
            "--out",
            os.path.join(out, "x.json"),
        ],
    )
    assert missing.exit_code == 3


def solve_args(src, dst, mode, **overrides):
    base = {
        "--instance": os.path.join(src, "instance.json"),
        "--quadrants": os.path.join(src, "quadrants.json"),
        "--mode": mode,
        "--out": dst,
        "--n": "2",
        "--m": "2",
        "--lambda": "30",
    }
    base.update(overrides)
    args = ["solve"]
    for key, value in base.items():
        if value is not None:
            args.extend([key, str(value)])
    return args


def test_solve_saa_reruns_are_byte_identical(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    one = runner.invoke(main, solve_args(src, str(tmp_path / "out1"), "saa"))
    assert one.exit_code == 0, one.output
    for token in ("EV = ", "EEV = ", "LB = ", "UB = ", "VSS = "):
        assert token in one.output
    two = runner.invoke(main, solve_args(src, str(tmp_path / "out2"), "saa"))
    assert two.exit_code == 0
    for name in ("solution.json", "result.json"):
        assert (tmp_path / "out1" / name).read_bytes() == (
            tmp_path / "out2" / name
        ).read_bytes()
    manifest = read_json(tmp_path / "out1" / "manifest.json")
    assert manifest["counters"] == read_json(tmp_path / "out2" / "manifest.json")["counters"]
    assert manifest["counters"]["insertions"] > 0
    assert manifest["kind"] == "manifest"
    assert manifest["command"] == "solve"
    assert manifest["seeds"]["lambda"] == 999_983
    assert "penalty" in manifest["config"]
    assert "lower_bound" in manifest["stage_seconds"]


def test_solve_threads_accepts_only_1(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    plain = runner.invoke(main, solve_args(src, str(tmp_path / "plain"), "saa"))
    assert plain.exit_code == 0, plain.output
    one = runner.invoke(
        main, solve_args(src, str(tmp_path / "one"), "saa", **{"--threads": "1"})
    )
    assert one.exit_code == 0, one.output
    for name in ("solution.json", "result.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "one" / name
        ).read_bytes()
    two = runner.invoke(
        main, solve_args(src, str(tmp_path / "two"), "saa", **{"--threads": "2"})
    )
    assert two.exit_code == 2
    assert not (tmp_path / "two").exists()


def test_solve_option_names_are_pinned():
    names = {opt for param in fcmurp.cli.solve.params for opt in param.opts}
    assert names == {
        "--instance", "--quadrants", "--mode", "--seed", "--n", "--m", "--lambda",
        "--iterations", "--stall-limit", "--tenure", "--threads", "--name", "--out",
    }


def cut_depot_costs(src):
    """The seed-7 5-target instance at ``src`` with every cost into or out
    of refuel depot 1 cut to 0.3x: detours through depot 1 can be cheaper
    than the edge they replace. The document's ``metric`` key still says
    true; the reader derives it from the costs."""
    doc = read_json(os.path.join(src, "instance.json"))
    cost = doc["cost"]
    for row in cost:
        row[1] *= 0.3
    cost[1] = [c * 0.3 for c in cost[1]]
    doc["metric"] = True
    bad = os.path.join(src, "cut.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return bad


@pytest.mark.parametrize(
    "case, exact",
    [("within-limits", True), ("targets", False), ("sample", False), ("non-metric", False)],
    ids=["within-limits", "targets", "sample", "non-metric"],
)
def test_solve_runs_the_engine_the_input_allows_under_either_mode_name(
    runner, tmp_path, case, exact
):
    # exact replications iff at most EXACT_TARGET_LIMIT targets, --m at most
    # SAA_SAMPLE_LIMIT and metric costs; construction + tabu otherwise
    src = str(tmp_path / "inst")
    overrides = {"--iterations": "10"}
    if case == "targets":
        assert gen_above_limit(runner, src).exit_code == 0
    elif case == "non-metric":
        assert gen(runner, src, seed=7, targets=5).exit_code == 0
        overrides["--instance"] = cut_depot_costs(src)
    else:
        assert gen(runner, src).exit_code == 0
    if case == "sample":
        overrides["--m"] = "11"
    engine = "saa" if exact else "heuristic"
    written = {}
    for mode in ("saa", "heuristic"):
        out = tmp_path / mode
        res = runner.invoke(main, solve_args(src, str(out), mode, **overrides))
        assert res.exit_code == 0, res.output
        printed = res.stdout.splitlines()[:-1]  # the last line names the output paths
        assert any(line.startswith("LB = ") for line in printed) == exact
        assert any(line.startswith("UB = ") for line in printed) == exact
        assert any(line.startswith("H = ") for line in printed) == (not exact)
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["mode"] == mode
        record = manifest["config"]["engine"]
        assert record["name"] == engine
        assert set(record) == {"name", "n_targets", "sample_size", "metric"}
        assert record["metric"] == (case != "non-metric")
        assert ("lower_bound" in manifest["stage_seconds"]) == exact
        assert ("search" in manifest["stage_seconds"]) == (not exact)
        assert ("saa_replications" in manifest["counters"]) == exact
        assert ("tabu" in manifest["counters"]) == (not exact)
        assert read_json(out / "solution.json")["meta"]["mode"] == engine
        written[mode] = printed, [(out / n).read_bytes() for n in ("result.json", "solution.json")]
    assert written["saa"] == written["heuristic"]


def test_an_unrecoverable_exact_replication_exits_4_under_either_mode_name(
    runner, tmp_path, monkeypatch
):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    monkeypatch.setattr(fcmurp.stochsolve, "solve_saa_problem", lambda *args: None)
    for mode in ("saa", "heuristic"):
        out = tmp_path / mode
        res = runner.invoke(main, solve_args(src, str(out), mode))
        assert res.exit_code == 4, res.output
        assert res.stdout == "" and "Traceback" not in res.output
        assert res.stderr.splitlines()[-1].endswith(
            "no route set is recoverable in every sampled scenario"
        )
        assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "workload, instance_seed, targets, exact",
    [("saa-n8", 2, 8, True), ("heuristic-n20", 12, 20, False)],
    ids=["saa-n8", "heuristic-n20"],
)
def test_the_benchmark_workloads_keep_their_engines(workload, instance_seed, targets, exact):
    # bench/run.py generates each instance with 3 vehicles and solves it
    # with --m 5; checked on the instance alone, without solving it
    inst = generate_instance(GenConfig(seed=instance_seed, n_targets=targets, vehicles=3))
    assert inst.metric
    assert exact_replications(inst, 5) is exact


@pytest.mark.parametrize(
    "mode, targets, heuristic",
    [("evp", 4, False), ("saa", 4, False), ("heuristic", 4, False),
     ("saa", EXACT_TARGET_LIMIT + 1, True), ("heuristic", EXACT_TARGET_LIMIT + 1, True)],
    ids=["evp", "saa-exact", "heuristic-exact", "saa-tabu", "heuristic-tabu"],
)
def test_solve_manifest_echoes_only_the_options_the_run_read(
    runner, tmp_path, mode, targets, heuristic
):
    src = str(tmp_path / "inst")
    assert gen(runner, src, targets=targets).exit_code == 0
    out = tmp_path / "out"
    args = solve_args(src, str(out), mode, **{"--lambda": "7", "--iterations": "5"})
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    config = read_json(out / "manifest.json")["config"]
    expected = {"instance", "quadrants", "mode", "name"}
    if mode != "evp":
        # n, m and lambda shape every two-stage run, and the scoring pass
        # calibrates the penalty
        expected |= {"n", "m", "lambda", "engine", "penalty"}
        assert (config["n"], config["m"], config["lambda"]) == (2, 2, 7)
    if heuristic:
        expected |= {"iterations", "stall_limit", "tenure"}
        assert (config["iterations"], config["stall_limit"], config["tenure"]) == (5, 5, None)
    assert set(config) == expected


def test_solve_evp_mode_writes_a_partial_report(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    res = runner.invoke(main, solve_args(src, str(tmp_path / "evp"), "evp"))
    assert res.exit_code == 0, res.output
    assert "EV = " in res.output
    assert "VSS" not in res.output
    doc = read_json(tmp_path / "evp" / "result.json")
    assert doc["vss"] is None
    assert doc["eev"] is None
    assert doc["lb"] is None


def test_solve_heuristic_mode_reports_h(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen_above_limit(runner, src).exit_code == 0
    res = runner.invoke(
        main,
        solve_args(
            src,
            str(tmp_path / "heur"),
            "heuristic",
            **{"--iterations": "10", "--stall-limit": "5", "--lambda": "20"},
        ),
    )
    assert res.exit_code == 0, res.output
    assert "H = " in res.output
    doc = read_json(tmp_path / "heur" / "result.json")
    assert doc["h"] is not None
    assert doc["lb"] is None and doc["ub"] is None
    assert doc["vss"] is not None


def test_solve_heuristic_stall_limit_defaults_to_the_iteration_count(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen_above_limit(runner, src).exit_code == 0
    short = solve_args(src, str(tmp_path / "short"), "heuristic", **{"--iterations": "10"})
    res = runner.invoke(main, short)
    assert res.exit_code == 0, res.output
    assert "Traceback" not in res.output
    manifest = read_json(tmp_path / "short" / "manifest.json")
    assert manifest["config"]["stall_limit"] == 10
    # an explicit stall limit above the iteration count is a usage error
    # under either two-stage name, whichever engine the instance allows
    for mode in ("saa", "heuristic"):
        args = solve_args(
            src, str(tmp_path / "bad"), mode, **{"--iterations": "10", "--stall-limit": "11"}
        )
        output = invoke_one_line_error(runner, args, 2)
        assert "--stall-limit 11 exceeds --iterations 10" in output


def test_solve_flags_a_chosen_solution_equal_to_ev(runner, tmp_path):
    # seed 0 with 4 targets: the SAA solution differs from EV; with a
    # generous tank nothing needs recourse and SAA returns the EV routes
    for extra, expected in (((), False), (("--fuel-factor", "20"), True)):
        src = str(tmp_path / f"inst{len(extra)}")
        assert gen(runner, src, extra=extra).exit_code == 0
        evp = str(tmp_path / f"evp{len(extra)}")
        assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
        out = str(tmp_path / f"saa{len(extra)}")
        res = runner.invoke(main, solve_args(src, out, "saa"))
        assert res.exit_code == 0, res.output
        counters = read_json(os.path.join(out, "manifest.json"))["counters"]
        flag = counters["chosen_is_ev"]
        assert flag is expected
        # here EV is among the candidates exactly when it is chosen, and EV is
        # scored apart only when no candidate equals it
        candidates = len(counters["recourse_share"]["candidates"])
        assert counters["scored_route_sets"] == candidates + (not flag)
        chosen = sorted(read_json(os.path.join(out, "solution.json"))["routes"])
        assert flag == (chosen == sorted(read_json(os.path.join(evp, "solution.json"))["routes"]))
        result = read_json(os.path.join(out, "result.json"))
        assert "chosen_is_ev" not in result
        if flag:
            # the same route set: EEV is the chosen candidate's own score
            assert result["vss"] == 0.0


def test_solve_reports_vss_0_for_the_ev_routes_in_another_route_order(runner, tmp_path):
    # at instance seed 10 the heuristic's winner is the EV route set with its
    # routes in another order, which scored apart gave VSS -5.7e-14
    src = str(tmp_path / "inst")
    assert gen(runner, src, seed=10, targets=12, vehicles=3).exit_code == 0
    out = str(tmp_path / "heur")
    args = solve_args(
        src, out, "heuristic", **{"--m": "3", "--lambda": "100", "--iterations": "50"}
    )
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    counters = read_json(os.path.join(out, "manifest.json"))["counters"]
    assert counters["chosen_is_ev"] is True
    # two candidates, one of them the EV route set: EEV is not scored apart
    assert counters["scored_route_sets"] == len(counters["recourse_share"]["candidates"]) == 2
    assert "VSS = 0.0 " in res.output
    result = read_json(os.path.join(out, "result.json"))
    assert result["vss"] == 0.0
    assert result["eev"] == result["h"]


def test_evaluate_scores_and_merges(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    out = str(tmp_path / "saa")
    assert runner.invoke(main, solve_args(src, out, "saa")).exit_code == 0

    neither = runner.invoke(
        main,
        [
            "evaluate",
            "--instance",
            os.path.join(src, "instance.json"),
            "--solution",
            os.path.join(out, "solution.json"),
        ],
    )
    assert neither.exit_code == 2

    merged = runner.invoke(
        main,
        [
            "evaluate",
            "--instance",
            os.path.join(src, "instance.json"),
            "--solution",
            os.path.join(out, "solution.json"),
            "--quadrants",
            os.path.join(src, "quadrants.json"),
            "--seed",
            "0",
            "--lambda",
            "30",
            "--result",
            os.path.join(out, "result.json"),
            "--column",
            "h",
        ],
    )
    assert merged.exit_code == 0, merged.output
    assert "mean = " in merged.output
    doc = read_json(tmp_path / "saa" / "result.json")
    assert doc["h"] is not None
    best = min(doc["ub"]["mean"], doc["h"]["mean"])
    assert doc["vss"] == pytest.approx(doc["eev"]["mean"] - best, abs=1e-12)

    mismatched = runner.invoke(
        main,
        [
            "evaluate",
            "--instance",
            os.path.join(src, "instance.json"),
            "--solution",
            os.path.join(out, "solution.json"),
            "--quadrants",
            os.path.join(src, "quadrants.json"),
            "--seed",
            "1",
            "--lambda",
            "30",
            "--result",
            os.path.join(out, "result.json"),
            "--column",
            "h",
        ],
    )
    assert mismatched.exit_code == 3
    assert "mixed-sample" in mismatched.output


def test_sampler_errors_exit_1_with_a_one_line_message(runner, tmp_path, monkeypatch):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    evp = str(tmp_path / "evp")
    assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
    message = "no acceptable congested draw in 3 tries"

    def refuse(*args, **kwargs):
        raise SamplerError(message)

    monkeypatch.setattr(fcmurp.cli, "sample_scenarios", refuse)
    monkeypatch.setattr(fcmurp.cli, "ScenarioStream", refuse)
    monkeypatch.setattr(fcmurp.stochsolve, "sample_scenarios", refuse)
    evaluate = [
        "evaluate",
        "--instance",
        os.path.join(src, "instance.json"),
        "--solution",
        os.path.join(evp, "solution.json"),
        "--quadrants",
        os.path.join(src, "quadrants.json"),
    ]
    big = str(tmp_path / "big")
    assert gen_above_limit(runner, big).exit_code == 0
    for args in (
        solve_args(src, str(tmp_path / "saa"), "saa"),
        solve_args(src, str(tmp_path / "heur"), "heuristic"),
        solve_args(big, str(tmp_path / "big-heur"), "heuristic"),
        evaluate,
    ):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, res.output
        assert res.output.splitlines()[-1] == f"Error: {message}"
        assert "Traceback" not in res.output


def test_a_sampler_error_in_the_scoring_pass_writes_no_result(runner, tmp_path, monkeypatch):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    # at limit 12 both replication samples draw, and the evaluation sample
    # fails at scenario 21, after the pass has scored the 21 before it
    monkeypatch.setattr(fcmurp.instgen, "REJECTION_LIMIT", 12)
    inst, qmap = make_case(seed=0, n_targets=4, vehicles=2)
    for k in range(2):
        sample_scenarios(inst, qmap, gamma_seed(0, k), 2)
    drawn = []
    with pytest.raises(SamplerError) as failed:
        for scenario in ScenarioStream(inst, qmap, lambda_seed(0), 30):
            drawn.append(scenario.id)
    assert drawn == list(range(21))
    passes = []
    score = fcmurp.cli.saa_upper_bound

    def scored(*args, **kwargs):
        passes.append(args)
        return score(*args, **kwargs)

    monkeypatch.setattr(fcmurp.cli, "saa_upper_bound", scored)
    for mode in ("saa", "heuristic"):
        out = tmp_path / mode
        res = runner.invoke(main, solve_args(src, str(out), mode))
        assert res.exit_code == 1, res.output
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"Error: {failed.value}"
        assert "Traceback" not in res.output
        assert not (out / "result.json").exists() and not (out / "solution.json").exists()
    assert len(passes) == 2


@pytest.mark.parametrize("walk_share", [fcmurp.instgen.LOCKSTEP_MEMORY_SHARE, math.inf])
def test_stage_seconds_split_the_scoring_pass_into_drawing_and_scoring(
    runner, tmp_path, monkeypatch, walk_share
):
    src = str(tmp_path / "inst")
    out = str(tmp_path / "heur")
    assert gen(runner, src, targets=5, vehicles=2).exit_code == 0
    # 30 scenarios, drawn one variate at a time or, forced, in lockstep:
    # opening each scenario's substream (once, or twice for a scenario the
    # lockstep walk cannot decide) takes 5 ms more and scoring it 15 ms
    monkeypatch.setattr(fcmurp.instgen, "LOCKSTEP_MEMORY_SHARE", walk_share)
    substream = fcmurp.instgen._substream
    table = fcmurp.stochsolve.BestDepotTable

    def slow_substream(*key):
        time.sleep(0.005)
        return substream(*key)

    def slow_table(*args):
        time.sleep(0.015)
        return table(*args)

    monkeypatch.setattr(fcmurp.instgen, "_substream", slow_substream)
    monkeypatch.setattr(fcmurp.stochsolve, "BestDepotTable", slow_table)
    passes = []
    score = fcmurp.cli.saa_upper_bound

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return score(*args, **kwargs)
        finally:
            passes.append(time.perf_counter() - start)

    monkeypatch.setattr(fcmurp.cli, "saa_upper_bound", timed)
    res = runner.invoke(main, solve_args(src, out, "heuristic", **{"--iterations": "5"}))
    assert res.exit_code == 0, res.output
    stages = read_json(os.path.join(out, "manifest.json"))["stage_seconds"]
    drawing, scoring = stages["evaluation_sample"], stages["upper_bound"]
    # each stage holds its own sleeps and none of the other's
    assert 0.15 <= drawing < 0.45
    assert 0.45 <= scoring < 0.6
    # the two stages time the pass, plus making the stream before it
    assert passes[0] <= drawing + scoring < passes[0] + 0.05


def test_solve_manifest_counts_the_scoring_pass(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen_above_limit(runner, src).exit_code == 0
    counters = []
    for k in range(2):
        out = str(tmp_path / f"heur{k}")
        args = solve_args(
            src, out, "heuristic", **{"--iterations": "10", "--stall-limit": "5"}
        )
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        manifest = read_json(os.path.join(out, "manifest.json"))
        counters.append(manifest["counters"])
        assert set(manifest["stage_seconds"]).isdisjoint(manifest["counters"])
        assert "penalized_scenarios" not in manifest["config"]
        result = read_json(os.path.join(out, "result.json"))
        assert "counters" not in result and "no_recourse" not in result
    assert counters[0] == counters[1]
    block = counters[0]
    assert block["lambda_scenarios"] == 30
    shares = block["recourse_share"]
    # both replications return the EV route set: one candidate, scored once
    # for H and for EEV
    assert block["chosen_is_ev"] is True
    assert block["scored_route_sets"] == len(shares["candidates"]) == 1
    for share in (*shares["candidates"], shares["ev"]):
        assert 0.0 <= share <= 1.0 and (share * 30).is_integer()
    assert block["no_recourse"] == (not any(shares["candidates"]) and not shares["ev"])
    rows = block["tabu"]
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {
            "iterations",
            "moves",
            "stagnant",
            "resets",
            "aspirations",
            "sequences",
            "infeasible_sequences",
            "legs",
            "scans",
            "scored",
            "construction_nodes",
        }
        # 9 targets: construction solves each of the 2 sampled scenarios and
        # the discounted problem with the greedy solver, which counts 0 nodes
        nodes = row["construction_nodes"]
        assert nodes == {"scenarios": [0, 0], "final": 0}
        assert 1 <= row["iterations"] <= 10
        assert row["moves"] + row["stagnant"] == row["iterations"]
        assert 0 <= row["infeasible_sequences"] < row["sequences"]
        assert 1 <= row["scans"] <= row["iterations"]
        # 9 targets: 36 swaps per scanned state, each scored at most once
        assert 1 <= row["scored"] <= 36 * row["scans"]
        assert row["legs"] > 0
        # every tabu sequence went through the instance's one insertion memo
        assert block["insertions"] >= row["sequences"]
    assert set(block["ev_solve"]) == {"nodes", "optimal"}
    assert_rejection_counters(block["rejections"], replications=2)


def assert_rejection_counters(block, replications):
    assert set(block) == {"gamma", "lambda"}
    assert len(block["gamma"]) == replications
    assert all(isinstance(n, int) and n >= 0 for n in block["gamma"])
    # congested edges reject about half their draws: 30 scenarios reject some
    assert isinstance(block["lambda"], int) and block["lambda"] > 0


def test_solve_manifest_counts_the_ev_search(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src, targets=5, vehicles=2).exit_code == 0
    for mode in ("evp", "saa"):
        blocks = []
        for k in range(2):
            out = str(tmp_path / f"{mode}{k}")
            res = runner.invoke(main, solve_args(src, out, mode))
            assert res.exit_code == 0, res.output
            manifest = read_json(os.path.join(out, "manifest.json"))
            blocks.append(manifest["counters"])
            assert set(manifest["stage_seconds"]).isdisjoint(manifest["counters"])
            assert "counters" not in read_json(os.path.join(out, "result.json"))
        assert blocks[0] == blocks[1]
        ev_solve = blocks[0]["ev_solve"]
        assert ev_solve["optimal"] is True
        assert ev_solve["nodes"] > 0
        assert "tabu" not in blocks[0]
        if mode == "saa":
            rows = blocks[0]["saa_replications"]
            assert len(rows) == 2
            for row in rows:
                assert set(row) == {"nodes", "legs"}
                assert row["nodes"] > 0
            assert_rejection_counters(blocks[0]["rejections"], replications=2)
        else:
            assert "saa_replications" not in blocks[0]
            assert "rejections" not in blocks[0]


def test_solve_flags_runs_where_no_scenario_needs_recourse(runner, tmp_path):
    src = str(tmp_path / "inst")
    # a generous tank: every sampled scenario is flown as planned
    assert gen(runner, src, extra=("--fuel-factor", "20")).exit_code == 0
    out = str(tmp_path / "saa")
    res = runner.invoke(main, solve_args(src, out, "saa"))
    assert res.exit_code == 0, res.output
    counters = read_json(os.path.join(out, "manifest.json"))["counters"]
    assert counters["no_recourse"] is True
    assert counters["recourse_share"]["ev"] == 0.0
    assert counters["penalized_scenarios"] == 0


def invoke_one_line_error(runner, args, code):
    res = runner.invoke(main, args)
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.output
    assert len(res.output.splitlines()) == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    return res.output


def test_evaluate_scores_a_drawn_sample_as_the_same_sample_from_a_file(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    evp = str(tmp_path / "evp")
    assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
    instance = os.path.join(src, "instance.json")
    quadrants = os.path.join(src, "quadrants.json")
    scen = str(tmp_path / "lambda.json")
    made = runner.invoke(
        main,
        ["scenarios", "--instance", instance, "--quadrants", quadrants,
         "--seed", str(lambda_seed(3)), "--count", "40", "--out", scen],
    )
    assert made.exit_code == 0, made.output
    score = ["evaluate", "--instance", instance, "--solution", os.path.join(evp, "solution.json")]
    drawn = runner.invoke(main, [*score, "--quadrants", quadrants, "--seed", "3", "--lambda", "40"])
    saved = runner.invoke(main, [*score, "--scenarios", scen])
    assert drawn.exit_code == saved.exit_code == 0, (drawn.output, saved.output)
    assert drawn.stdout.startswith("mean = ")
    assert drawn.stdout == saved.stdout
    assert drawn.stderr == saved.stderr


def test_evaluate_reports_the_share_that_needed_recourse(runner, tmp_path):
    shares = {}
    for seed in (0, 1):
        # seed 0 needs detours; at seed 1 no scenario does, and every
        # value is the EV routes' cost
        src = str(tmp_path / f"inst{seed}")
        assert gen(runner, src, seed=seed, targets=5, vehicles=2).exit_code == 0
        evp = str(tmp_path / f"evp{seed}")
        assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
        res = runner.invoke(
            main,
            ["evaluate", "--instance", os.path.join(src, "instance.json"),
             "--solution", os.path.join(evp, "solution.json"),
             "--quadrants", os.path.join(src, "quadrants.json")],
        )
        assert res.exit_code == 0, res.output
        lines = res.stderr.splitlines()
        share = float(lines[0].removeprefix("recourse share: "))
        shares[seed] = share
        flagged = "no scenario needed recourse: every value is the first-stage cost" in lines
        assert flagged == (share == 0.0)
        assert (res.stdout.splitlines()[1] == "standard_error = 0.0") == flagged
    assert shares[0] > 0.0 and shares[1] == 0.0


def test_evaluate_refuses_a_solution_of_another_instance(runner, tmp_path):
    small = str(tmp_path / "small")
    big = str(tmp_path / "big")
    assert gen(runner, small).exit_code == 0
    assert gen(runner, big, targets=6, vehicles=3).exit_code == 0
    evp = str(tmp_path / "evp")
    assert runner.invoke(main, solve_args(small, evp, "evp")).exit_code == 0
    args = [
        "evaluate",
        "--instance", os.path.join(big, "instance.json"),
        "--solution", os.path.join(evp, "solution.json"),
        "--quadrants", os.path.join(big, "quadrants.json"),
        "--lambda", "5",
    ]
    output = invoke_one_line_error(runner, args, 3)
    assert "solution does not fit the instance" in output


def test_evaluate_refuses_a_scenario_set_of_another_instance(runner, tmp_path):
    small = str(tmp_path / "small")
    big = str(tmp_path / "big")
    assert gen(runner, small).exit_code == 0
    assert gen(runner, big, targets=6, vehicles=3).exit_code == 0
    evp = str(tmp_path / "evp")
    assert runner.invoke(main, solve_args(small, evp, "evp")).exit_code == 0
    scen = os.path.join(big, "scen.json")
    made = runner.invoke(
        main,
        [
            "scenarios",
            "--instance", os.path.join(big, "instance.json"),
            "--quadrants", os.path.join(big, "quadrants.json"),
            "--count", "3",
            "--out", scen,
        ],
    )
    assert made.exit_code == 0, made.output
    args = [
        "evaluate",
        "--instance", os.path.join(small, "instance.json"),
        "--solution", os.path.join(evp, "solution.json"),
        "--scenarios", scen,
    ]
    output = invoke_one_line_error(runner, args, 3)
    assert "scenario set does not fit the instance: scenario 0 fuel shape" in output
    assert "(and 2 more)" in output


def test_solve_refuses_a_truncated_cost_matrix(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    path = os.path.join(src, "instance.json")
    for cut in ("row", "entry"):
        doc = read_json(path)
        if cut == "row":
            doc["cost"] = doc["cost"][:-1]
        else:
            doc["cost"][-1] = doc["cost"][-1][:-1]
        bad = os.path.join(src, f"bad-{cut}.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        args = solve_args(src, str(tmp_path / "out"), "saa", **{"--instance": bad})
        output = invoke_one_line_error(runner, args, 3)
        assert "instance document" in output


@pytest.mark.parametrize(
    "where, value",
    [
        (("fuel_capacity",), math.nan),
        (("fuel_capacity",), math.inf),
        (("coordinates", 5, 0), math.nan),
        (("cost", 5, 6), math.nan),
        (("nominal_fuel", 6, 5), math.inf),
    ],
    ids=["capacity-nan", "capacity-inf", "coordinate-nan", "cost-nan", "fuel-inf"],
)
def test_solve_refuses_non_finite_instance_numbers(runner, tmp_path, where, value):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    doc = read_json(os.path.join(src, "instance.json"))
    *outer, last = where
    part = doc
    for key in outer:
        part = part[key]
    part[last] = value
    bad = os.path.join(src, "bad.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    args = solve_args(src, str(tmp_path / "out"), "evp", **{"--instance": bad})
    output = invoke_one_line_error(runner, args, 3)
    assert "invalid instance document" in output


def test_evaluate_refuses_a_non_finite_scenario_fuel_entry(runner, tmp_path, sampled_inputs):
    doc = read_json(os.path.join(sampled_inputs, "scen.json"))
    doc["scenarios"][1]["fuel"][5][6] = math.nan
    bad = str(tmp_path / "scen.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    args = [
        "evaluate",
        "--instance", os.path.join(sampled_inputs, "instance.json"),
        "--solution", os.path.join(sampled_inputs, "evp", "solution.json"),
        "--scenarios", bad,
    ]
    output = invoke_one_line_error(runner, args, 3)
    assert "scenario 1 fuel has non-finite entries" in output


def test_evaluate_refuses_routes_that_run_out_of_nominal_fuel(runner, tmp_path):
    src = str(tmp_path / "inst")
    made = gen(runner, src, seed=7, targets=5, extra=("--fuel-factor", "1.2"))
    assert made.exit_code == 0, made.output
    solution = os.path.join(src, "solution.json")
    with open(solution, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "format_version": FORMAT_VERSION,
                "kind": "solution",
                "routes": [[0, 5, 6, 7, 0], [0, 8, 9, 0]],
            },
            handle,
        )
    args = [
        "evaluate",
        "--instance", os.path.join(src, "instance.json"),
        "--solution", solution,
        "--quadrants", os.path.join(src, "quadrants.json"),
        "--lambda", "20",
    ]
    output = invoke_one_line_error(runner, args, 3)
    assert "run out of fuel under nominal consumption" in output


def test_solve_refuses_a_quadrant_map_of_another_instance(runner, tmp_path):
    src = str(tmp_path / "inst")
    other = str(tmp_path / "other")
    assert gen(runner, src).exit_code == 0
    assert gen(runner, other, targets=6, vehicles=2).exit_code == 0
    args = solve_args(
        src,
        str(tmp_path / "out"),
        "heuristic",
        **{"--quadrants": os.path.join(other, "quadrants.json")},
    )
    output = invoke_one_line_error(runner, args, 3)
    assert "quadrant map labels 11 vertices, instance has 9" in output


@pytest.mark.parametrize("command", ["evp", "saa", "heuristic", "scenarios", "evaluate"])
def test_a_quadrant_map_of_another_instance_fails_before_any_work(runner, tmp_path, command):
    src = str(tmp_path / "inst")
    other = str(tmp_path / "other")
    assert gen(runner, src).exit_code == 0
    assert gen(runner, other, targets=6, vehicles=2).exit_code == 0
    wrong = os.path.join(other, "quadrants.json")
    out = str(tmp_path / "out")
    if command == "scenarios":
        args = [
            "scenarios",
            "--instance", os.path.join(src, "instance.json"),
            "--quadrants", wrong,
            "--count", "3",
            "--out", out,
        ]
    elif command == "evaluate":
        evp = str(tmp_path / "evp")
        assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
        args = [
            "evaluate",
            "--instance", os.path.join(src, "instance.json"),
            "--solution", os.path.join(evp, "solution.json"),
            "--quadrants", wrong,
            "--lambda", "20",
        ]
    else:
        args = solve_args(src, out, command, **{"--quadrants": wrong})
    output = invoke_one_line_error(runner, args, 3)
    assert output == "Error: quadrant map labels 11 vertices, instance has 9\n"
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def sampled_inputs(tmp_path_factory):
    """An instance with its quadrant map, three sampled scenarios and the
    EV solution, made once for the malformed-file cases below."""
    runner = CliRunner()
    src = str(tmp_path_factory.mktemp("inputs"))
    assert gen(runner, src).exit_code == 0
    scen = os.path.join(src, "scen.json")
    made = runner.invoke(
        main,
        [
            "scenarios",
            "--instance", os.path.join(src, "instance.json"),
            "--quadrants", os.path.join(src, "quadrants.json"),
            "--count", "3",
            "--out", scen,
        ],
    )
    assert made.exit_code == 0, made.output
    evp = os.path.join(src, "evp")
    assert runner.invoke(main, solve_args(src, evp, "evp")).exit_code == 0
    return src


@pytest.mark.parametrize(
    "name, where, value",
    [
        ("quadrants.json", ("seed",), "x"),
        ("quadrants.json", ("vertex_labels", 1), "congestd"),
        ("quadrants.json", ("quadrant_labels",), ["congested", "sparse", "mean"]),
        ("scen.json", ("scenarios", 0, "id"), "a"),
        ("scen.json", ("scenarios", 0, "probability"), 0.5),
        ("scen.json", ("scenarios", 1, "id"), 0),
        ("scen.json", ("scenarios", 0, "fuel", 2), [0.0, 1.0]),
        ("scen.json", ("scenarios",), []),
    ],
    ids=[
        "seed-not-int",
        "unknown-vertex-label",
        "three-quadrant-labels",
        "id-not-int",
        "probabilities-not-summing-to-1",
        "duplicate-ids",
        "ragged-fuel",
        "no-scenarios",
    ],
)
def test_malformed_quadrant_and_scenario_files_exit_3(
    runner, tmp_path, sampled_inputs, name, where, value
):
    doc = read_json(os.path.join(sampled_inputs, name))
    *outer, last = where
    part = doc
    for key in outer:
        part = part[key]
    part[last] = value
    bad = str(tmp_path / name)
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    instance = os.path.join(sampled_inputs, "instance.json")
    if name == "quadrants.json":
        args = [
            "scenarios",
            "--instance", instance,
            "--quadrants", bad,
            "--count", "3",
            "--out", str(tmp_path / "scen.json"),
        ]
    else:
        args = [
            "evaluate",
            "--instance", instance,
            "--solution", os.path.join(sampled_inputs, "evp", "solution.json"),
            "--scenarios", bad,
        ]
    output = invoke_one_line_error(runner, args, 3)
    assert f"malformed {'quadrants' if name == 'quadrants.json' else 'scenario'} document: " in output


def test_report_renders_both_formats(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    out = str(tmp_path / "saa")
    assert runner.invoke(main, solve_args(src, out, "saa")).exit_code == 0
    result = os.path.join(out, "result.json")

    csv = runner.invoke(main, ["report", result, "--format", "csv"])
    assert csv.exit_code == 0
    assert csv.output.splitlines()[0] == CSV_HEADER
    assert len(csv.output.splitlines()) == 2

    text = runner.invoke(main, ["report", result, result])
    assert text.exit_code == 0
    assert "mean (dispersion)" in text.output
    assert len([l for l in text.output.splitlines() if l.startswith("inst")]) >= 2

    saved = os.path.join(out, "table.csv")
    first = runner.invoke(main, ["report", result, "--format", "csv", "--out", saved])
    assert first.exit_code == 0
    bytes_one = open(saved, "rb").read()
    assert runner.invoke(main, ["report", result, "--format", "csv", "--out", saved]).exit_code == 0
    assert open(saved, "rb").read() == bytes_one

    missing = runner.invoke(main, ["report", os.path.join(out, "gone.json")])
    assert missing.exit_code == 3


@pytest.mark.parametrize("unreadable", ["binary", "directory"])
def test_unreadable_artifacts_exit_3(runner, tmp_path, unreadable):
    if unreadable == "binary":
        path = tmp_path / "result.json"
        path.write_bytes(b"\x7fELF\xff\xfe\x00\x01")
    else:
        path = tmp_path
    output = invoke_one_line_error(runner, ["report", str(path)], 3)
    assert str(path) in output


@pytest.mark.parametrize("command", ["generate", "solve", "scenarios", "report"])
def test_unwritable_output_paths_exit_3(runner, tmp_path, command):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    inputs = [
        "--instance", os.path.join(src, "instance.json"),
        "--quadrants", os.path.join(src, "quadrants.json"),
    ]
    if command == "generate":
        out = str(blocker / "sub")
        args = ["generate", "--targets", "4", "--vehicles", "2", "--out", out]
    elif command == "solve":
        out = str(blocker / "sub")
        args = solve_args(src, out, "evp")
    elif command == "scenarios":
        out = str(blocker / "s.json")
        args = ["scenarios", *inputs, "--count", "2", "--out", out]
    else:
        solved = str(tmp_path / "evp")
        assert runner.invoke(main, solve_args(src, solved, "evp")).exit_code == 0
        out = str(blocker / "t.txt")
        args = ["report", os.path.join(solved, "result.json"), "--out", out]
    output = invoke_one_line_error(runner, args, 3)
    assert output.startswith(f"Error: artifact cannot be written: {out}: ")
    assert blocker.read_text() == "not a directory\n"


def test_report_and_evaluate_recompute_hand_edited_statistics(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    out = str(tmp_path / "saa")
    assert runner.invoke(main, solve_args(src, out, "saa")).exit_code == 0
    result = os.path.join(out, "result.json")
    edited = os.path.join(out, "edited.json")
    doc = read_json(result)
    doc["ub"]["mean"] = 1.0
    doc["ub"]["standard_error"] = 2.0
    doc["vss"] = 3.0
    with open(edited, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for fmt in ("text", "csv"):
        shown = [runner.invoke(main, ["report", p, "--format", fmt]) for p in (result, edited)]
        assert shown[0].exit_code == shown[1].exit_code == 0
        assert shown[0].output == shown[1].output
    merge = [
        "evaluate",
        "--instance", os.path.join(src, "instance.json"),
        "--solution", os.path.join(out, "solution.json"),
        "--quadrants", os.path.join(src, "quadrants.json"),
        "--lambda", "30",
        "--column", "h",
    ]
    for path in (result, edited):
        merged = runner.invoke(main, [*merge, "--result", path])
        assert merged.exit_code == 0, merged.output
    assert open(result, "rb").read() == open(edited, "rb").read()
    # a document the statistics cannot be derived from is an artifact error
    doc["ub"]["values"] = []
    with open(edited, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    output = invoke_one_line_error(runner, ["report", edited], 3)
    assert "zero values" in output



@pytest.fixture(scope="module")
def saa_result(tmp_path_factory):
    """An instance with its quadrant map and a finished saa run."""
    runner = CliRunner()
    src = str(tmp_path_factory.mktemp("saa"))
    assert gen(runner, src).exit_code == 0
    out = os.path.join(src, "saa")
    assert runner.invoke(main, solve_args(src, out, "saa")).exit_code == 0
    return src, out


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("eev", "values", 0), math.nan, "estimate values must be finite"),
        (("ev",), math.nan, "ev must be finite"),
        (("lb", "values", 0), math.inf, "estimate values must be finite"),
    ],
    ids=["eev-nan", "ev-nan", "lb-inf"],
)
def test_report_and_evaluate_refuse_non_finite_result_values(
    runner, tmp_path, saa_result, where, value, message
):
    src, out = saa_result
    doc = read_json(os.path.join(out, "result.json"))
    *outer, last = where
    part = doc
    for key in outer:
        part = part[key]
    part[last] = value
    bad = str(tmp_path / "result.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    assert message in invoke_one_line_error(runner, ["report", bad], 3)
    before = open(bad, "rb").read()
    args = [
        "evaluate",
        "--instance", os.path.join(src, "instance.json"),
        "--solution", os.path.join(out, "solution.json"),
        "--quadrants", os.path.join(src, "quadrants.json"),
        "--lambda", "30",
        "--result", bad,
    ]
    assert message in invoke_one_line_error(runner, args, 3)
    assert open(bad, "rb").read() == before


def test_solve_refuses_a_negative_refuel_depot_count(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    doc = read_json(os.path.join(src, "instance.json"))
    doc["n_refuel"] = -1
    bad = os.path.join(src, "bad.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    args = solve_args(src, str(tmp_path / "out"), "evp", **{"--instance": bad})
    output = invoke_one_line_error(runner, args, 3)
    assert "refuel depot count must be at least 0, got -1" in output


@pytest.mark.parametrize(
    "name, where, change, message",
    [
        ("instance.json", ("vehicles",), lambda v: 2.9, "vehicles must be an integer, got 2.9"),
        ("instance.json", ("vehicles",), str, "vehicles must be an integer, got '2'"),
        ("instance.json", ("n_refuel",), lambda v: 4.6, "n_refuel must be an integer, got 4.6"),
        ("instance.json", ("fuel_capacity",), lambda v: "1e9", "fuel_capacity must be a number"),
        ("instance.json", ("grid",), str, "grid must be a number"),
        ("instance.json", ("coordinates", 5, 0), str, "coordinates must hold numbers only"),
        ("instance.json", ("cost", 5, 6), str, "cost must hold numbers only"),
        ("instance.json", ("nominal_fuel", 6, 5), str, "nominal_fuel must hold numbers only"),
        ("quadrants.json", ("seed",), lambda v: 2.5, "seed must be an integer, got 2.5"),
        ("quadrants.json", ("grid",), str, "grid must be a number"),
        ("scen.json", ("scenarios", 0, "id"), lambda v: 0.5, "scenario id must be an integer, got 0.5"),
        ("scen.json", ("scenarios", 0, "probability"), str, "probability must be a number"),
        ("scen.json", ("scenarios", 0, "fuel", 5, 6), str, "fuel must hold numbers only"),
        ("solution.json", ("routes", 0, 1), lambda v: v + 0.4, "route vertex must be an integer"),
        ("result.json", ("solution", 0, 1), float, "route vertex must be an integer"),
        ("result.json", ("ev",), str, "ev must be a number"),
        ("result.json", ("ev_optimal",), lambda v: "false", "ev_optimal must be true or false"),
        ("result.json", ("eev", "values", 0), str, "estimate value must be a number"),
        ("instance.json", ("vertices",), lambda v: "x" * len(v), "vertices must be a list of strings"),
        ("instance.json", ("vertices",), lambda v: list(range(len(v))), "vertices must be a list of strings"),
        ("quadrants.json", ("quadrant_labels",), lambda v: "csms", "quadrant_labels must be a list of strings"),
        ("scen.json", ("label",), lambda v: None, "label must be a string, got None"),
        ("result.json", ("eev", "label"), lambda v: None, "estimate label must be a string, got None"),
        ("result.json", ("instance_name",), lambda v: 7, "instance_name must be a string, got 7"),
    ],
    ids=[
        "vehicles-float",
        "vehicles-string",
        "n_refuel-float",
        "fuel_capacity-string",
        "grid-string",
        "coordinates-string",
        "cost-string",
        "nominal_fuel-string",
        "quadrant-seed-float",
        "quadrant-grid-string",
        "scenario-id-float",
        "probability-string",
        "scenario-fuel-string",
        "solution-vertex-float",
        "result-vertex-float",
        "ev-string",
        "ev_optimal-string",
        "estimate-value-string",
        "vertices-string",
        "vertices-integers",
        "quadrant-labels-string",
        "scenario-label-null",
        "estimate-label-null",
        "instance-name-integer",
    ],
)
def test_readers_refuse_values_of_the_wrong_type(
    runner, tmp_path, sampled_inputs, saa_result, name, where, change, message
):
    """A value of the wrong JSON type exits 3 with one line: readers check
    types and convert nothing. ``change`` maps the written value to the bad
    one; at ``str`` a number becomes a string that reads as that number."""
    src = sampled_inputs
    path = {
        "solution.json": os.path.join(src, "evp", "solution.json"),
        "result.json": os.path.join(saa_result[1], "result.json"),
    }.get(name, os.path.join(src, name))
    doc = read_json(path)
    *outer, last = where
    part = doc
    for key in outer:
        part = part[key]
    part[last] = change(part[last])
    bad = str(tmp_path / name)
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    instance = os.path.join(src, "instance.json")
    scenarios = os.path.join(src, "scen.json")
    solution = os.path.join(src, "evp", "solution.json")
    if name == "instance.json":
        args = solve_args(src, str(tmp_path / "out"), "evp", **{"--instance": bad})
    elif name == "quadrants.json":
        args = [
            "scenarios",
            "--instance", instance,
            "--quadrants", bad,
            "--count", "3",
            "--out", str(tmp_path / "scen.json"),
        ]
    elif name == "result.json":
        args = ["report", bad]
    else:
        args = [
            "evaluate",
            "--instance", instance,
            "--solution", bad if name == "solution.json" else solution,
            "--scenarios", bad if name == "scen.json" else scenarios,
        ]
    assert message in invoke_one_line_error(runner, args, 3)


def test_negative_nominal_fuel_is_refused(runner, tmp_path):
    src = str(tmp_path / "inst")
    assert gen(runner, src).exit_code == 0
    doc = read_json(os.path.join(src, "instance.json"))
    doc["nominal_fuel"][5][0] = -1.0
    bad = os.path.join(src, "bad.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    sample = [
        "scenarios",
        "--instance", bad,
        "--quadrants", os.path.join(src, "quadrants.json"),
        "--count", "3",
        "--out", str(tmp_path / "scen.json"),
    ]
    for args in (
        sample,
        solve_args(src, str(tmp_path / "evp"), "evp", **{"--instance": bad}),
        solve_args(src, str(tmp_path / "heur"), "heuristic", **{"--instance": bad}),
    ):
        output = invoke_one_line_error(runner, args, 3)
        assert "nominal_fuel has negative entries off the diagonal" in output


def test_evaluate_refuses_a_negative_scenario_fuel_entry(runner, tmp_path, sampled_inputs):
    doc = read_json(os.path.join(sampled_inputs, "scen.json"))
    doc["scenarios"][1]["fuel"][5][6] = -3.0
    bad = str(tmp_path / "scen.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    args = [
        "evaluate",
        "--instance", os.path.join(sampled_inputs, "instance.json"),
        "--solution", os.path.join(sampled_inputs, "evp", "solution.json"),
        "--scenarios", bad,
    ]
    output = invoke_one_line_error(runner, args, 3)
    assert "scenario 1 fuel has negative entries off the diagonal" in output


@pytest.mark.parametrize(
    "options",
    [("--quadrants", "/nonexistent/q.json"), ("--seed", "0"), ("--lambda", "1000"),
     ("--quadrants", "/nonexistent/q.json", "--lambda", "7", "--seed", "3")],
    ids=["quadrants", "seed", "lambda", "all"],
)
def test_evaluate_with_scenarios_refuses_draw_only_options(runner, sampled_inputs, options):
    # they shape only a drawn sample, which --scenarios replaces, so they
    # are refused before any file is read, even at their default values
    args = [
        "evaluate",
        "--instance", os.path.join(sampled_inputs, "instance.json"),
        "--solution", os.path.join(sampled_inputs, "evp", "solution.json"),
        "--scenarios", os.path.join(sampled_inputs, "scen.json"),
        *options,
    ]
    flags = ", ".join(sorted(options[::2], key=["--quadrants", "--seed", "--lambda"].index))
    output = invoke_one_line_error(runner, args, 2)
    assert output == f"Error: --scenarios cannot be combined with {flags}, used only to draw scenarios\n"


@pytest.mark.parametrize(
    "targets, vehicles, seeds", [(7, 2, (1, 3, 8)), (20, 3, (0, 1))], ids=["exact", "greedy"]
)
def test_evp_routes_do_not_depend_on_the_grid_unit(runner, tmp_path, targets, vehicles, seeds):
    # --grid 100 * 2**20 scales cost, fuel and capacity by exactly 2**20, and
    # the solvers' margins scale with the costs: the same routes come out
    for seed in seeds:
        docs = {}
        for grid in ("100", "104857600"):
            src = str(tmp_path / f"{seed}-{grid}")
            made = gen(runner, src, seed=seed, targets=targets, vehicles=vehicles, extra=("--grid", grid))
            assert made.exit_code == 0, made.output
            out = os.path.join(src, "evp")
            res = runner.invoke(main, solve_args(src, out, "evp"))
            assert res.exit_code == 0, res.output
            with open(os.path.join(out, "solution.json"), "rb") as handle:
                docs[grid] = (handle.read(), read_json(os.path.join(out, "result.json"))["ev"])
        assert docs["104857600"][0] == docs["100"][0]
        assert docs["104857600"][1] == docs["100"][1] * 2.0**20


LAYERS = ("model", "instgen", "recourse", "detsolve", "stochsolve", "heuristics", "files")


def public_code(module):
    """Name to code object of every function in ``module.__all__`` and of
    every method, property and cached property defined on its classes there;
    dunders other than ``__post_init__`` are left out."""
    found = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            found[f"{module.__name__}.{name}"] = obj.__code__
        elif inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if attr.startswith("__") and attr.endswith("__") and attr != "__post_init__":
                    continue
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, functools.cached_property):
                    value = value.func
                elif isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if inspect.isfunction(value):
                    found[f"{module.__name__}.{name}.{attr}"] = value.__code__
    return found


def test_every_public_name_runs_in_a_pipeline(runner, tmp_path):
    expected = {}
    for layer in LAYERS:
        expected.update(public_code(importlib.import_module(f"fcmurp.{layer}")))
    src = str(tmp_path / "inst")
    instance = os.path.join(src, "instance.json")
    inputs = ["--instance", instance, "--quadrants", os.path.join(src, "quadrants.json")]
    small = {"--n": "2", "--m": "2", "--lambda": "20", "--iterations": "5"}
    # --m 11, above SAA_SAMPLE_LIMIT: the heuristic run takes construction + tabu
    sizes = {"evp": small, "saa": small, "heuristic": {**small, "--m": "11"}}
    runs = {mode: str(tmp_path / mode) for mode in sizes}
    gamma = str(tmp_path / "gamma.json")
    results = [os.path.join(runs[mode], "result.json") for mode in ("saa", "heuristic")]
    session = [
        ["generate", "--targets", "5", "--vehicles", "2", "--out", src],
        ["scenarios", *inputs, "--count", "3", "--out", gamma],
        ["scenarios", *inputs, "--count", "1", "--distribution", "point-mass",
         "--out", str(tmp_path / "point.json")],
        *(solve_args(src, out, mode, **sizes[mode]) for mode, out in runs.items()),
        ["evaluate", *inputs, "--solution", os.path.join(runs["heuristic"], "solution.json"),
         "--lambda", "20", "--result", results[1]],
        ["evaluate", "--instance", instance, "--solution",
         os.path.join(runs["saa"], "solution.json"), "--scenarios", gamma],
        ["report", *results, "--out", str(tmp_path / "table.txt")],
        ["report", *results, "--format", "csv"],
    ]
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    outcomes = []
    sys.setprofile(profile)
    try:
        for args in session:
            outcomes.append(runner.invoke(main, args))
    finally:
        sys.setprofile(None)
    for args, res in zip(session, outcomes):
        assert res.exit_code == 0, (args, res.output)
    assert sorted(name for name, code in expected.items() if code not in ran) == []


def test_solve_manifest_records_the_runtime(runner, tmp_path):
    src = str(tmp_path / "inst")
    out = str(tmp_path / "out")
    assert gen(runner, src).exit_code == 0
    assert runner.invoke(main, solve_args(src, out, "evp")).exit_code == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    runtime = manifest["runtime"]
    assert runtime == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    assert all(isinstance(value, str) for value in runtime.values())
    assert "runtime" not in manifest["counters"]
    assert "runtime" not in manifest["stage_seconds"]


def run_python(code, **env):
    """JSON printed by ``code`` in a fresh interpreter that sees this
    checkout's package and no inherited OPENBLAS_NUM_THREADS, plus ``env``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fcmurp.cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child_env = {**os.environ, "PYTHONPATH": path}
    child_env.pop("OPENBLAS_NUM_THREADS", None)
    child_env.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_numpy():
    code = "import json, sys, fcmurp; print(json.dumps('numpy' in sys.modules))"
    assert run_python(code) is False


def test_the_cli_runs_numpy_on_one_blas_thread():
    code = (
        "import json, os, fcmurp.cli; "
        "tasks = '/proc/self/task'; "
        "count = len(os.listdir(tasks)) if os.path.isdir(tasks) else None; "
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), count]))"
    )
    value, threads = run_python(code)
    assert value == "1"
    if threads is None:
        pytest.skip("no /proc to count the process's threads")
    assert threads == 1


def test_the_cli_keeps_a_callers_blas_thread_count():
    code = "import json, os, fcmurp.cli; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert run_python(code, OPENBLAS_NUM_THREADS="3") == "3"
