"""fcmurp benchmark: timed CLI workloads and an outside-in per-layer trace.

Run from the root of a checkout (the directory that holds ``src``)::

    python3 bench/run.py --workload saa-n8 --seed 0 --seconds 55 --trace 0

Each workload runs its set-up commands, then its timed ``fcmurp`` command as
a child process, one at a time, for as many runs as fit in ``--seconds``
(always at least one). Every timed run is checked against the answer stored under
``bench/reference``. With ``--trace 1`` the same untraced runs are followed
by one run of the set-up and timed commands under ``bench/trace.py``, whose
span totals give the per-layer metrics. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds diagnostics. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
TRACE_SCRIPT = os.path.join(BENCH_DIR, "trace.py")

CHILD_TIMEOUT_S = 170.0
# Result values compared by the degeneracy guard: when all of these that a
# workload prints are equal, no scenario needed recourse and the run says
# nothing about the recourse layer.
BOUND_KEYS = ("EV", "EEV", "LB", "UB", "H")
PATH_LINE_PREFIXES = ("wrote ", "updated ")


class BenchError(Exception):
    """The benchmark cannot run here or a set-up step failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    instance_seed: int
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[str, ...]
    artifacts: tuple[str, ...]


def _generate(targets: int) -> tuple[str, ...]:
    return ("generate", "--seed", "{instance_seed}", "--targets", str(targets),
            "--vehicles", "3", "--out", "{setup}")


_INPUTS = ("--instance", "{setup}/instance.json", "--quadrants", "{setup}/quadrants.json")

# Why these: saa-n8 is the exact pipeline at its 8-target cap, dominated by
# the SAA lower bound and B&B; heuristic-n20 is construction + tabu where the
# exact solver cannot go, with out-of-sample scoring of its candidates on 1,000
# scenarios. Instance seeds give non-degenerate instances: seed 11 at 8
# targets needs no detour at all, seeds 1 and 4 take over 60 s. saa-n8 runs
# one replication worker: with the default of one per core, the threads pass
# the GIL between cores and the wall time follows the host's load (it
# exceeded the CPU time by 0 to 5.5 s from run to run), which no statistic
# over a run absorbed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "saa-n8",
            2,
            (_generate(8),),
            ("solve", *_INPUTS, "--mode", "saa", "--n", "2", "--m", "5",
             "--lambda", "200", "--threads", "1", "--out", "{out}"),
            ("result.json", "solution.json"),
        ),
        Workload(
            "heuristic-n20",
            12,
            (_generate(20),),
            ("solve", *_INPUTS, "--mode", "heuristic", "--n", "3", "--m", "5",
             "--lambda", "1000", "--iterations", "100", "--out", "{out}"),
            ("result.json", "solution.json"),
        ),
    )
}


@dataclass(frozen=True)
class Answer:
    """What a run must reproduce: result lines on stdout and artifact bytes."""

    stdout: tuple[str, ...]
    artifacts: tuple[tuple[str, bytes], ...]


def result_values(lines) -> dict[str, str]:
    """The ``name = value`` lines the CLI prints, keyed by name."""
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def run_child(argv: list[str], env: dict, workdir: str) -> ChildRun:
    """Run one child to completion and read its own resource usage."""
    with open(os.path.join(workdir, "child.stdout"), "w+b") as out, \
            open(os.path.join(workdir, "child.stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=text,
    )


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def answer_of(stdout: str, out_dir: str, artifacts: tuple[str, ...]) -> Answer:
    lines = tuple(
        line for line in stdout.splitlines() if not line.startswith(PATH_LINE_PREFIXES)
    )
    blobs = []
    for name in artifacts:
        path = os.path.join(out_dir, name)
        blobs.append((name, _read_bytes(path) if os.path.exists(path) else b""))
    return Answer(lines, tuple(blobs))


def load_reference(directory: str, workload: Workload) -> Answer:
    with open(os.path.join(directory, "stdout.txt"), encoding="utf-8") as handle:
        lines = tuple(handle.read().splitlines())
    blobs = tuple((name, _read_bytes(os.path.join(directory, name))) for name in workload.artifacts)
    return Answer(lines, blobs)


def save_reference(directory: str, answer: Answer) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "stdout.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in answer.stdout))
    for name, blob in answer.artifacts:
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(blob)


def degenerate(values: dict[str, str]) -> bool:
    """True when every reported bound is the same number (VSS is 0 by construction)."""
    bounds = {values[k] for k in BOUND_KEYS if k in values}
    return len(bounds) == 1


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop, a gauge of the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _fill(args: tuple[str, ...], **places: str) -> list[str]:
    return [a.format(**places) for a in args]


def _read_files(directory: str) -> dict[str, bytes]:
    return {
        name: _read_bytes(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name != "manifest.json"
    }


class Bench:
    """One benchmark run of one workload inside one scratch directory."""

    def __init__(self, root: str, workload: Workload, instance_seed: int, work: str) -> None:
        self.workload = workload
        self.instance_seed = instance_seed
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("FCMURP_SEED", None)  # it would override every --seed
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "fcmurp.cli", *args]

    def traced(self, trace_path: str, args: list[str]) -> list[str]:
        return [sys.executable, TRACE_SCRIPT, trace_path, *args]

    def setup(self, directory: str, trace_dir: str | None = None):
        """Run the set-up commands into ``directory``; return wall time and stdout."""
        os.makedirs(directory)
        total = 0.0
        stdout = ""
        for k, cmd in enumerate(self.workload.setup):
            args = _fill(cmd, setup=directory, instance_seed=str(self.instance_seed))
            if trace_dir is None:
                argv = self.cli(args)
            else:
                argv = self.traced(os.path.join(trace_dir, f"setup-{k}.json"), args)
            run = run_child(argv, self.env, self.work)
            if run.code != 0:
                raise BenchError(f"set-up command failed with exit {run.code}: {' '.join(args)}")
            total += run.wall_s
            stdout += run.stdout
        return total, stdout

    def timed_args(self, setup_dir: str, out_dir: str) -> list[str]:
        return _fill(self.workload.timed, setup=setup_dir, out=out_dir)


def run(
    root: str,
    workload: Workload,
    seconds: float,
    trace: bool,
    instance_seed: int,
    reference_dir: str | None,
    record: bool = False,
) -> tuple[dict, dict, dict]:
    """Measure one workload; return (result line, metrics, diagnostics)."""
    if not os.path.isfile(os.path.join(root, "src", "fcmurp", "cli.py")):
        raise BenchError(f"no fcmurp sources under {root}/src: run from a checkout root")
    diagnostics = {
        "workload": workload.name,
        "instance_seed": instance_seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "reference_loop_s": [reference_loop_s()],
    }
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
    try:
        bench = Bench(root, workload, instance_seed, work)
        setup_walls: list[float] = []
        setup_files = None

        def set_up() -> str:
            """Run the set-up once more; every repeat must write the same bytes."""
            nonlocal setup_files
            directory = os.path.join(work, f"setup-{len(setup_walls)}")
            wall, stdout = bench.setup(directory)
            setup_walls.append(wall)
            files = _read_files(directory)
            if setup_files is None:
                setup_files = files
            elif files != setup_files:
                raise BenchError("set-up reruns wrote different bytes")
            return stdout

        setup_stdout = set_up()
        setup_dir = os.path.join(work, "setup-0")

        expected = None
        if reference_dir is not None and not record:
            expected = load_reference(reference_dir, workload)
        runs: list[ChildRun] = []
        answers: list[Answer] = []
        stages: list[dict] = []
        failed = 0
        # Without a stored answer the first run becomes the expectation, so
        # take at least two runs to compare consecutive outputs.
        min_runs = 1 if expected is not None else 2
        start = time.perf_counter()
        # Start another child only while it is expected to end within the
        # measured window, so a run lasts ``seconds`` and not up to one
        # child longer.
        while len(runs) < min_runs or (
            time.perf_counter() - start + statistics.median(r.wall_s for r in runs) <= seconds
        ):
            out_dir = os.path.join(work, f"out-{len(runs)}")
            child = run_child(bench.cli(bench.timed_args(setup_dir, out_dir)), bench.env, work)
            answer = answer_of(child.stdout, out_dir, workload.artifacts)
            if expected is None and child.code == 0:
                expected = answer
            if child.code != 0 or answer != expected:
                failed += 1
            runs.append(child)
            answers.append(answer)
            stages.append(_stage_seconds(out_dir))
            # Set-up repeats are spread over the window, one after each timed
            # run, so setup_s does not hang on one moment of machine speed.
            set_up()
        if record:
            if failed:
                raise BenchError("timed runs disagree; no reference recorded")
            save_reference(os.path.join(REFERENCE_DIR, workload.name), answers[0])

        values = {**result_values(setup_stdout.splitlines()), **result_values(answers[0].stdout)}
        is_degenerate = degenerate(values)
        attempted = len(runs)
        if trace:
            attempted += 1
            traced_ok, metrics = _traced_run(bench, setup_files, answers[0], runs, stages)
            failed += not traced_ok
            is_degenerate = is_degenerate or metrics["recourse.detour_share"] == 0
        else:
            metrics = {
                # Means, not medians: a window holds only three or four runs
                # of 11-17 s, and their mean swung less from one window to
                # the next than their median did.
                "wall_s": statistics.fmean(r.wall_s for r in runs),
                "cpu_s": statistics.fmean(r.cpu_s for r in runs),
                "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
                "setup_s": statistics.median(setup_walls),
                "ok_share": (attempted - failed) / attempted,
            }
        default_seed = instance_seed == workload.instance_seed
        diagnostics["reference_loop_s"].append(reference_loop_s())
        diagnostics.update(
            timed_wall_s=[r.wall_s for r in runs],
            setup_wall_s=setup_walls,
            degenerate=is_degenerate,
        )
        if is_degenerate:
            print(f"warning: {workload.name} at instance seed {instance_seed} is degenerate: "
                  "no scenario needs recourse", file=sys.stderr)
        correct = failed == 0 and not (is_degenerate and default_seed)
        result = {"correct": correct, "attempted": attempted, "failed": failed}
        return result, metrics, diagnostics
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


def _stage_seconds(out_dir: str) -> dict:
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("stage_seconds", {})


def _traced_run(bench: Bench, setup_files, untraced: Answer, runs, stages) -> tuple[bool, dict]:
    """Run set-up and timed commands under the tracer; derive per-layer metrics."""
    trace_dir = os.path.join(bench.work, "trace")
    os.makedirs(trace_dir)
    setup_dir = os.path.join(trace_dir, "setup")
    bench.setup(setup_dir, trace_dir=trace_dir)
    out_dir = os.path.join(trace_dir, "out")
    trace_path = os.path.join(trace_dir, "timed.json")
    child = run_child(
        bench.traced(trace_path, bench.timed_args(setup_dir, out_dir)), bench.env, bench.work
    )
    ok = (
        child.code == 0
        and _read_files(setup_dir) == setup_files
        and answer_of(child.stdout, out_dir, bench.workload.artifacts) == untraced
    )
    with open(trace_path, encoding="utf-8") as handle:
        timed = json.load(handle)
    setup_traces = []
    for k in range(len(bench.workload.setup)):
        with open(os.path.join(trace_dir, f"setup-{k}.json"), encoding="utf-8") as handle:
            setup_traces.append(json.load(handle))
    untraced_wall = statistics.fmean(r.wall_s for r in runs)
    metrics = layer_metrics(timed, setup_traces, stages)
    metrics["trace.overhead_share"] = child.wall_s / untraced_wall - 1.0
    return ok, metrics


def layer_metrics(timed: dict, setup_traces: list[dict], stages: list[dict]) -> dict:
    """Per-layer metrics of the timed command, plus set-up instance generation."""
    fns = timed["functions"]
    counters = timed["counters"]

    def fn(name: str, field: str) -> float:
        return fns.get(name, {}).get(field, 0)

    def count(name: str) -> int:
        return counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scenarios = count("instgen.scenarios")
    tables = fn("recourse.precompute_best_depot", "calls")
    evaluations = fn("recourse.evaluate_recourse", "calls")
    beta_calls = fn("recourse.route_beta", "calls")
    exact = fn("detsolve.solve_deterministic_exact", "calls")
    nodes = count("detsolve.bnb_nodes")
    insertions = fn("detsolve.optimal_depot_insertion", "calls")
    replication_cpu = fn("stochsolve.solve_saa_problem", "cpu_s")
    saa_nodes = count("stochsolve.saa_nodes")
    tabu_iterations = count("heuristics.tabu_iterations")
    m = {
        "instgen.scenarios": scenarios,
        "instgen.sample_scenarios.s": fn("instgen.sample_scenarios", "wall_s"),
        "instgen.scenarios_per_s": ratio(scenarios, fn("instgen.sample_scenarios", "cpu_s")),
        "instgen.generate_instance.s": sum(
            t["functions"].get("instgen.generate_instance", {}).get("wall_s", 0.0)
            for t in setup_traces
        ),
        "recourse.best_depot_tables": tables,
        "recourse.tables_per_scenario": ratio(tables, scenarios),
        "recourse.evaluations": evaluations,
        "recourse.evaluations_per_pair": ratio(evaluations, count("recourse.scored_pairs")),
        "recourse.evaluations_per_s": ratio(evaluations, fn("recourse.evaluate_recourse", "cpu_s")),
        "recourse.route_beta.calls": beta_calls,
        "recourse.route_beta_per_s": ratio(beta_calls, fn("recourse.route_beta", "cpu_s")),
        "recourse.detour_share": ratio(count("recourse.detour_plans"), evaluations),
        "recourse.infeasible_share": ratio(count("recourse.infeasible_plans"), evaluations),
        "detsolve.exact_solves": exact,
        "detsolve.bnb_nodes": nodes,
        "detsolve.bnb_nodes_per_s": ratio(nodes, fn("detsolve.solve_deterministic_exact", "cpu_s")),
        "detsolve.optimal_share": ratio(count("detsolve.optimal_solves"), exact),
        "detsolve.insertions": insertions,
        "detsolve.insertions_per_s": ratio(insertions, fn("detsolve.optimal_depot_insertion", "cpu_s")),
        "detsolve.greedy_solves": fn("detsolve.solve_deterministic_greedy", "calls"),
        "stochsolve.replications": fn("stochsolve.solve_saa_problem", "calls"),
        "stochsolve.replication_cpu_s": replication_cpu,
        "stochsolve.saa_nodes": saa_nodes,
        "stochsolve.saa_nodes_per_cpu_s": ratio(saa_nodes, replication_cpu),
        "stochsolve.lower_bound.s": fn("stochsolve.saa_lower_bound", "wall_s"),
        "stochsolve.upper_bound.s": fn("stochsolve.saa_upper_bound", "wall_s"),
        "stochsolve.penalized_scenarios": count("stochsolve.penalized_scenarios"),
        "heuristics.construct.s": fn("heuristics.construct_detailed", "wall_s"),
        "heuristics.tabu.s": fn("heuristics.tabu_improve", "wall_s"),
        "heuristics.tabu_iterations": tabu_iterations,
        "heuristics.tabu_iterations_per_s": ratio(tabu_iterations, fn("heuristics.tabu_improve", "cpu_s")),
        "heuristics.tabu_resets": count("heuristics.tabu_resets"),
        "heuristics.tabu_aspirations": count("heuristics.tabu_aspirations"),
        "files.read.s": fn("files.read_document", "wall_s"),
        "files.write.s": fn("files.write_document", "wall_s") + fn("files.write_text", "wall_s"),
        "files.bytes_written": count("files.bytes_written"),
        "cli.self_s": fn("cli", "self_s"),
    }
    for layer in ("instgen", "recourse", "detsolve", "stochsolve", "heuristics", "files"):
        m[f"{layer}.self_cpu_s"] = sum(
            row["self_cpu_s"] for name, row in fns.items() if name.startswith(layer + ".")
        )
    for stage in ("lower_bound", "search", "evaluation_sample", "evp", "upper_bound"):
        m[f"cli.stage.{stage}_s"] = statistics.median(s.get(stage, 0.0) for s in stages)
    return m


def declared_metrics(root: str, trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed; recorded only, the workload fixes every input")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="held-out instance seed; outputs are then compared run to run")
    parser.add_argument("--record", action="store_true",
                        help="store this run's answer as the workload's reference")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    instance_seed = workload.instance_seed if args.instance_seed is None else args.instance_seed
    default_seed = instance_seed == workload.instance_seed
    if args.record and not default_seed:
        parser.error("--record stores answers for the workload's own instance seed only")
    root = os.getcwd()
    try:
        units = declared_metrics(root, bool(args.trace))
        result, metrics, diagnostics = run(
            root,
            workload,
            args.seconds,
            bool(args.trace),
            instance_seed,
            os.path.join(REFERENCE_DIR, workload.name) if default_seed else None,
            record=args.record,
        )
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    diagnostics["run_seed"] = args.seed
    print(json.dumps({"diagnostics": diagnostics}))
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
