"""Command-line pipeline: generate, sample, solve, evaluate, report.

All artifacts are versioned JSON documents (see ``files``); result documents
carry no timestamps, so a rerun with the same seeds reproduces them byte for
byte. Every random stream derives from the command's ``--seed`` flag.
Exit codes: 0 success, 1 runtime failure (sampler error), 2 usage, 3 missing,
malformed or unwritable artifact, 4 infeasible.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from typing import Optional, Sequence

import click
from click.core import ParameterSource

from . import __version__

# Before numpy loads: an idle OpenBLAS worker spins ~0.125 s of CPU, and no command uses BLAS threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy

from .detsolve import EXACT_TARGET_LIMIT
from .files import (
    FORMAT_VERSION,
    ArtifactError,
    instance_from_doc,
    instance_to_doc,
    quadrants_from_doc,
    quadrants_to_doc,
    read_document,
    render_csv,
    render_text,
    report_from_doc,
    report_to_doc,
    scenarios_from_doc,
    scenarios_to_doc,
    solution_from_doc,
    solution_to_doc,
    write_document,
    write_text,
)
from .heuristics import (
    ConstructionResult,
    TabuParams,
    TabuResult,
    construct_detailed,
    tabu_improve,
)
from .instgen import (
    GenConfig,
    QuadrantMapError,
    SamplerError,
    ScenarioStream,
    assign_quadrants,
    check_quadrant_map,
    generate_instance,
    sample_scenarios,
)
from .model import Instance, RouteSet, validate_instance
from .stochsolve import (
    SAA_SAMPLE_LIMIT,
    SaaConfig,
    SaaReport,
    UpperBoundResult,
    gamma_seed,
    lambda_seed,
    saa_lower_bound,
    saa_upper_bound,
    solve_evp,
)


class _ExitError(click.ClickException):
    """ClickException carrying one of the documented exit codes."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.exit_code = code


def _translate_errors(fn):
    """Map library failures onto the exit-code contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ArtifactError, QuadrantMapError) as exc:
            raise _ExitError(str(exc), 3) from None
        except SamplerError as exc:
            raise _ExitError(str(exc), 1) from None
        except RuntimeError as exc:
            raise _ExitError(str(exc), 4) from None

    return wrapper


def _read_instance(path: str) -> Instance:
    return instance_from_doc(read_document(path, kind="instance"))


def _read_quadrants(path: str, instance: Instance):
    """The quadrant map at ``path``, refused unless it labels ``instance``."""
    qmap = quadrants_from_doc(read_document(path, kind="quadrants"))
    check_quadrant_map(instance, qmap)
    return qmap


def _instance_name(path: str, override: Optional[str]) -> str:
    if override:
        return override
    return os.path.splitext(os.path.basename(path))[0]


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ArtifactError(f"artifact cannot be written: {path}: {exc.strerror}") from None


@contextmanager
def _timed(stages: dict, label: str):
    start = time.perf_counter()
    yield
    stages[label] = time.perf_counter() - start


def _write_manifest(
    out_dir: str,
    command: str,
    config: dict,
    seeds: dict,
    stages: dict,
    counters: dict,
    started: str,
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "manifest",
        "tool": "fcmurp",
        "version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "stage_seconds": stages,
        "counters": counters,
        # what shaped the timings: the interpreter, numpy and its BLAS threads
        "runtime": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    write_document(doc, os.path.join(out_dir, "manifest.json"))


def _dedup_routes(route_sets: Sequence[RouteSet]) -> list[RouteSet]:
    seen = set()
    out = []
    for rs in route_sets:
        key = rs.canonical().routes
        if key not in seen:
            seen.add(key)
            out.append(rs)
    return out


def _scoring_counters(lambda_size: int, scored: UpperBoundResult, ev_routes: RouteSet) -> dict:
    """Deterministic work counters of the out-of-sample pass.

    ``no_recourse`` and ``chosen_is_ev`` flag a VSS of 0 by construction:
    no scenario needed recourse, or the chosen routes are the EV routes.
    """
    shares = scored.recourse_shares
    return {
        "lambda_scenarios": lambda_size,
        "scored_route_sets": scored.scored_route_sets,
        "recourse_share": {"candidates": list(shares[:-1]), "ev": shares[-1]},
        "penalized_scenarios": scored.penalized_scenarios,
        "no_recourse": not any(shares),
        "chosen_is_ev": scored.routes.canonical() == ev_routes.canonical(),
    }


def _tabu_counters(built: ConstructionResult, result: TabuResult) -> dict:
    """Deterministic work counters of one replication's search: the tabu
    run and the branch-and-bound nodes of the construction before it."""
    return {
        "iterations": result.iterations,
        "moves": result.moves,
        "stagnant": result.stagnant,
        "resets": result.resets,
        "aspirations": result.aspirations,
        "sequences": result.sequences,
        "infeasible_sequences": result.infeasible_sequences,
        "legs": result.legs,
        "scans": result.scans,
        "scored": result.scored,
        "construction_nodes": {
            "scenarios": list(built.scenario_nodes),
            "final": built.final_nodes,
        },
    }


@click.group()
@click.version_option(__version__, prog_name="fcmurp")
def main() -> None:
    """Two-stage fuel-constrained multi-vehicle routing toolkit."""


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Layout seed.")
@click.option("--targets", type=click.IntRange(min=1), required=True, help="Number of targets.")
@click.option("--vehicles", type=click.IntRange(min=1), default=1, show_default=True, help="Fleet size.")
@click.option("--refuel-depots", type=click.IntRange(min=1), default=4, show_default=True, help="Refuel depots besides the home depot.")
@click.option("--fuel-factor", type=float, default=2.25, show_default=True, help="Fuel capacity as a multiple of the depot-to-target radius.")
@click.option("--grid", type=float, default=100.0, show_default=True, help="Square side length for target placement.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True, help="Output directory.")
@_translate_errors
def generate(seed, targets, vehicles, refuel_depots, fuel_factor, grid, out):
    """Generate an instance and its quadrant map."""
    if vehicles > targets:
        raise click.UsageError("--vehicles cannot exceed --targets")
    for flag, value in (("--fuel-factor", fuel_factor), ("--grid", grid)):
        if not (math.isfinite(value) and value > 0):
            raise _ExitError(f"{flag} must be a finite number > 0, got {value!r}", 2)
    config = GenConfig(
        seed=seed,
        n_targets=targets,
        vehicles=vehicles,
        n_refuel_depots=refuel_depots,
        fuel_factor=fuel_factor,
        grid=grid,
    )
    try:
        instance = generate_instance(config)
    except ValueError as exc:
        raise _ExitError(str(exc), 4) from None
    qmap = assign_quadrants(instance, seed)
    _make_out_dir(out)
    instance_path = os.path.join(out, "instance.json")
    quadrants_path = os.path.join(out, "quadrants.json")
    write_document(instance_to_doc(instance), instance_path)
    write_document(quadrants_to_doc(qmap), quadrants_path)
    click.echo(f"lambda = {instance.lam!r}")
    click.echo(f"F = {instance.fuel_capacity!r}")
    click.echo(f"wrote {instance_path} and {quadrants_path}")


@main.command()
@click.option("--instance", "instance_path", type=click.Path(), required=True, help="Instance document.")
@click.option("--quadrants", "quadrants_path", type=click.Path(), required=True, help="Quadrant-map document.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Sampling seed.")
@click.option("--count", type=click.IntRange(min=1), required=True, help="Number of scenarios.")
@click.option("--distribution", type=click.Choice(["gamma", "point-mass"]), default="gamma", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Output scenario file.")
@_translate_errors
def scenarios(instance_path, quadrants_path, seed, count, distribution, out):
    """Sample a fuel-scenario set against an instance."""
    instance = _read_instance(instance_path)
    qmap = _read_quadrants(quadrants_path, instance)
    scen = sample_scenarios(
        instance, qmap, seed=seed, count=count, distribution=distribution
    )
    write_document(scenarios_to_doc(scen), out)
    click.echo(f"wrote {out}: {count} scenarios, label {scen.label!r}")


@main.command()
@click.option("--instance", "instance_path", type=click.Path(), required=True, help="Instance document.")
@click.option("--quadrants", "quadrants_path", type=click.Path(), required=True, help="Quadrant-map document.")
@click.option("--mode", type=click.Choice(["evp", "saa", "heuristic"]), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Base seed for all sampling streams.")
@click.option("--n", "replications", type=click.IntRange(min=2), default=10, show_default=True, help="Replications.")
@click.option("--m", "sample_size", type=click.IntRange(min=1), default=10, show_default=True, help="Scenarios per replication sample.")
@click.option("--lambda", "lambda_size", type=click.IntRange(min=1), default=1000, show_default=True, help="Evaluation sample size.")
@click.option("--iterations", type=click.IntRange(min=1), default=500, show_default=True, help="Tabu iterations.")
@click.option("--stall-limit", type=click.IntRange(min=1), default=None, help="Tabu stop after this many non-improving iterations, at most --iterations; default min(100, --iterations).")
@click.option("--tenure", type=click.IntRange(min=1), default=None, help="Tabu tenure; default scales with the target count.")
@click.option("--threads", type=click.IntRange(1, 1), default=1, show_default=True, expose_value=False, help="Replication threads: only 1, replications run one after another.")
@click.option("--name", default=None, help="Instance name in reports; defaults to the instance file stem.")
@click.option("--out", type=click.Path(file_okay=False), default=".", show_default=True, help="Output directory.")
@_translate_errors
def solve(
    instance_path,
    quadrants_path,
    mode,
    seed,
    replications,
    sample_size,
    lambda_size,
    iterations,
    stall_limit,
    tenure,
    name,
    out,
):
    """Solve an instance and write solution, result, and manifest files."""
    if stall_limit is None:
        stall_limit = min(100, iterations)
    elif mode == "heuristic" and stall_limit > iterations:
        raise _ExitError(f"--stall-limit {stall_limit} exceeds --iterations {iterations}", 2)
    instance = _read_instance(instance_path)
    qmap = _read_quadrants(quadrants_path, instance)
    name = _instance_name(instance_path, name)
    _make_out_dir(out)
    started = datetime.now(timezone.utc).isoformat()
    stages: dict = {}
    seeds: dict = {"base": seed}
    extras: dict = {}
    counters: dict = {}

    if mode == "evp":
        with _timed(stages, "evp"):
            ev = solve_evp(instance)
        report = SaaReport(
            instance_name=name,
            ev=ev.cost,
            ev_optimal=ev.optimal,
            eev=None,
            lb=None,
            ub=None,
            h=None,
            solution=ev.routes,
        )
        solution, meta = ev.routes, {"mode": "evp", "optimal": ev.optimal}
    elif mode == "saa":
        if instance.n_targets > EXACT_TARGET_LIMIT or sample_size > SAA_SAMPLE_LIMIT:
            raise _ExitError(
                f"--mode saa solves exactly and handles at most "
                f"{EXACT_TARGET_LIMIT} targets with --m at most {SAA_SAMPLE_LIMIT}; "
                "use --mode heuristic for larger runs",
                2,
            )
        if not instance.metric:
            raise _ExitError(
                "--mode saa needs metric costs: its pruning bound assumes no detour "
                "is cheaper than the edge it replaces; use --mode heuristic for this instance",
                2,
            )
        config = SaaConfig(
            replications=replications,
            sample_size=sample_size,
            seed=seed,
        )
        click.echo(f"lower bound: {replications} replications of {sample_size}", err=True)
        with _timed(stages, "lower_bound"):
            lb = saa_lower_bound(instance, qmap, config)
        candidates = [s.routes for s in lb.solutions]
        gamma_seeds, gamma_rejections = list(lb.gamma_seeds), list(lb.rejections)
        lb_estimate = lb.estimate
        search_counters = {
            "saa_replications": [{"nodes": s.nodes, "legs": s.legs} for s in lb.solutions]
        }
    else:
        params = TabuParams(
            iterations=iterations, stall_limit=stall_limit, tenure=tenure
        )
        candidates, gamma_seeds, gamma_rejections, tabu_rows = [], [], [], []
        with _timed(stages, "search"):
            for k in range(replications):
                gseed = gamma_seed(seed, k)
                gamma_seeds.append(gseed)
                delta = sample_scenarios(instance, qmap, seed=gseed, count=sample_size)
                gamma_rejections.append(delta.rejections)
                built = construct_detailed(instance, delta)
                improved = tabu_improve(built.routes, delta, params, instance)
                tabu_rows.append(_tabu_counters(built, improved))
                if improved.warning:
                    click.echo(f"replication {k}: {improved.warning}", err=True)
                if improved.feasible:
                    candidates.append(improved.routes)
                click.echo(
                    f"replication {k}: objective {improved.objective:.3f} "
                    f"after {improved.iterations} iterations",
                    err=True,
                )
        if not candidates:
            raise _ExitError("no replication produced a feasible solution", 4)
        lb_estimate = None
        search_counters = {"tabu": tabu_rows}
    if mode != "evp":
        candidates = _dedup_routes(candidates)
        with _timed(stages, "evaluation_sample"):
            lam = ScenarioStream(instance, qmap, seed=lambda_seed(seed), count=lambda_size)
        with _timed(stages, "evp"):
            ev = solve_evp(instance)
        click.echo(f"evaluating {len(candidates)} candidates on {lambda_size}", err=True)
        with _timed(stages, "upper_bound"):
            best = saa_upper_bound(candidates, lam, instance, reference=ev.routes)
        # the pass draws the sample as it scores it: the drawing is the
        # evaluation sample's time, the rest the upper bound's
        stages["evaluation_sample"] += lam.draw_seconds
        stages["upper_bound"] -= lam.draw_seconds
        report = SaaReport(
            instance_name=name,
            ev=ev.cost,
            ev_optimal=ev.optimal,
            eev=best.reference,
            lb=lb_estimate,
            ub=best.estimate if mode == "saa" else None,
            h=best.estimate if mode == "heuristic" else None,
            solution=best.routes,
        )
        solution, meta = best.routes, {"mode": mode, "candidate_index": best.index}
        seeds["gamma"] = gamma_seeds
        seeds["lambda"] = lambda_seed(seed)
        extras = {"penalty": best.penalty}
        counters = {
            **_scoring_counters(lambda_size, best, ev.routes),
            **search_counters,
            "rejections": {"gamma": gamma_rejections, "lambda": lam.rejections},
        }
    counters["ev_solve"] = {"nodes": ev.nodes, "optimal": ev.optimal}
    counters["insertions"] = len(instance.insertions)

    solution_path = os.path.join(out, "solution.json")
    result_path = os.path.join(out, "result.json")
    write_document(solution_to_doc(solution, meta={"name": name, **meta}), solution_path)
    write_document(report_to_doc(report), result_path)
    config_echo = {
        "instance": instance_path,
        "quadrants": quadrants_path,
        "mode": mode,
        "n": replications,
        "m": sample_size,
        "lambda": lambda_size,
        "iterations": iterations,
        "stall_limit": stall_limit,
        "tenure": tenure,
        "name": name,
        **extras,
    }
    _write_manifest(out, "solve", config_echo, seeds, stages, counters, started)
    click.echo(f"EV = {report.ev!r}")
    if report.eev is not None:
        click.echo(f"EEV = {report.eev.mean!r}")
    if report.lb is not None:
        click.echo(f"LB = {report.lb.mean!r}")
    if report.ub is not None:
        click.echo(f"UB = {report.ub.mean!r}")
    if report.h is not None:
        click.echo(f"H = {report.h.mean!r}")
    if report.vss is not None:
        click.echo(f"VSS = {report.vss!r} ({report.vss_pct:.3f}%)")
    click.echo(f"wrote {solution_path}, {result_path}")


@main.command()
@click.option("--instance", "instance_path", type=click.Path(), required=True, help="Instance document.")
@click.option("--solution", "solution_path", type=click.Path(), required=True, help="Solution document to score.")
@click.option("--scenarios", "scenarios_path", type=click.Path(), default=None, help="Existing scenario file; otherwise drawn from --seed. Refuses --quadrants, --seed and --lambda.")
@click.option("--quadrants", "quadrants_path", type=click.Path(), default=None, help="Quadrant map, required when drawing scenarios.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Base seed; evaluation scenarios come from its evaluation substream.")
@click.option("--lambda", "lambda_size", type=click.IntRange(min=1), default=1000, show_default=True, help="Evaluation sample size.")
@click.option("--result", "result_path", type=click.Path(), default=None, help="Result document to update in place.")
@click.option("--column", type=click.Choice(["eev", "ub", "h"]), default="h", show_default=True, help="Which result column receives the estimate.")
@_translate_errors
def evaluate(
    instance_path,
    solution_path,
    scenarios_path,
    quadrants_path,
    seed,
    lambda_size,
    result_path,
    column,
):
    """Score a solution out of sample; optionally merge into a result file."""
    if scenarios_path is not None:
        source = click.get_current_context().get_parameter_source
        draw_only = (("quadrants_path", "--quadrants"), ("seed", "--seed"), ("lambda_size", "--lambda"))
        given = [flag for name, flag in draw_only if source(name) is ParameterSource.COMMANDLINE]
        if given:
            raise _ExitError(f"--scenarios cannot be combined with {', '.join(given)}, used only to draw scenarios", 2)
    instance = _read_instance(instance_path)
    routes, _ = solution_from_doc(read_document(solution_path, kind="solution"), instance)
    if result_path is not None:
        report = report_from_doc(read_document(result_path, kind="result"))
    if scenarios_path is not None:
        lam = scenarios_from_doc(read_document(scenarios_path, kind="scenario_set"))
        refusals = validate_instance(instance, lam)
        if refusals:
            more = f" (and {len(refusals) - 1} more)" if len(refusals) > 1 else ""
            raise ArtifactError(f"scenario set does not fit the instance: {refusals[0]}{more}")
    else:
        if quadrants_path is None:
            raise click.UsageError("provide --scenarios or --quadrants to draw them")
        qmap = _read_quadrants(quadrants_path, instance)
        lam = ScenarioStream(instance, qmap, seed=lambda_seed(seed), count=lambda_size)
    res = saa_upper_bound([routes], lam, instance)
    est = res.estimate
    click.echo(f"mean = {est.mean!r}")
    click.echo(f"standard_error = {est.standard_error!r}")
    share = res.recourse_shares[0]
    click.echo(f"recourse share: {share!r}", err=True)
    if not share:
        click.echo(
            "no scenario needed recourse: every value is the first-stage cost",
            err=True,
        )
    if res.penalized_scenarios:
        click.echo(f"penalized scenarios: {res.penalized_scenarios}", err=True)
    if result_path is not None:
        try:
            report = replace(report, **{column: est})
        except ValueError as exc:
            raise _ExitError(str(exc), 3) from None
        write_document(report_to_doc(report), result_path)
        click.echo(f"updated {column} in {result_path}")


@main.command()
@click.argument("results", nargs=-1, required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write here instead of standard output.")
@_translate_errors
def report(results, fmt, out):
    """Tabulate one result document per row."""
    rows = [report_from_doc(read_document(p, kind="result")) for p in results]
    text = render_csv(rows) if fmt == "csv" else render_text(rows)
    if out is not None:
        write_text(text, out)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
