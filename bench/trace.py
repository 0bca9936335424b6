"""Run one fcmurp CLI command in-process with every layer function traced.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 bench/trace.py OUT.json generate --seed 2 --targets 8 --out run

Every function listed in the ``__all__`` of a layer module is replaced, at
each ``fcmurp`` module that imported it, by a wrapper that opens a span. The
command itself is the root span ``cli``. Nothing under ``src`` changes, and
functions that later versions add to ``__all__`` are picked up unchanged.

Spans are folded as they close into per-function totals: calls, wall time,
thread CPU time, and self time (the span minus the child spans that ran on
the same thread). Folding keeps the cost per call to a few microseconds
where the exact SAA search makes tens of thousands of calls. A few functions
also feed work counters from their arguments and results (``COUNTER_HOOKS``).
OUT.json receives the totals, the counters and the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter

LAYERS = ("instgen", "recourse", "detsolve", "stochsolve", "heuristics", "files")


def _on_sample(counters, args, result):
    counters["instgen.scenarios"] += len(result)


def _on_recourse(counters, args, result):
    # a plan needed recourse if it detours, or if no detour could save it
    counters["recourse.detour_plans"] += bool(result.detoured_edges) or not result.feasible
    counters["recourse.infeasible_plans"] += not result.feasible


def _on_exact(counters, args, result):
    if result is not None:
        counters["detsolve.bnb_nodes"] += result.nodes
        counters["detsolve.optimal_solves"] += result.optimal


def _on_saa_problem(counters, args, result):
    if result is not None:
        counters["stochsolve.saa_nodes"] += result.nodes


def _on_upper_bound(counters, args, result):
    counters["recourse.scored_pairs"] += len(args["candidates"]) * len(args["lam"])
    counters["stochsolve.penalized_scenarios"] += result.penalized_scenarios


def _on_tabu(counters, args, result):
    counters["heuristics.tabu_iterations"] += result.iterations
    for row in result.move_log:
        counters["heuristics.tabu_resets"] += row[1] == "reset"
        counters["heuristics.tabu_aspirations"] += bool(row[4])


def _on_write(counters, args, result):
    counters["files.bytes_written"] += os.path.getsize(args["path"])


# Work counters read at the boundary of the function that does the work.
# Each key must name a traced function, so a rename fails loudly here
# instead of silently reporting zero.
COUNTER_HOOKS = {
    "instgen.sample_scenarios": _on_sample,
    "recourse.evaluate_recourse": _on_recourse,
    "detsolve.solve_deterministic_exact": _on_exact,
    "stochsolve.solve_saa_problem": _on_saa_problem,
    "stochsolve.saa_upper_bound": _on_upper_bound,
    "heuristics.tabu_improve": _on_tabu,
    "files.write_document": _on_write,
    "files.write_text": _on_write,
}


class Tracer:
    """Per-function span totals, kept per thread and folded at span close."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads.setdefault(threading.get_ident(), len(self._threads))
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        frame = [0.0, 0.0]  # wall and CPU time of child spans on this thread
        stack.append(frame)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.thread_time() - c0
            stack.pop()
            if stack:
                stack[-1][0] += wall
                stack[-1][1] += cpu
            thread = self._threads[threading.get_ident()]
            with self._lock:
                row = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, set()])
                row[0] += 1
                row[1] += wall
                row[2] += cpu
                row[3] += wall - frame[0]
                row[4] += cpu - frame[1]
                row[5].add(thread)

    def wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                with tracer._lock:
                    hook(tracer.counters, bound, result)
            return result

        return traced

    def report(self) -> dict:
        functions = {
            name: {
                "calls": row[0],
                "wall_s": row[1],
                "cpu_s": row[2],
                "self_s": row[3],
                "self_cpu_s": row[4],
                "threads": len(row[5]),
            }
            for name, row in sorted(self.totals.items())
        }
        return {"functions": functions, "counters": dict(sorted(self.counters.items()))}


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function at every fcmurp import site; return names."""
    importlib.import_module("fcmurp.cli")
    modules = [m for n, m in sys.modules.items() if n == "fcmurp" or n.startswith("fcmurp.")]
    wrapped = []
    for layer in LAYERS:
        module = sys.modules[f"fcmurp.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, key, traced)
            wrapped.append(name)
    missing = sorted(set(COUNTER_HOOKS) - set(wrapped))
    if missing:
        raise SystemExit(f"trace: counter hooks name untraced functions: {missing}")
    return wrapped


def run_command(tracer: Tracer, argv: list[str]) -> int:
    import click

    from fcmurp.cli import main

    try:
        tracer.span("cli", main.main, args=argv, prog_name="fcmurp", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = run_command(tracer, argv)
    doc = {"exit_code": code, **tracer.report()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, allow_nan=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
