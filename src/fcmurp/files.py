"""Versioned JSON artifacts: instances, scenario sets, solutions, results.

Every document carries ``format_version`` and ``kind``; floats serialize via
repr, so write-read round trips are exact. Writes go through a temp file and
rename, and key order is fixed, making artifact bytes a pure function of the
data. Derived values (an instance's ``lam`` and ``metric``, an estimate's
``count``, ``mean``, ``dispersion`` and ``standard_error``, a result's
``vss`` and ``vss_pct``) are written for readers; the readers ignore those
keys and compute the values again from the data they describe. Readers
check types rather than convert them: an integer must be a JSON integer, a
number a JSON number (not a string or a boolean), a flag a JSON boolean and
a matrix hold numbers only; anything else is an ``ArtifactError``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Optional, Sequence

import numpy as np

from .instgen import CONGESTED, MEAN, SPARSE, QuadrantMap
from .model import (
    Instance,
    RouteSet,
    RouteStructureError,
    Scenario,
    ScenarioSet,
    nominal_feasibility,
    validate_instance,
)
from .stochsolve import BoundEstimate, SaaReport

__all__ = [
    "FORMAT_VERSION",
    "ArtifactError",
    "write_document",
    "write_text",
    "read_document",
    "instance_to_doc",
    "instance_from_doc",
    "quadrants_to_doc",
    "quadrants_from_doc",
    "scenarios_to_doc",
    "scenarios_from_doc",
    "solution_to_doc",
    "solution_from_doc",
    "estimate_to_doc",
    "estimate_from_doc",
    "report_to_doc",
    "report_from_doc",
    "render_csv",
    "render_text",
    "CSV_HEADER",
]

FORMAT_VERSION = "fcmurp/1"

CSV_HEADER = "instance,EV,EEV,EEV_sd,LB,LB_sd,UB,UB_sd,H,H_sd,VSS,VSS_pct"


class ArtifactError(ValueError):
    """Missing, malformed or unwritable artifact file."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fcmurp-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ArtifactError(f"artifact cannot be written: {path}: {exc.strerror}") from None


def write_document(doc: dict, path: str) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_text(text: str, path: str) -> None:
    """Atomic plain-text write, same temp-and-rename path as documents."""
    _atomic_write(path, text)


def read_document(path: str, kind: Optional[str] = None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise ArtifactError(f"artifact not found: {path}") from None
    except OSError as exc:
        raise ArtifactError(f"artifact cannot be read: {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ArtifactError(f"artifact is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(f"artifact has unsupported format_version: {path}")
    if kind is not None and doc.get("kind") != kind:
        raise ArtifactError(
            f"artifact kind {doc.get('kind')!r} where {kind!r} expected: {path}"
        )
    return doc


def _matrix(arr: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(arr)]


def _from_matrix(rows: Sequence[Sequence[float]], what: str) -> np.ndarray:
    """Rows of JSON numbers as a float matrix; the inferred dtype tells
    numbers from strings, booleans and nulls in one pass."""
    arr = np.array(rows)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold numbers only")
    return arr.astype(float, copy=False)


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _string(value, what: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _strings(values, what: str) -> tuple[str, ...]:
    if type(values) is not list or any(type(v) is not str for v in values):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(values)


def _routes(rows) -> RouteSet:
    return RouteSet(tuple(tuple(_integer(v, "route vertex") for v in r) for r in rows))


def instance_to_doc(instance: Instance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "instance",
        "vertices": list(instance.vertices),
        "n_refuel": instance.n_refuel,
        "coordinates": _matrix(instance.coordinates),
        "cost": _matrix(instance.cost),
        "nominal_fuel": _matrix(instance.nominal_fuel),
        "vehicles": instance.vehicles,
        "fuel_capacity": float(instance.fuel_capacity),
        "lam": float(instance.lam),
        "grid": None if instance.grid is None else float(instance.grid),
        "metric": bool(instance.metric),
    }


def instance_from_doc(doc: dict) -> Instance:
    """Rebuild an instance; fatal validation issues are artifact errors."""
    try:
        instance = Instance(
            vertices=_strings(doc["vertices"], "vertices"),
            n_refuel=_integer(doc["n_refuel"], "n_refuel"),
            coordinates=_from_matrix(doc["coordinates"], "coordinates"),
            cost=_from_matrix(doc["cost"], "cost"),
            nominal_fuel=_from_matrix(doc["nominal_fuel"], "nominal_fuel"),
            vehicles=_integer(doc["vehicles"], "vehicles"),
            fuel_capacity=_number(doc["fuel_capacity"], "fuel_capacity"),
            grid=None if doc.get("grid") is None else _number(doc["grid"], "grid"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed instance document: {exc}") from None
    refusals = validate_instance(instance)
    if refusals:
        raise ArtifactError(f"invalid instance document: {'; '.join(refusals)}")
    return instance


def quadrants_to_doc(qmap: QuadrantMap) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "quadrants",
        "seed": qmap.seed,
        "grid": float(qmap.grid),
        "quadrant_labels": list(qmap.quadrant_labels),
        "vertex_labels": list(qmap.vertex_labels),
    }


def quadrants_from_doc(doc: dict) -> QuadrantMap:
    try:
        qmap = QuadrantMap(
            seed=_integer(doc["seed"], "seed"),
            grid=_number(doc["grid"], "grid"),
            quadrant_labels=_strings(doc["quadrant_labels"], "quadrant_labels"),
            vertex_labels=_strings(doc["vertex_labels"], "vertex_labels"),
        )
        if len(qmap.quadrant_labels) != 4:
            raise ValueError(f"{len(qmap.quadrant_labels)} quadrant labels, expected 4")
        unknown = set(qmap.quadrant_labels + qmap.vertex_labels) - {CONGESTED, SPARSE, MEAN}
        if unknown:
            raise ValueError(f"unknown labels {sorted(unknown)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed quadrants document: {exc}") from None
    return qmap


def scenarios_to_doc(scenario_set: ScenarioSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scenario_set",
        "label": scenario_set.label,
        "scenarios": [
            {"id": s.id, "probability": float(s.probability), "fuel": _matrix(s.fuel)}
            for s in scenario_set
        ],
    }


def scenarios_from_doc(doc: dict) -> ScenarioSet:
    try:
        scenarios = tuple(
            Scenario(
                id=_integer(s["id"], "scenario id"),
                probability=_number(s["probability"], "probability"),
                fuel=_from_matrix(s["fuel"], "fuel"),
            )
            for s in doc["scenarios"]
        )
        return ScenarioSet(scenarios, label=_string(doc["label"], "label"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed scenario document: {exc}") from None


def solution_to_doc(routes: RouteSet, meta: Optional[dict] = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "solution",
        "routes": [list(r) for r in routes.routes],
    }
    if meta:
        doc["meta"] = meta
    return doc


def solution_from_doc(
    doc: dict, instance: Optional[Instance] = None
) -> tuple[RouteSet, dict]:
    """Rebuild a solution; with ``instance``, its route structure and its
    nominal fuel feasibility, which recourse assumes, are checked."""
    try:
        routes = _routes(doc["routes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed solution document: {exc}") from None
    if instance is not None:
        try:
            feasible = nominal_feasibility(routes, instance)
        except RouteStructureError as exc:
            raise ArtifactError(f"solution does not fit the instance: {exc}") from None
        if not feasible:
            raise ArtifactError(
                "solution does not fit the instance: its routes run out of fuel "
                "under nominal consumption"
            )
    return routes, doc.get("meta", {})


def estimate_to_doc(estimate: Optional[BoundEstimate]) -> Optional[dict]:
    if estimate is None:
        return None
    return {
        "mean": estimate.mean,
        "dispersion": estimate.dispersion,
        "standard_error": estimate.standard_error,
        "count": len(estimate.values),
        "values": list(estimate.values),
        # a key of the format: every estimate comes from complete searches
        "rigorous": True,
        "label": estimate.label,
    }


def estimate_from_doc(doc: Optional[dict]) -> Optional[BoundEstimate]:
    if doc is None:
        return None
    try:
        return BoundEstimate(
            values=[_number(v, "estimate value") for v in doc["values"]],
            label=_string(doc["label"], "estimate label"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed estimate document: {exc}") from None


def report_to_doc(report: SaaReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "result",
        "instance_name": report.instance_name,
        "ev": report.ev,
        "ev_optimal": report.ev_optimal,
        "eev": estimate_to_doc(report.eev),
        "lb": estimate_to_doc(report.lb),
        "ub": estimate_to_doc(report.ub),
        "h": estimate_to_doc(report.h),
        "solution": [list(r) for r in report.solution.routes],
        "vss": report.vss,
        "vss_pct": report.vss_pct,
    }


def report_from_doc(doc: dict) -> SaaReport:
    try:
        ev = _number(doc["ev"], "ev")
        if not math.isfinite(ev):
            raise ValueError(f"ev must be finite, got {ev!r}")
        ev_optimal = doc["ev_optimal"]
        if type(ev_optimal) is not bool:
            raise ValueError(f"ev_optimal must be true or false, got {ev_optimal!r}")
        return SaaReport(
            instance_name=_string(doc["instance_name"], "instance_name"),
            ev=ev,
            ev_optimal=ev_optimal,
            eev=estimate_from_doc(doc["eev"]),
            lb=estimate_from_doc(doc["lb"]),
            ub=estimate_from_doc(doc["ub"]),
            h=estimate_from_doc(doc["h"]),
            solution=_routes(doc["solution"]),
        )
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed result document: {exc}") from None


def _csv_cell(value: Optional[float]) -> str:
    if value is None:
        return ""
    return repr(float(value))


def render_csv(reports: Sequence[SaaReport]) -> str:
    """Machine-readable table; the _sd columns carry standard errors."""
    lines = [CSV_HEADER]
    for r in reports:
        cells = [
            r.instance_name,
            _csv_cell(r.ev),
            _csv_cell(None if r.eev is None else r.eev.mean),
            _csv_cell(None if r.eev is None else r.eev.standard_error),
            _csv_cell(None if r.lb is None else r.lb.mean),
            _csv_cell(None if r.lb is None else r.lb.standard_error),
            _csv_cell(None if r.ub is None else r.ub.mean),
            _csv_cell(None if r.ub is None else r.ub.standard_error),
            _csv_cell(None if r.h is None else r.h.mean),
            _csv_cell(None if r.h is None else r.h.standard_error),
            _csv_cell(r.vss),
            _csv_cell(r.vss_pct),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _text_cell(estimate: Optional[BoundEstimate]) -> str:
    if estimate is None:
        return "-"
    return f"{estimate.mean:.2f} ({estimate.dispersion:.2f})"


def render_text(reports: Sequence[SaaReport]) -> str:
    """Human table: mean with the dispersion statistic in parentheses."""
    header = ["instance", "EV", "EEV", "LB", "UB", "H", "VSS", "VSS%"]
    rows = [header]
    for r in reports:
        rows.append(
            [
                r.instance_name,
                f"{r.ev:.2f}",
                _text_cell(r.eev),
                _text_cell(r.lb),
                _text_cell(r.ub),
                _text_cell(r.h),
                "-" if r.vss is None else f"{r.vss:.2f}",
                "-" if r.vss_pct is None else f"{r.vss_pct:.2f}",
            ]
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    out.append("")
    out.append("values are 'mean (dispersion)'; dispersion is the squared-spread")
    out.append("statistic, standard error = sqrt(dispersion / count)")
    return "\n".join(out) + "\n"
