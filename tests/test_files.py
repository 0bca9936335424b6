"""Artifact serialization: exact round trips, stable bytes, error paths."""

import json

import numpy as np
import pytest

from conftest import make_case, make_scenarios, off_triangle_instance
from fcmurp.files import (
    CSV_HEADER,
    FORMAT_VERSION,
    ArtifactError,
    estimate_from_doc,
    estimate_to_doc,
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
from fcmurp.model import RouteSet
from fcmurp.stochsolve import BoundEstimate, SaaReport


@pytest.fixture
def case():
    inst, qmap = make_case(seed=31, n_targets=5, vehicles=2)
    delta = make_scenarios(inst, qmap, seed=6, count=3)
    return inst, qmap, delta


def sample_report(with_estimates=True):
    def est(mean, label="lambda:seed=6:count=3"):
        return BoundEstimate((mean - 1.0, mean + 1.0), label=label)

    return SaaReport(
        instance_name="case-31",
        ev=101.25,
        ev_optimal=True,
        eev=est(120.0) if with_estimates else None,
        lb=est(95.0, "gamma:seed=6:N=2:M=2") if with_estimates else None,
        ub=est(110.0) if with_estimates else None,
        h=None,
        solution=RouteSet(((0, 5, 6, 0), (0, 7, 0))),
    )


def test_instance_round_trip_is_exact(case, tmp_path):
    inst, _, _ = case
    path = tmp_path / "instance.json"
    write_document(instance_to_doc(inst), str(path))
    back = instance_from_doc(read_document(str(path), kind="instance"))
    assert back.vertices == inst.vertices
    assert back.vehicles == inst.vehicles
    assert back.fuel_capacity == inst.fuel_capacity
    assert back.lam == inst.lam
    assert back.metric == inst.metric
    assert np.array_equal(back.cost, inst.cost)
    assert np.array_equal(back.nominal_fuel, inst.nominal_fuel)
    assert np.array_equal(back.coordinates, inst.coordinates)


def test_instance_reader_computes_lambda_and_metric_from_the_data():
    inst = off_triangle_instance()
    doc = instance_to_doc(inst)
    assert doc["metric"] is False
    doc["metric"] = True
    doc["lam"] = 1.0
    back = instance_from_doc(doc)
    assert back.metric is False
    assert back.lam == inst.lam


def test_document_key_sets_are_pinned(case):
    inst, _, _ = case
    assert set(instance_to_doc(inst)) == {
        "format_version", "kind", "vertices", "n_refuel", "coordinates", "cost",
        "nominal_fuel", "vehicles", "fuel_capacity", "lam", "grid", "metric",
    }
    doc = report_to_doc(sample_report())
    assert set(doc) == {
        "format_version", "kind", "instance_name", "ev", "ev_optimal", "eev",
        "lb", "ub", "h", "solution", "vss", "vss_pct",
    }
    assert set(doc["eev"]) == {
        "mean", "dispersion", "standard_error", "count", "values", "rigorous", "label",
    }


def test_quadrants_round_trip_is_exact(case, tmp_path):
    _, qmap, _ = case
    path = tmp_path / "quadrants.json"
    write_document(quadrants_to_doc(qmap), str(path))
    back = quadrants_from_doc(read_document(str(path), kind="quadrants"))
    assert back == qmap
    assert all(isinstance(q, str) for q in back.vertex_labels)


def test_scenarios_round_trip_is_exact(case, tmp_path):
    _, _, delta = case
    path = tmp_path / "scenarios.json"
    write_document(scenarios_to_doc(delta), str(path))
    back = scenarios_from_doc(read_document(str(path), kind="scenario_set"))
    assert back.label == delta.label
    assert len(back) == len(delta)
    for a, b in zip(back, delta):
        assert a.id == b.id
        assert a.probability == b.probability
        assert np.array_equal(a.fuel, b.fuel)


def test_solution_round_trip_keeps_meta(tmp_path):
    routes = RouteSet(((0, 5, 1, 6, 0), (0, 7, 0)))
    path = tmp_path / "solution.json"
    write_document(solution_to_doc(routes, meta={"mode": "saa"}), str(path))
    back, meta = solution_from_doc(read_document(str(path), kind="solution"))
    assert back == routes
    assert meta == {"mode": "saa"}
    bare = tmp_path / "bare.json"
    write_document(solution_to_doc(routes), str(bare))
    _, empty_meta = solution_from_doc(read_document(str(bare)))
    assert empty_meta == {}


def test_estimate_round_trip_preserves_every_float():
    est = BoundEstimate((1.0 / 3.0, 2.0 / 7.0, 0.1), label="x")
    back = estimate_from_doc(json.loads(json.dumps(estimate_to_doc(est))))
    assert back == est
    assert estimate_to_doc(None) is None
    assert estimate_from_doc(None) is None


def test_report_round_trip_is_exact(tmp_path):
    for report in (sample_report(True), sample_report(False)):
        path = tmp_path / "result.json"
        write_document(report_to_doc(report), str(path))
        back = report_from_doc(read_document(str(path), kind="result"))
        assert back == report


def test_rewrites_are_byte_identical(case, tmp_path):
    inst, _, delta = case
    pairs = [
        (instance_to_doc(inst), "a.json"),
        (scenarios_to_doc(delta), "b.json"),
        (report_to_doc(sample_report()), "c.json"),
    ]
    for doc, name in pairs:
        first = tmp_path / ("1" + name)
        second = tmp_path / ("2" + name)
        write_document(doc, str(first))
        roundtripped = read_document(str(first))
        write_document(roundtripped, str(second))
        assert first.read_bytes() == second.read_bytes()


def test_read_document_error_paths(tmp_path):
    with pytest.raises(ArtifactError, match="not found"):
        read_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ArtifactError, match="not valid JSON"):
        read_document(str(bad))
    wrong_version = tmp_path / "version.json"
    wrong_version.write_text(json.dumps({"format_version": "other/9", "kind": "instance"}))
    with pytest.raises(ArtifactError, match="format_version"):
        read_document(str(wrong_version))
    wrong_kind = tmp_path / "kind.json"
    wrong_kind.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "solution"}))
    with pytest.raises(ArtifactError, match="kind"):
        read_document(str(wrong_kind), kind="instance")
    read_document(str(wrong_kind))  # kind check is opt-in


def test_malformed_documents_raise_artifact_errors(case):
    inst, qmap, delta = case
    broken_instance = instance_to_doc(inst)
    del broken_instance["cost"]
    with pytest.raises(ArtifactError, match="instance"):
        instance_from_doc(broken_instance)
    broken_scenarios = scenarios_to_doc(delta)
    del broken_scenarios["scenarios"][0]["fuel"]
    with pytest.raises(ArtifactError, match="scenario"):
        scenarios_from_doc(broken_scenarios)
    broken_report = report_to_doc(sample_report())
    del broken_report["eev"]["values"]
    with pytest.raises(ArtifactError, match="estimate"):
        report_from_doc(broken_report)
    empty_report = report_to_doc(sample_report())
    empty_report["ub"]["values"] = []
    with pytest.raises(ArtifactError, match="zero values"):
        report_from_doc(empty_report)
    mixed_report = report_to_doc(sample_report())
    mixed_report["ub"]["label"] = "lambda:seed=7:count=3"
    with pytest.raises(ArtifactError, match="mixed-sample"):
        report_from_doc(mixed_report)
    with pytest.raises(ArtifactError, match="solution"):
        solution_from_doc({"routes": None})
    broken_quadrants = quadrants_to_doc(qmap)
    del broken_quadrants["vertex_labels"]
    with pytest.raises(ArtifactError, match="quadrants"):
        quadrants_from_doc(broken_quadrants)


def test_write_text_is_atomic_and_exact(tmp_path):
    path = tmp_path / "table.csv"
    write_text("a,b\n1,2\n", str(path))
    assert path.read_text() == "a,b\n1,2\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".fcmurp-")]
    assert leftovers == []


def test_csv_rendering_contract():
    text = render_csv([sample_report(True), sample_report(False)])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    full = lines[1].split(",")
    assert full[0] == "case-31"
    assert float(full[1]) == 101.25
    report = sample_report(True)
    assert full[2] == repr(report.eev.mean)
    assert full[3] == repr(report.eev.standard_error)
    assert full[4] == repr(report.lb.mean)
    assert full[8] == "" and full[9] == ""  # H column absent
    assert float(full[10]) == 10.0
    sparse = lines[2].split(",")
    assert sparse[2:] == [""] * 10
    assert text.endswith("\n")


def test_text_rendering_shows_mean_and_dispersion():
    report = sample_report(True)
    text = render_text([report])
    assert "instance" in text and "case-31" in text
    assert f"{report.eev.mean:.2f} ({report.eev.dispersion:.2f})" in text
    assert "standard error = sqrt(dispersion / count)" in text
    sparse = render_text([sample_report(False)])
    assert " -" in sparse
