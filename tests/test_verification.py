"""Tests for the property-check harness and its JSON report."""

import json

import pytest

from groversim.verification import (
    CHECK_IDS,
    VerificationConfig,
    run_all,
    run_check,
)

EXPECTED_IDS = (
    "T1.3",
    "T1.4",
    "T1.9",
    "T1.11",
    "T1.13",
    "T1.14",
    "T1.15",
    "T2.2",
    "T2.3",
    "T3.1",
    "T3.2",
    "T3.3",
    "T3.4",
)

SMALL = VerificationConfig(n_max=3, t_max=6, seed=7)


def test_registry_contains_exactly_the_expected_checks():
    assert CHECK_IDS == EXPECTED_IDS


def test_hadamard_check_passes():
    result = run_check("T1.9")
    assert result.passed
    assert result.worst_residual < 1e-10


def test_closed_form_check_passes_on_reduced_grid():
    result = run_check("T2.3", VerificationConfig(n_max=4, t_max=8))
    assert result.passed
    assert result.worst_residual < 1e-9
    assert result.params["n_values"] == [2, 3, 4]
    assert result.params["t_range"] == [0, 8]


def test_periodicity_check_with_explicit_seed():
    result = run_check("T3.1", VerificationConfig(seed=7))
    assert result.passed
    assert result.params["samples"] == 1000
    # each check derives its own stream from the base seed
    assert result.params["seed"] == 7 + 1000 * CHECK_IDS.index("T3.1")


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError, match="unknown check id"):
        run_check("T9.9")


def test_tolerance_override_can_fail_a_passing_check():
    # guards against vacuous checks: an absurd tolerance must flip the verdict
    result = run_check("T1.9", VerificationConfig(tolerances={"T1.9": 1e-20}))
    assert not result.passed
    assert result.params["tolerance"] == 1e-20


def test_run_all_passes_on_small_grid():
    report = run_all(SMALL)
    assert len(report.results) == 13
    assert report.all_passed
    assert report.passed_count == 13
    assert report.failed_count == 0
    assert report.failed_ids() == []


def test_run_all_passes_on_minimal_grid():
    report = run_all(VerificationConfig(n_max=2, t_max=4, seed=3))
    assert report.all_passed


def test_result_invariant_passed_iff_residual_below_tolerance():
    report = run_all(SMALL)
    for result in report.results:
        assert result.passed == (result.worst_residual < result.params["tolerance"])


def test_report_json_schema():
    report = run_all(SMALL)
    doc = json.loads(report.to_json())
    assert doc["schema_version"] == "1"
    assert set(doc["config"]) == {"n_max", "t_max", "seed", "inject_fault", "tolerances"}
    assert doc["summary"] == {"passed": 13, "failed": 0}
    assert [row["id"] for row in doc["results"]] == list(EXPECTED_IDS)
    for row in doc["results"]:
        assert set(row) == {
            "id",
            "theorem",
            "quote",
            "params",
            "passed",
            "worst_residual",
            "elapsed_ms",
        }
        assert isinstance(row["theorem"], str) and row["theorem"]
        assert isinstance(row["quote"], str) and row["quote"]


def test_reports_are_deterministic_apart_from_elapsed():
    def normalized(report):
        doc = report.to_json_dict()
        for row in doc["results"]:
            row["elapsed_ms"] = 0.0
        return json.dumps(doc)

    assert normalized(run_all(SMALL)) == normalized(run_all(SMALL))


def test_fault_injection_fails_exactly_the_dependent_checks():
    report = run_all(VerificationConfig(n_max=3, t_max=6, seed=7, inject_fault=True))
    assert report.failed_ids() == ["T1.4", "T2.3"]
    assert report.passed_count == 11


def test_config_bounds():
    with pytest.raises(ValueError):
        VerificationConfig(n_max=13)
    with pytest.raises(ValueError):
        VerificationConfig(n_max=0)
    with pytest.raises(ValueError):
        VerificationConfig(t_max=0)
    with pytest.raises(ValueError):
        VerificationConfig(t_max=6434)  # past one period at the 24-qubit cap
    with pytest.raises(ValueError):
        VerificationConfig(seed=-1)
