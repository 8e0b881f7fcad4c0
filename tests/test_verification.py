"""Tests for the property-check harness and its JSON report."""

import dataclasses
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groversim
from groversim import verification
from groversim.grover import GroverInstance, kernel_steps
from groversim.linalg import diffusion, oracle, random_qstate, uniform_superposition
from groversim.verification import (
    CHECK_IDS,
    VerificationConfig,
    _apply_layers,
    _faulty_diffusion,
    _random_layers,
    _random_structured_unitary,
    _stepped_states,
    run_all,
    run_check,
)

from oracles import grover_power_states

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
    result = run_check("T1.9", VerificationConfig())
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
        run_check("T9.9", VerificationConfig())


def _scaled(fn):
    return lambda *args: 1.01 * fn(*args)


def _nan_like(fn):
    return lambda *args: np.full_like(fn(*args), np.nan)


def _nan_at_t3(fn):
    # one NaN inside the grid, where a min or max over it would drop it
    return lambda angles, t: math.nan if t == 3 else fn(angles, t)


@pytest.mark.parametrize(
    "name, fault, failing",
    [
        ("hadamard", _scaled, ["T1.3", "T1.4", "T1.9", "T1.11"]),
        ("_random_structured_unitary", _scaled, ["T1.3", "T1.4"]),
        ("_apply_layers", _nan_like, ["T1.11"]),
        ("diffusion", _nan_like, ["T1.4", "T2.3"]),
        ("success_probability", _nan_at_t3, ["T3.2", "T3.3", "T3.4"]),
    ],
    ids=[
        "hadamard-scaled",
        "structured-unitary-scaled",
        "apply-layers-nan",
        "diffusion-nan",
        "success-probability-nan-at-t3",
    ],
)
def test_a_fault_fails_exactly_its_checks(monkeypatch, name, fault, failing):
    # a check is evidence only if some fault fails it; a NaN residual is a failure
    monkeypatch.setattr(verification, name, fault(getattr(verification, name)))
    # n up to 5, so T3.2's range is not empty
    report = run_all(VerificationConfig(n_max=5, t_max=6, seed=7))
    assert report.failed_ids() == failing
    json.loads(report.to_json())  # no NaN reaches the report
    for row in report.results:
        assert row.passed == (row.worst_residual < row.params["tolerance"])
        if fault is not _scaled and not row.passed:
            assert row.worst_residual == verification._ERROR_RESIDUAL
            assert "error" in row.params


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_monotonicity_checks_have_an_instance_on_the_smallest_grids(monkeypatch, n_max):
    # N = 4 and N = 8 have no t before the optimum: T3.2 once ran over n in
    # 2..n_max with no instance, and passed whatever success_probability said
    cfg = VerificationConfig(n_max=n_max, t_max=6, seed=7)
    assert run_check("T3.2", cfg).params["instances"] == 1
    assert run_check("T3.3", cfg).params["instances"] >= 1
    monkeypatch.setattr(verification, "success_probability", lambda angles, t: 0.5)
    assert run_all(cfg).failed_ids() == ["T3.2", "T3.3"]


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
    assert set(doc["config"]) == {"n_max", "t_max", "seed", "inject_fault"}
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


def _without_elapsed(result):
    return {**dataclasses.asdict(result), "elapsed_ms": None}


@pytest.mark.parametrize(
    "cfg",
    [
        VerificationConfig(),
        VerificationConfig(inject_fault=True),
        VerificationConfig(n_max=5, t_max=30, seed=7),
    ],
    ids=["default", "inject-fault", "n5-t30-seed7"],
)
def test_run_all_on_the_pool_equals_serial_run_check(cfg):
    # field for field, worst_residual compared exactly (== on floats)
    serial = [_without_elapsed(run_check(check_id, cfg)) for check_id in CHECK_IDS]
    pooled = [_without_elapsed(result) for result in run_all(cfg).results]
    assert pooled == serial


def test_a_check_that_raises_becomes_its_error_row_inside_the_pool(monkeypatch):
    def boom(cfg, seed):
        raise RuntimeError("boom")

    spec = verification.REGISTRY["T2.2"]
    expected = [_without_elapsed(run_check(check_id, SMALL)) for check_id in CHECK_IDS]
    monkeypatch.setitem(verification.REGISTRY, "T2.2", dataclasses.replace(spec, runner=boom))
    report = run_all(SMALL)
    assert [r.id for r in report.results] == list(EXPECTED_IDS)
    assert report.failed_ids() == ["T2.2"]
    row = report.results[CHECK_IDS.index("T2.2")]
    assert row.worst_residual == verification._ERROR_RESIDUAL
    assert row.params["error"] == "RuntimeError: boom"
    others = [_without_elapsed(r) for r in report.results if r.id != "T2.2"]
    assert others == [row for row in expected if row["id"] != "T2.2"]


def _loaded_by(code: str, names: list[str]) -> str:
    """Those of ``names`` that running ``code`` loads in a fresh interpreter, as printed."""
    src = str(Path(groversim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = f"import sys; {code}; print([name for name in {names!r} if name in sys.modules])"
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()[-1]


def _loaded_by_import(modules: str, names: list[str]) -> str:
    """Those of ``names`` that ``import <modules>`` loads in a fresh interpreter, as printed."""
    return _loaded_by(f"import {modules}", names)


def test_importing_the_cli_does_not_import_the_thread_pool():
    # cli.verify imports the verify stack itself, so other commands skip its cost
    names = ["concurrent.futures", "groversim.verification", "groversim.linalg"]
    assert _loaded_by_import("groversim.cli", names) == "[]"


def test_simulation_and_factoring_do_not_import_the_dense_stack():
    # the kernel reads its pair; only verify builds 2^n vectors and matrices
    assert _loaded_by_import("groversim.grover, groversim.factorization", ["groversim.linalg"]) == "[]"
    # the norm gate lives in grover, which imports no other groversim module
    others = [
        f"groversim.{module.name}"
        for module in pkgutil.iter_modules(groversim.__path__)
        if module.name != "grover"
    ]
    assert "groversim.states" in others
    assert _loaded_by_import("groversim.grover", others) == "[]"


def test_commands_that_hold_no_vector_do_not_import_numpy():
    # numpy costs more to import than these commands take to run
    assert _loaded_by_import("groversim.grover", ["numpy"]) == "[]"
    assert _loaded_by_import("groversim.cli", ["numpy"]) == "[]"
    for argv in (
        ["simulate", "--n", "20", "--target", "1", "--t", "804"],
        ["curve", "--n", "6", "--target", "3"],
        ["optimal", "--n", "20"],
    ):
        assert _loaded_by(f"from groversim import cli; cli.main({argv!r})", ["numpy"]) == "[]"
    # the same probe sees the import where a command samples
    factor = ["factor", "--m", "143"]
    assert _loaded_by(f"from groversim import cli; cli.main({factor!r})", ["numpy"]) == "['numpy']"


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


@pytest.mark.parametrize("n", range(1, 9))
def test_layers_applied_one_factor_at_a_time_match_the_formed_unitary(n):
    # T1.11 evolves |q> through the layers; T1.3 and T1.4 form their product
    for sample in range(10):
        q = random_qstate(n, np.random.default_rng([n, sample])).amplitudes
        u = _random_structured_unitary(n, np.random.default_rng(sample))
        got = _apply_layers(_random_layers(n, np.random.default_rng(sample)), q)
        assert np.abs(got - u @ q).max() < 1e-13


@pytest.mark.parametrize("diffusion_op", [diffusion, _faulty_diffusion])
@pytest.mark.parametrize("n", range(2, 7))
def test_stepped_states_match_the_formed_grover_powers(n, diffusion_op):
    start = uniform_superposition(n).amplitudes
    for target in range(1, (1 << n) + 1):
        g = diffusion_op(n) @ oracle(GroverInstance(n, target))
        stepped = zip(_stepped_states(g, start), grover_power_states(g, start, 10))
        for got, want in stepped:
            assert np.abs(got - want).max() < 1e-13


def test_a_pair_off_the_unit_norm_fails_the_closed_form_check(monkeypatch):
    # off by 1e-9 in squared norm, the pair is within T2.3's tolerance of the
    # closed form elementwise: only the norm gate can fail it
    scale = math.sqrt(1.0 + 1e-9)

    def off_norm_steps(inst):
        for other, tau in kernel_steps(inst):
            yield scale * other, scale * tau

    monkeypatch.setattr(verification, "kernel_steps", off_norm_steps)
    result = run_check("T2.3", SMALL)
    assert not result.passed
    assert result.worst_residual == verification._ERROR_RESIDUAL
    assert result.params["error"].startswith("NormalizationError: squared norm")
