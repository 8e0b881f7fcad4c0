"""Command-line surface: simulation, analytics, factorization and verification.

Exit status contract: 0 on success, 1 for usage or internal errors, 2 for
domain-level negative results (no factor found, failed verification checks).
All commands are deterministic for a fixed flag set; floats print with 12
significant digits, matching the CSV format.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .factorization import (
    MultipleSolutionsError,
    NoSolutionError,
    curve_to_csv,
    probability_curve,
    run_factor_search,
)
from .grover import (
    KERNEL_QUBIT_CAP,
    T_LIMIT,
    GroverInstance,
    grover_angles,
    optimal_iterations,
    pair_after_iterations,
    success_probability,
    target_probability,
)
from .states import sample_measurement


#: The bounds that belong to the command line, as option types: click refuses a
#: value outside them before the command runs, and ``--help`` prints them.
#: ``--shots`` stops at 2^cap: the sampler holds nothing per shot that lands on
#: the target and about 18 B per other shot, and its histogram about 100 B per
#: distinct label (tracemalloc, ``simulate --n 24 --target 1 --t 1 --shots
#: 1000000``: 158 B per shot in all).
_QUBITS = click.IntRange(1, KERNEL_QUBIT_CAP)
_SHOTS = click.IntRange(1, 2**KERNEL_QUBIT_CAP)
_SEED = click.IntRange(min=0)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _histogram_csv(histogram) -> str:
    lines = ["outcome,count"]
    lines.extend(f"{k},{v}" for k, v in histogram.items())
    return "\n".join(lines) + "\n"


def _report(inputs: dict, results: dict, as_json: bool, extra: dict | None = None) -> None:
    """JSON of inputs, results and extra, or a text table of the results alone."""
    if as_json:
        click.echo(json.dumps({**inputs, **results, **(extra or {})}, indent=2))
        return
    width = max(len(k) for k in results)
    for key, value in results.items():
        text = _fmt(value) if isinstance(value, float) else str(value)
        click.echo(f"{key.ljust(width)}  {text}")


@click.group()
def cli() -> None:
    """Grover search simulator, iteration analytics, factorization demo and
    property-check harness.

    Basis labels on this CLI are 1-based: ``simulate --n 4 --target 11``
    marks the 11th basis state.  The ``factor`` command reports candidate
    integers, which are 0-based ket labels (candidate = basis label - 1);
    factoring 143 marks candidate 11, stored at basis label 12.
    """


@cli.command()
@click.option("--n", "n_qubits", type=_QUBITS, required=True, help="Qubit count.")
@click.option("--target", type=int, required=True, help="Target basis label, 1-based.")
@click.option(
    "--t", "iterations", type=click.IntRange(0, T_LIMIT), required=True,
    help=f"Grover iterations (at most one period at {KERNEL_QUBIT_CAP} qubits).",
)
@click.option("--seed", type=_SEED, default=0, show_default=True, help="Sampling seed.")
@click.option("--shots", type=_SHOTS, default=None, help="Sample this many measurements.")
@click.option(
    "--output", type=click.Path(dir_okay=False), default=None,
    help="Write the sampled histogram CSV here (requires --shots).",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def simulate(n_qubits, target, iterations, seed, shots, output, as_json) -> None:
    """Simulate t iterations and report simulated vs closed-form success probability.

    Every qubit count runs the same O(n)-per-iteration two-value kernel, and
    the probability is read from its two amplitude values; --shots samples
    from them too, so no 2^n state vector is built.
    """
    if output is not None and shots is None:
        raise click.UsageError("--output requires --shots")
    inst = GroverInstance(n_qubits, target)
    other, tau = pair_after_iterations(inst, iterations)
    p_sim = target_probability(inst, other, tau)
    p_closed = success_probability(grover_angles(inst.n_states), iterations)

    histogram = None
    extra = None
    if shots is not None:
        histogram = sample_measurement((inst, other, tau), seed, shots)
        extra = {"seed": seed, "shots": shots, "histogram": histogram}

    _report(
        {"n": n_qubits, "target": target, "t": iterations},
        {"p_simulated": p_sim, "p_closed_form": p_closed, "difference": p_sim - p_closed},
        as_json,
        extra,
    )
    if output is not None:
        _write_text(output, _histogram_csv(histogram))
        if not as_json:
            click.echo(f"histogram written to {output}")
    elif histogram is not None and not as_json:
        click.echo(_histogram_csv(histogram), nl=False)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}") from exc


@cli.command()
@click.option("--n", "n_qubits", type=_QUBITS, required=True, help="Qubit count.")
@click.option("--target", type=int, required=True, help="Target basis label, 1-based.")
@click.option("--t-max", type=int, default=None, help="Last iteration (default: one period).")
@click.option(
    "--output", type=click.Path(dir_okay=False), default="-", show_default=True,
    help="CSV destination; '-' for stdout.",
)
def curve(n_qubits, target, t_max, output) -> None:
    """Emit the success-probability curve CSV over one period and report the peak."""
    rows = probability_curve(GroverInstance(n_qubits, target), t_max)
    csv_text = curve_to_csv(rows)
    peak_t = max(rows, key=lambda r: r.p_closed_form).t
    if output == "-":
        click.echo(csv_text, nl=False)
        click.echo(f"peak t = {peak_t}", err=True)
    else:
        _write_text(output, csv_text)
        click.echo(f"wrote {len(rows)} rows to {output}; peak t = {peak_t}")


@cli.command()
@click.option("--n", "n_qubits", type=click.IntRange(1, 60), required=True, help="Qubit count.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def optimal(n_qubits, as_json) -> None:
    """Report the real-valued optimum pi/(4 theta) - 1/2 and its floor/ceil candidates."""
    opt = optimal_iterations(grover_angles(2**n_qubits))
    _report({"n": n_qubits}, dataclasses.asdict(opt), as_json)


@cli.command()
@click.option("--m", "modulus", type=int, required=True, help="Modulus to factor (>= 6).")
@click.option("--seed", type=_SEED, default=1, show_default=True, help="Sampling seed.")
@click.option("--shots", type=_SHOTS, default=10000, show_default=True, help="Measurements.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def factor(modulus, seed, shots, as_json) -> None:
    """Factor a modulus by amplified divisor search plus classical verification.

    Exits 0 when a factor is confirmed, 2 when the search space holds no
    (unique) divisor or the sampled outcome fails the divisibility check.
    """
    try:
        result = run_factor_search(modulus, seed, shots)
    except (NoSolutionError, MultipleSolutionsError) as exc:
        if as_json:
            click.echo(json.dumps({"m": modulus, "error": str(exc)}, indent=2))
        click.echo(str(exc), err=True)
        sys.exit(2)

    fields = dict(vars(result))
    histogram = fields.pop("histogram")
    _report({"m": modulus}, fields, as_json, {"histogram": histogram})
    if not result.succeeded:
        click.echo(
            f"modal outcome {result.modal_candidate} does not divide {modulus}; "
            "search failed",
            err=True,
        )
        sys.exit(2)


@cli.command()
@click.option("--n-max", type=int, default=12, show_default=True, help="Largest qubit count.")
@click.option("--t-max", type=int, default=10, show_default=True, help="Iteration grid bound.")
@click.option("--seed", type=int, default=20260810, show_default=True, help="Base seed.")
@click.option(
    "--inject-fault", is_flag=True,
    help="Swap in a non-unitary diffusion stand-in; proves checks can fail.",
)
@click.option(
    "--output", type=click.Path(dir_okay=False), default=None,
    help="Write the JSON report here instead of stdout.",
)
def verify(n_max, t_max, seed, inject_fault, output) -> None:
    """Run all registered property checks; exit 0 iff every one passes."""
    # imported here: only this command needs the dense 2^n stack it loads
    from .verification import VerificationConfig, run_all

    config = VerificationConfig(n_max=n_max, t_max=t_max, seed=seed, inject_fault=inject_fault)
    report = run_all(config)
    text = report.to_json()
    if output is None:
        click.echo(text)
    else:
        _write_text(output, text + "\n")
    click.echo(
        f"{report.passed_count}/{len(report.results)} checks passed", err=True
    )
    if not report.all_passed:
        click.echo("failed: " + ", ".join(report.failed_ids()), err=True)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping click's error handling onto the exit-status contract.

    A ValueError that escapes a command is the library refusing its input
    (target range, modulus, ``curve --t-max``, verify's config) or a failed
    gate such as NormalizationError: it exits 1 with its message.
    """
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except ValueError as exc:
        click.echo(f"Error: {exc}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
