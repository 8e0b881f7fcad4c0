"""Seeded workloads and per-op correctness gates for the groversim benchmark.

Every workload is a closed loop with one client: the next command is sent
only after the previous one returns.  A workload turns a seed into a list of
ops; each op is the argv handed to ``groversim.cli.main`` plus what the gate
needs to check its output.

This module is pure Python (no numpy, no groversim) so that generating the
inputs can be timed as part of set-up and the gates can be tested alone.
The gates recompute the closed form sin^2((2t+1) theta) themselves instead
of trusting the value the program prints.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: Largest |p_simulated - p_closed_form| any gate accepts.
GATE = 1e-10

#: The verification report must list exactly these check ids, in this order.
CHECK_IDS = (
    "T1.3", "T1.4", "T1.9", "T1.11", "T1.13", "T1.14", "T1.15",
    "T2.2", "T2.3", "T3.1", "T3.2", "T3.3", "T3.4",
)

#: End-to-end metrics reported by every untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def theta(n: int) -> float:
    return math.asin(1.0 / math.sqrt(2**n))


def closed_form_p(n: int, t: int) -> float:
    """Success probability sin^2((2t+1) theta) after t iterations on n qubits."""
    return math.sin((2 * t + 1) * theta(n)) ** 2


def best_t(n: int) -> int:
    """The better of floor/ceil of pi/(4 theta) - 1/2."""
    t_real = math.pi / (4.0 * theta(n)) - 0.5
    return max((math.floor(t_real), math.ceil(t_real)), key=lambda t: closed_form_p(n, t))


def max_t_in_period(n: int) -> int:
    """Largest t with (2t+1) theta <= pi."""
    return math.floor((math.pi / theta(n) - 1.0) / 2.0)


class Op(NamedTuple):
    argv: tuple[str, ...]
    expect: dict


# ---------------------------------------------------------------------------
# gates: (expect, exit code, stdout) -> None when the op is correct, else why not
# ---------------------------------------------------------------------------


def check_simulate(expect: dict, code: int | None, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rec = json.loads(out)
    p = closed_form_p(expect["n"], expect["t"])
    if abs(rec["p_closed_form"] - p) > GATE:
        return f"p_closed_form {rec['p_closed_form']!r} is not the closed form {p!r}"
    if abs(rec["p_simulated"] - p) > GATE:
        return f"p_simulated {rec['p_simulated']!r} misses the closed form {p!r}"
    return None


def check_curve(expect: dict, code: int | None, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    if not lines or lines[0] != "t,p_simulated,p_closed_form":
        return "missing CSV header"
    n = expect["n"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != max_t_in_period(n) + 1:
        return f"{len(rows)} rows, expected {max_t_in_period(n) + 1}"
    for t, row in enumerate(rows):
        p = closed_form_p(n, t)
        if int(row[0]) != t:
            return f"row {t} is labelled t={row[0]}"
        if abs(float(row[2]) - p) > GATE:
            return f"t={t}: p_closed_form {row[2]} is not the closed form {p!r}"
        if abs(float(row[1]) - p) > GATE:
            return f"t={t}: p_simulated {row[1]} misses the closed form {p!r}"
    return None


def check_factor(expect: dict, code: int | None, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rec = json.loads(out)
    factor, cofactor = rec["factor"], rec["cofactor"]
    if factor is None or cofactor is None or factor * cofactor != expect["m"]:
        return f"{factor} * {cofactor} is not {expect['m']}"
    if factor != expect["p"]:
        return f"factor {factor}, expected {expect['p']}"
    return None


def check_verify(expect: dict, code: int | None, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    results = json.loads(out)["results"]
    ids = tuple(r["id"] for r in results)
    if ids != CHECK_IDS:
        return f"check ids {ids} differ from {CHECK_IDS}"
    failed = [r["id"] for r in results if not r["passed"]]
    if failed:
        return "failed checks: " + ", ".join(failed)
    return None


# ---------------------------------------------------------------------------
# generators: (rng, count) -> ops
# ---------------------------------------------------------------------------

SIMULATE_N = 20
CURVE_N = 14
FACTOR_QUBITS = tuple(range(3, 15))
FACTOR_SHOTS = 10000


def simulate_ops(rng: random.Random, count: int) -> list[Op]:
    t = best_t(SIMULATE_N)
    ops = []
    for _ in range(count):
        target = rng.randint(1, 2**SIMULATE_N)
        argv = ("simulate", "--n", str(SIMULATE_N), "--target", str(target), "--t", str(t), "--json")
        ops.append(Op(argv, {"n": SIMULATE_N, "t": t}))
    return ops


def curve_ops(rng: random.Random, count: int) -> list[Op]:
    return [
        Op(("curve", "--n", str(CURVE_N), "--target", str(rng.randint(1, 2**CURVE_N))), {"n": CURVE_N})
        for _ in range(count)
    ]


def is_prime(x: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for x < 3,215,031,751."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7):
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int | None:
    if lo > hi:
        return None
    start = rng.randint(lo, hi)
    for x in itertools.chain(range(start, hi + 1), range(start - 1, lo - 1, -1)):
        if is_prime(x):
            return x
    return None


def semiprime(rng: random.Random, n: int) -> tuple[int, int]:
    """Primes p <= q with floor(sqrt(p*q)) in [2^(n-1), 2^n - 1].

    Then p is the only divisor in the candidate range [2, floor(sqrt(m))] and
    ``factor`` sizes its search space to exactly n qubits.
    """
    m_lo, m_hi = 4 ** (n - 1), 4**n - 1
    while True:
        p = _random_prime(rng, 2, 2**n - 1)
        q = _random_prime(rng, max(p, -(-m_lo // p)), m_hi // p)
        if q is not None:
            return p, q


def factor_ops(rng: random.Random, count: int) -> list[Op]:
    # n cycles through 3..14 so every seed gets the same qubit mix; n <= 6
    # (a third of the ops) takes the dense path under the default cap.
    ops = []
    for i in range(count):
        p, q = semiprime(rng, FACTOR_QUBITS[i % len(FACTOR_QUBITS)])
        argv = ("factor", "--m", str(p * q), "--shots", str(FACTOR_SHOTS),
                "--seed", str(rng.randrange(2**31)), "--json")
        ops.append(Op(argv, {"m": p * q, "p": p}))
    return ops


def verify_ops(rng: random.Random, count: int) -> list[Op]:
    return [Op(("verify", "--seed", str(rng.randrange(2**31))), {}) for _ in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: A run does ``seconds * nominal_ops_per_s`` ops, so its work is fixed
    #: and ``wall_s`` moves with speed.  The rates sit a little below what the
    #: seed code reaches on a 2-vCPU VM (Python 3.11, numpy 2.4), whose speed
    #: swung by up to 1.8x over tens of minutes: a run lasts 15-25 s there.
    nominal_ops_per_s: float
    #: The argv generator's parameters, recorded with every result.
    params: dict
    make_ops: Callable[[random.Random, int], list[Op]]
    check: Callable[[dict, int | None, str], str | None]

    def op_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.nominal_ops_per_s))


WORKLOADS = (
    Workload(
        "simulate-n20",
        "simulate at n=20, t=804 (t_best): an 8 MB vector beyond L2, where the grover kernel is nearly all of the time",
        0.7,
        {"n": SIMULATE_N, "t": best_t(SIMULATE_N), "target": "uniform in 1..2^n"},
        simulate_ops,
        check_simulate,
    ),
    Workload(
        "curve-sweep",
        "curve at n=14 over one period (201 rows): re-simulates from t=0 per row, so it moves under an incremental curve",
        2.6,
        {"n": CURVE_N, "t_max": "one period", "target": "uniform in 1..2^n"},
        curve_ops,
        check_curve,
    ),
    Workload(
        "factor-semiprimes",
        "factor p*q on 3-14 qubits, a third on the dense path: per-op overhead, dense path, sampling and trial division",
        400.0,
        {"qubits": [FACTOR_QUBITS[0], FACTOR_QUBITS[-1]], "qubit_mix": "cycle 3..14",
         "shots": FACTOR_SHOTS, "p, q": "primes, p <= q, floor(sqrt(pq)) in [2^(n-1), 2^n)"},
        factor_ops,
        check_factor,
    ),
    Workload(
        "verify-default",
        "verify on the default grid (n_max=12, t_max=10): verification and dense linalg/states algebra, kernel only at n<=6",
        1.2,
        {"n_max": 12, "t_max": 10, "seed": "uniform in 0..2^31"},
        verify_ops,
        check_verify,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
