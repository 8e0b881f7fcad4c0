"""Span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces, in each
importing module's namespace, every function one groversim module imports
from another (``groversim.factorization.state_after_iterations``,
``groversim.grover.make_qstate``, ...), plus the few same-module calls the
per-layer metrics need.  Each wrapper records a span (id, parent, op id,
name, start, end) in memory and the counts of its layer; ``metrics`` turns
them into per-op figures when the run ends.

Counts that are not timings (``grover.amp_updates``,
``grover.bytes_computed``) are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

LAYERS = ("cli", "factorization", "verification", "grover", "states", "linalg")

# Same-module calls cross no import, so they are wrapped in their own
# module's namespace: name -> span name.
OWN_NAMESPACE = {
    "factorization": {"build_factor_instance": "factorization.build_factor_instance"},
    "verification": {"run_check": "verification.run_check"},
    "grover": {"_simulate_matrix": "grover.path.dense", "_simulate_kernel": "grover.path.kernel"},
    "states": {"make_qstate": "states.make_qstate"},
}

#: Bytes one kernel iteration touches per amplitude, as computed (not
#: measured): a float64 read for the mean, then a read and a write for the
#: reflection about it.
KERNEL_BYTES_PER_AMP_UPDATE = 24

#: Per-layer metrics of the traced run, (name, unit).  ``.calls``,
#: ``.busy_s`` and ``.self_s`` come from spans; counts and times are per op.
PER_LAYER = (
    ("grover.state_after_iterations.busy_s", "s/op"),
    ("grover.amp_updates", "count/op"),
    ("grover.amp_updates_per_s", "1/s"),
    ("grover.bytes_computed", "B/op"),
    ("grover.state_after_iterations.calls", "count/op"),
    ("grover.iterations", "count/op"),
    ("states.make_qstate.calls", "count/op"),
    ("states.make_qstate.busy_s", "s/op"),
    ("grover.state_after_iterations.peak_mb", "MB"),
    ("grover.path.dense.calls", "count/op"),
    ("grover.path.kernel.calls", "count/op"),
    ("linalg.matrix_pow.busy_s", "s/op"),
    ("states.evolve.busy_s", "s/op"),
    ("states.n_hadamard.busy_s", "s/op"),
    ("states.sample_measurement.busy_s", "s/op"),
    ("states.shots", "count/op"),
    ("factorization.build_factor_instance.calls", "count/op"),
    ("factorization.build_factor_instance.busy_s", "s/op"),
    ("factorization.run_factor_search.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("factorization.probability_curve.self_s", "s/op"),
    ("factorization.curve_to_csv.busy_s", "s/op"),
    *(
        (f"verification.run_check.{check_id}.busy_s", "s/op")
        for check_id in (
            "T1.3", "T1.4", "T1.9", "T1.11", "T1.13", "T1.14", "T1.15",
            "T2.2", "T2.3", "T3.1", "T3.2", "T3.3", "T3.4",
        )
    ),
    ("linalg.matmul.calls", "count/op"),
    ("linalg.matmul.busy_s", "s/op"),
    ("linalg.unitarity_residual.busy_s", "s/op"),
    ("linalg.tensor_product_list.busy_s", "s/op"),
    ("grover.closed_form_state.busy_s", "s/op"),
    ("grover.norm_drift_max", "1"),
    ("grover.closed_form_gap_max", "1"),
    ("verification.checks_passed", "count/op"),
    ("trace_overhead_ratio", "ratio"),
)

_SPAN_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}


class Span(NamedTuple):
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float


class Tracer:
    """Records spans and counts for one traced run; ``op_id`` is set per op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id = 0
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        #: When set, wrappers record nothing and only measure peaks: the
        #: tracemalloc cost then stays out of every span.
        self.memory_pass = False
        #: Same-module functions named in ``OWN_NAMESPACE`` that were not found.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, observe=None, peak_name=None):
        """``fn`` recording a span; ``name`` may be a function of the call's args.

        ``observe(args, kwargs, result)`` updates counts after the span ends;
        its own time is recorded as a ``bench.observe`` span so that it is
        not charged to any layer's self time.  ``peak_name`` names the maximum
        that the memory pass keeps for this function.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.memory_pass:
                return fn(*args, **kwargs) if peak_name is None else self._peak_call(peak_name, fn, args, kwargs)
            label = name(args) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, self.op_id, label, start, end))
            if observe is not None:
                o_start = time.perf_counter()
                observe(args, kwargs, result)
                self.spans.append(
                    Span(-1, parent, self.op_id, "bench.observe", o_start, time.perf_counter())
                )
            return result

        return traced

    def _peak_call(self, peak_name, fn, args, kwargs):
        """Call ``fn`` under tracemalloc and keep the most it allocated at once, in MB."""
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.maxima[peak_name] = max(self.maxima[peak_name], peak)

    def install(self) -> Callable:
        """Wrap the package's cross-module calls; return the traced ``cli.main``."""
        modules = {layer: importlib.import_module(f"groversim.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            targets = {}
            for attr, obj in vars(mod).items():
                home = getattr(obj, "__module__", "")
                if inspect.isfunction(obj) and home.startswith("groversim.") and home != mod.__name__:
                    targets[attr] = f"{home.removeprefix('groversim.')}.{obj.__name__}"
            for attr, span in OWN_NAMESPACE.get(layer, {}).items():
                if hasattr(mod, attr):
                    targets[attr] = span
                else:
                    self.missing.append(f"{layer}.{attr}")
            for attr, span in targets.items():
                hooks = self._hooks(span)
                setattr(mod, attr, self.wrap(hooks.pop("name", span), getattr(mod, attr), **hooks))
        return self.wrap("cli.main", modules["cli"].main)

    def _hooks(self, span: str) -> dict:
        if span == "grover.state_after_iterations":
            return {"observe": self._observe_state, "peak_name": span + ".peak_mb"}
        if span == "grover.path.kernel":
            return {"observe": self._observe_kernel}
        if span == "states.sample_measurement":
            return {"observe": self._observe_shots}
        if span == "verification.run_check":
            return {"name": lambda args: f"verification.run_check.{args[0]}",
                    "observe": self._observe_check}
        return {}

    def _observe_state(self, args, kwargs, state) -> None:
        inst, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
        self.counts["grover.iterations"] += t
        amps = state.amplitudes
        norm2 = float((amps.conj() @ amps).real)
        self.maxima["grover.norm_drift_max"] = max(self.maxima["grover.norm_drift_max"], abs(norm2 - 1.0))
        p_sim = abs(complex(amps[inst.target - 1])) ** 2
        p_closed = math.sin((2 * t + 1) * math.asin(1.0 / math.sqrt(inst.n_states))) ** 2
        gap = abs(p_sim - p_closed)
        self.maxima["grover.closed_form_gap_max"] = max(self.maxima["grover.closed_form_gap_max"], gap)

    def _observe_kernel(self, args, kwargs, state) -> None:
        inst, t = args
        self.counts["grover.amp_updates"] += inst.n_states * t
        self.counts["grover.bytes_computed"] += KERNEL_BYTES_PER_AMP_UPDATE * inst.n_states * t

    def _observe_shots(self, args, kwargs, histogram) -> None:
        self.counts["states.shots"] += args[2] if len(args) > 2 else kwargs["shots"]

    def _observe_check(self, args, kwargs, result) -> None:
        self.counts["verification.checks_passed"] += result.passed

    def span_stats(self) -> dict[str, list[float]]:
        """Span name -> [calls, busy seconds, self seconds].

        Self time is a span's duration minus that of its direct children,
        ``bench.observe`` spans included.
        """
        child_time: Counter[int] = Counter()
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            entry = stats[s.name]
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.end - s.start - child_time[s.span_id]
        return stats

    def metrics(self, n_ops: int, overhead_ratio: float) -> dict[str, dict]:
        """Every ``PER_LAYER`` metric: span figures and counts per op, maxima as is."""
        stats = self.span_stats()
        kernel_busy = stats["grover.path.kernel"][1] if "grover.path.kernel" in stats else 0.0
        values = {
            "grover.amp_updates_per_s": self.counts["grover.amp_updates"] / kernel_busy if kernel_busy else 0.0,
            "trace_overhead_ratio": overhead_ratio,
        }
        for name, _unit in PER_LAYER:
            if name in values:
                continue
            span, _, field = name.rpartition(".")
            if field in _SPAN_FIELDS:
                values[name] = stats[span][_SPAN_FIELDS[field]] / n_ops if span in stats else 0.0
            elif name in self.maxima:
                values[name] = self.maxima[name]
            else:
                values[name] = self.counts[name] / n_ops
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
