"""In-memory span tracing of the ghzsdc package, installed from outside it.

`Tracer.installed()` swaps a wrapper in for every public function of the
package's modules and for `DensityOperator.__post_init__` (one span per
density-operator validation), and counts numpy eigensolver calls. Each call
records a span ``[name, start, end, parent, sweep_id]``. The package source is
not touched: wrappers replace the function objects in the module namespaces
and the originals are put back when the context ends.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("qcore", "noise", "sdc", "purify", "qnn", "capacity", "harness", "cli")

VALIDATION = "qcore.DensityOperator"


# Derived work counts, read from the bound arguments and result of one call.
def _on_purify_round(counters, args, result):
    counters["purify.pair_state_bytes"] += args["pair_state"].matrix.nbytes
    counters["purify.success_probability_sum"] += result.success_probability


def _on_entropy_exchange(counters, args, result):
    counters["capacity.kraus_ops"] = max(counters["capacity.kraus_ops"], len(args["ch"].kraus_ops))


def _on_train(counters, args, result):
    counters["qnn.train_iterations"] += result[1].iterations


def _on_p_grid(counters, args, result):
    counters["harness.points"] += len(result)


HOOKS: Dict[str, Callable] = {
    "purify.purify_round": _on_purify_round,
    "capacity.entropy_exchange": _on_entropy_exchange,
    "qnn.train": _on_train,
    "harness.p_grid": _on_p_grid,
}


class Tracer:
    """Spans and exact work counts of one traced sweep, kept in memory."""

    def __init__(self, sweep_id: int):
        self.sweep_id = sweep_id
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters, sweep_id = self.spans, self._stack, self.counters, self.sweep_id
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, sweep_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counters[name + ".calls"] += 1
            if hook is not None:
                hook(counters, inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _count_eig(self, fn):
        counters = self.counters

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            counters["work.eig_calls"] += 1
            counters["work.eig_d3"] += int(np.prod(shape[:-2], dtype=int)) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the package for the duration of the context."""
        modules = [sys.modules["ghzsdc"]] + [sys.modules[f"ghzsdc.{m}"] for m in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        undo = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        density = sys.modules["ghzsdc.qcore"].DensityOperator
        undo.append((density, "__post_init__", density.__post_init__))
        density.__post_init__ = self._wrap(VALIDATION, density.__post_init__)
        for attr in ("eigh", "eigvalsh"):
            undo.append((np.linalg, attr, getattr(np.linalg, attr)))
            setattr(np.linalg, attr, self._count_eig(getattr(np.linalg, attr)))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    def work_counts(self) -> dict:
        """Every exact count of the sweep; two traced runs must agree on it."""
        return dict(sorted(self.counters.items()))

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer times and exact work counts of the sweep. Self times of
        all layers plus `trace.unattributed_s` add up to `wall_s`."""
        spans, counters = self.spans, self.counters
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]

        def self_of(*names):
            return sum(t for s, t in zip(spans, own) if s[0] in names)

        def layer_self(layer):
            return sum(t for s, t in zip(spans, own) if s[0].split(".")[0] == layer)

        def inclusive(*names):
            # time inside any span named in `names`, nested ones counted once
            total = 0.0
            for s in spans:
                if s[0] in names:
                    parent = s[3]
                    while parent >= 0 and spans[parent][0] not in names:
                        parent = spans[parent][3]
                    if parent < 0:
                        total += s[2] - s[1]
            return total

        def calls(*names):
            return sum(counters[n + ".calls"] for n in names)

        apply = ("qcore.apply_unitary", "qcore.apply_channel", "qcore.apply_unitary_to_state")
        points = counters["harness.points"]
        iterations = counters["qnn.train_iterations"]
        rounds = calls("purify.purify_round")
        train_s = inclusive("qnn.train")
        m = {
            "qcore.validate_s": self_of(VALIDATION),
            "qcore.validations": calls(VALIDATION),
            "qcore.apply_s": self_of(*apply),
            "qcore.apply_calls": calls(*apply),
            "qcore.tensor_trace_s": self_of("qcore.tensor_product", "qcore.partial_trace",
                                            "qcore.measure_computational"),
            "qcore.entropy_s": self_of("qcore.von_neumann_entropy", "qcore.fidelity"),
            "work.eig_calls": counters["work.eig_calls"],
            "work.eig_d3": counters["work.eig_d3"],
            "noise.trajectories": calls("noise.sample_trajectory"),
            "sdc.run_protocol_calls": calls("sdc.run_protocol"),
            "sdc.corrections_per_point": (calls("purify.purify_iterated", "qnn.correct_state")
                                          / points if points else 0.0),
            "purify.round_s": inclusive("purify.purify_round"),
            "purify.rounds": rounds,
            "purify.pair_state_bytes": counters["purify.pair_state_bytes"],
            "purify.yield": (counters["purify.success_probability_sum"] / rounds
                             if rounds else 0.0),
            "qnn.train_s": train_s,
            "qnn.train_iterations": iterations,
            "qnn.iteration_s": train_s / iterations if iterations else 0.0,
            "qnn.feedforward_s": inclusive("qnn.feedforward"),
            "qnn.feedforward_calls": calls("qnn.feedforward"),
            "capacity.report_s": inclusive("capacity.report"),
            "capacity.entropy_exchange_s": inclusive("capacity.entropy_exchange"),
            "capacity.holevo_s": inclusive("capacity.holevo", "capacity.classical_capacity"),
            "capacity.kraus_ops": counters["capacity.kraus_ops"],
            "harness.embedded_channel_s": inclusive("harness.embedded_noise_channel"),
            "harness.emit_s": inclusive("harness.emit_records"),
            "harness.points": points,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        m["trace.sweep_s"] = wall_s
        m["trace.unattributed_s"] = wall_s - sum(own)
        m["trace.spans"] = len(spans)
        return m
