"""Per-layer spans for a traced benchmark run, recorded from outside the program.

`Tracer.install()` replaces the module attributes that callers look up at
call time: the Blahut-Arimoto kernels as `cas_limits.discrete` sees them,
the `cas_limits.discrete` solvers, the `cas_limits.gaussian` functions as
`cas_limits.waveform` binds them, and the solver entry points that
`cas_limits.cli` reaches through its `discrete`, `waveform` and `simulate`
module references. Each wrapped call appends a span (name, start, end,
parent) to a list in memory; `write()` saves the list when the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover. Every count and time is reported per round, so runs of
different length compare.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter
from time import perf_counter

import cas_limits.cli

_SOLVERS = ("constrained_capacity", "rate_distortion_discrete", "rate_distortion_inverse",
            "min_total_distortion")
_GAUSSIAN = ("channel_mi", "gram_spectrum", "reverse_waterfill", "sensing_mse")
_KERNELS = ("ba_capacity", "ba_rate_distortion")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    [(f"kernels.{k}.{m}", u) for k in _KERNELS
     for m, u in (("calls", "count"), ("iters", "count"), ("us_per_iter", "us"), ("busy_s", "s"))]
    + [(f"discrete.{s}.{m}", u) for s in _SOLVERS for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("discrete.ba_calls_per_solve", "ratio"), ("discrete.polish_handoffs", "count"),
       ("discrete.full_reruns", "count"), ("discrete.polish_certified_ratio", "ratio"),
       ("discrete.convergence_warnings", "count"),
       ("gaussian.calls", "count"), ("gaussian.busy_s", "s"),
       ("waveform.optimize_isac.iters", "count"), ("waveform.optimize_isac.self_s", "s"),
       ("waveform.objective_evals_per_iter", "ratio"), ("waveform.optimize_sw.self_s", "s"),
       ("simulate.trials_per_s", "1/s"), ("simulate.dump_trials_per_s", "1/s"),
       ("simulate.dump_bytes", "B"),
       ("cli.overhead_ms", "ms"), ("cli.bytes_written", "B")]
)


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self._patches = []
        self._ops = []        # [span index, is CLI call, bytes written] per operation

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, record)
            return out

        return wrapper

    def _patch(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, after))

    def install(self) -> None:
        discrete, waveform, simulate = (
            cas_limits.cli.discrete, cas_limits.cli.waveform, cas_limits.cli.simulate)
        polish_after, max_iter_cap = discrete.BA_POLISH_AFTER, discrete.BA_MAX_ITER
        counts = self.counts

        def kernel_after(kernel, signature):
            def after(args, kwargs, out, _record):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                max_iter, iterations = bound.arguments["max_iter"], out[-1]
                counts[f"kernels.{kernel}.iters"] += iterations
                if max_iter == polish_after and iterations >= max_iter:
                    counts["discrete.polish_handoffs"] += 1
                if max_iter == max_iter_cap:
                    counts["discrete.full_reruns"] += 1
            return after

        for kernel in _KERNELS:
            fn = getattr(discrete, kernel)
            self._patch(discrete, kernel, f"kernels.{kernel}",
                        kernel_after(kernel, inspect.signature(fn)))
        for solver in _SOLVERS:
            self._patch(discrete, solver, f"discrete.{solver}")
        for fn in _GAUSSIAN:
            self._patch(waveform, fn, f"gaussian.{fn}")

        def isac_after(_args, _kwargs, out, _record):
            counts["waveform.optimize_isac.iters"] += out.iterations

        self._patch(waveform, "optimize_isac", "waveform.optimize_isac", isac_after)
        self._patch(waveform, "optimize_sw", "waveform.optimize_sw")
        self._patch(waveform, "sweep_snr", "waveform.sweep_snr")
        objective = waveform._objective

        def counted_objective(*args, **kwargs):
            counts["waveform.objective_evals"] += 1
            return objective(*args, **kwargs)

        self._patches.append((waveform, "_objective", objective))
        waveform._objective = counted_objective

        for fn in ("simulate_end_to_end", "simulate_sensing"):
            signature = inspect.signature(getattr(simulate, fn))

            def sim_after(args, kwargs, _out, record, signature=signature):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                dump = bound.arguments["dump_path"]
                key = "dump" if dump else "plain"
                counts[f"simulate.{key}_trials"] += bound.arguments["n_trials"]
                counts[f"simulate.{key}_s"] += record[2] - record[1]
                if dump:
                    counts["simulate.dump_bytes"] += os.path.getsize(dump)

            self._patch(simulate, fn, f"simulate.{fn}", sim_after)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def op(self, name, run):
        """Run one benchmark operation as a root span and return its output."""
        self._ops.append([len(self.spans), False, 0])
        return self._wrap(f"op.{name}", run)()

    def op_done(self, cli_call: bool, bytes_written: int) -> None:
        """Record what the operation just run wrote, and whether it was a CLI call."""
        self._ops[-1][1:] = [cli_call, bytes_written]

    # ------------------------------------------------------------ reporting

    def metrics(self, rounds: int, convergence_warnings: int) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, self_s, calls = Counter(), Counter(), Counter()
        for k, (name, start, end, _parent) in enumerate(self.spans):
            busy[name] += end - start
            self_s[name] += end - start - child[k]
            calls[name] += 1
        c = self.counts
        per = 1.0 / max(rounds, 1)

        def ratio(num, den, empty=0.0):
            return num / den if den else empty

        out = {}
        for k in _KERNELS:
            out[f"kernels.{k}.calls"] = calls[f"kernels.{k}"] * per
            out[f"kernels.{k}.iters"] = c[f"kernels.{k}.iters"] * per
            out[f"kernels.{k}.us_per_iter"] = 1e6 * ratio(busy[f"kernels.{k}"], c[f"kernels.{k}.iters"])
            out[f"kernels.{k}.busy_s"] = busy[f"kernels.{k}"] * per
        for s in _SOLVERS:
            out[f"discrete.{s}.calls"] = calls[f"discrete.{s}"] * per
            out[f"discrete.{s}.self_s"] = self_s[f"discrete.{s}"] * per
        solves = sum(calls[f"discrete.{s}"] for s in _SOLVERS if s != "min_total_distortion")
        out["discrete.ba_calls_per_solve"] = ratio(sum(calls[f"kernels.{k}"] for k in _KERNELS), solves)
        out["discrete.polish_handoffs"] = c["discrete.polish_handoffs"] * per
        out["discrete.full_reruns"] = c["discrete.full_reruns"] * per
        out["discrete.polish_certified_ratio"] = 1.0 - ratio(
            c["discrete.full_reruns"], c["discrete.polish_handoffs"])
        out["discrete.convergence_warnings"] = convergence_warnings * per
        out["gaussian.calls"] = sum(calls[f"gaussian.{g}"] for g in _GAUSSIAN) * per
        out["gaussian.busy_s"] = sum(busy[f"gaussian.{g}"] for g in _GAUSSIAN) * per
        out["waveform.optimize_isac.iters"] = c["waveform.optimize_isac.iters"] * per
        out["waveform.optimize_isac.self_s"] = self_s["waveform.optimize_isac"] * per
        out["waveform.objective_evals_per_iter"] = ratio(
            c["waveform.objective_evals"], c["waveform.optimize_isac.iters"])
        out["waveform.optimize_sw.self_s"] = self_s["waveform.optimize_sw"] * per
        out["simulate.trials_per_s"] = ratio(c["simulate.plain_trials"], c["simulate.plain_s"])
        out["simulate.dump_trials_per_s"] = ratio(c["simulate.dump_trials"], c["simulate.dump_s"])
        out["simulate.dump_bytes"] = c["simulate.dump_bytes"] * per
        cli_ops = [(k, b) for k, is_cli, b in self._ops if is_cli]
        # time in an operation's span outside the solver entry points it called
        overhead = sum(self.spans[k][2] - self.spans[k][1] - child[k] for k, _ in cli_ops)
        out["cli.overhead_ms"] = 1e3 * ratio(overhead, len(cli_ops))
        out["cli.bytes_written"] = ratio(sum(b for _, b in cli_ops), len(cli_ops))
        return out

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

