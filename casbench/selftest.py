"""Self-test of the benchmark's checks: `python3 casbench/run.py --self-test`.

Runs one round of every workload on small inputs and requires every output
to pass its check. Then, for every check, it perturbs one output the way a
wrong answer would look and requires that check to reject it.
"""

from __future__ import annotations

import os
import shutil
import time
from functools import partial

import numpy as np

import workloads


def _only(target, perturb, name, result, results):
    if name == target:
        perturb(result, results)


def _set(key, value_fn):
    def perturb(result, _results):
        result[key] = value_fn(result)
    return perturb


def _point(key, delta):
    def perturb(result, _results):
        result["point"][key] += delta
    return perturb


def _row(scheme, index, **changes):
    def perturb(result, _results):
        rows = [r for r in result["rows"] if r["scheme"] == scheme]
        for key, change in changes.items():
            rows[index][key] = change(rows[index])
    return perturb


def _not_convex(result, results):
    d0, d2 = results["inv-a-0"]["d_c"], result["d_c"]
    results["inv-a-1"]["d_c"] = d0 - 0.1 * (d0 - d2)


def _drop_dump_row(result, _results):
    header, rows, means = result["dump"]
    result["dump"] = (header, rows - 1, means)


def _shift_dump_mean(result, _results):
    header, rows, means = result["dump"]
    result["dump"] = (header, rows, means + 1e-3 * (np.arange(means.size) == 0))


def _scale_matrix(key, factor):
    def perturb(result, _results):
        result[key] = (np.asarray(result[key]) * factor).tolist()
    return perturb


# (check tag expected to fire, operation, perturbation of its result)
PERTURBATIONS = {
    "tradeoff-small": [
        ("exit", "tradeoff-b0", _set("rc", lambda r: 3)),
        ("tradeoff.sum", "tradeoff-b0", _set("d_total", lambda r: r["d_total"] + 1e-3)),
        ("tradeoff.d_s", "tradeoff-b0", _set("d_s", lambda r: r["d_s"] + 1.0)),
        ("tradeoff.budget", "tradeoff-b0", _set("budget", lambda r: r["budget"] + 1.0)),
        ("tradeoff.rate", "tradeoff-b0", _set("rate", lambda r: r["capacity"] + 0.1)),
        ("tradeoff.brute_force", "tradeoff-b0",
         lambda r, _: r.update(d_c=r["d_c"] + 0.01, d_total=r["d_total"] + 0.01)),
        ("capacity.simplex", "capacity-g0-interior",
         _set("input_distribution", lambda r: [r["input_distribution"][0] + 0.1]
              + r["input_distribution"][1:])),
        ("capacity.mi", "capacity-g0-interior", _set("capacity", lambda r: r["capacity"] + 1e-3)),
        # all mass on the input the optimum avoids, which costs more than the budget allows
        ("capacity.constraint", "capacity-g0-vertex-budget",
         _set("input_distribution", lambda r: np.eye(len(r["input_distribution"]))[
             int(np.argmin(r["input_distribution"]))].tolist())),
        ("capacity.dual", "capacity-g0-interior", _set("capacity", lambda r: r["capacity"] - 1e-3)),
        ("capacity.closed_form", "capacity-s0", _set("capacity", lambda r: r["capacity"] - 1e-3)),
    ],
    "rd-wide": [
        ("exit", "rd-a-low", _set("rc", lambda r: 2)),
        ("rd.channel", "rd-a-low", _set("test_channel", lambda r: [
            [0.5 * v for v in r["test_channel"][0]]] + r["test_channel"][1:])),
        ("rd.distortion", "rd-a-low", _set("test_channel", lambda r: [
            [1.0] + [0.0] * (len(row) - 1) for row in r["test_channel"]])),
        ("rd.rate", "rd-a-low", _set("rate", lambda r: r["rate"] + 1e-3)),
        ("rd.dual", "rd-a-low", _set("rate", lambda r: r["rate"] - 1e-3)),
        ("rd.hamming", "rd-hamming16", _set("rate", lambda r: r["rate"] + 1e-6)),
        ("inverse.range", "inv-a-0", _set("d_c", lambda r: -1.0)),
        ("inverse.hamming", "inv-hamming16-0", _set("d_c", lambda r: r["d_c"] + 1e-6)),
        ("inverse.monotone", "inv-a-2",
         lambda r, results: r.update(d_c=results["inv-a-0"]["d_c"] + 0.01)),
        ("inverse.convex", "inv-a-2", _not_convex),
    ],
    "isac-sweep": [
        ("exit", "snr-sweep", _set("rc", lambda r: 3)),
        ("isac.gram", "trm-optimize-0-n4", _scale_matrix("q_star", 2.0)),
        ("isac.recompute", "trm-optimize-0-n4", _point("d_s", 1e-3)),
        ("isac.start", "trm-optimize-0-n4", _point("d_total", 100.0)),
        ("sw.gram", "trm-sw-0-n4", _scale_matrix("q_sensing", -1.0)),
        ("sw.recompute", "trm-sw-0-n4", _point("d_c", 1e-3)),
        ("sw.grid", "trm-sw-0-n4", _point("d_total", 1e-3)),
        ("sweep.rows", "snr-sweep", _set("rows", lambda r: r["rows"][:-1])),
        ("sweep.sum", "snr-sweep", _row("isac", 0, d_total=lambda row: row["d_total"] + 1e-3)),
        ("sweep.trace", "snr-sweep", _row("sw", 0, trace_used=lambda row: 10 * row["trace_used"])),
        ("sweep.start", "snr-sweep", _row("isac", 0, d_s=lambda row: row["d_s"] + 100.0,
                                          d_total=lambda row: row["d_total"] + 100.0)),
        ("sweep.sw", "snr-sweep", _row("sw", 0, d_s=lambda row: row["d_s"] + 1e-3,
                                      d_total=lambda row: row["d_total"] + 1e-3)),
        ("sweep.crossover", "snr-sweep", _row("isac", -1, d_total=lambda row: -1.0)),
    ],
    "monte-carlo": [
        ("exit", "sim-e2e-mi", _set("rc", lambda r: 4)),
        ("simulate.trials", "sim-e2e-mi", _set("n_trials", lambda r: r["n_trials"] + 1)),
        ("simulate.analytic", "sim-e2e-mi", _set("d_s_analytic", lambda r: r["d_s_analytic"] + 1e-3)),
        ("simulate.estimate", "sim-e2e-mi", _set("d_s_emp", lambda r: r["d_s_emp"] + 10 * r["d_s_se"])),
        ("simulate.cross", "sim-e2e-mi",
         _set("cross_mean", lambda r: r["cross_mean"] + 10 * r["cross_se"])),
        ("simulate.dump_rows", "sim-e2e-dump", _drop_dump_row),
        ("simulate.dump_mean", "sim-e2e-dump", _shift_dump_mean),
    ],
}


def main(here: str, run_op, check_round) -> int:
    """Run the self-test with the benchmark's own operation runner and round check."""
    failures = 0
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(here, "_work", f"selftest-{workload}-{os.getpid()}")
        try:
            t0 = time.perf_counter()
            ops = workloads.build(workload, 1, workdir, small=True)
            outcomes = [run_op(op, None) for op in ops]
            for name, found in check_round(ops, outcomes).items():
                if found:
                    failures += 1
                    print(f"FAIL {workload}: {name} fails on unperturbed output: {'; '.join(found)}")
            print(f"{workload}: {len(ops)} operations, one round in {time.perf_counter() - t0:.1f} s")
            order = [op.name for op in ops]
            for tag, name, perturb in PERTURBATIONS[workload]:
                # the round up to and including `name`, checked as a timed round is
                upto = order.index(name) + 1
                problems = check_round(ops[:upto], outcomes[:upto], partial(_only, name, perturb))[name]
                fired = any(p.startswith(tag + ":") for p in problems)
                failures += not fired
                print(f"  {'rejected' if fired else 'NOT REJECTED'}: {tag} on {name}"
                      + ("" if fired else f" (problems: {problems})"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    # the known-fault exemption covers that one check of that one operation
    for problems, exempt in ((["tradeoff.brute_force: off"], True),
                             (["tradeoff.brute_force: off", "tradeoff.sum: off"], False),
                             (["raised: ValueError"], False), ([], False)):
        fired = workloads.known_fault("tradeoff-b3", problems) == exempt
        failures += not fired
        print(f"  {'ok' if fired else 'WRONG'}: known fault {problems} exempt = {exempt}")
    print("self-test passed" if not failures else f"self-test: {failures} failure(s)")
    return 1 if failures else 0
