"""Benchmark of the seven `cas-cli` modes, one workload per process.

    python3 casbench/run.py --workload tradeoff-small --seed 1 --seconds 20 --trace 0
    python3 casbench/run.py --self-test

A run sets up its workload several times (a fresh `import cas_limits` in a
child process, then writing every input from the seed) and reports the
median set-up time. It then repeats rounds, each one pass over the
workload's operations, until `--seconds` of rounds have been timed. After
each round every output is checked against the independent oracles in
`oracles.py`; an operation fails if it raises, exits non-zero, emits a
ConvergenceWarning or fails its check. Any failure makes `correct` false,
except the known fault of the program in `workloads.KNOWN_FAULTS`. The last
line of standard output is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics of `tracer.py` with `--trace 1`.

The program runs from the source tree (`src/`), with no build step, and
OpenBLAS and OpenMP are pinned to one thread before NumPy loads: at 64
letters the default second BLAS thread burned 35-65% more CPU time than
wall time and saved no wall time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
SETUP_REPEATS = 3
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import cas_limits; "
    "print(time.perf_counter() - t)"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_seconds() -> float:
    """Time `import cas_limits` in a fresh interpreter, as a user's first call pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=_child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times; returns (median seconds, operations of the last set-up)."""
    import workloads

    samples, ops = [], None
    for k in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{k}")
        seconds = _import_seconds()
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, target)
        samples.append(seconds + time.perf_counter() - t0)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return statistics.median(samples), ops


def run_op(op, tracer):
    """Run one operation; returns (seconds, raw output or None, error text or None, warnings)."""
    from cas_limits import ConvergenceWarning

    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(sink):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            raw = tracer.op(op.name, op.run) if tracer else op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    convergence = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
    if tracer:
        written = sum(os.path.getsize(p) for p in op.artifacts if os.path.exists(p))
        tracer.op_done(op.cli, written)
    return seconds, raw, error, convergence


def check_round(ops, outcomes, perturb=None):
    """Check one round's outputs; returns, per operation, the problems that make it fail.

    Each check sees the results of the operations before it in the round.
    `perturb(name, result, results)`, if given, alters a loaded result before
    its check; the self-test uses it to show that the checks reject wrong
    outputs on this same path.
    """
    results, verdicts = {}, {}
    for op, (_seconds, raw, error, convergence) in zip(ops, outcomes):
        found = [f"warning: {w.message}" for w in convergence]
        if error:
            found.append(f"raised: {error}")
        else:
            try:
                result = op.load(raw)
                if perturb:
                    perturb(op.name, result, results)
                found += op.check(result, results)
                results[op.name] = result
            except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
                found.append(f"unreadable output: {type(exc).__name__}: {exc}")
        verdicts[op.name] = found
    return verdicts


def measure(workload, seed, seconds, trace, workdir):
    import cas_limits
    import workloads

    setup_s, ops = set_up(workload, seed, workdir)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rounds, latencies = [], []
    attempted = failed = warned = 0
    correct = True
    try:
        while not rounds or sum(rounds) < seconds:
            t0 = time.perf_counter()
            outcomes = [run_op(op, tracer) for op in ops]
            rounds.append(time.perf_counter() - t0)
            latencies += [o[0] for o in outcomes]
            attempted += len(ops)
            warned += sum(len(o[3]) for o in outcomes)
            for name, found in check_round(ops, outcomes).items():
                if found:
                    failed += 1
                    correct = correct and workloads.known_fault(name, found)
                    print(f"casbench: {name} failed: {'; '.join(found)}", file=sys.stderr)
    finally:
        if tracer:
            tracer.remove()
    print(f"casbench: workload={workload} seed={seed} backend={cas_limits.KERNEL_BACKEND} "
          f"rounds={len(rounds)} ops_per_round={len(ops)} round_s={[round(r, 4) for r in rounds]}")
    if tracer:
        from tracer import METRICS

        values = tracer.metrics(len(rounds), warned)
        tracer.write(os.path.join(HERE, "_traces", f"{workload}-{seed}.jsonl"),
                     {"workload": workload, "seed": seed, "backend": cas_limits.KERNEL_BACKEND,
                      "rounds": len(rounds), "wall_s": statistics.median(rounds)})
        print(f"casbench: traced wall_s={statistics.median(rounds):.6f}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload on small inputs and show that each check "
                             "rejects a perturbed output")
    args = parser.parse_args(argv)
    try:
        import cas_limits
    except ImportError as exc:
        print(f"casbench: cannot import cas_limits from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cas_limits.__file__).startswith(SRC + os.sep):
        print(f"casbench: cas_limits came from {cas_limits.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.self_test:
        import selftest

        return selftest.main(HERE, run_op, check_round)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
