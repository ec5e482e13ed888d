"""Run the benchmark in pairs on a parent and a change and write BENCH_<label>.json.

Usage:
    python scripts/bench_pairs.py --parent REV --change REV_OR_DIR --label LABEL \
        --note "what the change does" --workload isac-sweep [--workload rd-wide ...] \
        [--pairs 10] [--first-seed 2] [--seconds 20]

Each side runs from its own copy of the tree, made in a temporary
directory: a git revision through ``git archive``, a directory (such as an
uncommitted working tree) by copying the files git tracks or would track
there. Pair k of a workload runs ``casbench/run.py`` with seed
first_seed + k on both sides, one after the other, and the side that runs
first alternates from pair to pair. The file records the host, both
commits, each side's median and quartiles per end-to-end metric, how many
pairs the change read lower (ties count for neither), every pair's rows,
and one traced round per side at the first seed (``--trace 1``).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "op_p50_ms", "setup_s", "peak_rss_mb")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def copy_tree(source: str, target: str) -> str:
    """Copy a revision or a directory to ``target``; returns the commit to record."""
    os.makedirs(target)
    if os.path.isdir(source):
        files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                     cwd=source).split("\0")
        for name in filter(None, files):
            if os.path.isfile(os.path.join(source, name)):
                os.makedirs(os.path.dirname(os.path.join(target, name)), exist_ok=True)
                shutil.copy2(os.path.join(source, name), os.path.join(target, name))
        head = _git("rev-parse", "HEAD", cwd=source)
        return f"the tree that commits this file, on top of {head[:7]}"
    archive = subprocess.run(["git", "archive", source], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)
    return _git("rev-parse", source)


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0):
    """One benchmark run; returns (result JSON, names of the operations that failed)."""
    done = subprocess.run(
        [sys.executable, "casbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env={**os.environ, **ENV}, capture_output=True, text=True, check=True)
    failed = {line.split(" failed: ")[0] for line in done.stderr.splitlines()
              if " failed: " in line}
    return json.loads(done.stdout.strip().splitlines()[-1]), failed


def _summary(runs, seeds, failed_ops) -> dict:
    return {
        "runs": len(runs),
        "seeds": seeds,
        "correct_all": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed_ops": sorted(failed_ops),
        "metrics": {
            m: dict(zip(("median", "q1", "q3"), (
                round(float(v), 4) for v in np.percentile(
                    [r["metrics"][m]["value"] for r in runs], [50, 25, 75]))))
            for m in METRICS
        },
    }


def bench_workload(trees, workload, pairs, first_seed, seconds) -> dict:
    sides = ("parent", "change")
    runs = {s: [] for s in sides}
    failed_ops = {s: set() for s in sides}
    rows = []
    for k in range(pairs):
        seed = first_seed + k
        order = sides if k % 2 == 0 else sides[::-1]
        got = {}
        for side in order:
            got[side], failed = run_once(trees[side], workload, seed, seconds)
            runs[side].append(got[side])
            failed_ops[side] |= failed
            print(f"bench_pairs: {workload} seed {seed} {side}: "
                  f"wall_s {got[side]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        row = {"seed": seed, "first": order[0]}
        row.update({m: [round(got[s]["metrics"][m]["value"], 4) for s in sides] for m in METRICS})
        row.update({key: [got[s][key] for s in sides] for key in ("failed", "attempted")})
        rows.append(row)
    seeds = [first_seed + k for k in range(pairs)]
    out = {s: _summary(runs[s], seeds, failed_ops[s]) for s in sides}
    out["change_lower_in_pairs"] = {m: f"{sum(r[m][1] < r[m][0] for r in rows)}/{pairs}"
                                    for m in METRICS}
    out["pairs"] = rows
    return out


def traced(trees, workload, seed) -> dict:
    out = {"command": f"python3 casbench/run.py --workload {workload} --seed {seed} "
                      f"--seconds 1 --trace 1",
           "per_round": "counts and times are per round; failed and attempted are totals"}
    for side, tree in trees.items():
        result, _ = run_once(tree, workload, seed, 1.0, trace=1)
        out[side] = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        out[side].update(failed=result["failed"], attempted=result["attempted"])
    return out


def host(tree: str) -> dict:
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy, cas_limits; "
         "print(numpy.__version__, scipy.__version__, cas_limits.KERNEL_BACKEND)"],
        env={**os.environ, **ENV, "PYTHONPATH": os.path.join(tree, "src")},
        capture_output=True, text=True, check=True).stdout.split()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": versions[0], "scipy": versions[1], "kernel_backend": versions[2],
            "blas_threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision or directory of the change")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--note", required=True, help="one line on what the change does")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        commits = {side: copy_tree(src, trees[side])
                   for side, src in (("parent", args.parent), ("change", args.change))}
        payload = {
            "label": args.label,
            "change": args.note,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "host": host(trees["change"]),
            "command": "env " + " ".join(f"{k}={v}" for k, v in ENV.items()) +
                       f" python3 casbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g}",
            "method": "parent and change each ran from their own copy of the tree; sides "
                      "alternate which runs first from pair to pair; quartiles are numpy "
                      "percentiles 25/50/75; each pairs row gives [parent, change]",
            "workloads": {w: bench_workload(trees, w, args.pairs, args.first_seed, args.seconds)
                          for w in args.workload},
            "traced": {w: traced(trees, w, args.first_seed) for w in args.workload},
        }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"bench_pairs: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
