"""Run a fixed set of cas-cli configs on a parent and a change and compare the artifacts.

Usage: python scripts/compare_artifacts.py --parent REV [--change REV_OR_DIR]

Each side runs from its own copy of the tree, made as ``bench_pairs.copy_tree``
makes it (``--change`` defaults to the working tree of this checkout), with
``cas_limits`` imported from that copy's ``src``. The configs cover all seven
modes:
- the configs of the CI job: a 2-letter and a 64-letter ``discrete-rd``, a
  ``discrete-capacity`` whose budget binds, a 601-split ``trm-sw`` and the
  ``trm-optimize`` runs;
- a ``discrete-tradeoff`` on the CI capacity model;
- ``trm-optimize`` at model seeds 0-9 with {"n": 4, "m_s": 2, "m_c": 2, "t": 8};
- an ``snr-sweep`` at nine SNRs, -10 to 30 dB in 5 dB steps;
- a ``simulate`` of the ISAC-optimal waveform, and one of the uniform waveform
  that also dumps its trials.

For every artifact the script prints both SHA-256 digests (first 16 hex
digits). Where they differ it prints, per field, the largest absolute
difference of the numbers in it, and every change in ``stop``,
``iterations`` or ``converged``, with the path of the value.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np

from bench_pairs import ENV, copy_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMALL = {"n": 4, "m_s": 2, "m_c": 2, "t": 8}
FLIP_KEYS = ("stop", "iterations", "converged")

# the capacity model of the CI job: a BSC(0.1) channel, input 0 the better sensor
CI_MODEL = {
    "state_prior": [0.5, 0.5],
    "sensing_law": [[[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.4, 0.6]]],
    "comm_law": [[0.9, 0.1], [0.1, 0.9]],
    "distortion": [[0, 1], [1, 0]],
    "cost": [1, 0],
}


def _rd64() -> dict:
    """The CI job's 64-letter source (the recipe of the wide R(D) test)."""
    r = np.random.default_rng(4)
    a = r.gamma(1.0, 1.0, 64) + 1e-3
    s = a / a.sum()
    d = r.uniform(0.1, 1.0, (64, 64))
    np.fill_diagonal(d, 0.0)
    return {"mode": "discrete-rd", "source": s.tolist(), "distortion": d.tolist(),
            "d_c": 0.5 * float((s @ d).min())}


def configs() -> dict:
    """Config name -> cas-cli config; ``model.json`` in the run directory holds CI_MODEL."""
    out = {
        "discrete-rd": {"mode": "discrete-rd", "source": [0.5, 0.5],
                        "distortion": [[0, 1], [1, 0]], "d_c": 0.11},
        "discrete-rd64": _rd64(),
        "discrete-capacity": {"mode": "discrete-capacity", "model": "model.json",
                              "d_s": 1.0, "budget": 0.2},
        "discrete-tradeoff": {"mode": "discrete-tradeoff", "model": "model.json",
                              "budget": 0.5, "grid": 0.01},
        "trm-sw": {"mode": "trm-sw", "model": {"seed": 2, **SMALL}, "split_grid": 601},
    }
    for seed in range(10):
        out[f"trm-optimize-{seed}"] = {"mode": "trm-optimize", "model": {"seed": seed, **SMALL}}
    out["snr-sweep"] = {"mode": "snr-sweep", "model": {"seed": 0, **SMALL},
                        "snr_db": [-10.0 + 5.0 * k for k in range(9)]}
    out["simulate-isac"] = {"mode": "simulate", "model": {"seed": 1, **SMALL},
                            "waveform": "isac-optimal", "trials": 4000, "seed": 7}
    out["simulate-dump"] = {"mode": "simulate", "model": {"seed": 1, **SMALL},
                            "trials": 2000, "seed": 7, "dump_trials": "trials.csv"}
    return out


def run_config(tree: str, run_dir: str, config: dict) -> list[str]:
    """Run one config with the tree's package; returns the artifact paths it wrote."""
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "model.json"), "w") as fh:
        json.dump(CI_MODEL, fh)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(config, fh)
    done = subprocess.run(
        [sys.executable, "-m", "cas_limits.cli", "--config", "config.json"], cwd=run_dir,
        env={**os.environ, **ENV, "PYTHONPATH": os.path.join(tree, "src")},
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {config['mode']} exited {done.returncode}: {done.stderr}")
    return [line[len("wrote "):] for line in done.stdout.splitlines() if line.startswith("wrote ")]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def load(path: str):
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    with open(path) as fh:
        return json.load(fh)


def _label(i: int, item) -> str:
    """A sweep row is named by its SNR and scheme, anything else by its index."""
    if isinstance(item, dict) and "snr_db" in item and "scheme" in item:
        return f"{item['snr_db']:g} dB {item['scheme']}"
    return str(i)


def leaves(value, path=""):
    """(path, leaf) pairs; list indices appear as [label]."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{_label(i, item)}]")
    else:
        yield path, value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def differences(old, new) -> tuple[dict, list, list]:
    """Largest absolute difference per field, flips of FLIP_KEYS, and other mismatches."""
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    largest, flips, other = {}, [], []
    for path in sorted(old_leaves.keys() | new_leaves.keys()):
        a, b = old_leaves.get(path), new_leaves.get(path)
        key = path.rsplit(".", 1)[-1]
        if key in FLIP_KEYS and a != b:
            flips.append(f"{path}: {a!r} -> {b!r}")
        elif _is_number(a) and _is_number(b):
            if not (math.isnan(a) and math.isnan(b)):
                field = re.sub(r"\[[^]]*\]", "[]", path)
                largest[field] = max(largest.get(field, 0.0), abs(b - a))
        elif a != b:
            other.append(f"{path}: {a!r} -> {b!r}")
    return {k: v for k, v in largest.items() if v != 0.0}, flips, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=ROOT, help="git revision or directory of the change")
    args = parser.parse_args(argv)
    same = total = 0
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        for side, source in (("parent", args.parent), ("change", args.change)):
            print(f"{side}: {copy_tree(source, trees[side])}")
        for name, config in configs().items():
            written = {side: run_config(tree, os.path.join(scratch, "runs", side, name), config)
                       for side, tree in trees.items()}
            for old, new in zip(written["parent"], written["change"]):
                total += 1
                digests = sha256(old), sha256(new)
                artifact = f"{name}/{os.path.basename(new)}"
                if digests[0] == digests[1]:
                    same += 1
                    print(f"{artifact:42s} {digests[0][:16]} identical")
                    continue
                print(f"{artifact:42s} {digests[0][:16]} -> {digests[1][:16]} DIFFERS")
                largest, flips, other = differences(load(old), load(new))
                for field, diff in sorted(largest.items()):
                    print(f"    max |diff| {diff:.3e}  {field}")
                for line in flips + other:
                    print(f"    {line}")
    print(f"{same} of {total} artifacts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
