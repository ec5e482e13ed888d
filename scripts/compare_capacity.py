"""Compare constrained capacities between two source trees on fixed-seed random problems.

Usage: python scripts/compare_capacity.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository. The problems are 100 random
2-8-input finite models (``default_rng(2024)``): every fifth has a constant
estimate cost, and every fifth other one two inputs of equal (e, b). Each
gets six limit pairs: met by a random input law, d_s at the least estimate
cost, the budget at the least cost, one limit met by a random law with the
other between it and the least, the other way round, and the medians of e
and b. Then 20 16-input and 20 32-input models with limits met by a random
input law; last, one 8-input model per seed 0-399 (``default_rng(seed)``),
its limits met by a random input law.

Each tree solves them in its own subprocess. The script prints the answers
either tree warned on, the largest capacity difference where the old tree
certified, the largest constraint excess of the new tree, the range of
each tree's linear-program dual bound (from ``tests/test_discrete.py``)
less its capacity, and each tree's median and worst solve time by input
count; the bound is computed outside the timed call.
"""

import json
import subprocess
import sys

SOLVE = r"""
import json, sys, time, warnings
import numpy as np
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]
from helpers import random_finite_model, random_rows
from test_discrete import _capacity_dual_bound
from cas_limits import FiniteCasModel, constrained_capacity, estimate_costs

def problems():
    rng = np.random.default_rng(2024)
    for k in range(100):
        n_x = 2 + k % 7
        model = random_finite_model(rng, n_x=n_x)
        if k % 5 == 3:   # sensing that ignores the input: e is constant
            model = FiniteCasModel(model.state_prior, np.broadcast_to(model.sensing_law[:1],
                                   model.sensing_law.shape), model.comm_law, model.distortion,
                                   model.cost)
        if k % 5 == 4:   # the last input copies the sensing law and cost of the first
            sensing, cost = model.sensing_law.copy(), model.cost.copy()
            sensing[-1], cost[-1] = sensing[0], cost[0]
            model = FiniteCasModel(model.state_prior, sensing, model.comm_law,
                                   model.distortion, cost)
        e, b = estimate_costs(model), model.cost
        law = random_rows(rng, (n_x,))
        yield model, float(law @ e), float(law @ b)
        i, j = int(e.argmin()), int(b.argmin())
        yield model, float(e[i]), float(b[i] + rng.uniform() * (b.max() - b[i]))
        yield model, float(e[j] + rng.uniform() * (e.max() - e[j])), float(b[j])
        law = random_rows(rng, (n_x,))
        yield model, float(law @ e), float(b.min() + rng.uniform() * (law @ b - b.min()))
        yield model, float(e.min() + rng.uniform() * (law @ e - e.min())), float(law @ b)
        yield model, float(np.median(e)), float(np.median(b))
    for n_x in (16, 32):
        for _ in range(20):
            model = random_finite_model(rng, n_x=n_x, n_y=3)
            law = random_rows(rng, (n_x,))
            yield model, float(law @ estimate_costs(model)), float(law @ model.cost)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        model = random_finite_model(rng, n_x=8, n_y=3)
        law = random_rows(rng, (8,))
        yield model, float(law @ estimate_costs(model)), float(law @ model.cost)

out = []
for model, d_s, budget in problems():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            cap, px = constrained_capacity(model, d_s, budget)
        except Exception as exc:
            out.append({"n": model.cost.size, "error": type(exc).__name__})
            continue
        elapsed = time.perf_counter() - start
    rows = np.vstack([estimate_costs(model), model.cost])
    excess = float((rows @ px.probs - [d_s, budget]).max())
    bound = _capacity_dual_bound(model.comm_law, px.probs, rows, np.array([d_s, budget]))
    out.append({"n": model.cost.size, "cap": cap, "warned": bool(record), "excess": excess,
                "bound": bound, "ms": 1e3 * elapsed})
json.dump(out, sys.stdout)
"""


def solve(tree):
    done = subprocess.run([sys.executable, "-c", SOLVE, tree], check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main():
    old, new = (solve(tree) for tree in sys.argv[1:3])
    both = [(a, b) for a, b in zip(old, new) if "cap" in a and "cap" in b]
    certified = [(a, b) for a, b in both if not a["warned"]]
    print(f"{len(old)} problems, {len(both)} feasible at both, {len(certified)} certified by OLD")
    print("errors differ:", sum(("error" in a) != ("error" in b) for a, b in zip(old, new)))
    for label, col in (("OLD", 0), ("NEW", 1)):
        warned = [(i, a["cap"], b["cap"]) for i, (a, b) in enumerate(zip(old, new))
                  if (a, b)[col].get("warned")]
        print(f"warnings in {label}: {len(warned)}")
        for i, cap_old, cap_new in warned:
            print(f"  problem {i}: OLD {cap_old:.6f}, NEW {cap_new:.6f}")
    print(f"max |cap difference| where OLD certified: "
          f"{max(abs(a['cap'] - b['cap']) for a, b in certified):.3e}")
    print(f"max constraint excess in NEW: {max(b['excess'] for _, b in both):.3e}")
    for label, col in (("OLD", 0), ("NEW", 1)):
        # a shortfall below 0 is the linear program's own error: the bound cannot lie below C
        shortfall = [pair[col]["bound"] - pair[col]["cap"] for pair in both]
        print(f"LP dual bound - cap in {label}: from {min(shortfall):.3e} to {max(shortfall):.3e}")
    for n in sorted({a["n"] for a, _ in both}):
        ms = [(a["ms"], b["ms"]) for a, b in both if a["n"] == n]
        for label, col in (("OLD", 0), ("NEW", 1)):
            times = sorted(m[col] for m in ms)
            print(f"n={n} {label}: median {times[len(times) // 2]:.2f} ms, worst {times[-1]:.2f} ms")


if __name__ == "__main__":
    main()
