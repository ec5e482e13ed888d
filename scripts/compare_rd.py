"""Compare R(D) solves and inverses between two source trees on fixed-seed random sources.

Usage: python scripts/compare_rd.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository. The sources are 40 panel
sources (zero-diagonal distortion in [0.1, 1), letter count 2 + 62·k // 39
for seed k in 0-39, so 2-64 letters) and 300 sources with arbitrary
distortion in [0, 1) (``default_rng(seed)`` for seeds 0-299: 2-12 letters,
masses gamma(0.5) + 1e-4, normalised). Each source gets one
``rate_distortion_discrete`` at d_c = d_min + u·(d_zero − d_min) and one
``rate_distortion_inverse`` at a rate of v·R(d_min), u in [0.01, 0.99) and
v in [0.05, 0.95) drawn from the same generator.

Each tree solves them in its own subprocess and records every certified
R(D) point of every search, and whether a Newton polish ran for it. The
script prints how many final answers are bit-identical, how many searches
visit different slopes, how many points that Blahut-Arimoto certified
alone differ in any bit, and the largest differences in rate, distortion,
test-channel entry and tangent over the points that a polish finished.
"""

import json
import subprocess
import sys

import numpy as np

SOLVE = r"""
import json, sys, warnings
import numpy as np
sys.path[:0] = [sys.argv[1] + "/src"]
from cas_limits import discrete

points, polished = [], [0]
rd_point, newton = discrete._rd_point, discrete._simplex_newton

def counted_newton(*args):
    polished[0] += 1
    return newton(*args)

def counted_point(source, distortion, beta):
    polished[0] = 0
    pt = rd_point(source, distortion, beta)
    points.append([pt.beta, pt.cond.tolist(), pt.rate, pt.dist, pt.lower, polished[0]])
    return pt

discrete._rd_point, discrete._simplex_newton = counted_point, counted_newton

def sources():
    for seed in range(40):
        m = 2 + (62 * seed) // 39
        rng = np.random.default_rng(seed)
        src = rng.random(m) + 0.05
        dist = rng.uniform(0.1, 1.0, (m, m))
        np.fill_diagonal(dist, 0.0)
        yield src / src.sum(), dist, np.random.default_rng(1000 + seed)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        src = rng.gamma(0.5, 1.0, m) + 1e-4
        yield src / src.sum(), rng.uniform(0.0, 1.0, (m, m)), rng

out = []
for src, dist, rng in sources():
    lo, hi = discrete._rd_ends(src, dist)
    d_c = hi.dist + rng.uniform(0.01, 0.99) * (lo.dist - hi.dist)
    target = rng.uniform(0.05, 0.95) * hi.rate
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        del points[:]
        rate, cond = discrete.rate_distortion_discrete(src, dist, d_c)
        d_inv, _ = discrete.rate_distortion_inverse(src, dist, target)
    out.append({"rate": rate, "cond": cond.tolist(), "d_inv": d_inv, "points": list(points),
                "warned": len(record)})
json.dump(out, sys.stdout)
"""


def solve(tree):
    done = subprocess.run([sys.executable, "-c", SOLVE, tree], check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main():
    old, new = (solve(tree) for tree in sys.argv[1:3])
    same = sum(a["rate"] == b["rate"] and a["cond"] == b["cond"] and a["d_inv"] == b["d_inv"]
               for a, b in zip(old, new))
    print(f"{len(old)} sources, final answers bit-identical on {same}")
    print(f"warned: OLD {sum(a['warned'] > 0 for a in old)}, NEW {sum(b['warned'] > 0 for b in new)}")
    print("searches visiting different slopes:",
          sum([p[0] for p in a["points"]] != [p[0] for p in b["points"]] for a, b in zip(old, new)))
    pairs = [(p, q) for a, b in zip(old, new) for p, q in zip(a["points"], b["points"])]
    polished = [(p, q) for p, q in pairs if p[5] or q[5]]
    alone = [(p, q) for p, q in pairs if not (p[5] or q[5])]
    print(f"{len(pairs)} points, {len(polished)} polished; "
          f"unpolished points differing in any bit: {sum(p[:5] != q[:5] for p, q in alone)}")
    if polished:
        worst = {name: max(abs(p[k] - q[k]) for p, q in polished if np.isfinite(p[k] - q[k]))
                 for name, k in (("rate", 2), ("dist", 3), ("tangent", 4))}
        worst["channel"] = max(float(np.abs(np.subtract(p[1], q[1])).max()) for p, q in polished)
        print("polished points, largest |NEW - OLD|:",
              ", ".join(f"{name} {value:.2e}" for name, value in worst.items()))


if __name__ == "__main__":
    main()
