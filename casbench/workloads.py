"""Inputs, operations and output checks of the four benchmark workloads.

`build(workload, seed, workdir)` writes every input file the program reads
and returns the operations of one round. An operation is one in-process
`cas_limits.cli.main([...])` call on a generated config, or, for
`rate_distortion_inverse`, which has no CLI mode, one library call on arrays
read from a generated file.

Why fixed panels. The solvers' cost depends sharply on the model: on 30
random 2-3-letter models, `min_total_distortion` took 3.5 ms to 9.2 s, and a
64-letter `rate_distortion_discrete` call takes 2-8 s depending on the
source. A seed that drew fresh models would mostly measure which models it
drew. So the costly operations run on fixed panels, drawn once from
`PANEL_SEED` and not filtered, and the seed relabels every alphabet (for the
Gaussian models: permutes and rephases the transmit antennas and rotates
the receiver). A relabelled model is the same problem, so the solvers do the
same work on it, while the program still reads different files for each
seed. The operations whose cost does not depend on the model (Hamming
sources, the Monte Carlo runs) draw fresh inputs from the seed.

Each check returns a list of problems, each prefixed by the name of the
check that found it; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import cas_limits.cli
import cas_limits.discrete
import numpy as np

import oracles

PANEL_SEED = 2404_08188
GENERAL = 8
# (operation, check tag) pairs that fail on every run because of a fault in
# the program. An operation whose every problem is one of these counts in
# `failed` but not against `correct`; any other problem makes `correct` false.
KNOWN_FAULTS = {
    ("tradeoff-b3", "tradeoff.brute_force"):
        "min_total_distortion keeps only capacity-achieving input laws and "
        "misses the optimum over input laws by 8.3e-3",
}


def known_fault(name: str, problems: list) -> bool:
    """True if every problem of operation `name` is a known fault of the program."""
    return bool(problems) and all(
        (name, problem.split(":", 1)[0]) in KNOWN_FAULTS for problem in problems)
WORKLOADS = ("tradeoff-small", "rd-wide", "isac-sweep", "monte-carlo")


@dataclass
class Op:
    """One timed operation and the untimed check of its output.

    ``run()`` is the timed call. ``load(raw)`` turns its return value into
    the result that ``check(result, results)`` judges; ``results`` holds the
    results of the operations before it in the round, for checks that span
    several operations. ``make_check()`` builds the check, with its
    reference values, on first use, so that oracle work stays out of the
    timed set-up. ``artifacts`` are the files a CLI call writes.
    """

    name: str
    run: Callable[[], object]
    load: Callable[[object], dict]
    make_check: Callable[[], Callable[[dict, dict], list]]
    artifacts: list = field(default_factory=list)
    cli: bool = True
    _check: Callable | None = None

    def check(self, result: dict, results: dict) -> list:
        if self._check is None:
            self._check = self.make_check()
        return self._check(result, results)


# ------------------------------------------------------------------ helpers


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pairs(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_pairs(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _rows(rng, shape):
    a = rng.gamma(1.0, 1.0, shape) + 1e-3
    return a / a.sum(axis=-1, keepdims=True)


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class _Cli:
    """Builds CLI operations whose configs live in one work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")

    def op(self, name, config, make_check, outputs=None, load=None) -> Op:
        outputs = outputs or {"output": f"{name}.json"}
        config = dict(config, out_dir="out", **outputs)
        path = os.path.join(self.workdir, f"{name}.config.json")
        _write_json(path, config)
        artifacts = [os.path.join(self.out, f) for f in outputs.values()]
        argv = ["--config", path]

        def run():
            return cas_limits.cli.main(argv)

        def default_load(rc):
            return {"rc": rc, **_read_json(artifacts[0])}

        return Op(name, run, load or default_load, make_check, artifacts)


def _rc_problems(result) -> list:
    return [] if result.get("rc") == 0 else [f"exit: cas-cli returned {result.get('rc')}"]


# ---------------------------------------------------------- tradeoff-small


def _finite_model(rng, n_s, n_x, n_z, n_y):
    d = rng.uniform(0.2, 1.0, (n_s, n_s))
    np.fill_diagonal(d, 0.0)
    return {
        "state_prior": _rows(rng, (n_s,)),
        "sensing_law": _rows(rng, (n_x, n_s, n_z)),
        "comm_law": _rows(rng, (n_x, n_y)),
        "distortion": d,
        "cost": rng.uniform(0.0, 1.0, n_x),
    }


def _symmetric_model(rng, n_s, n_x, eps):
    model = _finite_model(rng, n_s, n_x, 2, n_x)
    w = np.full((n_x, n_x), eps / (n_x - 1))
    np.fill_diagonal(w, 1.0 - eps)
    model["comm_law"] = w
    return model


def _relabel_finite(model, rng):
    """The same model with every alphabet permuted."""
    n_x, n_s, n_z = np.shape(model["sensing_law"])
    n_y = np.shape(model["comm_law"])[1]
    ps, px, pz, py = (rng.permutation(k) for k in (n_s, n_x, n_z, n_y))
    out = {
        "state_prior": np.asarray(model["state_prior"])[ps],
        "sensing_law": np.asarray(model["sensing_law"])[px][:, ps][:, :, pz],
        "comm_law": np.asarray(model["comm_law"])[px][:, py],
        "distortion": np.asarray(model["distortion"])[ps][:, ps],
        "cost": np.asarray(model["cost"])[px],
    }
    return {k: np.asarray(v).tolist() for k, v in out.items()}


def _capacity_check(model, d_s, budget):
    w = np.asarray(model["comm_law"])
    e = oracles.estimate_costs(model["state_prior"], model["sensing_law"], model["distortion"])
    b = np.asarray(model["cost"])
    closed = oracles.symmetric_capacity(w)
    uniform = np.full(w.shape[0], 1.0 / w.shape[0])
    slack = uniform @ e < d_s - 1e-9 and uniform @ b < budget - 1e-9

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        p = np.asarray(result["input_distribution"], dtype=np.float64)
        c = float(result["capacity"])
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
            return [f"capacity.simplex: input law {p.tolist()} is not a distribution"]
        p = np.maximum(p, 0.0)
        mi = oracles.mutual_information(p, w)
        if not _close(c, mi, 1e-9):
            problems.append(f"capacity.mi: reported {c:.12g}, I(p) {mi:.12g}")
        for name, cost, limit in (("d_s", e, d_s), ("budget", b, budget)):
            if p @ cost > limit + 1e-8 + 1e-12:
                problems.append(f"capacity.constraint: E[{name}] {p @ cost:.12g} > {limit:.12g}")
        # bound the problem p actually solves: its constraints as p meets them
        upper = oracles.capacity_dual_bound(w, p, [(e, max(d_s, p @ e)), (b, max(budget, p @ b))])
        if upper - c > 1e-6 or c - upper > 1e-9:
            problems.append(f"capacity.dual: reported {c:.12g}, dual upper bound {upper:.12g}")
        if closed is not None and slack and not _close(c, closed, 1e-9):
            problems.append(f"capacity.closed_form: reported {c:.12g}, symmetric channel {closed:.12g}")
        return problems

    return check


def _tradeoff_check(model, budget):
    e = oracles.estimate_costs(model["state_prior"], model["sensing_law"], model["distortion"])
    best = oracles.tradeoff_brute_force(model["state_prior"], model["sensing_law"],
                                        model["comm_law"], model["distortion"], model["cost"], budget)

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        d_s, d_c, total = (float(result[k]) for k in ("d_s", "d_c", "d_total"))
        if not _close(total, d_s + d_c, 1e-12):
            problems.append(f"tradeoff.sum: d_total {total:.12g} != d_s + d_c {d_s + d_c:.12g}")
        if not (e.min() - 1e-9 <= d_s <= e.max() + 1e-9):
            problems.append(f"tradeoff.d_s: {d_s:.12g} outside [{e.min():.12g}, {e.max():.12g}]")
        if float(result["budget"]) > budget + 1e-8:
            problems.append(f"tradeoff.budget: spent {result['budget']:.12g} > {budget:.12g}")
        if not (-1e-12 <= float(result["rate"]) <= float(result["capacity"]) + 1e-12):
            problems.append(f"tradeoff.rate: rate {result['rate']:.12g} not in [0, capacity]")
        if total < best - 1e-7 or total > best + 1e-3:
            problems.append(f"tradeoff.brute_force: d_total {total:.12g}, brute force {best:.12g}")
        return problems

    return check


def _build_tradeoff_small(rng, workdir, small):
    panel = np.random.default_rng(PANEL_SEED)
    binary = [_finite_model(panel, 2, 2, int(panel.integers(2, 4)), int(panel.integers(2, 4)))
              for _ in range(6)]
    general = [_finite_model(panel, *(int(k) for k in panel.integers(2, 4, 4))) for _ in range(GENERAL)]
    symmetric = [_symmetric_model(panel, 2, 2, 0.11), _symmetric_model(panel, 3, 3, 0.2)]
    if small:
        binary, general = binary[:1], general[:1]
    cli = _Cli(workdir)
    ops = []
    for k, base in enumerate(binary):
        # as drawn, not relabelled: tradeoff-b3 fails its brute-force check on every
        # run (see CHANGES.md), and a failure must not depend on the seed
        model = {key: np.asarray(v).tolist() for key, v in base.items()}
        path = f"models/binary{k}.json"
        _write_json(os.path.join(workdir, path), model)
        b = np.asarray(model["cost"])
        budget = float(b.min() + 0.6 * (b.max() - b.min()))
        ops.append(cli.op(f"tradeoff-b{k}",
                          {"mode": "discrete-tradeoff", "model": path, "budget": budget, "grid": 0.01},
                          partial(_tradeoff_check, model, budget)))
    for k, base in enumerate(general):
        model = _relabel_finite(base, rng)
        path = f"models/general{k}.json"
        _write_json(os.path.join(workdir, path), model)
        e = oracles.estimate_costs(model["state_prior"], model["sensing_law"], model["distortion"])
        b = np.asarray(model["cost"])
        points = {
            "vertex-ds": (e.min() + 1e-6, b.max() + 0.1),
            "vertex-budget": (e.max() + 0.1, b.min() + 1e-6),
            "interior": (0.5 * (e.min() + e.max()), 0.5 * (b.min() + b.max())),
        }
        for label, (d_s, budget) in points.items():
            ops.append(cli.op(f"capacity-g{k}-{label}",
                              {"mode": "discrete-capacity", "model": path,
                               "d_s": float(d_s), "budget": float(budget)},
                              partial(_capacity_check, model, float(d_s), float(budget))))
    for k, base in enumerate(symmetric):
        model = _relabel_finite(base, rng)
        path = f"models/symmetric{k}.json"
        _write_json(os.path.join(workdir, path), model)
        e = oracles.estimate_costs(model["state_prior"], model["sensing_law"], model["distortion"])
        d_s, budget = float(e.max() + 0.1), float(max(model["cost"]) + 0.1)
        ops.append(cli.op(f"capacity-s{k}",
                          {"mode": "discrete-capacity", "model": path, "d_s": d_s, "budget": budget},
                          partial(_capacity_check, model, d_s, budget)))
    return ops


# ------------------------------------------------------------------ rd-wide


def _random_source(rng, m):
    d = rng.uniform(0.1, 1.0, (m, m))
    np.fill_diagonal(d, 0.0)
    return _rows(rng, (m,)), d


def _relabel_source(source, distortion, rng):
    perm = rng.permutation(source.size)
    return source[perm], distortion[perm][:, perm]


def _rd_check(source, distortion, d_c, hamming):
    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        cond = np.asarray(result["test_channel"], dtype=np.float64)
        rate = float(result["rate"])
        if cond.min() < -1e-12 or np.abs(cond.sum(axis=1) - 1.0).max() > 1e-9:
            return ["rd.channel: test channel rows are not distributions"]
        cond = np.maximum(cond, 0.0)
        dist = float(np.einsum("i,ij,ij->", source, cond, distortion))
        if dist > d_c + 1e-9:
            problems.append(f"rd.distortion: test channel distortion {dist:.12g} > d_c {d_c:.12g}")
        mi = oracles.mutual_information(source, cond)
        if abs(mi - rate) > 1e-8:
            problems.append(f"rd.rate: reported {rate:.12g}, test channel carries {mi:.12g}")
        lower = oracles.rd_dual_lower_bound(source, distortion, d_c, source @ cond)
        if rate < lower - 1e-9 or rate > lower + 1e-6:
            problems.append(f"rd.dual: reported {rate:.12g}, Blahut lower bound {lower:.12g}")
        if hamming:
            exact = oracles.hamming_rd(source.size, d_c)
            if abs(rate - exact) > 1e-9:
                problems.append(f"rd.hamming: reported {rate:.12g}, exact {exact:.12g}")
        return problems

    return check


def _inverse_check(name, source, distortion, rate, group, hamming):
    d_min = float(source @ distortion.min(axis=1))
    d_zero = float((source @ distortion).min())

    def check(result, results):
        d = float(result["d_c"])
        problems = []
        if not (d_min - 1e-12 <= d <= d_zero + 1e-12):
            problems.append(f"inverse.range: D({rate:.6g}) = {d:.12g} outside [{d_min:.6g}, {d_zero:.6g}]")
        if hamming:
            exact = oracles.hamming_dr(source.size, rate)
            if abs(d - exact) > 1e-9:
                problems.append(f"inverse.hamming: D({rate:.6g}) = {d:.12g}, exact {exact:.12g}")
        done = [d if n == name else results[n]["d_c"] for n in group if n == name or n in results]
        if len(done) == len(group) > 1:
            diffs = np.diff(done)
            if diffs.max() > 1e-9:
                problems.append(f"inverse.monotone: D(R) rises along equally spaced rates: {done}")
            if len(done) >= 3 and (diffs[1:] - diffs[:-1]).min() < -1e-9:
                problems.append(f"inverse.convex: D(R) is not convex along equally spaced rates: {done}")
        return problems

    return check


def _inverse_op(name, path, rate, group, hamming):
    with open(path) as fh:
        data = json.load(fh)
    source = np.asarray(data["source"], dtype=np.float64)
    distortion = np.asarray(data["distortion"], dtype=np.float64)

    def run():
        # looked up per call, so that a traced run sees its wrapper
        return cas_limits.discrete.rate_distortion_inverse(source, distortion, rate)

    return Op(name, run, lambda out: {"d_c": float(out[0])},
              partial(_inverse_check, name, source, distortion, rate, group, hamming), cli=False)


def _build_rd_wide(rng, workdir, small):
    panel = np.random.default_rng(PANEL_SEED + 1)
    m_big, m_mid = (16, 12) if small else (64, 48)
    a = _relabel_source(*_random_source(panel, m_big), rng)
    b = _relabel_source(*_random_source(panel, m_big), rng)
    c = _relabel_source(*_random_source(panel, m_mid), rng)
    cli = _Cli(workdir)
    ops = []

    def rd(name, source, distortion, d_c, hamming=False):
        ops.append(cli.op(name, {"mode": "discrete-rd", "source": source.tolist(),
                                 "distortion": distortion.tolist(), "d_c": float(d_c)},
                          partial(_rd_check, source, distortion, float(d_c), hamming)))

    def inverse(name, source, distortion, rates, hamming=False):
        path = os.path.join(workdir, "sources", f"{name}.json")
        _write_json(path, {"source": source.tolist(), "distortion": distortion.tolist()})
        group = [f"{name}-{k}" for k in range(len(rates))]
        for label, rate in zip(group, rates):
            ops.append(_inverse_op(label, path, float(rate), group, hamming))

    def d_zero(src):
        return float((src[0] @ src[1]).min())

    rd("rd-a-low", *a, 0.2 * d_zero(a))
    rd("rd-a-mid", *a, 0.5 * d_zero(a))
    rd("rd-b-low", *b, 0.2 * d_zero(b))
    rd("rd-c-mid", *c, 0.4 * d_zero(c))
    h = oracles.entropy(a[0])
    inverse("inv-a", *a, [0.3 * h, 0.5 * h, 0.7 * h])
    ham = (np.full(m_big, 1.0 / m_big), 1.0 - np.eye(m_big))
    rd(f"rd-hamming{m_big}", *ham, rng.uniform(0.1, 0.9) * (1.0 - 1.0 / m_big), hamming=True)
    inverse(f"inv-hamming{m_big}", *ham, [rng.uniform(0.2, 0.8) * math.log(m_big)], hamming=True)
    return ops


# --------------------------------------------------------------- isac-sweep


def _unitary(rng, n):
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _trm_model(rng, n, m_c=4, m_s=4, t=16):
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
    sigma = a @ a.conj().T
    sigma *= n / np.real(np.trace(sigma))
    h = (rng.standard_normal((m_c, n)) + 1j * rng.standard_normal((m_c, n))) / math.sqrt(2.0)
    return {"sigma_s": sigma, "h_c": h, "noise_s": 1.0, "noise_c": 1.0, "t": t, "m_s": m_s,
            "power": 1.0}


def _crossover_model():
    """The 4x4x4 model of acceptance criterion 7, whose scheme comparison flips sign once.

    Strongly spread prior spectrum; a near rank-1 channel whose dominant
    direction lies on the weakest prior eigenvector.
    """
    rng = np.random.default_rng(3)
    sig_eigs = np.array([16.0, 4.0, 1.0, 0.25])
    u = _unitary(rng, 4)
    sigma = (u * sig_eigs) @ u.conj().T
    sigma *= 4 / np.real(np.trace(sigma))
    vh = u[:, np.argsort(sig_eigs)]
    uh = _unitary(rng, 4)
    h = (uh * np.array([2.0, 1e-3, 1e-3, 1e-3])) @ vh.conj().T
    return {"sigma_s": sigma, "h_c": h, "noise_s": 1.0, "noise_c": 1.0, "t": 16, "m_s": 4,
            "power": 1.0}


def _relabel_trm(model, rng):
    """The same problem with permuted, rephased transmit antennas and a rotated comm receiver.

    Permutations and per-antenna phases map the optimizer's Hermitian
    parametrisation onto itself isometrically, so it takes the same path up
    to rounding; its iteration counts move by a few percent across seeds.
    """
    n = model["sigma_s"].shape[0]
    t = np.eye(n)[rng.permutation(n)] * np.exp(2j * np.pi * rng.uniform(size=n))
    v = _unitary(rng, model["h_c"].shape[0])
    return dict(model, sigma_s=t @ model["sigma_s"] @ t.conj().T, h_c=v @ model["h_c"] @ t.conj().T)


def _write_trm(workdir, path, model):
    payload = dict(model, sigma_s=_pairs(model["sigma_s"]), h_c=_pairs(model["h_c"]))
    _write_json(os.path.join(workdir, path), payload)
    # the oracle sees the model exactly as the program parses it
    return dict(model, sigma_s=_from_pairs(payload["sigma_s"]), h_c=_from_pairs(payload["h_c"]))


def _recompute_problems(tag, point, ref) -> list:
    """Where a reported point differs from the oracle's recomputation from its Gram matrices."""
    return [f"{tag}.recompute: {key} reported {point[key]:.12g}, recomputed {ref[name]:.12g}"
            for key, name in (("d_s", "d_s"), ("capacity", "mi"), ("d_c", "d_c"), ("d_total", "d_total"))
            if not _close(float(point[key]), ref[name], 1e-8)]


def _isac_check(model):
    cap = model["t"] * model["power"]
    n = model["sigma_s"].shape[0]
    uniform = oracles.gaussian_point(model, (cap / n) * np.eye(n))

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        q = _from_pairs(result["q_star"])
        problems += [f"isac.gram: {p}" for p in oracles.psd_problems(q, cap, "q_star")]
        point = result["point"]
        problems += _recompute_problems("isac", point, oracles.gaussian_point(model, q))
        if float(point["d_total"]) > uniform["d_total"] + 1e-9:
            problems.append(f"isac.start: d_total {point['d_total']:.12g} worse than the uniform "
                            f"start {uniform['d_total']:.12g}")
        return problems

    return check


def _sw_check(model, split_grid):
    cap = model["t"] * model["power"]
    best = oracles.sw_best(model, model["power"], split_grid)

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        q_s, q_c = _from_pairs(result["q_sensing"]), _from_pairs(result["q_comm"])
        rho = float(result["rho"])
        problems += [f"sw.gram: {p}" for p in oracles.psd_problems(q_s, rho * cap + 1e-9, "q_sensing")]
        problems += [f"sw.gram: {p}" for p in oracles.psd_problems(q_c, (1 - rho) * cap + 1e-9, "q_comm")]
        point = result["point"]
        problems += _recompute_problems("sw", point, oracles.gaussian_point(model, q_s, q_c))
        if not _close(float(point["d_total"]), best, 1e-8):
            problems.append(f"sw.grid: d_total {point['d_total']:.12g}, best split on the grid "
                            f"{best:.12g}")
        return problems

    return check


def _sweep_check(model, snr_db, split_grid):
    n = model["sigma_s"].shape[0]
    ref = []  # per SNR: power, uniform-start total, best separated-waveform total
    for snr in snr_db:
        power = 10.0 ** (snr / 10.0) * model["noise_c"]
        m = dict(model, power=power)
        uniform = oracles.gaussian_point(m, (m["t"] * power / n) * np.eye(n))["d_total"]
        ref.append((power, uniform, oracles.sw_best(m, power, split_grid)))

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        rows = {(r["snr_db"], r["scheme"]): r for r in result["rows"]}
        diffs = []
        for snr, (power, uniform, sw) in zip(snr_db, ref):
            isac, sep = rows.get((snr, "isac")), rows.get((snr, "sw"))
            if isac is None or sep is None:
                return [f"sweep.rows: missing a row at {snr} dB"]
            for r in (isac, sep):
                if not _close(r["d_total"], r["d_s"] + r["d_c"], 1e-12):
                    problems.append(f"sweep.sum: {r['scheme']} at {snr} dB: d_total != d_s + d_c")
                if r["trace_used"] > model["t"] * power * (1 + 1e-9):
                    problems.append(f"sweep.trace: {r['scheme']} at {snr} dB over its cap")
            if isac["d_total"] > uniform + 1e-9:
                problems.append(f"sweep.start: isac at {snr} dB worse than the uniform start")
            if not _close(sep["d_total"], sw, 1e-8):
                problems.append(f"sweep.sw: sw at {snr} dB is {sep['d_total']:.12g}, best split {sw:.12g}")
            diffs.append(isac["d_total"] - sep["d_total"])
        d = np.array(diffs)
        flips = [k for k in range(1, d.size) if np.all(d[:k] <= 1e-12) and np.all(d[k:] >= -1e-12)]
        if not flips or d[0] > 0 or d[-1] < 0:
            problems.append(f"sweep.crossover: no single sign change in isac - sw: {d.tolist()}")
        return problems

    return check


def _build_isac_sweep(rng, workdir, small):
    panel = np.random.default_rng(PANEL_SEED + 2)
    cli = _Cli(workdir)
    ops = []
    snr_db = [-10.0, 30.0] if small else np.linspace(-10.0, 30.0, 5).tolist()
    split_grid = 201
    model = _write_trm(workdir, "models/crossover.json", _relabel_trm(_crossover_model(), rng))
    outputs = {"output_csv": "sweep.csv", "output_json": "sweep.json"}
    ops.append(cli.op("snr-sweep", {"mode": "snr-sweep", "model": "models/crossover.json",
                                    "snr_db": snr_db, "split_grid": split_grid},
                      partial(_sweep_check, model, snr_db, split_grid), outputs=outputs,
                      load=lambda rc: {"rc": rc, **_read_json(os.path.join(cli.out, "sweep.json"))}))
    sizes = [4] if small else [4, 4, 8]
    for k, n in enumerate(sizes):
        model = _write_trm(workdir, f"models/opt{k}.json", _relabel_trm(_trm_model(panel, n), rng))
        ops.append(cli.op(f"trm-optimize-{k}-n{n}", {"mode": "trm-optimize", "model": f"models/opt{k}.json"},
                          partial(_isac_check, model)))
    for k, n in enumerate(sizes[:1] if small else [4, 4, 8, 8]):
        model = _write_trm(workdir, f"models/sw{k}.json", _relabel_trm(_trm_model(panel, n), rng))
        ops.append(cli.op(f"trm-sw-{k}-n{n}", {"mode": "trm-sw", "model": f"models/sw{k}.json",
                                                "split_grid": split_grid},
                          partial(_sw_check, model, split_grid)))
    return ops


# -------------------------------------------------------------- monte-carlo


def _dump_stats(path):
    """(rows, column means) of a trial dump, read in chunks to keep memory flat."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        total = np.zeros(len(header))
        rows = 0
        while True:
            chunk = [row for _, row in zip(range(8192), reader)]
            if not chunk:
                break
            total += np.asarray(chunk, dtype=np.float64).sum(axis=0)
            rows += len(chunk)
    return header, rows, total / max(rows, 1)


def _simulate_check(model, x, trials, rate, dump):
    q = x @ x.conj().T
    d_s = oracles.sensing_mse(model["sigma_s"], q, model["t"], model["noise_s"], model["m_s"])
    if rate == "mi":
        rate = oracles.channel_mi(model["h_c"], q, model["t"], model["noise_c"])
    d_c = None
    if rate is not None:
        lam = oracles.estimate_spectrum(model["sigma_s"], q, model["t"], model["noise_s"], model["m_s"])
        d_c = oracles.reverse_waterfill(lam, rate)

    def check(result, _results):
        problems = _rc_problems(result)
        if problems:
            return problems
        if result["n_trials"] != trials:
            problems.append(f"simulate.trials: report has {result['n_trials']} trials, not {trials}")
        pairs = [("d_s", d_s)] + ([("d_c", d_c), ("d_total", d_s + d_c)] if d_c is not None else [])
        for key, exact in pairs:
            if not _close(float(result[f"{key}_analytic"]), exact, 1e-9):
                problems.append(f"simulate.analytic: {key} reported {result[f'{key}_analytic']:.12g}, "
                                f"closed form {exact:.12g}")
            if abs(float(result[f"{key}_emp"]) - exact) > 5.0 * float(result[f"{key}_se"]):
                problems.append(f"simulate.estimate: {key} {result[f'{key}_emp']:.9g} is more than 5 "
                                f"standard errors from {exact:.9g}")
        if d_c is not None and abs(float(result["cross_mean"])) > 5.0 * float(result["cross_se"]):
            problems.append(f"simulate.cross: cross term {result['cross_mean']:.3e} is not zero "
                            f"within 5 standard errors")
        if dump:
            header, rows, means = result["dump"]
            if rows != trials:
                problems.append(f"simulate.dump_rows: dump has {rows} rows for {trials} trials")
            keys = {"d_s": "d_s_emp", "d_c": "d_c_emp", "d_total": "d_total_emp", "cross": "cross_mean"}
            for col, mean in zip(header, means):
                if not _close(mean, float(result[keys[col]]), 1e-9):
                    problems.append(f"simulate.dump_mean: column {col} mean {mean:.12g}, report "
                                    f"{result[keys[col]]:.12g}")
        return problems

    return check


def _build_monte_carlo(rng, workdir, small):
    cli = _Cli(workdir)
    ops = []
    trials = 5000 if small else 100_000
    runs = [  # (name, end_to_end, rate_budget, dump)
        ("sim-e2e-mi", True, "mi", False),
        ("sim-e2e-half", True, "half", False),
        ("sim-sensing", False, None, False),
        ("sim-e2e-dump", True, "mi", True),
        ("sim-sensing-dump", False, None, True),
    ]
    for k, (name, e2e, rate, dump) in enumerate(runs):
        model = _write_trm(workdir, f"models/{name}.json", _trm_model(rng, 4))
        x = (rng.standard_normal((4, model["t"])) + 1j * rng.standard_normal((4, model["t"])))
        x *= math.sqrt(model["t"] * model["power"]) / np.linalg.norm(x)
        config = {"mode": "simulate", "model": f"models/{name}.json", "trials": trials,
                  "seed": int(rng.integers(2**31)), "waveform": _pairs(x), "end_to_end": e2e}
        if rate == "half":
            rate = 0.5 * oracles.channel_mi(model["h_c"], x @ x.conj().T, model["t"], model["noise_c"])
        if rate is not None:
            config["rate_budget"] = rate
        outputs = {"output": f"{name}.json"}
        if dump:
            outputs["dump_trials"] = f"{name}-trials.csv"

        def load(rc, outputs=outputs):
            result = {"rc": rc, **_read_json(os.path.join(cli.out, outputs["output"]))}
            if "dump_trials" in outputs:
                result["dump"] = _dump_stats(os.path.join(cli.out, outputs["dump_trials"]))
            return result

        x = _from_pairs(_pairs(x))
        ops.append(cli.op(name, config, partial(_simulate_check, model, x, trials, rate if e2e else None, dump),
                          outputs=outputs, load=load))
    return ops


_BUILDERS = {
    "tradeoff-small": _build_tradeoff_small,
    "rd-wide": _build_rd_wide,
    "isac-sweep": _build_isac_sweep,
    "monte-carlo": _build_monte_carlo,
}


def build(workload: str, seed: int, workdir: str, small: bool = False) -> list:
    """Write the inputs of one workload under ``workdir`` and return its operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, workdir, small)
