"""Acceptance gate: eight criteria, each printed as a single pass/fail line.

Run under pytest, or standalone:

    python3 tests/test_acceptance.py
"""

import itertools
import sys
import time

import numpy as np

from cas_limits import (
    channel_mi,
    constrained_capacity,
    estimate_costs,
    min_total_distortion,
    mutual_information,
    optimize_isac,
    random_trm_model,
    rate_distortion_discrete,
    reverse_waterfill,
    simulate_end_to_end,
    simulate_sensing,
    sweep_snr,
    theorem1_feasible,
)
from cas_limits.discrete import induced_estimate_marginal, rate_distortion_inverse
from cas_limits.gaussian import gram_spectrum, waveform_from_gram
from cas_limits.waveform import _objective

from helpers import (
    HAMMING,
    binary_sensing_model,
    commuting_trm_model,
    crossover_trm_model,
    random_finite_model,
    reference_2x2x2_model,
    scalar_trm_model,
)


def _report(name, ok, detail, t0, limit):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status}: {name} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.1f}s)"


def h2(p):
    return float(-p * np.log(p) - (1.0 - p) * np.log(1.0 - p))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_closed_form_oracles():
    t0 = time.perf_counter()
    model = binary_sensing_model(comm_eps=0.1)
    cap, _ = constrained_capacity(model, d_s=10.0, budget=10.0)
    cap_err = abs(cap - (np.log(2.0) - h2(0.1)))

    rd_err = 0.0
    for p in (0.2, 0.5):
        source = np.array([1.0 - p, p])
        for d in np.linspace(0.01, 0.95 * p, 20):
            rate, _ = rate_distortion_discrete(source, HAMMING, float(d))
            rd_err = max(rd_err, abs(rate - (h2(p) - h2(d))))

    ok = cap_err < 1e-6 and rd_err < 1e-6
    _report(
        "closed-form capacity and rate-distortion oracles",
        ok,
        f"capacity err {cap_err:.2e}, rd err {rd_err:.2e}, tol 1e-6",
        t0,
        5.0,
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_estimator_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        model = random_finite_model(rng)
        joint = model.state_prior[None, :, None] * model.sensing_law
        loss = np.einsum("xsz,st->xzt", joint, model.distortion)
        ours = estimate_costs(model).mean()
        n_x, n_z, n_t = loss.shape
        best = min(
            sum(loss[x, z, tbl[x * n_z + z]] for x in range(n_x) for z in range(n_z))
            for tbl in itertools.product(range(n_t), repeat=n_x * n_z)
        ) / n_x
        worst = max(worst, abs(ours - best))
    _report(
        "estimator matches exhaustive deterministic-table minimum",
        worst < 1e-12,
        f"50 models, worst gap {worst:.2e}, tol 1e-12",
        t0,
        10.0,
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_monotonicity_and_convexity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)
    tol = 1e-8
    cap_mono = cap_conc = rd_mono = rd_conv = 0.0
    for _ in range(20):
        model = random_finite_model(rng)
        e = estimate_costs(model)
        budget = float(model.cost.max()) + 0.1
        grid = np.linspace(e.min() + 1e-6, e.max() + 0.1, 10)
        caps = np.array([constrained_capacity(model, float(d), budget)[0] for d in grid])
        cap_mono = max(cap_mono, float(np.max(-np.diff(caps), initial=0.0)))
        mid = caps[1:-1] - 0.5 * (caps[:-2] + caps[2:])
        cap_conc = max(cap_conc, float(np.max(-mid, initial=0.0)))

        # capacity is also nondecreasing in the resource budget
        b_grid = np.linspace(model.cost.min() + 1e-6, model.cost.max() + 0.1, 10)
        caps_b = np.array(
            [constrained_capacity(model, float(e.max()), float(b))[0] for b in b_grid]
        )
        cap_mono = max(cap_mono, float(np.max(-np.diff(caps_b), initial=0.0)))

        source = model.state_prior
        d_zero = float((source @ model.distortion).min())
        d_min = float(source @ model.distortion.min(axis=1))
        span = d_zero - d_min
        d_grid = np.linspace(d_min + 0.02 * span, d_zero - 0.02 * span, 10)
        rates = np.array(
            [rate_distortion_discrete(source, model.distortion, float(d))[0] for d in d_grid]
        )
        rd_mono = max(rd_mono, float(np.max(np.diff(rates), initial=0.0)))
        mid = rates[1:-1] - 0.5 * (rates[:-2] + rates[2:])
        rd_conv = max(rd_conv, float(np.max(mid, initial=0.0)))

    ok = max(cap_mono, cap_conc, rd_mono, rd_conv) < tol
    _report(
        "capacity concave nondecreasing, rate-distortion convex nonincreasing",
        ok,
        f"worst violations: cap mono {cap_mono:.1e}, cap conc {cap_conc:.1e}, "
        f"rd mono {rd_mono:.1e}, rd conv {rd_conv:.1e}, tol 1e-8",
        t0,
        300.0,
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_gaussian_analytic_vs_empirical():
    t0 = time.perf_counter()
    n_trials = 100_000
    checks = []
    for seed in range(5):
        model = random_trm_model(seed, n=3, m_s=3, m_c=3, t=16)
        q = (model.trace_budget / model.n) * np.eye(model.n)
        x = waveform_from_gram(model, q)

        rep = simulate_sensing(model, x, n_trials, seed=100 + seed)
        gap = abs(rep.d_s_emp - rep.d_s_analytic)
        checks.append(gap < 3 * rep.d_s_se and gap < 0.02 * rep.d_s_analytic)

        rate = 0.5 * channel_mi(model, q)
        rep2 = simulate_end_to_end(model, x, rate, n_trials, seed=200 + seed)
        checks.append(abs(rep2.cross_mean) < 3 * rep2.cross_se)
        lam = gram_spectrum(model, q)
        d_c_ref = reverse_waterfill(lam, rate).d_c
        checks.append(abs(rep2.d_c_emp - d_c_ref) < 3 * rep2.d_c_se)

    _report(
        "Monte Carlo matches the analytic sensing and link distortions",
        all(checks),
        f"5 models x {n_trials} trials, 3 checks each: {sum(checks)}/15 "
        "(3 SE and 2% bands)",
        t0,
        120.0,
    )


# --------------------------------------------------------------- criterion 5


def _brute_force_rwf(lam, rate, rounds=5, pts=33):
    lam = np.sort(np.asarray(lam, dtype=np.float64))[::-1]
    k = lam.size
    if k == 1:
        return float(lam[0] * np.exp(-rate))
    los = np.full(k - 1, 1e-9)
    his = lam[:-1].copy()
    best = np.inf
    best_d = None
    for _ in range(rounds):
        axes = [np.linspace(los[i], his[i], pts) for i in range(k - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        d = np.stack([m.ravel() for m in mesh], axis=1)
        used = np.log(lam[:-1] / d).sum(axis=1)
        rem = rate - used
        valid = rem >= 0.0
        if not np.any(valid):
            break
        totals = d[valid].sum(axis=1) + lam[-1] * np.exp(-rem[valid])
        i = int(np.argmin(totals))
        if totals[i] < best:
            best = float(totals[i])
            best_d = d[valid][i]
        widths = (his - los) / (pts - 1)
        los = np.maximum(best_d - 2.0 * widths, 1e-12)
        his = np.minimum(best_d + 2.0 * widths, lam[:-1])
    return best


def test_criterion_5_reverse_waterfilling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    round_trip = 0.0
    for _ in range(100):
        lam = rng.uniform(0.05, 5.0, int(rng.integers(1, 8)))
        budget = float(rng.uniform(0.01, 4.0))
        res = reverse_waterfill(lam, budget)
        sorted_lam = np.sort(lam)[::-1]
        live = res.allocations > 0
        rate = float(np.sum(np.log(sorted_lam[live] / res.allocations[live])))
        round_trip = max(round_trip, abs(rate - budget))

    opt_gap = 0.0
    for _ in range(6):
        lam = rng.uniform(0.2, 4.0, int(rng.integers(2, 5)))
        rate = float(rng.uniform(0.2, 2.0))
        ours = reverse_waterfill(lam, rate).d_c
        brute = _brute_force_rwf(lam, rate)
        # the solver must not lose to the grid; a tiny win is grid error
        opt_gap = max(opt_gap, ours - brute)

    ok = round_trip < 1e-8 and opt_gap < 1e-6
    _report(
        "reverse water-filling round-trip and grid optimality",
        ok,
        f"round-trip err {round_trip:.2e} (tol 1e-8), "
        f"brute-force gap {opt_gap:.2e} (tol 1e-6)",
        t0,
        30.0,
    )


# --------------------------------------------------------------- criterion 6


def _golden_min(f, a, b, iters=200):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    mid = 0.5 * (a + b)
    return f(mid)


def test_criterion_6_optimizer_anchors():
    t0 = time.perf_counter()
    scalar = scalar_trm_model(power=1.0, t=4)
    oracle = _golden_min(
        lambda q: _objective(scalar, np.array([[q + 0j]])), 0.0, scalar.trace_budget
    )
    res = optimize_isac(scalar)
    scalar_err = abs(res.point.d_total - oracle) / oracle

    model, u = commuting_trm_model()
    budget = model.trace_budget
    res_grid = 200
    best = np.inf
    for i in range(res_grid + 1):
        p1 = budget * i / res_grid
        for j in range(res_grid + 1 - i):
            p2 = budget * j / res_grid
            q = (u * np.array([p1, p2])) @ u.conj().T
            best = min(best, _objective(model, q))
    res2 = optimize_isac(model)
    grid_err = (res2.point.d_total - best) / best

    ok = scalar_err < 1e-4 and grid_err < 1e-3
    _report(
        "optimizer matches the scalar and commuting-eigenbasis oracles",
        ok,
        f"scalar rel err {scalar_err:.2e} (tol 1e-4), "
        f"grid rel err {grid_err:.2e} (tol 1e-3)",
        t0,
        120.0,
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_scheme_crossover():
    t0 = time.perf_counter()
    model = crossover_trm_model()
    snr = np.linspace(-10.0, 30.0, 9)
    curve = sweep_snr(model, snr, split_grid=201)
    diffs = np.array(
        [
            curve.results["isac"][i].point.d_total - curve.results["sw"][i].point.d_total
            for i in range(snr.size)
        ]
    )
    # one sign change: ISAC wins every point below it, SW every point above
    crossover = None
    for k in range(1, snr.size):
        if np.all(diffs[:k] <= 1e-12) and np.all(diffs[k:] >= -1e-12):
            crossover = k
            break
    _report(
        "fixed-seed SNR sweep shows a scheme crossover",
        crossover is not None,
        "diffs "
        + " ".join(f"{d:+.1e}" for d in diffs)
        + (f", flip between {snr[crossover - 1]:.0f} and {snr[crossover]:.0f} dB"
           if crossover is not None else ", no clean flip"),
        t0,
        600.0,
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_region_coherence():
    t0 = time.perf_counter()
    model = reference_2x2x2_model()
    budget = 0.6
    point = min_total_distortion(model, budget, grid=1e-3)

    e = estimate_costs(model)
    best = np.inf
    for w in np.arange(0.0, 1.0 + 1e-12, 1e-3):
        px = np.array([w, 1.0 - w])
        if float(px @ model.cost) > budget + 1e-12:
            continue
        rate = mutual_information(px, model.comm_law)
        source = induced_estimate_marginal(model, px)
        d_c, _ = rate_distortion_inverse(source, model.distortion, rate)
        best = min(best, float(px @ e) + d_c)
    gap = abs(point.d_total - best)

    # feasibility margin is nondecreasing along each axis of (d_s, d_c, B)
    mono_ok = True
    base = (0.15, 0.2, budget)
    for axis, grid in (
        (0, np.linspace(0.1, 0.4, 7)),
        (1, np.linspace(0.05, 0.45, 7)),
        (2, np.linspace(0.25, 1.0, 7)),
    ):
        vals = []
        for g in grid:
            args = list(base)
            args[axis] = float(g)
            vals.append(theorem1_feasible(model, *args).margin)
        mono_ok = mono_ok and bool(np.all(np.diff(vals) >= -1e-8))

    ok = gap < 1e-3 and mono_ok
    _report(
        "tradeoff sweep matches the joint brute force, margins monotone",
        ok,
        f"brute-force gap {gap:.2e} (tol 1e-3), margins monotone: {mono_ok}",
        t0,
        300.0,
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(
        (k, v) for k, v in globals().items() if k.startswith("test_criterion_")
    ):
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL detail ({name}): {exc}")
    sys.exit(1 if failures else 0)
