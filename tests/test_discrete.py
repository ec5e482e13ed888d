"""Finite-alphabet solvers: estimator, capacity, rate-distortion, region."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog, minimize_scalar

from cas_limits import (
    ConvergenceWarning,
    FiniteCasModel,
    InfeasibleConstraint,
    UnreachableDistortion,
    ZeroProbabilityObservation,
    constrained_capacity,
    estimate_cost,
    estimate_costs,
    min_total_distortion,
    mutual_information,
    optimal_estimate,
    rate_distortion_discrete,
    theorem1_feasible,
)
from cas_limits import discrete
from cas_limits.discrete import (
    estimator_table,
    induced_estimate_marginal,
    rate_distortion_inverse,
)

from helpers import (
    HAMMING,
    binary_sensing_model,
    bsc,
    random_finite_model,
    random_rows,
    reference_2x2x2_model,
)


def h2_nats(p):
    return -(p * np.log(p) + (1 - p) * np.log(1 - p))


def noiseless_model(n=2):
    eye = np.eye(n)
    return FiniteCasModel(
        state_prior=np.full(n, 1.0 / n),
        sensing_law=np.stack([eye, eye]),
        comm_law=np.eye(2),
        distortion=1.0 - eye,
        cost=np.zeros(2),
    )


def state_blind_model(prior=(0.7, 0.3)):
    """The sensing observation carries no information about the state."""
    flat = np.full((2, 2), 0.5)
    return FiniteCasModel(
        state_prior=list(prior),
        sensing_law=np.stack([flat, flat]),
        comm_law=bsc(0.1),
        distortion=HAMMING,
        cost=np.zeros(2),
    )


# ---------------------------------------------------------------- estimator


def test_noiseless_sensing_estimates_the_observation():
    model = noiseless_model()
    for x in range(2):
        for z in range(2):
            assert optimal_estimate(model, x, z) == z


def test_uninformative_sensing_estimates_the_prior_mode():
    model = state_blind_model()
    for x in range(2):
        for z in range(2):
            assert optimal_estimate(model, x, z) == 0


def test_binary_sensing_estimator_table_matches_enumeration():
    # reliability 0.9 / 0.6 with uniform prior: the symmetric posterior
    # always favors the observed symbol
    model = binary_sensing_model(0.9, 0.6)
    joint = model.state_prior[None, :, None] * model.sensing_law
    expected = np.zeros((2, 2), dtype=int)
    for x in range(2):
        for z in range(2):
            risks = [joint[x, :, z] @ model.distortion[:, t] for t in range(2)]
            expected[x, z] = int(np.argmin(risks))
    assert np.array_equal(estimator_table(model), expected)
    assert np.array_equal(expected, [[0, 1], [0, 1]])


def test_zero_probability_observation_raises():
    model = FiniteCasModel(
        state_prior=[1.0, 0.0],
        sensing_law=[[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
        comm_law=bsc(0.1),
        distortion=HAMMING,
        cost=[0.0, 0.0],
    )
    with pytest.raises(ZeroProbabilityObservation):
        optimal_estimate(model, 0, 1)
    # the impossible cell contributes nothing to the cost
    assert estimate_cost(model, 0) == 0.0


def test_estimator_beats_every_deterministic_table(rng):
    for _ in range(25):
        model = random_finite_model(rng)
        joint = model.state_prior[None, :, None] * model.sensing_law
        loss = np.einsum("xsz,st->xzt", joint, model.distortion)
        ours = estimate_costs(model).mean()
        n_x, n_z, n_t = loss.shape
        best = min(
            sum(loss[x, z, tbl[x * n_z + z]] for x in range(n_x) for z in range(n_z))
            for tbl in itertools.product(range(n_t), repeat=n_x * n_z)
        ) / n_x
        assert abs(ours - best) < 1e-12


# ------------------------------------------------------------ estimate cost


def test_estimate_cost_examples():
    assert estimate_costs(noiseless_model()).max() == 0.0
    assert np.allclose(estimate_costs(state_blind_model()), 0.3)
    e = estimate_costs(binary_sensing_model(0.9, 0.6))
    assert np.allclose(e, [0.1, 0.4])


# --------------------------------------------------------------- capacity


def test_bsc_capacity_with_slack_constraints():
    model = binary_sensing_model(comm_eps=0.1)
    cap, px = constrained_capacity(model, d_s=10.0, budget=10.0)
    assert abs(cap - (np.log(2) - h2_nats(0.1))) < 1e-6
    assert np.allclose(px.probs, 0.5, atol=1e-4)


def test_infeasible_budget_raises():
    model = binary_sensing_model(cost=(0.5, 1.0))
    with pytest.raises(InfeasibleConstraint):
        constrained_capacity(model, d_s=1.0, budget=0.1)
    with pytest.raises(InfeasibleConstraint):
        constrained_capacity(model, d_s=0.05, budget=1.0)  # below min e(x)


def test_tight_distortion_pins_the_input_distribution():
    # e = (0.1, 0.4); at d_s = 0.1 only the point mass on input 0 is
    # feasible, so the capacity collapses to zero
    model = binary_sensing_model(0.9, 0.6)
    cap, px = constrained_capacity(model, d_s=0.1, budget=1.0)
    assert cap < 1e-6
    assert px.probs[0] > 1.0 - 1e-6

    # cross-check against a grid search over the constrained simplex
    best = 0.0
    for w in np.arange(0.0, 1.0 + 1e-12, 1e-3):
        p = np.array([w, 1.0 - w])
        if p @ estimate_costs(model) <= 0.1 + 1e-8:
            best = max(best, mutual_information(p, model.comm_law))
    assert cap >= best - 1e-6


def test_capacity_matches_simplex_grid_when_constraint_binds(rng):
    model = binary_sensing_model(0.9, 0.6, comm_eps=0.05)
    e = estimate_costs(model)
    for d_s in (0.15, 0.2, 0.3):
        cap, px = constrained_capacity(model, d_s, budget=1.0)
        assert px.probs @ e <= d_s + 1e-7
        # candidate grid plus the exact point where the constraint binds
        w_edge = (e[1] - d_s) / (e[1] - e[0])
        candidates = np.append(np.arange(0.0, 1.0 + 1e-12, 1e-4), np.clip(w_edge, 0, 1))
        best = 0.0
        for w in candidates:
            p = np.array([w, 1.0 - w])
            if p @ e <= d_s + 1e-12:
                best = max(best, mutual_information(p, model.comm_law))
        assert abs(cap - best) < 1e-6


def test_budget_just_above_a_vertex_matches_the_pinned_input_law():
    # With two inputs the binding budget pins p to the edge point
    # p_edge = (1 - 1e-8, 1e-8), so I(p_edge) is an exact oracle. The
    # optimum puts 1e-8 mass on the dear input, where plain Blahut-Arimoto
    # would run to its iteration cap.
    model = binary_sensing_model(comm_eps=0.3, cost=(0.0, 100.0))
    budget = float(model.cost.min()) + 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        cap, px = constrained_capacity(model, d_s=1.0, budget=budget)
    p_edge = np.array([1.0 - 1e-8, 1e-8])
    assert abs(cap - mutual_information(p_edge, model.comm_law)) < 1e-10
    assert abs(px.probs @ model.cost - budget) < 1e-8


def test_capacity_where_the_optimal_input_law_jumps():
    # Three inputs into a binary channel: as the budget multiplier crosses
    # a critical value the penalized optimum jumps from one support to
    # another, so for budgets in between the optimum time-shares the two.
    # Every point of a simplex grid that meets the budget bounds the
    # capacity from below.
    w = np.array([[0.479, 0.521], [0.836, 0.164], [0.604, 0.396]])
    cost = np.array([0.493, 0.677, 0.061])
    model = FiniteCasModel(
        state_prior=[0.5, 0.5],
        sensing_law=np.stack([bsc(0.1)] * 3),
        comm_law=w,
        distortion=HAMMING,
        cost=cost,
    )
    n = 400
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    grid = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1) / n
    q = grid @ w
    mi = (grid @ (w * np.log(w)).sum(axis=1)) - (q * np.log(q)).sum(axis=1)
    for budget in (0.15, 0.25, 0.35, 0.45, 0.55):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            cap, px = constrained_capacity(model, d_s=1.0, budget=budget)
        assert px.probs @ cost <= budget + 1e-8
        assert cap >= mi[grid @ cost <= budget].max() - 1e-9


def test_budget_constraint_binds(rng):
    model = binary_sensing_model(0.9, 0.6, cost=(1.0, 0.0))
    # cheap input is the bad sensor; a tight budget forces mass onto it
    cap_loose, _ = constrained_capacity(model, d_s=1.0, budget=1.0)
    cap_tight, px = constrained_capacity(model, d_s=1.0, budget=0.2)
    assert px.probs @ model.cost <= 0.2 + 1e-7
    assert cap_tight <= cap_loose + 1e-9


def _capacity_dual_bound(w, p, rows, limits):
    """Smallest Lagrangian upper bound on the capacity under rows @ p <= limits.

    For every mu >= 0 and the output law q = p @ w,
    C <= max_x [D(w_x || q) - mu @ rows[:, x]] + mu @ limits; a linear
    program in (t, mu) minimizes it.
    """
    div = (w * np.log(w / (p @ w))).sum(axis=1)
    res = linprog(
        c=np.append(1.0, limits),
        A_ub=np.hstack([-np.ones((w.shape[0], 1)), -rows.T]),
        b_ub=-div,
        bounds=[(None, None)] + [(0.0, None)] * len(limits),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def _random_capacity_problems():
    """(model, d_s, budget) on random 2-5-input models, all of them feasible.

    Per model: limits met exactly by a random input law, d_s = min e with a
    budget that the cheapest-to-sense input meets, and budget = min b with
    a d_s that the cheapest input meets. Then models whose sensing ignores
    the input, so that e is constant and E[e] <= d_s is tight for every law.
    """
    rng = np.random.default_rng(99)
    for _ in range(40):
        model = random_finite_model(rng, n_x=int(rng.integers(2, 6)))
        e, b = estimate_costs(model), model.cost
        law = random_rows(rng, (e.size,))
        yield model, float(law @ e), float(law @ b)
        i, j = int(e.argmin()), int(b.argmin())
        yield model, float(e[i]), float(b[i] + rng.uniform() * (b.max() - b[i]))
        yield model, float(e[j] + rng.uniform() * (e.max() - e[j])), float(b[j])
    for _ in range(5):
        n_x = int(rng.integers(2, 6))
        model = FiniteCasModel(
            state_prior=random_rows(rng, (2,)),
            sensing_law=np.broadcast_to(random_rows(rng, (2, 2)), (n_x, 2, 2)),
            comm_law=random_rows(rng, (n_x, 3)),
            distortion=rng.uniform(0.0, 1.0, (2, 2)),
            cost=rng.uniform(0.0, 1.0, n_x),
        )
        e, b = estimate_costs(model), model.cost
        yield model, float(e.max()), float(b.min() + rng.uniform(0.05, 0.95) * np.ptp(b))


def test_constrained_capacity_meets_its_dual_bound():
    problems = list(_random_capacity_problems())
    assert any(np.ptp(estimate_costs(m)) == 0.0 for m, _, _ in problems)
    for model, d_s, budget in problems:
        cap, px = constrained_capacity(model, d_s, budget)
        rows = np.vstack([estimate_costs(model), model.cost])
        limits = np.array([d_s, budget])
        assert np.all(rows @ px.probs <= limits + 1e-12), (d_s, budget)
        bound = _capacity_dual_bound(model.comm_law, px.probs, rows, limits)
        assert abs(cap - bound) < 2e-12, (d_s, budget, cap, bound)


# ---------------------------------------------------------- rate-distortion


def test_bernoulli_rate_distortion_endpoints():
    src = np.array([0.5, 0.5])
    rate, cond = rate_distortion_discrete(src, HAMMING, 0.0)
    assert abs(rate - np.log(2)) < 1e-9
    assert np.allclose(cond, np.eye(2))
    rate, _ = rate_distortion_discrete(src, HAMMING, 0.5)
    assert rate == 0.0
    rate, _ = rate_distortion_discrete(src, HAMMING, 0.8)
    assert rate == 0.0


def test_bernoulli_rate_distortion_interior_point():
    rate, cond = rate_distortion_discrete(np.array([0.5, 0.5]), HAMMING, 0.11)
    assert abs(rate - (np.log(2) - h2_nats(0.11))) < 1e-6
    dist = 0.5 * cond[0, 1] + 0.5 * cond[1, 0]
    assert abs(dist - 0.11) < 1e-9


def test_unreachable_distortion_raises():
    with pytest.raises(UnreachableDistortion):
        rate_distortion_discrete(np.array([0.5, 0.5]), HAMMING, -0.01)
    dist = np.array([[0.2, 1.0], [1.0, 0.3]])
    with pytest.raises(UnreachableDistortion):
        rate_distortion_discrete(np.array([0.5, 0.5]), dist, 0.1)


def test_rate_distortion_inverse_round_trip(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        src = rng.gamma(1.0, 1.0, n) + 1e-3
        src /= src.sum()
        dist = rng.uniform(0.0, 1.0, (n, n))
        d_min = float(src @ dist.min(axis=1))
        d_zero = float((src @ dist).min())
        if d_zero - d_min < 3e-3:
            continue
        target = float(rng.uniform(d_min + 1e-3, d_zero - 1e-3))
        rate, _ = rate_distortion_discrete(src, dist, target)
        d_back, _ = rate_distortion_inverse(src, dist, rate)
        assert abs(d_back - target) < 1e-6


def test_rate_distortion_on_a_nearly_straight_segment():
    # The 14th model of criterion 3's sequence has an R(D) curve whose
    # slope stays within 6.97-6.99 for D in about 0.09-0.1365, so a slope
    # bisection converges onto a nearly degenerate Blahut-Arimoto problem.
    # Convexity gives exact bounds at d_c: the chord through the segment's
    # ends from above, and the secants just outside them, extended, from
    # below. d_c is criterion 3's grid point inside the segment.
    rng = np.random.default_rng(30)
    for _ in range(14):
        model = random_finite_model(rng)
    src, dist = model.state_prior, model.distortion
    d_c = 0.13538015862557054
    pts = [0.08, 0.09, 0.1365, 0.137]
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        r = [rate_distortion_discrete(src, dist, d)[0] for d in pts]
        rate, cond = rate_distortion_discrete(src, dist, d_c)
        d_back, _ = rate_distortion_inverse(src, dist, rate)

    def line(i, j):
        return r[i] + (r[j] - r[i]) * (d_c - pts[i]) / (pts[j] - pts[i])

    chord, below = line(1, 2), max(line(0, 1), line(2, 3))
    assert chord - below < 1e-4
    assert below - 1e-10 <= rate <= chord + 1e-10
    assert abs(float(np.einsum("i,ij,ij->", src, cond, dist)) - d_c) < 1e-12
    assert abs(d_back - d_c) < 1e-9


def test_rate_distortion_inverse_endpoints():
    src = np.array([0.5, 0.5])
    d_c, rate = rate_distortion_inverse(src, HAMMING, 0.0)
    assert d_c == 0.5 and rate == 0.0
    d_c, _ = rate_distortion_inverse(src, HAMMING, 10.0)
    assert d_c == 0.0


def _rd_dual_lower_bound(src, dist, d_c, q):
    """Blahut's lower bound on R(d_c) from the output law q, at its best slope.

    For every beta >= 0, with c_i = sum_j q_j exp(-beta d_ij),
    R(d_c) >= -beta d_c - sum_i p_i log c_i - log max_j sum_i p_i exp(-beta d_ij) / c_i.
    """
    def bound(log_beta):
        beta = np.exp(log_beta)
        a = np.exp(-beta * dist)
        c = a @ q
        return -beta * d_c - src @ np.log(c) - np.log(((src / c) @ a).max())

    grid = np.linspace(-3.0, 6.0, 91)
    k = int(np.argmax([bound(t) for t in grid]))
    res = minimize_scalar(
        lambda t: -bound(t), bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
        method="bounded", options={"xatol": 1e-10},
    )
    return max(bound(grid[k]), -res.fun)


def test_wide_rate_distortion_certifies_without_full_reruns(monkeypatch):
    # A 64-letter source like the benchmark's panels. After BA_POLISH_AFTER
    # iterations about 50 letters are nearly drained but still positive, and
    # the Newton polish must certify every handoff on its own: no
    # Blahut-Arimoto run goes on to BA_MAX_ITER.
    rng = np.random.default_rng(4)
    src = random_rows(rng, (64,))
    dist = rng.uniform(0.1, 1.0, (64, 64))
    np.fill_diagonal(dist, 0.0)
    d_c = 0.5 * float((src @ dist).min())
    caps = []
    kernel = discrete.ba_rate_distortion

    def counted(source, distortion, beta, tol, max_iter):
        caps.append(max_iter)
        return kernel(source, distortion, beta, tol, max_iter)

    monkeypatch.setattr(discrete, "ba_rate_distortion", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        rate, cond = rate_distortion_discrete(src, dist, d_c)
    assert caps and discrete.BA_MAX_ITER not in caps
    assert float(np.einsum("i,ij,ij->", src, cond, dist)) <= d_c + 1e-9
    assert abs(rate - mutual_information(src, cond)) < 1e-9
    lower = _rd_dual_lower_bound(src, dist, d_c, src @ cond)
    assert lower - 1e-9 <= rate <= lower + 1e-6


def test_newton_polish_readmits_a_screened_coordinate():
    # BSC(0.3) penalized just past the vertex p = (1, 0): the optimum puts
    # about 1.3e-9 on input 1, far below the polish's start screen. A start
    # with input 1 below the screen is moved to the vertex, whose gap is
    # 1e-9, and input 1 has to be admitted back.
    w = bsc(0.3)
    kl = float(w[1] @ np.log(w[1] / w[0]))
    base = (w * np.log(w)).sum(axis=1) - np.array([0.0, kl - 1e-9])

    def oracle(p):
        q = p @ w
        score = base - w @ np.log(q)
        return p @ score, score, -(w / q) @ w.T

    start = np.array([1.0 - 1e-12, 1e-12])
    assert start[1] < discrete._SCREEN * start[0]
    p, gap = discrete._simplex_newton(start, oracle, discrete.BA_TOL)
    assert gap < discrete.BA_TOL
    assert 0.0 < p[1] < discrete._SCREEN


def test_uncertified_answers_warn(monkeypatch):
    # iteration caps too small for Blahut-Arimoto to certify anything, and
    # no Newton polish to finish the runs
    monkeypatch.setattr(discrete, "BA_POLISH_AFTER", 2)
    monkeypatch.setattr(discrete, "BA_MAX_ITER", 3)
    monkeypatch.setattr(discrete, "_NEWTON_STEPS", 0)
    # the three-input model of test_capacity_where_the_optimal_input_law_jumps:
    # its optimum at this budget is not the start of the constrained Newton solve
    model = FiniteCasModel(
        state_prior=[0.5, 0.5],
        sensing_law=np.stack([bsc(0.1)] * 3),
        comm_law=[[0.479, 0.521], [0.836, 0.164], [0.604, 0.396]],
        distortion=HAMMING,
        cost=[0.493, 0.677, 0.061],
    )
    with pytest.warns(ConvergenceWarning) as record:
        constrained_capacity(model, d_s=1.0, budget=0.35)
    messages = [str(w.message) for w in record]
    assert any("Blahut-Arimoto stopped at 3 iterations" in m for m in messages)
    assert any("budget=0.35: Newton solve stopped uncertified" in m for m in messages)
    src = np.array([0.3, 0.7])
    with pytest.warns(ConvergenceWarning) as record:
        rate_distortion_discrete(src, HAMMING, 0.1)
        rate_distortion_inverse(src, HAMMING, 0.2)
    messages = [str(w.message) for w in record]
    assert any("beta=" in m and "stopped at 3 iterations" in m for m in messages)
    # uncertified points leave the bounds of both searches apart
    assert sum("before its bounds met" in m for m in messages) == 2


# ------------------------------------------------------- feasibility region


def test_feasible_when_rate_is_zero():
    model = binary_sensing_model(0.9, 0.6)
    res = theorem1_feasible(model, d_s=0.4, d_c=0.6, budget=1.0)
    assert res.feasible
    assert res.rate == 0.0
    assert abs(res.margin - res.capacity) < 1e-12


def test_noiseless_comm_channel_is_always_feasible():
    model = binary_sensing_model(0.9, 0.6, comm_eps=0.0)
    for d_c in (0.05, 0.2, 0.4):
        res = theorem1_feasible(model, d_s=0.4, d_c=d_c, budget=1.0)
        assert res.capacity <= np.log(2) + 1e-9
        assert res.feasible


def test_feasibility_boundary_crossing_in_d_c():
    model = binary_sensing_model(0.9, 0.6, comm_eps=0.1)
    margins = [
        theorem1_feasible(model, 0.25, d_c, 1.0).margin
        for d_c in np.linspace(0.02, 0.45, 12)
    ]
    assert margins[0] < 0 < margins[-1]
    assert all(b >= a - 1e-9 for a, b in zip(margins, margins[1:]))


# ------------------------------------------------------ total distortion


def test_perfect_chain_reaches_zero_distortion():
    model = noiseless_model()
    point = min_total_distortion(model, budget=1.0, grid=1e-2)
    assert point.d_total < 1e-9


def test_uninformative_sensing_reduces_to_rate_inversion():
    model = state_blind_model()
    point = min_total_distortion(model, budget=1.0, grid=1e-2)
    assert abs(point.d_s - 0.3) < 1e-12
    src = induced_estimate_marginal(model, np.array([0.5, 0.5]))
    cap, _ = constrained_capacity(model, 1.0, 1.0)
    d_c, _ = rate_distortion_inverse(src, model.distortion, cap)
    assert abs(point.d_c - d_c) < 1e-9


def test_reference_model_matches_brute_force():
    model = reference_2x2x2_model()
    budget = 0.6
    point = min_total_distortion(model, budget, grid=1e-3)
    e = estimate_costs(model)
    best = np.inf
    for w in np.arange(0.0, 1.0 + 1e-12, 1e-3):
        p = np.array([w, 1.0 - w])
        if p @ model.cost > budget + 1e-12:
            continue
        cap = mutual_information(p, model.comm_law)
        src = induced_estimate_marginal(model, p)
        d_c, _ = rate_distortion_inverse(src, model.distortion, cap)
        best = min(best, float(p @ e) + d_c)
    assert abs(point.d_total - best) < 1e-3
    assert abs(point.d_total - (point.d_s + point.d_c)) < 1e-9


# --------------------------------------------------------------- validation


def test_model_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FiniteCasModel(
            state_prior=[0.6, 0.6],
            sensing_law=[[[1.0, 0.0], [0.0, 1.0]]],
            comm_law=[[1.0]],
            distortion=HAMMING,
            cost=[0.0],
        )
    with pytest.raises(ValueError):
        FiniteCasModel(
            state_prior=[0.5, 0.5],
            sensing_law=[[[1.0, 0.0], [0.0, 1.0]]],
            comm_law=[[1.0]],
            distortion=[[0.0, -1.0], [1.0, 0.0]],
            cost=[0.0],
        )
    with pytest.raises(ValueError):
        rate_distortion_discrete(np.array([0.5, 0.5]), np.array([[0.0], [1.0], [2.0]]), 0.1)


def test_mutual_information_basics():
    assert mutual_information(np.array([0.5, 0.5]), np.eye(2)) == pytest.approx(np.log(2))
    flat = np.full((2, 2), 0.5)
    assert mutual_information(np.array([0.3, 0.7]), flat) == pytest.approx(0.0, abs=1e-12)
