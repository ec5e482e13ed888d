"""ISAC Gram optimizer, separated-waveform baseline, SNR sweep."""

import time
from dataclasses import replace

import numpy as np
import pytest

from cas_limits import (
    NonFiniteObjective,
    TrmModel,
    optimize_isac,
    optimize_sw,
    random_trm_model,
    sensing_mse,
    sweep_snr,
)
from cas_limits import waveform
from cas_limits.gaussian import channel_mi, gram_spectrum
from cas_limits.waveform import (
    CONVERGED_STOPS,
    CSV_COLUMNS,
    _backtrack,
    _gradient,
    _objective,
    _project,
    _split_scores,
    _waterfill,
    curve_rows,
    evaluate_gram,
    read_curve_csv,
    sw_point,
    write_curve_csv,
    write_curve_json,
)

from helpers import (
    commuting_trm_model,
    crossover_trm_model,
    fd_gradient,
    grad_to_param,
    loop_optimize_isac,
    loop_split_scores,
    scalar_trm_model,
)


def golden_min(f, a, b, iters=200):
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
    return mid, f(mid)


# ----------------------------------------------------------------- isac PGD


def test_scalar_model_matches_line_search_oracle():
    model = scalar_trm_model(power=1.0, t=4)
    _, oracle = golden_min(
        lambda q: _objective(model, np.array([[q + 0j]])), 0.0, model.trace_budget
    )
    res = optimize_isac(model)
    assert res.converged
    assert abs(res.point.d_total - oracle) / oracle < 1e-4


def test_commuting_model_matches_grid_oracle():
    model, u = commuting_trm_model()
    budget = model.trace_budget
    res_grid = 120  # coarser than the acceptance run, same structure
    best = np.inf
    for i in range(res_grid + 1):
        p1 = budget * i / res_grid
        for j in range(res_grid + 1 - i):
            p2 = budget * j / res_grid
            q = (u * np.array([p1, p2])) @ u.conj().T
            best = min(best, _objective(model, q))
    res = optimize_isac(model)
    assert (res.point.d_total - best) / best < 1e-3


def test_vanishing_power_gives_prior_distortion():
    model = scalar_trm_model(power=1e-12, t=4)
    res = optimize_isac(model)
    assert res.point.d_total == pytest.approx(
        model.m_s * np.real(np.trace(model.sigma_s)), abs=1e-6
    )
    assert res.q_star.trace <= model.trace_budget + 1e-9


def test_result_is_feasible_and_no_worse_than_the_init(rng):
    model = random_trm_model(9, n=3, m_s=2, m_c=2, t=8, power=0.5)
    init = (model.trace_budget / 3) * np.eye(3)
    f_init = _objective(model, init)
    res = optimize_isac(model)
    q = res.q_star.q
    assert np.all(np.linalg.eigvalsh(q) >= -1e-10)
    assert res.trace_used <= model.trace_budget + 1e-9
    assert res.point.d_total <= f_init + 1e-12
    assert res.point.d_total == pytest.approx(res.point.d_s + res.point.d_c, abs=1e-9)


def test_warm_start_is_feasible_and_no_worse_than_its_init():
    # the summed separated-waveform Grams are a feasible ISAC Gram (trace = budget)
    for seed in range(4):
        model = random_trm_model(seed, n=3, m_s=2, m_c=2, t=8)
        sw = optimize_sw(model, split_grid=21)
        init = sw.q_star[0].q + sw.q_star[1].q
        assert np.real(np.trace(init)) <= model.trace_budget + 1e-9
        res = optimize_isac(model, init=init)
        assert np.all(np.linalg.eigvalsh(res.q_star.q) >= -1e-10)
        assert res.trace_used <= model.trace_budget + 1e-9
        assert res.point.d_total <= _objective(model, init) + 1e-12


def _random_psd(rng, n, rank, trace):
    a = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / 2
    q = a @ a.conj().T
    return q * (trace / np.real(np.trace(q)))


def _random_shape(rng, n_min=1):
    n = int(rng.integers(n_min, 6))
    return n, int(rng.integers(1, 5)), int(rng.integers(1, 5)), float(10 ** rng.uniform(-1, 2))


def test_gradient_matches_central_differences_on_interior_grams():
    # at h = 1e-6 * scale the oracle's own O(h^2) truncation stays far below the tolerance
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        n, m_s, m_c, power = _random_shape(rng)
        model = random_trm_model(seed, n=n, m_s=m_s, m_c=m_c, t=2 * n + 2, power=power)
        q = _random_psd(rng, n, n, 1.0) + 0.1 * np.eye(n)
        q *= model.trace_budget * rng.uniform(0.3, 1.0) / np.real(np.trace(q))
        expect = fd_gradient(model, q, 1e-6 * model.trace_budget / n)
        got = grad_to_param(_gradient(model, q))
        assert np.linalg.norm(got - expect) <= 1e-6 * np.linalg.norm(expect), seed


def test_gradient_matches_one_sided_differences_on_rank_deficient_grams():
    # central differences would leave the PSD cone; step along a PSD direction,
    # which also grows the modes below RANK_RTOL that the gradient weights by 1
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        n, m_s, m_c, power = _random_shape(rng, n_min=2)
        model = random_trm_model(seed, n=n, m_s=m_s, m_c=m_c, t=2 * n + 2, power=power)
        budget = model.trace_budget
        q = _random_psd(rng, n, int(rng.integers(1, n)), budget * rng.uniform(0.3, 1.0))
        d = _random_psd(rng, n, n, budget / n)
        t = 1e-6
        f0, f1, f2 = (_objective(model, q + k * t * d) for k in range(3))
        expect = (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * t)
        got = float(np.real(np.trace(_gradient(model, q) @ d)))
        assert abs(got - expect) <= 1e-5 * abs(expect), seed


def test_fw_gap_is_the_slope_along_the_frank_wolfe_direction():
    # the gap is -d/dt f(Q + t (S - Q)) at t = 0, with S the linear oracle's
    # vertex: T P_T v v^H for the eigenvector v of the least eigenvalue of G
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        model = random_trm_model(seed, n=n, m_s=1 + seed % 3, m_c=1 + seed % 4, t=2 * n + 2,
                                 power=float(10 ** rng.uniform(-1, 2)))
        res = optimize_isac(model, max_iter=300)
        q, budget = res.q_star.q, model.trace_budget
        assert res.fw_gap >= -1e-12, seed
        lam, v = np.linalg.eigh(_gradient(model, q))
        s = budget * np.outer(v[:, 0], v[:, 0].conj()) if lam[0] < 0 else 0.0 * q
        t = 1e-5    # one-sided, second order: O(t^2) truncation
        f0, f1, f2 = (evaluate_gram(model, q + k * t * (s - q)).d_total for k in range(3))
        slope = (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * t)
        assert abs(slope + res.fw_gap) <= 1e-4 * res.fw_gap, seed


def test_stop_reasons():
    assert optimize_isac(scalar_trm_model(power=1.0, t=4)).stop in CONVERGED_STOPS
    model = crossover_trm_model()
    capped = optimize_isac(model, max_iter=2)
    assert (capped.stop, capped.converged, capped.iterations) == ("max_iter", False, 2)
    # at 0 dB the rescaling projection turns every step uphill before the
    # gradient vanishes: the Armijo search fails through all its halvings
    stalled = optimize_isac(replace(model, power=1.0))
    assert (stalled.stop, stalled.converged) == ("line_search", False)


def test_low_snr_crossover_point_descends_past_the_old_stop():
    # criterion 7's -10 dB point; finite-difference gradients stopped after
    # 6 iterations at 8.54948
    model = crossover_trm_model()
    res = optimize_isac(replace(model, power=0.1))
    assert res.point.d_total < 8.4293


def test_sixteen_antenna_run_is_fast_and_no_worse():
    model = random_trm_model(5, n=16, t=32)
    t0 = time.perf_counter()
    res = optimize_isac(model)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0  # criterion 6's limit
    # finite-difference gradients stopped at 24.64186 here, after about 2 s
    assert res.point.d_total < 24.6419
    assert res.trace_used <= model.trace_budget + 1e-9


ISAC_ORACLE_MODELS = {
    # the cas-cli recipe {"seed": s, "n": 4, "m_s": 2, "m_c": 2, "t": 8}, one per stop reason
    "ftol": random_trm_model(0, n=4, m_s=2, m_c=2, t=8),
    "line_search": random_trm_model(2, n=4, m_s=2, m_c=2, t=8),
    "no_move": random_trm_model(5, n=4, m_s=2, m_c=2, t=8),
    # criterion 7's sweep, and the sixteen-antenna run
    **{f"crossover {snr:g} dB": replace(crossover_trm_model(), power=10.0 ** (snr / 10.0))
       for snr in np.linspace(-10.0, 30.0, 9)},
    "n16": random_trm_model(5, n=16, t=32),
}


@pytest.mark.parametrize("name", ISAC_ORACLE_MODELS)
def test_isac_matches_the_one_gram_at_a_time_search(name, monkeypatch):
    model = ISAC_ORACLE_MODELS[name]
    sizes = []
    objective = waveform._objective

    def counted(model, qa):
        sizes.append(1 if qa.ndim == 2 else len(qa))
        return objective(model, qa)

    monkeypatch.setattr(waveform, "_objective", counted)
    res = optimize_isac(model)
    q, point, stop, iterations, fw_gap = loop_optimize_isac(model)
    assert res.q_star.q.tobytes() == q.tobytes()
    assert res.point == point
    assert (res.stop, res.iterations, res.fw_gap) == (stop, iterations, fw_gap)
    if name in ("ftol", "line_search", "no_move"):
        assert res.stop == name
    if res.stop == "line_search":
        # the failed search scores all 60 halvings, in stacks of growing size
        assert sizes[-4:] == [1, 4, 16, 39]


def _stack_fixture():
    """Models and one stack of Grams: full-rank, rank-deficient and zero, over and under budget."""
    models = [random_trm_model(3, n=4, m_s=3, m_c=2, t=8),
              replace(random_trm_model(4, n=3, m_s=2, m_c=2, t=6), h_c=np.zeros((2, 3))),
              random_trm_model(6, n=8, m_s=2, m_c=3, t=16)]
    for model in models:
        rng = np.random.default_rng(model.n)
        grams = [np.zeros((model.n, model.n), dtype=np.complex128)]
        for rank in (model.n, model.n, 1, model.n - 1):
            a = rng.standard_normal((model.n, rank)) + 1j * rng.standard_normal((model.n, rank))
            grams.append(a @ a.conj().T)
        # traces 0, then two and a half times the budget, a tenth of it, and so on
        scales = [1.0, 2.5, 0.1, 1.3, 0.4]
        stack = np.array([s * model.trace_budget * g / max(np.trace(g).real, 1e-300)
                          for s, g in zip(scales, grams)])
        yield model, stack


def test_stacked_closed_forms_match_per_gram_calls():
    for model, stack in _stack_fixture():
        budget = model.trace_budget
        assert any(np.trace(q).real > budget for q in stack)
        assert any(0 < np.trace(q).real < budget for q in stack)
        for fn in (lambda q: sensing_mse(model, q), lambda q: channel_mi(model, q),
                   lambda q: gram_spectrum(model, q), lambda q: _project(q, budget),
                   lambda q: _objective(model, q)):
            rows = fn(stack)
            assert len(rows) == len(stack)
            for q, row in zip(stack, rows):
                one = fn(q)
                assert np.asarray(one).tobytes() == row.tobytes()
        assert isinstance(_objective(model, stack[0]), float)
        for q, total in zip(stack, _objective(model, stack)):
            assert evaluate_gram(model, q).d_total == total
        assert channel_mi(model, stack).any() == model.h_c.any()


def _poisoned_objective(values_per_call):
    calls = iter(values_per_call)

    def fake(_model, qa):
        out = np.array(next(calls), dtype=np.float64)
        assert out.shape == (len(qa),)
        return out

    return fake


def test_non_finite_totals_past_where_the_scan_stops_are_ignored(monkeypatch):
    model = random_trm_model(2, n=4, m_s=2, m_c=2, t=8)
    qa = (model.trace_budget / model.n) * np.eye(model.n, dtype=np.complex128)
    direction = _gradient(model, qa)
    direction = 2.0 * direction - np.diag(np.diag(direction))
    f, step, nan = 10.0, 1e-3, float("nan")
    candidate = lambda k: _project(qa - step * 0.5**k * direction, model.trace_budget)  # noqa: E731

    # accepted at the third candidate; the one after it is not finite
    monkeypatch.setattr(waveform, "_objective",
                        _poisoned_objective([[f + 1.0], [f + 1.0, f - 1.0, nan, nan]]))
    stop, q, f_new, t = _backtrack(model, qa, f, direction, step, 0.0)
    assert (stop, f_new, t) == (None, f - 1.0, step * 0.25)
    assert q.tobytes() == candidate(2).tobytes()

    # a non-finite total before the accepted one raises
    monkeypatch.setattr(waveform, "_objective",
                        _poisoned_objective([[f + 1.0], [nan, f - 1.0, nan, nan]]))
    with pytest.raises(NonFiniteObjective):
        _backtrack(model, qa, f, direction, step, 0.0)

    # the second candidate moves less than the threshold: the search stops there,
    # and the non-finite totals at and after it are never looked at
    moves = [np.sum(np.abs(candidate(k) - qa) ** 2) for k in (0, 1)]
    monkeypatch.setattr(waveform, "_objective",
                        _poisoned_objective([[f + 1.0], [nan, nan, nan, nan]]))
    stop, q, f_new, t = _backtrack(model, qa, f, direction, step, 0.5 * (moves[0] + moves[1]))
    assert (stop, f_new, t) == ("no_move", f, step * 0.5)
    assert q is qa


def test_rate_never_exceeds_the_channel_mi(rng):
    model = random_trm_model(10, n=3, m_s=2, m_c=3, t=8)
    for _ in range(10):
        a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 2
        q = a @ a.conj().T
        q *= model.trace_budget / np.real(np.trace(q)) * rng.uniform(0.2, 1.0)
        point = evaluate_gram(model, q)
        assert point.rate <= point.capacity + 1e-8


# ------------------------------------------------------------------ baseline


def test_full_sensing_split_has_zero_rate():
    model = random_trm_model(11, n=3, m_s=2, m_c=2, t=8)
    point, q_s, q_c = sw_point(model, 1.0)
    assert np.allclose(q_c, 0.0)
    assert point.rate == 0.0
    lam = gram_spectrum(model, q_s)
    assert point.d_c == pytest.approx(lam.sum(), rel=1e-10)
    assert point.d_s == pytest.approx(sensing_mse(model, q_s), rel=1e-12)


def test_scalar_baseline_matches_dense_split_grid():
    model = scalar_trm_model(power=1.0, t=4)
    res = optimize_sw(model, split_grid=1001)
    dense = min(sw_point(model, rho)[0].d_total for rho in np.linspace(0.0, 1.0, 1001))
    assert res.point.d_total == pytest.approx(dense, abs=1e-12)


def test_comm_waterfilling_two_mode_closed_form():
    # channel gains diag(4, 1): with enough power both modes are active and
    # p_i = level - 1/(scale g_i) at a common level
    model = TrmModel(
        sigma_s=np.eye(2), h_c=np.diag([2.0, 1.0]), noise_s=1.0, noise_c=1.0,
        t=4, m_s=1, power=1.0,
    )
    gram = model.h_c.conj().T @ model.h_c
    power = 2.0
    scale = model.t / model.noise_c
    q = _waterfill(gram, scale, power)
    p = np.real(np.diag(q))[::-1]  # eigh returns ascending gains
    level = (power + 1.0 / (scale * 4.0) + 1.0 / (scale * 1.0)) / 2.0
    expect = np.array([level - 1.0 / (scale * 4.0), level - 1.0 / (scale * 1.0)])
    assert np.allclose(np.sort(p), np.sort(expect), atol=1e-9)
    assert np.real(np.trace(q)) == pytest.approx(power, abs=1e-9)
    # below 1/(scale 1) - 1/(scale 4) only the stronger mode is filled
    power = 0.5 * (1.0 / (scale * 1.0) - 1.0 / (scale * 4.0))
    q = _waterfill(gram, scale, power)
    assert np.allclose(np.real(np.diag(q)), [power, 0.0], atol=1e-12)
    assert np.real(np.trace(q)) == pytest.approx(power, abs=1e-12)


def test_zero_power_fills_nothing_on_tied_floors():
    # three floors of 0.1: the level of all three at total 0 rounds to
    # 0.1 + 2e-17, so only the zero-power rule keeps the powers exactly 0
    powers = waveform._waterfill_powers(np.full(3, 10.0), 1.0, np.array([0.0, 0.3]))
    assert np.all(powers[0] == 0.0)
    assert np.allclose(powers[1], 0.1, rtol=1e-15)
    assert np.all(waveform._waterfill_powers(np.full(3, 10.0), 1.0, 0.0) == 0.0)


def test_sensing_waterfilling_spends_the_power():
    model = random_trm_model(12, n=3, m_s=2, m_c=2, t=8)
    q = _waterfill(model.sigma_s, model.t / model.noise_s, 1.5)
    assert np.real(np.trace(q)) == pytest.approx(1.5, abs=1e-9)
    assert np.all(np.linalg.eigvalsh(q) >= -1e-12)
    # spending power on the prior eigenbasis beats the unscaled identity
    assert sensing_mse(model, q) <= sensing_mse(model, 0.5 * np.eye(3)) + 1e-12


def test_optimal_split_beats_the_endpoints():
    model = random_trm_model(13, n=3, m_s=2, m_c=2, t=8)
    res = optimize_sw(model, split_grid=101)
    assert res.point.d_total <= sw_point(model, 0.0)[0].d_total + 1e-12
    assert res.point.d_total <= sw_point(model, 1.0)[0].d_total + 1e-12
    assert 0.0 <= res.rho <= 1.0


def _split_models():
    """40 random models with mixed shapes and noise, then two with a zero channel.

    Odd seeds draw the prior's rank (12 of the 40 priors are rank-deficient);
    18 of the 40 models have m_c < n.
    """
    for seed in range(40):
        rng = np.random.default_rng(3000 + seed)
        n, m_s, m_c, _ = _random_shape(rng)
        rank = int(rng.integers(1, n + 1)) if seed % 2 else n
        yield TrmModel(
            sigma_s=_random_psd(rng, n, rank, float(n)),
            h_c=(rng.standard_normal((m_c, n)) + 1j * rng.standard_normal((m_c, n))) / np.sqrt(2),
            noise_s=float(rng.uniform(0.5, 2.0)), noise_c=float(rng.uniform(0.5, 2.0)),
            t=2 * n, m_s=m_s, power=float(10 ** rng.uniform(-1, 3)),
        )
    rng = np.random.default_rng(3040)
    for n, rank in ((3, 3), (4, 2)):
        yield TrmModel(sigma_s=_random_psd(rng, n, rank, float(n)), h_c=np.zeros((2, n)),
                       noise_s=1.0, noise_c=1.0, t=2 * n, m_s=2, power=1.0)


def test_split_scores_match_sw_point():
    for seed, model in enumerate(_split_models()):
        rhos = np.linspace(0.0, 1.0, 21)
        expect = np.array([sw_point(model, float(rho))[0].d_total for rho in rhos])
        assert np.allclose(_split_scores(model, rhos), expect, rtol=1e-10, atol=0.0), seed
        res = optimize_sw(model, split_grid=21)
        assert res.point == sw_point(model, res.rho)[0]


def test_split_scores_match_the_per_split_loop():
    # grids of 2 points, 21 points, and two full blocks and a part of a third;
    # each grid holds both ends, rho = 0 and rho = 1
    grids = (2, 21, 2 * waveform._SPLIT_BLOCK + 3)
    for k, model in enumerate(_split_models()):
        rhos = np.linspace(0.0, 1.0, grids[k % 3])
        expect = loop_split_scores(model, rhos)
        got = _split_scores(model, rhos)
        assert np.all(np.abs(got - expect) <= 1e-15 * np.abs(expect)), k
        assert np.argmin(got) == np.argmin(expect), k
        assert optimize_sw(model, split_grid=rhos.size).rho == rhos[np.argmin(expect)], k


def test_summed_sw_grams_do_no_worse_as_one_isac_gram():
    # one Gram Q_s + Q_c sends and senses with both parts at once; on these
    # models it never scores above the separated design it came from
    rng = np.random.default_rng(18)
    for seed in range(60):
        n, m_s, m_c = (int(k) for k in rng.integers(1, (6, 5, 5)))
        model = random_trm_model(seed, n=n, m_s=m_s, m_c=m_c, t=2 * n,
                                 power=float(10 ** rng.uniform(-1.5, 2.0)))
        sw = optimize_sw(model, split_grid=51)
        joint = evaluate_gram(model, sw.q_star[0].q + sw.q_star[1].q)
        assert joint.d_total <= sw.point.d_total + 1e-12, seed


def test_split_grid_validation():
    model = scalar_trm_model()
    with pytest.raises(ValueError):
        optimize_sw(model, split_grid=1)


# --------------------------------------------------------------------- sweep


def test_single_point_sweep_equals_direct_calls():
    model = random_trm_model(14, n=2, m_s=2, m_c=2, t=4, power=1.0)
    curve = sweep_snr(model, [0.0], split_grid=51, max_iter=300)
    from dataclasses import replace

    at_power = replace(model, power=1.0)  # 0 dB at unit noise
    direct_isac = optimize_isac(at_power, max_iter=300)
    direct_sw = optimize_sw(at_power, split_grid=51)
    assert curve.results["isac"][0].point.d_total == pytest.approx(
        direct_isac.point.d_total, abs=1e-12
    )
    assert curve.results["sw"][0].point.d_total == pytest.approx(
        direct_sw.point.d_total, abs=1e-12
    )


def test_sweep_isolates_per_point_failures(monkeypatch):
    model = random_trm_model(15, n=2, m_s=2, m_c=2, t=4)
    isac = waveform.optimize_isac

    def fails_at_5db(m, **kwargs):
        if m.power > 2.0 * model.noise_c:
            raise NonFiniteObjective("injected")
        return isac(m, **kwargs)

    monkeypatch.setattr(waveform, "optimize_isac", fails_at_5db)
    curve = sweep_snr(model, [0.0, 5.0], split_grid=11, max_iter=100)
    assert all(r is not None for r in curve.results["sw"])
    assert curve.results["isac"][0] is not None and curve.errors["isac"][0] is None
    assert curve.results["isac"][1] is None
    assert curve.errors["isac"][1] == "NonFiniteObjective: injected"


@pytest.mark.parametrize("schemes", [("sw", "bogus"), ("sw", "sw"), "sw"])
def test_sweep_rejects_bad_scheme_names_before_the_first_point(schemes):
    # a failure at a point is recorded, not raised, so a raise comes from the up-front check
    model = random_trm_model(15, n=2, m_s=2, m_c=2, t=4)
    with pytest.raises(ValueError, match="schemes"):
        sweep_snr(model, [0.0, 5.0], schemes=schemes, split_grid=11)


@pytest.mark.parametrize("snr_db", [[float("nan")], [0.0, float("inf")], [-float("inf"), 0.0]])
def test_sweep_rejects_non_finite_snr_before_the_first_point(monkeypatch, snr_db):
    monkeypatch.setattr(waveform, "optimize_isac", None)
    monkeypatch.setattr(waveform, "optimize_sw", None)
    with pytest.raises(ValueError, match="snr_db must be finite"):
        sweep_snr(scalar_trm_model(), snr_db)


@pytest.mark.parametrize("schemes", [("isac", "sw"), ("sw",), ("isac",)])
def test_sweep_rejects_a_split_grid_below_2_before_the_first_point(monkeypatch, schemes):
    monkeypatch.setattr(waveform, "optimize_isac", None)
    monkeypatch.setattr(waveform, "optimize_sw", None)
    with pytest.raises(ValueError, match="split_grid must be at least 2"):
        sweep_snr(scalar_trm_model(), [0.0], schemes=schemes, split_grid=1)


def test_sweep_grid_must_be_sorted():
    model = scalar_trm_model()
    with pytest.raises(ValueError):
        sweep_snr(model, [5.0, 0.0])
    with pytest.raises(ValueError):
        sweep_snr(model, [])


def test_curve_csv_round_trip(tmp_path):
    model = random_trm_model(16, n=2, m_s=2, m_c=2, t=4)
    curve = sweep_snr(model, [0.0, 10.0], split_grid=21, max_iter=200)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    rows = read_curve_csv(path)
    orig = curve_rows(curve)
    assert len(rows) == len(orig) == 4
    for a, b in zip(rows, orig):
        for key in CSV_COLUMNS:
            if key in ("scheme", "converged"):
                assert a[key] == b[key]
            else:
                assert a[key] == pytest.approx(b[key], abs=0.0)


def test_failed_csv_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    model = random_trm_model(16, n=2, m_s=2, m_c=2, t=4)
    curve = sweep_snr(model, [0.0], split_grid=11, max_iter=100)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    before = path.read_bytes()
    rows = curve_rows(curve)
    # the header and the first row are written before the row with a field outside CSV_COLUMNS
    monkeypatch.setattr(waveform, "curve_rows", lambda _: [rows[0], {**rows[1], "bad": 1.0}])
    with pytest.raises(ValueError):
        write_curve_csv(curve, path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_curve_json_contains_all_rows(tmp_path):
    import json

    model = random_trm_model(17, n=2, m_s=2, m_c=2, t=4)
    curve = sweep_snr(model, [0.0], split_grid=11, max_iter=100)
    path = tmp_path / "curve.json"
    write_curve_json(curve, path)
    payload = json.loads(path.read_text())
    assert payload["snr_db"] == [0.0]
    assert len(payload["rows"]) == 2
