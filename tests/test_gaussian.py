"""Closed forms for the Gaussian target-response-matrix example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cas_limits import (
    GramMatrix,
    TrmModel,
    channel_mi,
    gram_spectrum,
    mmse_filter,
    random_trm_model,
    reverse_waterfill,
    sensing_mse,
)
from cas_limits.gaussian import water_level, waveform_from_gram
from cas_limits.modelio import load_trm_model, save_trm_model

from helpers import (
    SingularPrior,
    estimate_covariance,
    random_unitary,
    scalar_trm_model,
    sensing_mse_direct,
)


def random_psd(rng, n, scale=1.0):
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return scale * (a @ a.conj().T)


# -------------------------------------------------------------- sensing MSE


def test_zero_gram_leaves_prior_variance(rng):
    model = random_trm_model(0, n=3, m_s=2, m_c=2, t=8)
    q = np.zeros((3, 3))
    expect = model.m_s * np.real(np.trace(model.sigma_s))
    assert sensing_mse(model, q) == pytest.approx(expect, rel=1e-12)


def test_scalar_sensing_mse():
    model = scalar_trm_model(power=3.0, t=1)
    assert sensing_mse(model, np.array([[3.0]])) == pytest.approx(0.25, abs=1e-15)


def test_sensing_mse_vanishes_with_power():
    model = random_trm_model(1, n=2, m_s=2, m_c=2, t=4)
    prev = np.inf
    for p in (0.1, 1.0, 10.0, 1e4, 1e8):
        d = sensing_mse(model, p * np.eye(2))
        assert d < prev
        prev = d
    assert prev < 1e-6


def test_direct_and_robust_forms_agree(rng):
    for seed in range(5):
        model = random_trm_model(seed, n=3, m_s=2, m_c=2, t=8)
        q = random_psd(rng, 3, scale=4.0)
        a = sensing_mse(model, q)
        b = sensing_mse_direct(model, q)
        assert a == pytest.approx(b, rel=1e-10)


def test_rank_deficient_prior_rejected_by_direct_form(rng):
    u = random_unitary(rng, 3)
    sigma = (u * np.array([2.0, 1.0, 0.0])) @ u.conj().T
    model = TrmModel(
        sigma_s=sigma, h_c=np.eye(3), noise_s=1.0, noise_c=1.0, t=4, m_s=1, power=1.0
    )
    q = np.eye(3)
    with pytest.raises(SingularPrior):
        sensing_mse_direct(model, q)
    # the inverse-free form still works and respects the zero mode
    assert np.isfinite(sensing_mse(model, q))


def test_sensing_mse_monotone_and_convex_along_psd_rays(rng):
    model = random_trm_model(2, n=3, m_s=2, m_c=2, t=8)
    for _ in range(10):
        q0 = random_psd(rng, 3)
        dq = random_psd(rng, 3)
        f = [sensing_mse(model, q0 + t * dq) for t in (0.0, 0.5, 1.0)]
        assert f[2] <= f[1] + 1e-12 <= f[0] + 2e-12
        assert f[1] <= 0.5 * (f[0] + f[2]) + 1e-12


# -------------------------------------------------------------- MMSE filter


def test_zero_prior_gives_zero_filter():
    model = TrmModel(
        sigma_s=np.zeros((2, 2)), h_c=np.eye(2), noise_s=1.0, noise_c=1.0,
        t=4, m_s=1, power=1.0,
    )
    w = mmse_filter(model, np.ones((2, 4)))
    assert np.allclose(w, 0.0)


def test_scalar_filter_gain():
    model = scalar_trm_model(power=3.0, t=1)
    w = mmse_filter(model, np.array([[np.sqrt(3.0)]]))
    assert w[0, 0] == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-15)


def test_orthogonal_rows_give_per_mode_gain(rng):
    n, t, p = 3, 6, 2.5
    model = TrmModel(
        sigma_s=np.eye(n), h_c=np.eye(n), noise_s=1.0, noise_c=1.0,
        t=t, m_s=2, power=1.0,
    )
    u = random_unitary(rng, t)
    x = np.sqrt(p) * u[:n, :]  # orthogonal rows, each with power p
    w = mmse_filter(model, x)
    gain = w @ x.conj().T
    assert np.allclose(gain, (p / (p + 1.0)) * np.eye(n), atol=1e-12)


# ------------------------------------------------------- estimate covariance


def test_zero_waveform_gives_zero_spectrum():
    model = random_trm_model(3, n=2, m_s=2, m_c=2, t=4)
    spec = estimate_covariance(model, np.zeros((2, 4)))
    assert np.allclose(spec, 0.0)


def test_scalar_estimate_variance():
    model = scalar_trm_model(power=3.0, t=1)
    spec = estimate_covariance(model, np.array([[np.sqrt(3.0)]]))
    assert spec[0] == pytest.approx(0.75, abs=1e-12)


def test_trace_identity(rng):
    for seed in range(5):
        model = random_trm_model(seed, n=3, m_s=3, m_c=2, t=8)
        q = random_psd(rng, 3, scale=2.0)
        x = waveform_from_gram(model, q)
        d_s = sensing_mse(model, q)
        spec = estimate_covariance(model, x)
        total = model.m_s * np.real(np.trace(model.sigma_s))
        assert d_s + spec.sum() == pytest.approx(total, rel=1e-8)


def test_gram_and_waveform_spectra_agree(rng):
    model = random_trm_model(4, n=3, m_s=2, m_c=2, t=8)
    q = random_psd(rng, 3, scale=3.0)
    x = waveform_from_gram(model, q)
    a = estimate_covariance(model, x)
    b = gram_spectrum(model, q)
    assert np.allclose(a, b, atol=1e-10)
    assert a.size == model.n * model.m_s


def test_spectra_are_nonnegative_descending_arrays_of_length_n_ms(rng):
    # a rank-1 Gram leaves all but M_s estimate eigenvalues at rounding level,
    # where the clip at 0 decides their sign
    for seed in range(5):
        model = random_trm_model(seed, n=3, m_s=2, m_c=2, t=8)
        a = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        q = a @ a.conj().T
        x = waveform_from_gram(model, q)
        for spec in (gram_spectrum(model, q), estimate_covariance(model, x)):
            assert isinstance(spec, np.ndarray) and spec.shape == (model.n * model.m_s,)
            assert np.all(spec >= 0.0)
            assert np.all(np.diff(spec) <= 0.0)
            # each per-block eigenvalue appears M_s times
            assert np.array_equal(spec, np.repeat(spec[:: model.m_s], model.m_s))


# ------------------------------------------------------ reverse water-filling


def test_zero_rate_returns_the_full_spectrum():
    res = reverse_waterfill(np.array([3.0, 2.0, 0.5]), 0.0)
    assert res.d_c == pytest.approx(5.5)
    assert res.rate == 0.0
    assert np.allclose(res.allocations, [3.0, 2.0, 0.5])


def test_scalar_mode_exponential_decay():
    res = reverse_waterfill(np.array([1.0]), np.log(4.0))
    assert res.d_c == pytest.approx(0.25, abs=1e-9)


def test_two_mode_textbook_allocation():
    res = reverse_waterfill(np.array([4.0, 1.0]), np.log(4.0))
    assert res.xi == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.allocations, [1.0, 1.0], atol=1e-9)
    assert res.d_c == pytest.approx(2.0, abs=1e-8)


def test_zero_modes_carry_nothing():
    res = reverse_waterfill(np.array([2.0, 0.0, 0.0]), 1.0)
    assert res.allocations[1] == 0.0 and res.allocations[2] == 0.0
    assert res.rate == pytest.approx(1.0, abs=1e-9)


def test_rate_round_trip(rng):
    for _ in range(30):
        lam = rng.uniform(0.05, 5.0, int(rng.integers(1, 8)))
        budget = float(rng.uniform(0.01, 4.0))
        res = reverse_waterfill(lam, budget)
        # recompute the spent rate from the returned allocation
        sorted_lam = np.sort(lam)[::-1]
        live = res.allocations > 0
        rate = float(np.sum(np.log(sorted_lam[live] / res.allocations[live])))
        assert rate == pytest.approx(budget, abs=1e-8)
        assert np.all(res.allocations <= sorted_lam + 1e-12)


def test_reverse_waterfill_spends_its_budget_exactly():
    # every positive mode, however small, gets min(lambda, xi); only exact zeros get 0
    rng = np.random.default_rng(77)
    for k in range(40):
        lam = np.sort(rng.uniform(0.01, 10.0, int(rng.integers(2, 9))))[::-1]
        if k % 4 == 0:
            lam[-1] = 1e-14 * lam[0]    # a mode at rounding level of the largest
        elif k % 4 == 2:
            lam[-1] = 0.0
        budget = float(rng.uniform(0.0, 8.0))
        res = reverse_waterfill(lam, budget)
        live = lam > 0.0
        assert np.array_equal(res.allocations[live], np.minimum(lam[live], res.xi))
        spent = float(np.sum(np.log(lam[live] / res.allocations[live])))
        assert abs(spent - budget) <= 1e-12 * max(1.0, budget)
        assert abs(res.rate - budget) <= 1e-12 * max(1.0, budget)
        assert np.all(res.allocations[~live] == 0.0)


def test_reverse_waterfill_distortion_is_continuous_in_a_small_mode():
    # two spectra that differ in one mode, on either side of 1e-12 of the largest:
    # d_c is the sum of min(lambda_i, xi), so it moves by at most M_s |d lambda|
    for m_s in (1, 2, 4):
        for rate in (0.0, 0.3, 2.0, 9.0):
            lam_max = 3.0
            below, above = (np.repeat([lam_max, 1.0, 0.5, f * 1e-12 * lam_max], m_s)
                            for f in (0.99, 1.01))
            a, b = reverse_waterfill(below, rate), reverse_waterfill(above, rate)
            bound = m_s * 0.02e-12 * lam_max + 8 * np.finfo(float).eps * max(a.d_c, 1.0)
            assert abs(a.d_c - b.d_c) <= bound, (m_s, rate)


def test_reverse_waterfill_rejects_nan_and_takes_an_infinite_budget():
    with pytest.raises(ValueError, match="rate_budget"):
        reverse_waterfill(np.array([2.0, 1.0]), float("nan"))
    with pytest.raises(ValueError, match="rate_budget"):
        reverse_waterfill(np.array([2.0, 1.0]), -0.5)
    with pytest.raises(ValueError, match="NaN"):
        reverse_waterfill(np.array([2.0, np.nan, 1.0]), 1.0)
    res = reverse_waterfill(np.array([2.0, 1.0, 0.0]), np.inf)
    assert res.d_c == 0.0 and res.xi == 0.0
    assert np.all(res.allocations == 0.0)


@settings(max_examples=300, deadline=None)
@given(
    floors=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12),
    total=st.floats(0.0, 100.0),
    more=st.lists(st.floats(0.0, 100.0), max_size=5),
)
def test_water_level_meets_its_defining_equation(floors, total, more):
    floors = np.array(floors)
    level = water_level(floors, total)
    filled = float(np.maximum(level - floors, 0.0).sum())
    assert abs(filled - total) <= 1e-12 * max(1.0, total, float(np.abs(floors).max()))
    # an infinite floor never fills
    assert water_level(np.append(floors, np.inf), total) == level
    # an array of totals gives, row by row, the scalar call's level: against
    # one shared row of floors, and against one row each, some ending in inf
    totals = np.array([total] + more)
    assert np.array_equal(water_level(floors, totals), [water_level(floors, x) for x in totals])
    rows = floors * np.arange(1, totals.size + 1)[:, None]
    rows[1::2, -1] = np.inf
    assert np.array_equal(water_level(rows, totals),
                          [water_level(r, x) for r, x in zip(rows, totals)])


def test_water_level_of_a_row_without_finite_floors_is_infinite():
    levels = water_level(np.array([[1.0, 2.0], [np.inf, np.inf]]), np.array([1.0, 1.0]))
    assert levels[0] == 2.0 and levels[1] == np.inf


def test_negative_rate_budget_rejected():
    with pytest.raises(ValueError):
        reverse_waterfill(np.array([1.0]), -0.1)


# ----------------------------------------------------------------- channel MI


def test_zero_gram_zero_mi():
    model = random_trm_model(5, n=2, m_s=2, m_c=3, t=4)
    assert channel_mi(model, np.zeros((2, 2))) == 0.0


def test_scalar_mi():
    model = scalar_trm_model(power=3.0, t=1)
    assert channel_mi(model, np.array([[3.0]])) == pytest.approx(np.log(4.0), abs=1e-12)


def test_mi_monotone_under_loewner_order(rng):
    model = random_trm_model(6, n=3, m_s=2, m_c=2, t=8)
    for _ in range(10):
        q = random_psd(rng, 3)
        dq = random_psd(rng, 3)
        assert channel_mi(model, q + dq) >= channel_mi(model, q) - 1e-10


# ------------------------------------------------------------------ types/io


def test_trm_model_validation():
    with pytest.raises(ValueError):
        TrmModel(sigma_s=np.array([[1.0, 0.5], [0.2, 1.0]]), h_c=np.eye(2),
                 noise_s=1.0, noise_c=1.0, t=4, m_s=1, power=1.0)
    with pytest.raises(ValueError):
        TrmModel(sigma_s=np.eye(2), h_c=np.eye(2), noise_s=0.0, noise_c=1.0,
                 t=4, m_s=1, power=1.0)
    with pytest.raises(ValueError):
        TrmModel(sigma_s=np.eye(3), h_c=np.eye(3), noise_s=1.0, noise_c=1.0,
                 t=2, m_s=1, power=1.0)


@pytest.mark.parametrize("field, value", [
    ("power", float("nan")),
    ("power", float("inf")),
    ("noise_s", float("nan")),
    ("noise_s", float("inf")),
    ("noise_c", float("nan")),
    ("noise_c", float("inf")),
    ("sigma_s", [[float("nan"), 0.0], [0.0, 1.0]]),
    ("h_c", [[1.0, float("inf")], [0.0, 1.0]]),
    # a finite power whose trace budget T P_T overflows, and a t too large for a float
    ("power", 1e308),
    pytest.param("t", 10**400, id="t-10**400"),
])
def test_trm_model_rejects_non_finite_values(field, value):
    kwargs = dict(sigma_s=np.eye(2), h_c=np.eye(2), noise_s=1.0, noise_c=1.0, t=4, m_s=1,
                  power=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        TrmModel(**kwargs)


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[2.0, 0.0], [0.0, 2.0]]), trace_limit=3.0)
    g = GramMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), trace_limit=3.0)
    assert g.trace == pytest.approx(2.0)


def test_trm_json_round_trip(tmp_path, rng):
    model = random_trm_model(7, n=3, m_s=2, m_c=4, t=8, power=2.0, noise_s=0.5)
    path = tmp_path / "model.json"
    save_trm_model(model, path)
    back = load_trm_model(path)
    assert np.allclose(back.sigma_s, model.sigma_s)
    assert np.allclose(back.h_c, model.h_c)
    assert back.t == model.t and back.m_s == model.m_s
    assert back.power == model.power and back.noise_s == model.noise_s


def test_waveform_from_gram_reproduces_the_gram(rng):
    model = random_trm_model(8, n=3, m_s=2, m_c=2, t=8)
    q = random_psd(rng, 3, scale=2.0)
    x = waveform_from_gram(model, q)
    assert x.shape == (3, 8)
    assert np.allclose(x @ x.conj().T, q, atol=1e-10)
