"""The NumPy Blahut-Arimoto kernels."""

import numpy as np

from cas_limits import KERNEL_BACKEND
from cas_limits import kernels
from cas_limits.discrete import BA_MAX_ITER, BA_TOL, RD_BA_TOL


def rd_inputs(p, d, beta):
    """The active source mass and row-shifted exponent that ``discrete._rd_point`` builds."""
    active = p > 0.0
    da = d[active]
    return p[active], np.exp(-beta * (da - da.min(axis=1, keepdims=True)))


def test_backend_name_is_valid():
    assert KERNEL_BACKEND == "python"


def test_capacity_kernel_matches_closed_form_bsc():
    eps = 0.1
    w = np.array([[1 - eps, eps], [eps, 1 - eps]])
    base = (w * np.log(w)).sum(axis=1)
    p, _ = kernels.ba_capacity(w, base, BA_TOL, BA_MAX_ITER)
    py = p @ w
    cap = float(
        np.einsum("x,xy->", p, w * (np.log(w) - np.log(py)[None, :]))
    )
    h2 = -(eps * np.log(eps) + (1 - eps) * np.log(1 - eps))
    assert abs(cap - (np.log(2) - h2)) < 1e-9
    assert np.allclose(p, 0.5, atol=1e-6)


def test_rd_kernel_zero_mass_rows_get_point_masses():
    p = np.array([0.7, 0.0, 0.3])
    d = np.array([[0.0, 1.0], [0.2, 0.1], [1.0, 0.0]])
    pa, a = rd_inputs(p, d, 2.0)
    q, _ = kernels.ba_rate_distortion(pa, a, RD_BA_TOL, BA_MAX_ITER)
    cond, rate, dist = kernels.rd_channel(p, d, 2.0, a, q)
    assert cond.shape == (3, 2)
    assert np.allclose(cond.sum(axis=1), 1.0)
    assert cond[1, 1] == 1.0  # cheapest column for the idle row
    assert rate >= 0.0 and dist >= 0.0


def test_rd_kernel_sits_on_the_bernoulli_curve():
    # sweep the slope; every returned (dist, rate) must satisfy
    # rate = H(1/2) - H(dist) for the binary symmetric source
    p = np.array([0.5, 0.5])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    for beta in (0.5, 1.0, 2.0, 4.0):
        pa, a = rd_inputs(p, d, beta)
        q, _ = kernels.ba_rate_distortion(pa, a, RD_BA_TOL, BA_MAX_ITER)
        _, rate, dist = kernels.rd_channel(p, d, beta, a, q)
        hd = -(dist * np.log(dist) + (1 - dist) * np.log(1 - dist))
        assert abs(rate - (np.log(2) - hd)) < 1e-8
