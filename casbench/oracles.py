"""Reference computations that the benchmark checks `cas-cli` outputs against.

This module imports nothing from `cas_limits`. Each value is computed by a
method of its own: closed forms, exact water-filling by enumerating the
active modes, Blahut's dual bounds, and brute force over input laws. A fault
in the program therefore cannot pass its check by appearing on both sides.
All rates are in nats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

_TINY = 1e-300


# ------------------------------------------------------------ finite models


def entropy(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def kl_rows(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(w[x] || q) for every row x of a channel matrix."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * (np.log(w) - np.log(np.maximum(q, _TINY))[None, :]), 0.0)
    return terms.sum(axis=1)


def mutual_information(p, w) -> float:
    """I(X;Y) for input law p and channel w[x, y], as sum_x p(x) D(w_x || p w)."""
    p = np.asarray(p, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return float(p @ kl_rows(w, p @ w))


def estimate_costs(prior, sensing, distortion) -> np.ndarray:
    """e(x) = sum_z min_t sum_s prior(s) P(z|x,s) d(s,t): the Bayes risk per input."""
    prior = np.asarray(prior, dtype=np.float64)
    sensing = np.asarray(sensing, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)
    n_x, _, n_z = sensing.shape
    e = np.zeros(n_x)
    for x in range(n_x):
        for z in range(n_z):
            weights = prior * sensing[x, :, z]
            e[x] += min(float(weights @ distortion[:, t]) for t in range(distortion.shape[1]))
    return e


def estimate_marginals(prior, sensing, distortion) -> np.ndarray:
    """m[x, t]: probability that input x leads the Bayes estimator to estimate t.

    Ties go to the lowest estimate index. The induced estimate law of an
    input law p is p @ m.
    """
    prior = np.asarray(prior, dtype=np.float64)
    sensing = np.asarray(sensing, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)
    n_x, _, n_z = sensing.shape
    m = np.zeros((n_x, distortion.shape[1]))
    for x in range(n_x):
        for z in range(n_z):
            weights = prior * sensing[x, :, z]
            risks = [float(weights @ distortion[:, t]) for t in range(distortion.shape[1])]
            m[x, int(np.argmin(risks))] += weights.sum()
    return m


def capacity_dual_bound(w, p, constraints) -> float:
    """Blahut's dual upper bound on constrained capacity at the output law p @ w.

    For every output law q and multipliers mu >= 0,
    C <= max_x [D(w_x || q) - sum_k mu_k (c_k(x) - limit_k)]. ``constraints``
    is a list of (c_k, limit_k); the multipliers are chosen by a linear
    program that minimises the bound.
    """
    w = np.asarray(w, dtype=np.float64)
    div = kl_rows(w, np.asarray(p, dtype=np.float64) @ w)
    n_x = w.shape[0]
    # variables: t, mu_1..mu_K; minimise t with t >= div_x - sum_k mu_k (c_k(x) - limit_k)
    a_ub = np.zeros((n_x, 1 + len(constraints)))
    a_ub[:, 0] = -1.0
    for k, (c, limit) in enumerate(constraints):
        a_ub[:, 1 + k] = -(np.asarray(c, dtype=np.float64) - limit)
    res = linprog(
        c=np.eye(1 + len(constraints))[0],
        A_ub=a_ub,
        b_ub=-div,
        bounds=[(None, None)] + [(0.0, None)] * len(constraints),
        method="highs",
    )
    if res.status != 0:
        raise ArithmeticError(f"dual-bound linear program: {res.message}")
    return float(res.fun)


def symmetric_capacity(w) -> float | None:
    """log |Y| - H(row) when w is a square symmetric channel (BSC, M-ary symmetric), else None."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[0] != w.shape[1]:
        return None
    row = np.sort(w[0])
    if any(not np.allclose(np.sort(r), row, atol=1e-15) for r in w) or not np.allclose(
        w.sum(axis=0), w.shape[0] / w.shape[1], atol=1e-12
    ):
        return None
    return math.log(w.shape[1]) - entropy(w[0])


def binary_rd_inverse(source, distortion, rate):
    """D(R) of a binary source under a zero-diagonal distortion [[0, a], [b, 0]].

    Vectorised over ``source`` (shape (..., 2)) and ``rate``. At slope beta
    both reconstruction letters are used, and the Kuhn-Tucker conditions
    sum_i p_i exp(-beta d_ij) / c_i = 1 (j = 0, 1) give c_i, hence the
    output law, distortion and rate, in closed form. R rises with beta, so
    bisection on log beta meets the target rate.
    """
    source = np.asarray(source, dtype=np.float64)
    rate = np.broadcast_to(np.asarray(rate, dtype=np.float64), source.shape[:-1])
    a, b = float(distortion[0][1]), float(distortion[1][0])
    p0, p1 = source[..., 0], source[..., 1]
    h = np.where((p0 > 0) & (p1 > 0), -(p0 * np.log(np.maximum(p0, _TINY))
                                         + p1 * np.log(np.maximum(p1, _TINY))), 0.0)
    d_zero = np.minimum(p0 * a, p1 * b)

    def at(beta):
        ea, eb = np.exp(-beta * a), np.exp(-beta * b)
        det = 1.0 - ea * eb
        u, v = (1.0 - eb) / det, (1.0 - ea) / det
        c0, c1 = p0 / u, p1 / v
        q0, q1 = (c0 - ea * c1) / det, (c1 - eb * c0) / det
        valid = (q0 >= 0) & (q1 >= 0) & (p0 > 0) & (p1 > 0)
        dist = p0 * q1 * ea * a / np.maximum(c0, _TINY) + p1 * q0 * eb * b / np.maximum(c1, _TINY)
        r = -beta * dist - p0 * np.log(np.maximum(c0, _TINY)) - p1 * np.log(np.maximum(c1, _TINY))
        return np.where(valid, r, 0.0), np.where(valid, dist, d_zero)

    lo = np.full(rate.shape, -30.0)
    hi = np.full(rate.shape, 30.0)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        r, _ = at(np.exp(mid))
        below = r < rate
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    _, dist = at(np.exp(hi))
    dist = np.where(rate <= 0.0, d_zero, dist)
    return np.where(rate >= h, 0.0, dist)


def tradeoff_brute_force(prior, sensing, comm, distortion, cost, budget, points=4001) -> float:
    """min over input laws (w, 1-w) of E[e(X)] + D_c(I(X;Y)) for a two-input model.

    The communication distortion is the D(R) of the induced (binary)
    estimate law, evaluated in closed form. The minimum over a grid of w is
    refined by a second grid between the neighbours of the best point.
    """
    comm = np.asarray(comm, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    e = estimate_costs(prior, sensing, distortion)
    marg = estimate_marginals(prior, sensing, distortion)
    div = np.where(comm > 0, comm * np.log(np.maximum(comm, _TINY)), 0.0).sum(axis=1)

    def total(ws):
        laws = np.stack([ws, 1.0 - ws], axis=-1)
        out_law = laws @ comm
        ylogy = np.where(out_law > 0, out_law * np.log(np.maximum(out_law, _TINY)), 0.0).sum(axis=1)
        rates = np.maximum(laws @ div - ylogy, 0.0)
        d_c = binary_rd_inverse(laws @ marg, distortion, rates)
        return np.where(laws @ cost <= budget + 1e-12, laws @ e + d_c, np.inf)

    grid = np.linspace(0.0, 1.0, points)
    values = total(grid)
    k = int(np.argmin(values))
    fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, points - 1)], points)
    return float(min(values[k], total(fine).min()))


# ---------------------------------------------------------- rate-distortion


def _logsumexp(a, axis):
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def rd_dual_lower_bound(source, distortion, d_c, q) -> float:
    """Blahut's lower bound on R(d_c), maximised over the slope for output law q.

    For beta >= 0 and c_i = sum_j q_j exp(-beta d_ij),
    R(d_c) >= -beta d_c - sum_i p_i log c_i - log max_j sum_i p_i exp(-beta d_ij) / c_i.
    """
    p = np.asarray(source, dtype=np.float64)
    d = np.asarray(distortion, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    active = p > 0
    p, d = p[active], d[active]

    log_q = np.log(np.maximum(q, _TINY))
    log_p = np.log(p)

    def bound(log_beta):
        beta = math.exp(log_beta)
        log_c = _logsumexp(log_q[None, :] - beta * d, axis=1)
        log_lam = _logsumexp((log_p - log_c)[:, None] - beta * d, axis=0)
        return -beta * d_c - float(p @ log_c) - float(log_lam.max())

    grid = np.linspace(-8.0, 12.0, 81)
    vals = [bound(x) for x in grid]
    k = int(np.argmax(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    best = vals[k]
    for _ in range(80):
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = bound(x1), bound(x2)
        best = max(best, f1, f2)
        if f1 >= f2:
            hi = x2
        else:
            lo = x1
    return best


def hamming_rd(m: int, d: float) -> float:
    """R(D) of a uniform m-ary source under Hamming distortion."""
    if d >= 1.0 - 1.0 / m:
        return 0.0
    if d <= 0.0:
        return math.log(m)
    return math.log(m) + d * math.log(d) + (1.0 - d) * math.log(1.0 - d) - d * math.log(m - 1)


def hamming_dr(m: int, rate: float) -> float:
    """D(R) of a uniform m-ary source under Hamming distortion, by bisection."""
    if rate <= 0.0:
        return 1.0 - 1.0 / m
    if rate >= math.log(m):
        return 0.0
    lo, hi = 0.0, 1.0 - 1.0 / m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hamming_rd(m, mid) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------- Gaussian model


def _psd_root(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def sensing_mse(sigma, q, t, noise_s, m_s) -> float:
    """M_s Tr[S^1/2 (s S^1/2 Q S^1/2 + I)^-1 S^1/2] with S = sigma, s = T / noise_s."""
    root = _psd_root(sigma)
    n = sigma.shape[0]
    inner = np.linalg.inv((t / noise_s) * root @ q @ root + np.eye(n))
    return float(m_s * np.real(np.trace(root @ inner @ root)))


def estimate_spectrum(sigma, q, t, noise_s, m_s) -> np.ndarray:
    """Eigenvalues of the MMSE estimate covariance, each repeated M_s times, descending."""
    root = _psd_root(sigma)
    n = sigma.shape[0]
    k = np.eye(n) - np.linalg.inv((t / noise_s) * root @ q @ root + np.eye(n))
    vals = np.linalg.eigvalsh(0.5 * ((root @ k @ root) + (root @ k @ root).conj().T))
    return np.repeat(np.sort(np.maximum(vals, 0.0))[::-1], m_s)


def channel_mi(h, q, t, noise_c) -> float:
    """sum log(1 + (T / noise_c) g_i) over the eigenvalues g_i of Q^1/2 H^H H Q^1/2."""
    root = _psd_root(q)
    g = np.linalg.eigvalsh(root @ h.conj().T @ h @ root)
    return float(np.log1p((t / noise_c) * np.maximum(g, 0.0)).sum())


def reverse_waterfill(spectrum, rate) -> float:
    """Gaussian D(R) by enumerating the number k of modes that carry rate.

    With the k largest eigenvalues active, log xi = (sum_{i<=k} log l_i - R) / k;
    k is right when xi <= l_k and (k = K or xi >= l_{k+1}).
    """
    lam = np.sort(np.asarray(spectrum, dtype=np.float64))[::-1]
    lam = lam[lam > 1e-12 * max(lam.max(initial=0.0), _TINY)]
    if rate <= 0.0 or lam.size == 0:
        return float(lam.sum())
    logs = np.log(lam)
    for k in range(1, lam.size + 1):
        xi = math.exp((logs[:k].sum() - rate) / k)
        if xi <= lam[k - 1] * (1 + 1e-12) and (k == lam.size or xi >= lam[k] * (1 - 1e-12)):
            return float(k * xi + lam[k:].sum())
    raise ArithmeticError("reverse water-filling found no consistent active set")


def _waterfill(inv_gains: np.ndarray, power: float) -> np.ndarray:
    """Powers max(level - inv_gains, 0) summing to power, by enumerating the active set."""
    order = np.argsort(inv_gains)
    f = inv_gains[order]
    alloc = np.zeros_like(f)
    for k in range(f.size, 0, -1):
        level = (power + f[:k].sum()) / k
        if level > f[k - 1]:
            alloc[:k] = level - f[:k]
            break
    out = np.zeros_like(alloc)
    out[order] = alloc
    return out


def sensing_gram(sigma, power, t, noise_s) -> np.ndarray:
    """Gram minimising the sensing MSE at trace `power`: water-filling on 1/mu in the prior basis."""
    mu, u = np.linalg.eigh(sigma)
    mu = np.maximum(mu, 0.0)
    if power <= 0:
        return np.zeros_like(sigma)
    s = t / noise_s
    live = mu > 0
    p = np.zeros_like(mu)
    p[live] = _waterfill(1.0 / mu[live], s * power) / s
    return (u * p) @ u.conj().T


def comm_gram(h, power, t, noise_c) -> np.ndarray:
    """Gram maximising log det(I + (T/noise_c) H Q H^H) at trace `power`."""
    g, v = np.linalg.eigh(h.conj().T @ h)
    g = np.maximum(g, 0.0)
    if power <= 0:
        return np.zeros((g.size, g.size), dtype=np.complex128)
    live = g > 0
    p = np.zeros_like(g)
    p[live] = _waterfill(1.0 / ((t / noise_c) * g[live]), power)
    return (v * p) @ v.conj().T


def gaussian_point(model: dict, q_s, q_c=None) -> dict:
    """d_s, MI and d_c of a Gram matrix (ISAC) or of a sensing/comm pair (separated waveforms)."""
    q_c = q_s if q_c is None else q_c
    d_s = sensing_mse(model["sigma_s"], q_s, model["t"], model["noise_s"], model["m_s"])
    mi = channel_mi(model["h_c"], q_c, model["t"], model["noise_c"])
    lam = estimate_spectrum(model["sigma_s"], q_s, model["t"], model["noise_s"], model["m_s"])
    d_c = reverse_waterfill(lam, mi)
    return {"d_s": d_s, "mi": mi, "d_c": d_c, "d_total": d_s + d_c}


def sw_best(model: dict, power: float, split_grid: int) -> float:
    """Smallest separated-waveform total distortion over the power-split grid."""
    budget = model["t"] * power
    best = math.inf
    for rho in np.linspace(0.0, 1.0, split_grid):
        q_s = sensing_gram(model["sigma_s"], rho * budget, model["t"], model["noise_s"])
        q_c = comm_gram(model["h_c"], (1.0 - rho) * budget, model["t"], model["noise_c"])
        best = min(best, gaussian_point(model, q_s, q_c)["d_total"])
    return best


def psd_problems(q, cap, name) -> list[str]:
    """Problems with a Gram matrix: not Hermitian, not PSD, or over its trace cap."""
    out = []
    scale = max(1.0, float(np.abs(q).max()))
    if np.abs(q - q.conj().T).max() > 1e-9 * scale:
        out.append(f"{name} is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (q + q.conj().T)).min() < -1e-9 * scale:
        out.append(f"{name} is not PSD")
    if np.real(np.trace(q)) > cap * (1 + 1e-9):
        out.append(f"{name} trace {np.real(np.trace(q)):.9g} exceeds cap {cap:.9g}")
    return out
