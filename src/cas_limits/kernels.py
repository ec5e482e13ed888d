"""Blahut-Arimoto iterations for capacity and rate-distortion, in NumPy."""

import numpy as np

_LOG_FLOOR = 1e-300


def ba_capacity(w, tol=1e-12, max_iter=100_000):
    """Blahut-Arimoto input-distribution update.

    Maximizes I(p; w) over the simplex, where w[x, y] is the channel law.
    Convergence is certified by the gap between the standard per-iteration
    upper and lower bounds on the capacity.

    Returns (p, iterations).
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    nx = w.shape[0]
    p = np.full(nx, 1.0 / nx)
    wlogw = np.where(w > 0.0, w * np.log(w + _LOG_FLOOR), 0.0).sum(axis=1)
    it = 0
    for it in range(1, max_iter + 1):
        py = p @ w
        score = wlogw - w @ np.log(py + _LOG_FLOOR)
        m = score.max()
        r = p * np.exp(score - m)
        s = r.sum()
        p = r / s
        # upper bound = max(score); lower bound = m + log(s); gap = -log(s)
        if -np.log(s) < tol:
            break
    return p, it


def ba_rate_distortion(p, d, beta, tol=1e-13, max_iter=100_000):
    """Blahut-Arimoto rate-distortion point at slope parameter beta.

    Minimizes I + beta * E[d] over test channels for source p and
    distortion matrix d[i, j]. Zero-mass source rows are excluded from
    the iteration and returned as point masses on their cheapest column.
    Each row is shifted by its least distortion before the exponential,
    a = exp(-beta * (d - min_j d)), so that every row of ``a`` keeps an
    entry of 1 however large beta is; the shift scales a row and leaves
    the update and the test channel unchanged.

    Returns (cond, rate, dist, iterations) with cond[i, j] = P(j | i).
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    n = d.shape[1]
    active = p > 0.0
    pa = p[active]
    da = d[active]
    a = np.exp(-beta * (da - da.min(axis=1, keepdims=True)))
    q = np.full(n, 1.0 / n)
    it = 0
    for it in range(1, max_iter + 1):
        c = a @ q
        g = (pa / (c + _LOG_FLOOR)) @ a
        q = q * g
        q /= q.sum()
        if np.log(max(g.max(), _LOG_FLOOR)) < tol:
            break
    return (*rd_channel(p, d, beta, a, q), it)


def rd_channel(p, d, beta, a, q):
    """Test channel that the output law q induces at slope parameter beta.

    ``a`` is exp(-beta * (d - min_j d)) on the rows where p > 0, each row
    shifted by its least distortion as in ``ba_rate_distortion``.
    Zero-mass source rows are point masses on their cheapest column.

    Returns (cond, rate, dist) with cond[i, j] = P(j | i).
    """
    active = p > 0.0
    pa = p[active]
    da = d[active]
    c = a @ q
    cond_a = q[None, :] * a / (c[:, None] + _LOG_FLOOR)
    dist = float(np.einsum("i,ij,ij->", pa, cond_a, da))
    # log(cond/q) = -beta*(d - min_j d) - log(c), so
    # I = -beta*E[d - min_j d] - sum_i p_i log c_i
    excess = dist - float(pa @ da.min(axis=1))
    rate = max(0.0, float(-beta * excess - pa @ np.log(c + _LOG_FLOOR)))
    cond = np.zeros(d.shape)
    cond[active] = cond_a
    idle = np.flatnonzero(~active)
    cond[idle, d[idle].argmin(axis=1)] = 1.0
    return cond, rate, dist
