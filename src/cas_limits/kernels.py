"""Blahut-Arimoto iterations for capacity and rate-distortion, in NumPy.

Each kernel is a bare loop on the arrays its solver in ``discrete`` builds
once per solve, and returns its last iterate with the iteration count.
"""

import numpy as np

_LOG_FLOOR = 1e-300


def ba_capacity(w, base, tol, max_iter):
    """Blahut-Arimoto input-distribution update.

    Maximizes I(p; w) = p @ base - H(p @ w) over the simplex, where w[x, y]
    is the channel law and base[x] = sum_y w log w. The run stops once the
    gap between the standard per-iteration upper and lower bounds on the
    capacity is below ``tol``, or after ``max_iter`` iterations.

    Returns (p, iterations).
    """
    nx = w.shape[0]
    p = np.full(nx, 1.0 / nx)
    it = 0
    for it in range(1, max_iter + 1):
        py = p @ w
        score = base - w @ np.log(py + _LOG_FLOOR)
        m = score.max()
        r = p * np.exp(score - m)
        s = r.sum()
        p = r / s
        # upper bound = max(score); lower bound = m + log(s); gap = -log(s)
        if -np.log(s) < tol:
            break
    return p, it


def ba_rate_distortion(pa, a, tol, max_iter):
    """Blahut-Arimoto output-law update at one slope of the R(D) curve.

    ``pa`` is the source mass on the letters where it is positive and
    ``a`` the row-shifted exponent of the distortion on those rows, as
    ``_rd_point`` builds them. The run stops once the dual gap
    log(max_j g_j) is below ``tol``, or after ``max_iter`` iterations.

    Returns (q, iterations), q the output law.
    """
    n = a.shape[1]
    q = np.full(n, 1.0 / n)
    it = 0
    for it in range(1, max_iter + 1):
        c = a @ q
        g = (pa / (c + _LOG_FLOOR)) @ a
        q = q * g
        q /= q.sum()
        if np.log(max(g.max(), _LOG_FLOOR)) < tol:
            break
    return q, it


def rd_channel(p, d, beta, a, q):
    """Test channel that the output law q induces at slope parameter beta.

    ``a`` is the row-shifted exponent on the rows where p > 0, as
    ``_rd_point`` builds it. Zero-mass source rows are point masses on
    their cheapest column.

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
