"""Finite-alphabet limits of the communication-assisted sensing chain.

Implements the optimal per-symbol estimator, the estimate-cost function,
the capacity constrained by estimation distortion and resource cost, the
discrete rate-distortion function, the feasibility test coupling the two,
and the total-distortion minimizer. All rates are in nats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    ConvergenceWarning,
    InfeasibleConstraint,
    UnreachableDistortion,
    ZeroProbabilityObservation,
)
from .kernels import ba_capacity, ba_rate_distortion
from .types import TradeoffPoint

SIMPLEX_TOL = 1e-12
BA_TOL = 1e-12          # certified bound gap per capacity Blahut-Arimoto run, nats
RD_BA_TOL = 1e-13       # certified dual gap per rate-distortion Blahut-Arimoto run, nats
RD_TOL = 1e-12          # R(D) searches stop once their upper and lower bounds agree to this
BA_MAX_ITER = 100_000
BA_POLISH_AFTER = 300    # Blahut-Arimoto iterations before a Newton polish is tried
SLACK_TOL = 1e-8        # limits this far below every input law's cost are raised to it
_BETA_CAP = 1e8         # rate-distortion slope doubling safety cap
_BISECT_STEPS = 200
_NEWTON_STEPS = 50
_SCREEN = 1e-6          # a Newton polish starts without coordinates below this times the largest
_LOG_FLOOR = 1e-300


def _check_prob(vec: np.ndarray, name: str) -> None:
    if np.any(vec < -SIMPLEX_TOL):
        raise ValueError(f"{name}: negative probability entry")
    if abs(vec.sum() - 1.0) > 1e-9 * max(1, vec.size):
        raise ValueError(f"{name}: entries sum to {vec.sum()!r}, expected 1")


@dataclass(frozen=True)
class FiniteCasModel:
    """A finite-alphabet CAS instance.

    Fields
    ------
    state_prior : (S,) prior over target states.
    sensing_law : (X, S, Z) conditional law of the sensing observation.
    comm_law : (X, Y) conditional law of the communication channel.
    distortion : (S, S~) nonnegative distortion matrix. The estimate
        alphabet doubles as the reconstruction alphabet by default.
    cost : (X,) nonnegative per-symbol resource cost.
    """

    state_prior: np.ndarray
    sensing_law: np.ndarray
    comm_law: np.ndarray
    distortion: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_prior", np.asarray(self.state_prior, dtype=np.float64))
        object.__setattr__(self, "sensing_law", np.asarray(self.sensing_law, dtype=np.float64))
        object.__setattr__(self, "comm_law", np.asarray(self.comm_law, dtype=np.float64))
        object.__setattr__(self, "distortion", np.asarray(self.distortion, dtype=np.float64))
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=np.float64))

        if self.state_prior.ndim != 1 or self.state_prior.size < 1:
            raise ValueError("state_prior: expected a nonempty vector")
        _check_prob(self.state_prior, "state_prior")
        if self.sensing_law.ndim != 3:
            raise ValueError("sensing_law: expected a [x][s][z] tensor")
        n_x, n_s, _ = self.sensing_law.shape
        if n_s != self.state_prior.size:
            raise ValueError("sensing_law: state axis does not match state_prior")
        for x in range(n_x):
            for s in range(n_s):
                _check_prob(self.sensing_law[x, s], f"sensing_law[{x}][{s}]")
        if self.comm_law.ndim != 2 or self.comm_law.shape[0] != n_x:
            raise ValueError("comm_law: expected an [x][y] matrix matching sensing_law inputs")
        for x in range(n_x):
            _check_prob(self.comm_law[x], f"comm_law[{x}]")
        if self.distortion.ndim != 2 or self.distortion.shape[0] != n_s:
            raise ValueError("distortion: expected an [s][s'] matrix over states x estimates")
        if not np.all(np.isfinite(self.distortion)) or np.any(self.distortion < 0):
            raise ValueError("distortion: entries must be finite and nonnegative")
        if self.cost.ndim != 1 or self.cost.shape[0] != n_x:
            raise ValueError("cost: expected one entry per channel input")
        if not np.all(np.isfinite(self.cost)) or np.any(self.cost < 0):
            raise ValueError("cost: entries must be finite and nonnegative")

    @property
    def n_states(self) -> int:
        return self.state_prior.size

    @property
    def n_inputs(self) -> int:
        return self.sensing_law.shape[0]

    @property
    def n_observations(self) -> int:
        return self.sensing_law.shape[2]

    @property
    def n_outputs(self) -> int:
        return self.comm_law.shape[1]

    @property
    def n_estimates(self) -> int:
        return self.distortion.shape[1]


@dataclass(frozen=True)
class InputDistribution:
    """A channel-input distribution on the simplex."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.probs.ndim != 1:
            raise ValueError("probs: expected a vector")
        _check_prob(self.probs, "probs")


@dataclass(frozen=True)
class Theorem1Result:
    feasible: bool
    margin: float
    capacity: float
    rate: float


def _posterior_tables(model: FiniteCasModel):
    """Joint mass, observation marginal, posterior losses and argmin table.

    loss[x, z, s'] is the unnormalized posterior expected distortion of
    estimating s' after seeing (x, z); ties in the argmin break to the
    lowest index (np.argmin).
    """
    joint = model.state_prior[None, :, None] * model.sensing_law   # (X, S, Z)
    pz = joint.sum(axis=1)                                         # (X, Z)
    loss = np.einsum("xsz,st->xzt", joint, model.distortion)       # (X, Z, S~)
    table = np.argmin(loss, axis=2)
    return joint, pz, loss, table


def estimator_table(model: FiniteCasModel) -> np.ndarray:
    """Optimal deterministic estimator indexed [x][z].

    Zero-probability (x, z) pairs map to index 0; their value never enters
    any expectation.
    """
    _, _, _, table = _posterior_tables(model)
    return table


def optimal_estimate(model: FiniteCasModel, x: int, z: int) -> int:
    """Posterior-risk-minimizing estimate for channel input x, observation z."""
    _, pz, loss, table = _posterior_tables(model)
    if pz[x, z] <= 0.0:
        raise ZeroProbabilityObservation(f"observation z={z} has zero probability under x={x}")
    return int(table[x, z])


def estimate_costs(model: FiniteCasModel) -> np.ndarray:
    """e(x) for every input: expected distortion of the optimal estimator."""
    _, _, loss, table = _posterior_tables(model)
    return np.take_along_axis(loss, table[:, :, None], axis=2)[:, :, 0].sum(axis=1)


def estimate_cost(model: FiniteCasModel, x: int) -> float:
    """e(x) for a single input symbol."""
    return float(estimate_costs(model)[x])


def induced_estimate_marginal(model: FiniteCasModel, p_x: np.ndarray) -> np.ndarray:
    """Marginal of the optimal estimate when inputs are drawn from p_x."""
    p_x = np.asarray(p_x, dtype=np.float64)
    _, pz, _, table = _posterior_tables(model)
    marginal = np.zeros(model.n_estimates)
    weights = p_x[:, None] * pz
    np.add.at(marginal, table.ravel(), weights.ravel())
    # zero-probability cells carry zero weight, so the index-0 default is inert
    total = marginal.sum()
    if total > 0:
        marginal /= total
    return marginal


def mutual_information(p_x: np.ndarray, channel: np.ndarray) -> float:
    """I(X;Y) in nats for input law p_x and channel[x, y]."""
    p_x = np.asarray(p_x, dtype=np.float64)
    channel = np.asarray(channel, dtype=np.float64)
    p_y = p_x @ channel
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(channel > 0, np.log(channel) - np.log(p_y[None, :] + 1e-300), 0.0)
    return float(max(0.0, np.einsum("x,xy,xy->", p_x, channel, ratio)))


def _warn(message: str) -> None:
    warnings.warn(message, ConvergenceWarning, stacklevel=3)


def _simplex_newton(x, oracle, tol, rows=None, limits=None) -> tuple[np.ndarray, float]:
    """Polish a near-optimal point of a concave function over the simplex.

    With rows, the simplex is also cut by ``rows @ x <= limits``.
    Active-set Newton on the face {x > 0} with the held rows at their
    limits: each step solves the quadratic model in the null space of the
    face, which also puts held rows that drifted back on their limits. A
    coordinate that a step drives to zero leaves the support and a row
    that a step reaches is held; once the point is stationary on its face,
    a held row whose multiplier is below ``tol`` is released, or else the
    coordinate with the largest Lagrangian gradient outside the support
    joins. ``oracle(x)`` returns the value, gradient and Hessian. Returns
    the point and its Lagrangian gap ``max(grad - mu @ rows) + mu @ limits
    - x @ grad``. For mu >= 0 it bounds the distance to the maximum, as
    f(y) - f(x) <= grad @ (y - x) <= that gap for feasible y. mu is fitted
    on the face, or chosen by a linear program where that does not
    certify (a degenerate vertex). With no rows it is the Frank-Wolfe gap
    ``max(grad) - x @ grad``. The caller accepts the point only when the
    gap is below ``tol``.

    With no rows the start is screened first: coordinates below
    ``_SCREEN`` times the largest one are set to zero. A Blahut-Arimoto
    iterate drains letters off the optimal support only geometrically, so
    without the screen each of them would cost a Newton step to drop, and a
    wide R(D) problem has more of them than ``_NEWTON_STEPS``. A coordinate
    screened out wrongly keeps a gradient above ``x @ grad`` at the optimum
    of the smaller support, so the admission rule brings it back, and the
    gap test still decides acceptance: the screen changes the work, not the
    answer.
    """
    if rows is None:
        rows, limits = np.zeros((0, x.size)), np.zeros(0)
        x = np.where(x < _SCREEN * x.max(), 0.0, x)
        x /= x.sum()
    held = rows @ x >= limits
    f, g, h = oracle(x)

    def gap_at(mu):
        return float((g - mu @ rows).max() + mu @ limits - x @ g)

    for k in range(_NEWTON_STEPS + 1):
        free = x > 0.0
        mu = np.zeros(limits.size)
        if held.any():
            face = np.vstack([np.ones(free.sum()), rows[held][:, free]])
            mu[held] = np.linalg.lstsq(face.T, g[free], rcond=None)[0][1:]
        gap = gap_at(np.maximum(mu, 0.0))
        if gap < tol or k == _NEWTON_STEPS:
            break
        lag = g - mu @ rows
        if lag[free].max() - x @ lag < tol:
            # stationary on its face: release a row or admit a coordinate
            if held.any() and mu[held].min() < tol:
                held[np.argmin(np.where(held, mu, np.inf))] = False
            else:
                free[np.argmax(np.where(free, -np.inf, lag))] = True
        s = np.flatnonzero(free)
        eq = np.vstack([np.ones(x.size), rows[held]])
        u, sv, vt = np.linalg.svd(eq[:, s])
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        residual = np.append(1.0, limits[held]) - eq[:, s] @ x[s]
        base = vt[:rank].T @ ((u[:, :rank].T @ residual) / sv[:rank])
        null = vt[rank:].T
        hs = h[np.ix_(s, s)]
        curv, basis = np.linalg.eigh(null.T @ hs @ null)
        slope = basis.T @ (null.T @ (g[s] + hs @ base))
        flat = curv >= 1e-12 * min(curv.min(initial=0.0), 0.0)
        if np.any(slope[flat] != 0.0):
            # the model is linear along the flat directions of the face:
            # follow its gradient there until the boundary
            step = null @ (basis[:, flat] @ slope[flat])
            step, t_max = step / np.linalg.norm(step), math.inf
        else:
            # Newton step on the face
            step = base - null @ (basis[:, ~flat] @ (slope[~flat] / curv[~flat]))
            t_max = 1.0
        ratio = np.where(step < 0.0, -x[s] / np.minimum(step, -1e-300), np.inf)
        rise = rows[:, s] @ step
        reach = np.where(~held & (rise > 0.0),
                         np.maximum(limits - rows @ x, 0.0) / np.maximum(rise, 1e-300), np.inf)
        block = int(ratio.argmin())
        t = min(t_max, float(ratio[block]), reach.min(initial=math.inf))
        if t == 0.0:
            break  # the face admits no move: stalled
        for _ in range(40):
            y = x.copy()
            y[s] += t * step
            if t == ratio[block]:
                y[s[block]] = 0.0
            y = np.maximum(y, 0.0)
            y /= y.sum()
            fy, gy, hy = oracle(y)
            if fy >= f - 1e-15 * max(1.0, abs(f)):
                break
            t *= 0.5
        else:
            break  # no ascent left: the polish has stalled
        held |= reach <= t
        x, f, g, h = y, fy, gy, hy
    if gap >= tol and limits.size:
        # min over (t, mu >= 0) of t + mu @ limits with t >= grad - mu @ rows
        res = linprog(np.append(1.0, limits), A_ub=np.hstack([-np.ones((x.size, 1)), -rows.T]),
                      b_ub=-g, bounds=[(None, None)] + [(0.0, None)] * limits.size)
        if res.status == 0:
            gap = min(gap, gap_at(np.maximum(res.x[1:], 0.0)))
    return x, gap


def _certified_ba(kernel, polish, tol: float, what: str):
    """Run a Blahut-Arimoto kernel to a certified gap below ``tol``.

    ``kernel(max_iter)`` returns (solution, iterations) and certifies the
    solution when it stops early. A run that reaches ``BA_POLISH_AFTER``
    iterations is handed to ``polish``, which returns (solution, gap); an
    uncertified polish falls back to a full ``BA_MAX_ITER`` run, polished
    in turn. If that too fails, a ConvergenceWarning names ``what``.
    """
    for max_iter in (BA_POLISH_AFTER, BA_MAX_ITER):
        out, iterations = kernel(max_iter)
        if iterations < max_iter:
            return out
        out, gap = polish(out)
        if gap < tol:
            return out
    _warn(f"{what}: Blahut-Arimoto stopped at {BA_MAX_ITER} iterations uncertified; gap {gap:.3e}")
    return out


def constrained_capacity(
    model: FiniteCasModel, d_s: float, budget: float
) -> tuple[float, InputDistribution]:
    """Capacity under the estimation-distortion and resource-cost constraints.

    Maximizes I(X;Y) over the simplex intersected with E[e(X)] <= d_s and
    E[b(X)] <= budget. One Blahut-Arimoto run certifies the unconstrained
    capacity to BA_TOL (a Newton polish finishes runs that Blahut-Arimoto
    alone would take too long to certify); if its input law meets both
    constraints it is the answer. Otherwise the active-set Newton method
    of ``_simplex_newton`` solves the constrained problem from the last
    feasible point on the segment from a vertex of the feasible set to that
    law, with the constraints held to rounding, and certifies its answer by
    a Lagrangian gap below BA_TOL or raises a ConvergenceWarning. Limits at
    most SLACK_TOL below what every input law costs are raised to it.
    """
    w = model.comm_law
    rows = np.vstack([estimate_costs(model), model.cost])
    limits = np.array([d_s, budget], dtype=np.float64)
    # the input law with the least excess max(rows @ p - limits), a vertex of this program
    n = w.shape[0]
    res = linprog(np.eye(n + 1)[n], A_ub=np.hstack([rows, -np.ones((2, 1))]), b_ub=limits,
                  A_eq=[[1.0] * n + [0.0]], b_eq=[1.0], bounds=[(0.0, None)] * n + [(None, None)])
    if res.status != 0:
        raise ArithmeticError(f"least-excess linear program: {res.message}")
    vertex = np.maximum(res.x[:n], 0.0)
    at_vertex = rows @ vertex
    if np.max(at_vertex - limits) > SLACK_TOL:
        raise InfeasibleConstraint(f"no input law has E[e] <= {d_s} and E[b] <= {budget}")
    limits = np.maximum(limits, at_vertex)
    # a row constant over the inputs up to rounding holds for every input law
    varies = np.ptp(rows, axis=1) > 1e-12 * np.abs(rows).max(axis=1)
    rows, limits, at_vertex = rows[varies], limits[varies], at_vertex[varies]
    base = np.where(w > 0.0, w * np.log(w + _LOG_FLOOR), 0.0).sum(axis=1)

    def oracle(p):
        q = p @ w
        score = base - w @ np.log(q + _LOG_FLOOR)
        return p @ score, score, -(w / (q + _LOG_FLOOR)) @ w.T

    p = _certified_ba(
        lambda max_iter: ba_capacity(w, np.zeros(n), BA_TOL, max_iter),
        lambda p: _simplex_newton(p, oracle, BA_TOL),
        BA_TOL,
        "constrained_capacity",
    )
    at_p = rows @ p
    over = at_p > limits
    if over.any():
        # the last feasible point on the segment from the vertex to p
        t = np.min((limits - at_vertex)[over] / (at_p - at_vertex)[over])
        p, gap = _simplex_newton(vertex + t * (p - vertex), oracle, BA_TOL, rows, limits)
        if gap >= BA_TOL:
            _warn(f"constrained_capacity at d_s={d_s:.12g}, budget={budget:.12g}: "
                  f"Newton solve stopped uncertified; gap {gap:.3e}")
    return mutual_information(p, w), InputDistribution(p)


def _min_row_distortion(source: np.ndarray, distortion: np.ndarray) -> float:
    return float(source @ distortion.min(axis=1))


def _zero_rate_channel(source: np.ndarray, distortion: np.ndarray):
    """Constant test channel onto the least-average-distortion column (the d_zero endpoint)."""
    col_avg = source @ distortion
    j0 = int(col_avg.argmin())
    cond = np.zeros_like(distortion)
    cond[:, j0] = 1.0
    return cond, float(col_avg[j0])


def _deterministic_channel(source: np.ndarray, distortion: np.ndarray):
    """Lowest-index argmin test channel and its rate (the d_min endpoint)."""
    m, n = distortion.shape
    idx = distortion.argmin(axis=1)
    cond = np.zeros((m, n))
    cond[np.arange(m), idx] = 1.0
    q = source @ cond
    active = q > 0
    rate = float(-(q[active] @ np.log(q[active])))
    return cond, rate


@dataclass(frozen=True)
class _RdPoint:
    """One point of a rate-distortion search at slope parameter beta.

    ``cond`` achieves distortion ``dist`` with I(cond) <= ``rate``, and
    R(d) >= ``lower - beta * d`` holds for every d (the certified dual
    tangent of the Blahut-Arimoto run).
    """

    beta: float
    cond: np.ndarray
    rate: float
    dist: float
    lower: float

    def tangent(self, d: float) -> float:
        return -math.inf if math.isinf(self.beta) else self.lower - self.beta * d


def _rd_point(source: np.ndarray, distortion: np.ndarray, beta: float) -> _RdPoint:
    """Certified Blahut-Arimoto point of the R(D) curve at slope -beta."""
    active = source > 0.0
    pa = source[active]
    d = distortion[active]
    a = np.exp(-beta * d)

    def oracle(q):
        c = a @ q + _LOG_FLOOR
        return pa @ np.log(c), (pa / c) @ a, -(a.T * (pa / c**2)) @ a

    def kernel(max_iter):
        cond, rate, dist, iterations = ba_rate_distortion(
            source, distortion, beta, RD_BA_TOL, max_iter
        )
        return (cond, rate, dist), iterations

    def polish(point):
        q, gap = _simplex_newton(source @ point[0], oracle, RD_BA_TOL)
        # the channel induced by the output law q, as the kernel builds it
        c = a @ q
        cond_a = q[None, :] * a / (c[:, None] + _LOG_FLOOR)
        dist = float(np.einsum("i,ij,ij->", pa, cond_a, d))
        rate = max(0.0, float(-beta * dist - pa @ np.log(c + _LOG_FLOOR)))
        cond = np.zeros_like(distortion)
        cond[active] = cond_a
        idle = np.flatnonzero(~active)
        cond[idle, distortion[idle].argmin(axis=1)] = 1.0
        return (cond, rate, dist), gap

    cond, rate, dist = _certified_ba(
        kernel, polish, RD_BA_TOL, f"rate-distortion at beta={beta:.12g}"
    )
    value, grad, _ = oracle(source @ cond)
    lower = -value - math.log(max(float(grad.max()), _LOG_FLOOR))
    return _RdPoint(beta, cond, rate, dist, lower)


def _rd_search(source, distortion, past, bound_gap, what: str):
    """Bracket a target on the R(D) curve by bisection on the slope beta.

    ``past(point)`` is False at the low-beta end ``lo`` of the bracket and
    True at the high-beta end ``hi``; they start at the zero-rate point
    (beta = 0) and the minimum-distortion point (beta = inf), and beta
    doubles from 1 until a point is past the target. The search stops once
    ``bound_gap(lo, hi)``, the distance between an achievable upper bound
    and a certified lower bound at the target, is below RD_TOL, which on a
    straight segment of the curve happens as soon as lo and hi sit on it.
    Returns (lo, hi).
    """
    cond_zero, d_zero = _zero_rate_channel(source, distortion)
    lo = _RdPoint(0.0, cond_zero, 0.0, d_zero, 0.0)
    cond_min, rate_max = _deterministic_channel(source, distortion)
    hi = _RdPoint(
        math.inf, cond_min, rate_max, _min_row_distortion(source, distortion), -math.inf
    )
    for _ in range(_BISECT_STEPS):
        if bound_gap(lo, hi) < RD_TOL:
            return lo, hi
        if math.isinf(hi.beta):
            if lo.beta >= _BETA_CAP:
                _warn(f"{what}: beta reached its cap {lo.beta:.3g}; "
                      f"bound gap {bound_gap(lo, hi):.3e}")
                return lo, hi
            beta = max(1.0, 2.0 * lo.beta)
        elif hi.beta - lo.beta < 1e-15 * max(1.0, hi.beta):
            break
        else:
            beta = 0.5 * (lo.beta + hi.beta)
        point = _rd_point(source, distortion, beta)
        if past(point):
            hi = point
        else:
            lo = point
    _warn(f"{what}: beta bisection stopped at beta in [{lo.beta:.12g}, {hi.beta:.12g}] "
          f"before its bounds met; bound gap {bound_gap(lo, hi):.3e}")
    return lo, hi


def _rd_inputs(source, distortion) -> tuple[np.ndarray, np.ndarray]:
    """``source`` and ``distortion`` as float arrays, checked to pose a rate-distortion problem."""
    source = np.asarray(source, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)
    _check_prob(source, "source")
    if distortion.ndim != 2 or source.size != distortion.shape[0]:
        raise ValueError("distortion: expected one row per source letter")
    if np.any(distortion < 0) or not np.all(np.isfinite(distortion)):
        raise ValueError("distortion: entries must be finite and nonnegative")
    return source, distortion


def rate_distortion_discrete(
    source: np.ndarray, distortion: np.ndarray, d_c: float
) -> tuple[float, np.ndarray]:
    """Discrete rate-distortion function R(d_c) in nats.

    Returns the minimum mutual information and an achieving test channel
    P(reconstruction | source symbol). Solved by Blahut-Arimoto with
    bisection on the slope parameter until two bounds on R(d_c) agree to
    RD_TOL: the chord between the bracketing points, which time-sharing
    their test channels achieves, and the certified dual tangent. The
    returned rate is the chord value and the channel the time-sharing mix,
    whose distortion is exactly d_c.
    """
    source, distortion = _rd_inputs(source, distortion)
    if d_c < 0:
        raise UnreachableDistortion(f"d_c={d_c} is negative")

    d_min = _min_row_distortion(source, distortion)
    if d_c < d_min - 1e-12:
        raise UnreachableDistortion(f"d_c={d_c} below minimum achievable distortion {d_min}")

    cond_zero, d_zero = _zero_rate_channel(source, distortion)
    if d_c >= d_zero - 1e-12:
        return 0.0, cond_zero

    if d_c <= d_min + 1e-12:
        cond, rate = _deterministic_channel(source, distortion)
        return rate, cond

    def weight(lo, hi):
        """Time-sharing weight on hi that meets distortion d_c."""
        return (lo.dist - d_c) / (lo.dist - hi.dist)

    def bound_gap(lo, hi):
        theta = weight(lo, hi)
        upper = theta * hi.rate + (1.0 - theta) * lo.rate
        return upper - max(lo.tangent(d_c), hi.tangent(d_c))

    lo, hi = _rd_search(
        source, distortion, lambda pt: pt.dist <= d_c, bound_gap,
        f"rate_distortion_discrete at d_c={d_c:.12g}",
    )
    theta = weight(lo, hi)
    rate = max(0.0, theta * hi.rate + (1.0 - theta) * lo.rate)
    return rate, theta * hi.cond + (1.0 - theta) * lo.cond


def rate_distortion_inverse(
    source: np.ndarray, distortion: np.ndarray, rate: float
) -> tuple[float, float]:
    """Smallest d_c with R(d_c) <= rate. Returns (d_c, rate_used).

    Inverts the rate-distortion curve by bisection on the slope parameter
    (the curve is traversed monotonically in the slope), which avoids the
    cost of re-solving R(D) per candidate d_c. The search stops once the
    distortion that time-sharing the bracketing points achieves at this
    rate and the lower bound from their certified tangents agree to
    RD_TOL; the achievable one is returned.
    """
    source = np.asarray(source, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)
    _, d_zero = _zero_rate_channel(source, distortion)
    if rate <= 0.0:
        return d_zero, 0.0
    d_min = _min_row_distortion(source, distortion)
    _, rate_max = _deterministic_channel(source, distortion)
    if rate >= rate_max - 1e-12:
        return d_min, rate_max

    def achievable(lo, hi):
        theta = (rate - lo.rate) / (hi.rate - lo.rate)
        return theta * hi.dist + (1.0 - theta) * lo.dist

    def bound_gap(lo, hi):
        # R(d) >= lower - beta * d, so R(d) <= rate needs d >= (lower - rate) / beta
        lower = max(
            [d_min] + [(pt.lower - rate) / pt.beta for pt in (lo, hi) if 0 < pt.beta < math.inf]
        )
        return achievable(lo, hi) - lower

    lo, hi = _rd_search(
        source, distortion, lambda pt: pt.rate >= rate, bound_gap,
        f"rate_distortion_inverse at rate={rate:.12g}",
    )
    return max(d_min, float(achievable(lo, hi))), rate


def theorem1_feasible(
    model: FiniteCasModel,
    d_s: float,
    d_c: float,
    budget: float,
    comm_distortion: np.ndarray | None = None,
) -> Theorem1Result:
    """Check whether (d_s, d_c, budget) is an achievable operating point.

    Computes the constrained capacity, induces the estimate marginal from
    the capacity-achieving input law, and compares against the source rate
    needed at d_c. ``comm_distortion`` defaults to the model's distortion
    matrix (the estimate alphabet doubles as the reconstruction alphabet).
    """
    if comm_distortion is None:
        comm_distortion = model.distortion
        if comm_distortion.shape[0] != comm_distortion.shape[1]:
            raise ValueError(
                "model distortion is not square; pass comm_distortion explicitly"
            )
    capacity, px = constrained_capacity(model, d_s, budget)
    source = induced_estimate_marginal(model, px.probs)
    rate, _ = rate_distortion_discrete(source, comm_distortion, d_c)
    margin = capacity - rate
    return Theorem1Result(feasible=margin >= 0.0, margin=margin, capacity=capacity, rate=rate)


def min_total_distortion(
    model: FiniteCasModel,
    budget: float,
    grid: float = 1e-3,
    comm_distortion: np.ndarray | None = None,
) -> TradeoffPoint:
    """Minimize D_s + D_c over the sensing-distortion split at fixed budget.

    Sweeps the estimation-distortion bound over [min e, max e] at the given
    resolution; at each bound the communication distortion is the inverse
    rate-distortion evaluated at the constrained capacity. Deterministic
    for a fixed grid.
    """
    if comm_distortion is None:
        comm_distortion = model.distortion
        if comm_distortion.shape[0] != comm_distortion.shape[1]:
            raise ValueError(
                "model distortion is not square; pass comm_distortion explicitly"
            )
    e = estimate_costs(model)
    lo, hi = float(e.min()), float(e.max())
    if budget < model.cost.min() - SLACK_TOL:
        raise InfeasibleConstraint(f"budget={budget} below min resource cost {model.cost.min()}")
    if hi - lo < grid:
        ds_values = np.array([hi])
    else:
        ds_values = np.linspace(lo, hi, int(math.ceil((hi - lo) / grid)) + 1)

    best: TradeoffPoint | None = None
    for d_s in ds_values:
        try:
            capacity, px = constrained_capacity(model, float(d_s), budget)
        except InfeasibleConstraint:
            continue
        source = induced_estimate_marginal(model, px.probs)
        d_c, rate_used = rate_distortion_inverse(source, comm_distortion, capacity)
        d_s_achieved = float(px.probs @ e)
        point = TradeoffPoint(
            d_s=d_s_achieved,
            d_c=d_c,
            d_total=d_s_achieved + d_c,
            rate=min(rate_used, capacity) if rate_used > 0 else 0.0,
            capacity=capacity,
            budget=float(px.probs @ model.cost),
        )
        if best is None or point.d_total < best.d_total:
            best = point
    if best is None:
        raise InfeasibleConstraint("no feasible point on the sweep grid")
    return best
