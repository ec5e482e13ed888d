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
SLACK_TOL = 1e-8        # multiplier bisection stops at this constraint slack
_MU_CAP = 1e12          # multiplier doubling safety cap
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


def _check_intersection(e: np.ndarray, b: np.ndarray, d_s: float, budget: float) -> None:
    """LP feasibility of {p on simplex : E[e] <= d_s, E[b] <= budget}."""
    res = linprog(
        c=np.zeros_like(e),
        A_ub=np.vstack([e, b]),
        b_ub=np.array([d_s + SLACK_TOL, budget + SLACK_TOL]),
        A_eq=np.ones((1, e.size)),
        b_eq=np.array([1.0]),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status != 0:
        raise InfeasibleConstraint(
            f"no input distribution satisfies E[e] <= {d_s} and E[b] <= {budget}"
        )


def _warn(message: str) -> None:
    warnings.warn(message, ConvergenceWarning, stacklevel=3)


def _simplex_newton(x: np.ndarray, oracle, tol: float) -> tuple[np.ndarray, float]:
    """Polish a near-optimal point of a concave function over the simplex.

    Active-set Newton: each step solves the KKT system of the quadratic
    model on the support {x > 0}. A coordinate that a step drives to zero
    leaves the support; once the support is optimal, the coordinate with
    the largest gradient outside it joins. ``oracle(x)`` returns the value,
    gradient and Hessian. Returns the point and its Frank-Wolfe gap
    ``max(grad) - x @ grad``, which bounds the distance to the maximum; the
    caller accepts the point only when the gap is below ``tol``.

    The start is screened first: coordinates below ``_SCREEN`` times the
    largest one are set to zero. A Blahut-Arimoto iterate drains letters
    off the optimal support only geometrically, so without the screen each
    of them would cost a Newton step to drop, and a wide R(D) problem has
    more of them than ``_NEWTON_STEPS``. A coordinate screened out wrongly
    keeps a gradient above ``x @ grad`` at the optimum of the smaller
    support, so the admission rule brings it back, and the gap test still
    decides acceptance: the screen changes the work, not the answer.
    """
    x = np.where(x < _SCREEN * x.max(), 0.0, x)
    x /= x.sum()
    f, g, h = oracle(x)
    gap = float(g.max() - x @ g)
    for _ in range(_NEWTON_STEPS):
        if gap < tol:
            break
        free = x > 0.0
        if g[free].max() - x @ g < tol:
            free[np.argmax(np.where(free, -np.inf, g))] = True
        s = np.flatnonzero(free)
        n = s.size
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = h[np.ix_(s, s)]
        kkt[:n, n] = -1.0
        kkt[n, :n] = 1.0
        u, sv, vt = np.linalg.svd(kkt)
        rank = sv > 1e-12 * sv[0]
        slope = float(g[s] @ vt[-1, :n])
        if not rank[-1] and slope != 0.0:
            # the function is linear along the null direction of the KKT
            # matrix: follow it uphill until a coordinate reaches zero
            step, t_max = math.copysign(1.0, slope) * vt[-1, :n], math.inf
        else:
            # minimum-norm Newton step
            rhs = u[:, rank].T @ np.append(-g[s], 0.0)
            step, t_max = (vt[rank].T @ (rhs / sv[rank]))[:n], 1.0
        ratio = np.where(step < 0.0, -x[s] / np.minimum(step, -1e-300), np.inf)
        block = int(ratio.argmin())
        if ratio[block] == 0.0 and x[s[block]] == 0.0:
            break  # the admitted coordinate would leave at once: stalled
        t = min(t_max, float(ratio[block]))
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
        x, f, g, h = y, fy, gy, hy
        gap = float(g.max() - x @ g)
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


def _capacity_input(w: np.ndarray, penalty: np.ndarray, what: str) -> np.ndarray:
    """Input law maximizing I(p; w) - p @ penalty, certified to BA_TOL."""
    base = np.where(w > 0.0, w * np.log(w + _LOG_FLOOR), 0.0).sum(axis=1) - penalty

    def oracle(p):
        q = p @ w
        score = base - w @ np.log(q + _LOG_FLOOR)
        return p @ score, score, -(w / (q + _LOG_FLOOR)) @ w.T

    return _certified_ba(
        lambda max_iter: ba_capacity(w, penalty, BA_TOL, max_iter),
        lambda p: _simplex_newton(p, oracle, BA_TOL),
        BA_TOL,
        what,
    )


def _smallest_multiplier(solve, slack, name: str) -> np.ndarray:
    """Solution at the smallest multiplier mu >= 0 with slack(solve(mu)) <= 0.

    Doubles mu from 1 to bracket the constraint, then bisects until the
    slack is below SLACK_TOL. If the bracket collapses first, the solution
    jumps across the constraint at that multiplier; both ends then solve
    the same penalized problem, so does every mixture of them, and the
    mixture with zero slack is returned.
    """
    p = solve(0.0)
    if slack(p) <= SLACK_TOL:
        return p
    lo, hi, p_lo = 0.0, 1.0, p
    p_hi = solve(hi)
    while slack(p_hi) > 0 and hi < _MU_CAP:
        lo, hi, p_lo = hi, 2.0 * hi, p_hi
        p_hi = solve(hi)
    if slack(p_hi) > 0:
        _warn(f"constrained_capacity: {name} multiplier reached its cap {hi:.3g}; "
              f"slack {slack(p_hi):.3e}")
        return p_hi
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        p = solve(mid)
        s = slack(p)
        if abs(s) < SLACK_TOL:
            return p
        if s > 0:
            lo, p_lo = mid, p
        else:
            hi, p_hi = mid, p
        if hi - lo < 1e-15 * max(1.0, hi):
            s_lo, s_hi = slack(p_lo), slack(p_hi)
            return (s_lo * p_hi - s_hi * p_lo) / (s_lo - s_hi)
    _warn(f"constrained_capacity: {name} multiplier bisection used all {_BISECT_STEPS} "
          f"steps at mu={hi:.6g}; slack {slack(p_hi):.3e}")
    return p_hi


def constrained_capacity(
    model: FiniteCasModel, d_s: float, budget: float
) -> tuple[float, InputDistribution]:
    """Capacity under the estimation-distortion and resource-cost constraints.

    Maximizes I(X;Y) over the simplex intersected with E[e(X)] <= d_s and
    E[b(X)] <= budget. Solved by penalized Blahut-Arimoto with one Lagrange
    multiplier per constraint, each driven by bisection until the active
    constraint slack is below SLACK_TOL. Each penalized problem is solved
    to a certified gap below BA_TOL (a Newton polish finishes runs that
    Blahut-Arimoto alone would take too long to certify); a run or search
    that ends uncertified raises a ConvergenceWarning.
    """
    e = estimate_costs(model)
    b = model.cost
    w = model.comm_law
    if d_s < e.min() - SLACK_TOL or budget < b.min() - SLACK_TOL:
        raise InfeasibleConstraint(
            f"d_s={d_s} below min estimate-cost {e.min()} or budget={budget} "
            f"below min resource cost {b.min()}"
        )
    _check_intersection(e, b, d_s, budget)

    def budget_adjusted(mu_e: float) -> np.ndarray:
        return _smallest_multiplier(
            lambda mu_b: _capacity_input(
                w, mu_e * e + mu_b * b, f"constrained_capacity at mu_e={mu_e:.6g}, mu_b={mu_b:.6g}"
            ),
            lambda p: p @ b - budget,
            "budget",
        )

    p = _smallest_multiplier(budget_adjusted, lambda p: p @ e - d_s, "distortion")
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
    source = np.asarray(source, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)
    _check_prob(source, "source")
    if source.size != distortion.shape[0]:
        raise ValueError("distortion rows must match the source alphabet")
    if np.any(distortion < 0) or not np.all(np.isfinite(distortion)):
        raise ValueError("distortion: entries must be finite and nonnegative")
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
