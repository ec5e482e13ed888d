"""Model builders and reference implementations shared across the test suite."""

import contextlib
import csv
import math

import numpy as np

from cas_limits import FiniteCasModel, TrmModel
from cas_limits.discrete import (
    RD_TOL,
    _BETA_CAP,
    _BISECT_STEPS,
    _rd_point,
    _warn,
)
from cas_limits.gaussian import (
    RANK_RTOL,
    GramMatrix,
    _block_covariance_from_waveform,
    mmse_filter,
    reverse_waterfill,
)
from cas_limits.errors import NonFiniteObjective
from cas_limits.simulate import _BATCH
from cas_limits.waveform import (
    ARMIJO_C,
    FTOL,
    MAX_ITER,
    WINDOW,
    _gradient,
    _objective,
    evaluate_gram,
)


def random_rows(rng, shape):
    """Random strictly positive probability rows (last axis sums to 1)."""
    a = rng.gamma(1.0, 1.0, shape) + 1e-3
    return a / a.sum(axis=-1, keepdims=True)


def random_finite_model(rng, n_s=None, n_x=None, n_z=None, n_y=None):
    """Random finite CAS model with alphabet sizes in {2, 3} by default."""
    n_s = n_s or int(rng.integers(2, 4))
    n_x = n_x or int(rng.integers(2, 4))
    n_z = n_z or int(rng.integers(2, 4))
    n_y = n_y or int(rng.integers(2, 4))
    return FiniteCasModel(
        state_prior=random_rows(rng, (n_s,)),
        sensing_law=random_rows(rng, (n_x, n_s, n_z)),
        comm_law=random_rows(rng, (n_x, n_y)),
        distortion=rng.uniform(0.0, 1.0, (n_s, n_s)),
        cost=rng.uniform(0.0, 1.0, n_x),
    )


def bsc(eps):
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def binary_sensing_model(p_good=0.9, p_bad=0.6, comm_eps=0.1, cost=(0.0, 0.0)):
    """Binary state, two inputs with different sensing reliability.

    Input 0 observes the state correctly with probability p_good, input 1
    with p_bad; the communication channel is a binary symmetric channel.
    """
    return FiniteCasModel(
        state_prior=[0.5, 0.5],
        sensing_law=[
            [[p_good, 1.0 - p_good], [1.0 - p_good, p_good]],
            [[p_bad, 1.0 - p_bad], [1.0 - p_bad, p_bad]],
        ],
        comm_law=bsc(comm_eps),
        distortion=HAMMING,
        cost=list(cost),
    )


def reference_2x2x2_model():
    """Fixed small model used for the region-coherence checks."""
    return FiniteCasModel(
        state_prior=[0.5, 0.5],
        sensing_law=[[[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.4, 0.6]]],
        comm_law=[[0.85, 0.15], [0.15, 0.85]],
        distortion=[[0.0, 1.0], [1.0, 0.0]],
        cost=[0.2, 1.0],
    )


def scalar_trm_model(power=0.75, t=4, noise_s=1.0, noise_c=1.0):
    """N = M_s = M_c = 1 model; trace budget t * power."""
    return TrmModel(
        sigma_s=np.array([[1.0 + 0j]]),
        h_c=np.array([[1.0 + 0j]]),
        noise_s=noise_s,
        noise_c=noise_c,
        t=t,
        m_s=1,
        power=power,
    )


def random_unitary(rng, n):
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_trm_model(seed=5, sig_eigs=(1.5, 0.8), gains=(1.2, 0.7), t=4, m_s=2):
    """Two-antenna model whose prior and channel share one eigenbasis.

    The joint optimum then lives on the shared eigenbasis, so a dense grid
    over the two eigenvalue allocations is an exhaustive oracle.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    sigma = (u * np.array(sig_eigs)) @ u.conj().T
    h = (u * np.sqrt(np.array(gains))) @ u.conj().T
    model = TrmModel(
        sigma_s=sigma, h_c=h, noise_s=1.0, noise_c=1.0, t=t, m_s=m_s, power=1.0
    )
    return model, u


def crossover_trm_model(seed=3):
    """4x4x4 model whose scheme comparison flips sign along the SNR sweep.

    The prior spectrum is strongly spread and the communication channel is
    near rank-1 with its dominant direction on the weakest prior
    eigenvector, so the power-multiplexing advantage of the joint design
    dies out as SNR grows and the structured split waveforms take over.
    """
    rng = np.random.default_rng(seed)
    sig_eigs = np.array([16.0, 4.0, 1.0, 0.25])
    u = random_unitary(rng, 4)
    sigma = (u * sig_eigs) @ u.conj().T
    sigma *= 4 / np.real(np.trace(sigma))
    vh = u[:, np.argsort(sig_eigs)]
    uh = random_unitary(rng, 4)
    h = (uh * np.array([2.0, 1e-3, 1e-3, 1e-3])) @ vh.conj().T
    return TrmModel(
        sigma_s=sigma, h_c=h, noise_s=1.0, noise_c=1.0, t=16, m_s=4, power=1.0
    )


def param_to_mat(v, n):
    """Real parameter vector (diagonal, real and imaginary upper triangle) -> Hermitian matrix."""
    q = np.zeros((n, n), dtype=np.complex128)
    q[np.diag_indices(n)] = v[:n]
    iu = np.triu_indices(n, k=1)
    m = iu[0].size
    off = v[n : n + m] + 1j * v[n + m :]
    q[iu] = off
    q[(iu[1], iu[0])] = off.conj()
    return q


def mat_to_param(q):
    n = q.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.real(np.diag(q)), np.real(q[iu]), np.imag(q[iu])])


def grad_to_param(g):
    """Gradient of the parameter vector for a Hermitian gradient g, df = Re tr(g dQ)."""
    n = g.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.real(np.diag(g)), 2.0 * np.real(g[iu]), 2.0 * np.imag(g[iu])])


def fd_gradient(model, q, h):
    """Central-difference gradient of the ISAC objective on the parameter vector of q."""
    n = q.shape[0]
    v = mat_to_param(q)
    g = np.zeros_like(v)
    for k in range(v.size):
        vp = v.copy()
        vp[k] += h
        fp = _objective(model, param_to_mat(vp, n))
        vp[k] -= 2 * h
        fm = _objective(model, param_to_mat(vp, n))
        g[k] = (fp - fm) / (2 * h)
    return g


def _serial_complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def serial_run_chain(
    model: TrmModel,
    x: np.ndarray,
    rate_budget: float | None,
    n_trials: int,
    seed: int,
    dump_path=None,
):
    """The serial trial loop the simulator replaced: one batch at a time, drawn and
    computed on the calling thread, dumped through ``csv.writer``.

    Same signature and return value as ``simulate._run_chain``, whose reports and
    dump bytes it must reproduce exactly.
    """
    x = np.asarray(x, dtype=np.complex128)
    x_eff = np.sqrt(model.t) * x
    w = mmse_filter(model, x_eff)
    mu, u_sigma = np.linalg.eigh(model.sigma_s)
    sigma_root = (u_sigma * np.sqrt(np.maximum(np.real(mu), 0.0))) @ u_sigma.conj().T

    if rate_budget is not None:
        block = _block_covariance_from_waveform(model, x)
        lam, u = np.linalg.eigh(block)
        lam = np.maximum(np.real(lam), 0.0)
        rwf = reverse_waterfill(np.repeat(np.sort(lam)[::-1], model.m_s), rate_budget)
        # per-mode allocation depends only on the eigenvalue
        thresh = RANK_RTOL * max(lam.max(initial=0.0), 1e-300)
        alloc = np.where(lam > thresh, np.minimum(lam, rwf.xi), 0.0)
        gains = np.where(lam > thresh, 1.0 - alloc / np.maximum(lam, 1e-300), 0.0)
        wvar = alloc * gains
        analytic_d_c = rwf.d_c
    else:
        analytic_d_c = None

    sums = {"d_s": 0.0, "d_s2": 0.0, "d_c": 0.0, "d_c2": 0.0,
            "d": 0.0, "d2": 0.0, "x": 0.0, "x2": 0.0}

    with contextlib.ExitStack() as stack:
        writer = None
        if dump_path is not None:
            writer = csv.writer(stack.enter_context(open(dump_path, "w", newline="")))
            if rate_budget is not None:
                writer.writerow(["d_s", "d_c", "d_total", "cross"])
            else:
                writer.writerow(["d_s"])

        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        done = 0
        while done < n_trials:
            nb = min(_BATCH, n_trials - done)
            g = _serial_complex_normal(rng, (nb, model.m_s, model.n))
            s = g @ sigma_root.T
            noise = np.sqrt(model.noise_s) * _serial_complex_normal(rng, (nb, model.m_s, model.t))
            z = s @ x_eff.conj() + noise
            s_est = z @ w.T
            err_s = s - s_est
            d_s_i = np.sum(np.abs(err_s) ** 2, axis=(1, 2))
            sums["d_s"] += d_s_i.sum()
            sums["d_s2"] += (d_s_i**2).sum()
            columns = [d_s_i]

            if rate_budget is not None:
                coeff = s_est @ u.conj()
                wnoise = _serial_complex_normal(rng, (nb, model.m_s, model.n)) * np.sqrt(wvar)
                coeff_hat = gains * coeff + wnoise
                s_hat = coeff_hat @ u.T
                err_c = s_est - s_hat
                err_t = s - s_hat
                d_c_i = np.sum(np.abs(err_c) ** 2, axis=(1, 2))
                d_i = np.sum(np.abs(err_t) ** 2, axis=(1, 2))
                x_i = np.sum(np.real(err_s.conj() * err_c), axis=(1, 2))
                sums["d_c"] += d_c_i.sum()
                sums["d_c2"] += (d_c_i**2).sum()
                sums["d"] += d_i.sum()
                sums["d2"] += (d_i**2).sum()
                sums["x"] += x_i.sum()
                sums["x2"] += (x_i**2).sum()
                columns += [d_c_i, d_i, x_i]
            if writer is not None:
                writer.writerows(
                    [format(v, ".17g") for v in row]
                    for row in zip(*(c.tolist() for c in columns))
                )
            done += nb

    return sums, analytic_d_c


# The slope search the R(D) solvers used before false position: plain
# bisection inside a finite bracket. Kept as the oracle whose answers the
# new search must reproduce; like the new search, it takes its two starting
# ends from the caller. ``past(point)`` is ``excess(point) <= 0`` for the
# new search's ``excess``.
def bisection_rd_search(source, distortion, lo, hi, past, bound_gap, what: str):
    """Bracket a target on the R(D) curve by bisection on the slope beta.

    ``past(point)`` is False at the low-beta end ``lo`` of the bracket and
    True at the high-beta end ``hi``; they start at the two ends from
    ``_rd_ends``, the zero-rate point (beta = 0) and the minimum-distortion
    point (beta = inf), and beta doubles from 1 until a point is past the
    target. The search stops once ``bound_gap(lo, hi)``, the distance
    between an achievable upper bound and a certified lower bound at the
    target, is below RD_TOL, which on a straight segment of the curve
    happens as soon as lo and hi sit on it. Returns (lo, hi).
    """
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


# The separated-waveform split scan before it was batched: one pass per split,
# two forward water-fillings and one reverse water-filling each, with the
# scalar water level of that time. Kept, with its own level and masking, as
# the oracle that ``waveform._split_scores`` must reproduce split for split.
def _scalar_water_level(floors, total):
    floors = np.sort(floors)
    levels = (total + np.cumsum(floors)) / np.arange(1, floors.size + 1)
    return float(levels[np.flatnonzero(levels >= floors)[-1]])


def _scalar_waterfill_powers(lam, scale, power):
    with np.errstate(divide="ignore", over="ignore"):
        floor = 1.0 / (scale * np.maximum(lam, 0.0))
    live = np.isfinite(floor)
    if power <= 0 or not live.any():
        return np.zeros(lam.size)
    level = _scalar_water_level(floor[live], power)
    return np.where(live, np.maximum(level - floor, 0.0), 0.0)


def _scalar_reverse_distortion(spectrum, rate):
    lam = np.sort(spectrum)[::-1]
    if lam.max(initial=0.0) <= 0.0:
        return 0.0
    live = lam > RANK_RTOL * lam.max()
    xi = float(np.exp(-_scalar_water_level(-np.log(lam[live]), rate)))
    return float(np.where(live, np.minimum(lam, xi), 0.0).sum())


def loop_split_scores(model: TrmModel, rhos: np.ndarray) -> np.ndarray:
    """Separated-waveform total distortion at each power split, one split at a time."""
    budget = model.trace_budget
    s, c = model.t / model.noise_s, model.t / model.noise_c
    sigma = np.linalg.eigvalsh(model.sigma_s)
    eta = np.linalg.eigvalsh(model.h_c.conj().T @ model.h_c)
    scores = np.empty(len(rhos))
    for k, rho in enumerate(rhos):
        p_s = _scalar_waterfill_powers(sigma, s, rho * budget)
        p_c = _scalar_waterfill_powers(eta, c, (1.0 - rho) * budget)
        err = sigma / (s * p_s * sigma + 1.0)
        mi = float(np.log1p(c * p_c * eta).sum())
        d_c = _scalar_reverse_distortion(np.repeat(sigma - err, model.m_s), mi)
        scores[k] = model.m_s * err.sum() + d_c
    return scores


# The ISAC descent before its line search scored the backtracking steps in
# stacks: one projection and one objective evaluation per step, in a Python
# loop, on one Gram at a time. Kept, with its own projection and with
# ``evaluate_gram`` as the objective, as the oracle that ``optimize_isac``
# must reproduce bit for bit.
def _one_gram_project(qa, trace_budget):
    qa = 0.5 * (qa + qa.conj().T)
    vals, vecs = np.linalg.eigh(qa)
    vals = np.maximum(vals, 0.0)
    total = vals.sum()
    if total > trace_budget:
        vals *= trace_budget / total
    return (vecs * vals) @ vecs.conj().T


def _one_gram_objective(model, qa):
    val = evaluate_gram(model, qa).d_total
    if not np.isfinite(val):
        raise NonFiniteObjective("objective evaluated to a non-finite value")
    return val


def loop_optimize_isac(model: TrmModel):
    """Projected gradient descent with one-step-at-a-time Armijo backtracking.

    Returns the array of ``q_star``, the point, stop, iterations and fw_gap
    as ``optimize_isac`` reports them, from the uniform start.
    """
    budget = model.trace_budget
    n = model.n
    qa = _one_gram_project((budget / n) * np.eye(n, dtype=np.complex128), budget)
    scale = max(budget / n, 1e-12)

    f = _one_gram_objective(model, qa)
    history = [f]
    step = scale
    it = 0
    for it in range(1, MAX_ITER + 1):
        g = _gradient(model, qa)
        direction = 2.0 * g - np.diag(np.diag(g))
        if np.real(np.vdot(g, direction)) < 1e-30:
            stop = "gradient"
            break
        step = min(step * 2.0, 1e6 * scale)
        stop = "line_search"
        for _ in range(60):
            qa_new = _one_gram_project(qa - step * direction, budget)
            move2 = float(np.sum(np.abs(qa_new - qa) ** 2))
            if move2 < 1e-30 * max(1.0, scale**2):
                stop = "no_move"
                break
            f_new = _one_gram_objective(model, qa_new)
            if f_new <= f - (ARMIJO_C / step) * move2:
                stop = None
                break
            step *= 0.5
        if stop is not None:
            break
        qa, f = qa_new, f_new
        history.append(f)
        if len(history) > WINDOW and history[-1 - WINDOW] - f < FTOL:
            stop = "ftol"
            break
    else:
        stop = "max_iter"

    g = _gradient(model, qa)
    fw_gap = float(np.real(np.vdot(g, qa)) - budget * min(np.linalg.eigvalsh(g)[0], 0.0))
    return GramMatrix(qa, trace_limit=budget).q, evaluate_gram(model, qa), stop, it, fw_gap
