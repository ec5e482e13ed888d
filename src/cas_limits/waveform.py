"""Gram-matrix optimizers: joint ISAC design and the separated-waveform baseline.

The ISAC solver runs projected gradient descent on the Hermitian Gram matrix
with the communication distortion treated as the reverse-water-filling value
function at the channel mutual information; its gradient is in closed form.
The baseline splits the power budget between a sensing-optimal and a
communication-optimal Gram matrix, and scores each split on the spectra of
the prior and of the channel Gram.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteObjective
from .gaussian import (
    GramMatrix,
    TrmModel,
    _adjoint,
    _error_covariance,
    _estimate_block,
    _expanded_spectrum,
    _per_gram,
    _reverse_allocations,
    channel_mi,
    gram_spectrum,
    reverse_waterfill,
    sensing_mse,
    water_level,
)
from .modelio import atomic_write_file
from .types import TradeoffPoint

FTOL = 1e-8             # stop when the objective drops less than this over WINDOW
WINDOW = 5
MAX_ITER = 2000
ARMIJO_C = 1e-4
HALVINGS = 60           # a line search tries the steps step 2^-k for k < HALVINGS
_CHUNKS = (1, 4, 16, 39)  # candidates per stacked evaluation, in order; they sum to HALVINGS
_HALVES = 0.5 ** np.arange(HALVINGS)
# why optimize_isac stopped; the first three count as converged
STOP_REASONS = ("gradient", "ftol", "no_move", "line_search", "max_iter")
CONVERGED_STOPS = STOP_REASONS[:3]
_SPLIT_BLOCK = 256      # power splits scored per batch; bounds memory at any split_grid

CSV_COLUMNS = [
    "snr_db",
    "scheme",
    "d_s",
    "d_c",
    "d_total",
    "rate_nats",
    "mi_nats",
    "trace_used",
    "converged",
]


@dataclass
class OptResult:
    """Outcome of a Gram-matrix optimization.

    ``q_star`` is a GramMatrix for the ISAC scheme and a (sensing, comm)
    pair for the separated-waveform scheme; ``rho`` is the SW power split.
    ``stop`` says why the ISAC descent ended (see ``STOP_REASONS``); it is
    None for the SW grid scan, as is ``fw_gap`` (see ``optimize_isac``).
    """

    q_star: GramMatrix | tuple[GramMatrix, GramMatrix]
    point: TradeoffPoint
    trace_used: float
    iterations: int
    converged: bool
    rho: float | None = None
    stop: str | None = None
    fw_gap: float | None = None


@dataclass
class SweepCurve:
    """Per-SNR optimizer results, one list per scheme label.

    Failed points are recorded as None in ``results`` with the error text
    in ``errors``.
    """

    snr_db: list[float]
    results: dict[str, list[OptResult | None]]
    errors: dict[str, list[str | None]]


def evaluate_gram(
    model: TrmModel, q_s: np.ndarray, q_c: np.ndarray | None = None
) -> TradeoffPoint:
    """Trade-off point of a sensing Gram ``q_s`` and a communication Gram ``q_c``.

    D_s is the sensing MSE of q_s, and D_c the reverse water-filling of the
    estimate spectrum of q_s at the mutual information of q_c. Without q_c
    one Gram does both jobs, as in the ISAC design. The budget is the trace
    of the Grams in use. Both Grams are plain arrays; the point's
    ``d_total`` is the ISAC objective D_s + D_c.
    """
    d_s = sensing_mse(model, q_s)
    mi = channel_mi(model, q_s if q_c is None else q_c)
    rwf = reverse_waterfill(gram_spectrum(model, q_s), mi)
    trace = np.trace(q_s) if q_c is None else np.trace(q_s) + np.trace(q_c)
    return TradeoffPoint(
        d_s=d_s,
        d_c=rwf.d_c,
        d_total=d_s + rwf.d_c,
        rate=rwf.rate,
        capacity=mi,
        budget=float(np.real(trace)),
    )


def _objective(model: TrmModel, qa: np.ndarray):
    """D_s + D_c of the Gram ``qa``, or of each Gram in a (K, N, N) stack.

    The same closed forms as ``evaluate_gram``'s ``d_total``, from one
    solve of the error covariance E per Gram: D_s = M_s Re tr E, and D_c
    the reverse water-filling of the spectrum of Sigma - E, all the spectra
    in one batched pass. Non-finite values are returned as they are; the
    line search checks them in the order it tries the candidates.
    """
    e = _error_covariance(model, qa)
    spectra = _expanded_spectrum(model, _estimate_block(model, e))
    d_c = _reverse_allocations(spectra, channel_mi(model, qa))[2].sum(axis=-1)
    return _per_gram(model.m_s * e.trace(axis1=-2, axis2=-1).real + d_c)


def _project(qa: np.ndarray, trace_budget) -> np.ndarray:
    """Map an iterate, or each matrix of a (K, N, N) stack, back into {Q PSD, Tr Q <= budget}.

    Negative eigenvalues are clipped to zero, then the matrix is rescaled
    when the trace cap still binds. A stack takes one budget, or one per
    matrix in an array shaped as its leading axes and a trailing 1, such
    as (K, 1) for a (K, N, N) stack. The rescaling is deliberate: it keeps
    the shape of the spectrum instead of shifting it, which biases the
    solver toward evenly loaded subspaces. That is the behavior the
    high-SNR baseline comparison depends on; see the sweep tests.
    """
    vals, vecs = np.linalg.eigh(0.5 * (qa + _adjoint(qa)))
    vals = np.maximum(vals, 0.0)
    # a factor of exactly 1 where the cap does not bind
    vals = vals * (trace_budget / np.maximum(vals.sum(axis=-1, keepdims=True), trace_budget))
    return (vecs * vals[..., None, :]) @ _adjoint(vecs)


def _scan(f: float, tiny: float, steps, moves, totals):
    """Scan one run's candidates of a line search in order; returns (index, stop) or None.

    The scan ends at the first candidate that moves less than ``tiny`` in
    squared norm (stop "no_move"), or that passes the gradient-mapping
    Armijo test, a decrease from ``f`` of at least ARMIJO_C / step times
    the squared move (stop None). A non-finite total raises
    NonFiniteObjective only at a candidate the scan reaches. None means no
    candidate ended the scan.
    """
    for k, (t, m2, f_new) in enumerate(zip(steps, moves, totals)):
        if m2 < tiny:
            return k, "no_move"
        if not math.isfinite(f_new):
            raise NonFiniteObjective("objective evaluated to a non-finite value")
        if f_new <= f - (ARMIJO_C / t) * m2:
            return k, None
    return None


def _gradient(model: TrmModel, qa: np.ndarray) -> np.ndarray:
    """Hermitian gradient G of D_s + D_c at Q: the objective moves by Re tr(G dQ).

    With s = T / sigma_s^2, c = T / sigma_c^2 and E = Sigma (s Q Sigma + I)^-1,
    the sensing MSE moves by -M_s s tr(E^2 dQ), and each eigenvalue mu_i of
    the block estimate covariance Sigma - E by s u_i^H E dQ E u_i. By the
    envelope theorem the reverse-water-filling value at level xi moves by
    M_s sum_i w_i dmu_i - xi dR, with w_i = 1 for mu_i <= xi (zero modes
    included, so that the descent can grow them) and xi / mu_i above. The
    log-det rate moves by c tr(H^H (c H Q H^H + I)^-1 H dQ) (Palomar &
    Verdu, IEEE T-IT 52(1), 2006) while it is positive. A (K, N, N) stack
    of Grams gives the K gradients, each as one Gram alone gets it.
    """
    q = qa if qa.ndim == 3 else qa[None]
    s = model.t / model.noise_s
    e = _error_covariance(model, q)
    e = 0.5 * (e + _adjoint(e))
    mu, u = np.linalg.eigh(model.sigma_s - e)
    mi = channel_mi(model, q)
    xi = np.exp(-_reverse_allocations(np.repeat(mu, model.m_s, axis=-1), mi)[0])[:, None]
    w = np.divide(xi, mu, out=np.ones_like(mu), where=mu > xi)
    eu = e @ u
    g = model.m_s * s * ((eu * w[:, None, :]) @ _adjoint(eu) - e @ e)
    live = mi > 0.0
    if live.any():
        c = model.t / model.noise_c
        h = model.h_c
        b = c * h @ q[live] @ h.conj().T + np.eye(model.m_c)
        # ((xi c) H^H) (B^-1 H), grouped as the one-Gram form always was: another
        # grouping moves the last bits, and with them the descent's path
        g[live] -= xi[live, :, None] * c * h.conj().T @ np.linalg.solve(b, h[None])
    g = 0.5 * (g + _adjoint(g))
    return g if qa.ndim == 3 else g[0]


def _descend(model: TrmModel, budgets, inits, max_iter: int) -> list:
    """Projected gradient descents on ``model``, one per trace budget, run in lockstep.

    Run k starts from inits[k] projected onto {Q PSD, Tr Q <= budgets[k]},
    or from the uniform Gram (budgets[k] / N) I where inits[k] is None, and
    keeps its own step, objective, history, iteration count and line
    search position, so it takes the path it takes alone. Each iteration
    computes the gradients of the active runs in one stacked ``_gradient``
    call, and each round of line search scores the next chunk of every
    searching run in one stacked ``_project`` and one ``_objective`` call;
    each run then scans its own candidates with ``_scan``. The model's own
    power plays no part: only the budgets bound the Grams. Returns, per
    run, its OptResult or the NonFiniteObjective that ended it.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative; got {max_iter}")
    n = model.n
    runs = range(len(budgets))
    caps = np.array(budgets, dtype=np.float64)[:, None]
    qa = _project(np.array([(b / n) * np.eye(n) if q is None else q
                            for b, q in zip(budgets, inits)], dtype=np.complex128), caps)
    scales = [max(b / n, 1e-12) for b in budgets]
    tiny = [1e-30 * max(1.0, sc**2) for sc in scales]
    steps = list(scales)
    f = _objective(model, qa).tolist()
    history = [[v] for v in f]
    out = [None if math.isfinite(v) else NonFiniteObjective(
        "objective evaluated to a non-finite value") for v in f]
    stop = [None] * len(budgets)
    iters = [max_iter] * len(budgets)
    grads = [None] * len(budgets)   # the gradient at a run's final Gram, when one was computed
    active = [k for k in runs if out[k] is None]
    diag = np.arange(n)
    for it in range(1, max_iter + 1):
        if not active:
            break
        g = _gradient(model, qa[active])
        direction = 2.0 * g
        direction[:, diag, diag] -= g[:, diag, diag]     # 2G - Diag G
        searching = []      # positions in ``active`` of the runs with a line search to do
        for j, k in enumerate(active):
            if np.real(np.vdot(g[j], direction[j])) < 1e-30:
                stop[k], iters[k], grads[k] = "gradient", it, g[j]
            else:
                steps[k] = min(steps[k] * 2.0, 1e6 * scales[k])
                searching.append(j)
        start = 0
        for size in _CHUNKS:
            if not searching:
                break
            ks = [active[j] for j in searching]
            # exact: scaling by powers of 2
            chunks = np.multiply.outer([steps[k] for k in ks], _HALVES[start:start + size])
            # (runs, size, N, N): run i's candidates qa - t direction, projected under its cap
            base = qa[ks][:, None]
            cands = _project(base - chunks[..., None, None] * direction[searching][:, None],
                             caps[ks][..., None])
            # the scans run in Python floats: the same IEEE arithmetic, without NumPy scalars
            moves = np.sum(np.abs(cands - base) ** 2, axis=(2, 3)).ravel().tolist()
            cands = cands.reshape(-1, n, n)
            totals = _objective(model, cands).tolist()
            step_rows = chunks.ravel().tolist()
            left = []
            for i, (j, k) in enumerate(zip(searching, ks)):
                rows = slice(i * size, (i + 1) * size)
                try:
                    found = _scan(f[k], tiny[k], step_rows[rows], moves[rows], totals[rows])
                except NonFiniteObjective as exc:
                    out[k] = exc
                    continue
                if found is None:
                    left.append(j)
                elif found[1] == "no_move":
                    stop[k], iters[k], grads[k] = "no_move", it, g[j]
                else:
                    row = i * size + found[0]
                    qa[k], f[k], steps[k] = cands[row], totals[row], step_rows[row]
                    history[k].append(f[k])
                    if len(history[k]) > WINDOW and history[k][-1 - WINDOW] - f[k] < FTOL:
                        stop[k], iters[k] = "ftol", it
            searching = left
            start += size
        for j in searching:     # every halving failed the Armijo test
            stop[active[j]], iters[active[j]], grads[active[j]] = "line_search", it, g[j]
        active = [k for k in active if stop[k] is None and out[k] is None]
    for k in active:
        stop[k] = "max_iter"

    fresh = [k for k in runs if out[k] is None and grads[k] is None]
    if fresh:   # after ftol or max_iter the final Gram's gradient is not yet known
        for k, g_k in zip(fresh, _gradient(model, qa[fresh])):
            grads[k] = g_k
    for k in runs:
        if out[k] is None:
            point, g_k = evaluate_gram(model, qa[k]), grads[k]
            out[k] = OptResult(
                q_star=GramMatrix(qa[k], trace_limit=budgets[k]),
                point=point,
                trace_used=point.budget,
                iterations=iters[k],
                converged=stop[k] in CONVERGED_STOPS,
                stop=stop[k],
                fw_gap=float(np.real(np.vdot(g_k, qa[k]))
                             - budgets[k] * min(np.linalg.eigvalsh(g_k)[0], 0.0)),
            )
    return out


def optimize_isac(
    model: TrmModel,
    init: np.ndarray | None = None,
    max_iter: int = MAX_ITER,
) -> OptResult:
    """Minimize D_s(Q) + D_c(Q) over {Q PSD, Tr Q <= T P_T}.

    Projected gradient descent with the closed-form gradient of ``_gradient``
    and Armijo backtracking: ``_descend`` with one run. ``sweep_snr`` runs
    the descents of all its SNR points in lockstep in one ``_descend``
    call, and each takes the path it takes here alone. The step
    Q - step (2G - Diag G) is the gradient step of the real parameter
    vector (diagonal, real and imaginary upper triangle) of Q. Each line
    search tries the steps step 2^-k, k < HALVINGS: projected and scored in
    stacks of 1, 4, 16 and 39, so a search that accepts its first step
    costs one evaluation, and scanned in order, so the descent takes the
    path of trying one step at a time. The problem is non-convex, so the
    result is a local optimum; small-dimension grid oracles anchor
    correctness in the tests. The descent starts from ``init``, an N x N
    Hermitian array projected onto the feasible set, or without it from
    the uniform Gram (T P_T / N) I. ``stop`` records why the descent ended;
    the run counts as converged unless the line search failed through all
    its halvings or the iteration cap was hit. A negative ``max_iter``
    raises ValueError. ``fw_gap`` is the Frank-Wolfe gap at the result,
    max over the feasible set S of Re tr(G (Q - S)) with G = ``_gradient``:
    Re tr(G Q) - T P_T min(lambda_min(G), 0), zero only at a stationary
    point. It is reported only; ``converged`` does not depend on it.
    """
    (res,) = _descend(model, [model.trace_budget], [init], max_iter)
    if isinstance(res, NonFiniteObjective):
        raise res
    return res


def _waterfill_powers(lam: np.ndarray, scale: float, power) -> np.ndarray:
    """Water-filling powers with sum ``power`` on the PSD spectrum ``lam``.

    Mode i gets max(level - 1/(scale lambda_i), 0), null modes and a zero
    power get nothing; ``water_level`` sets the level. K powers give K rows.
    """
    with np.errstate(divide="ignore", over="ignore"):
        floor = 1.0 / (scale * np.maximum(lam, 0.0))
    live = np.isfinite(floor)
    power = np.asarray(power, dtype=np.float64)
    if not live.any():
        return np.zeros(power.shape + lam.shape)
    level = np.expand_dims(water_level(floor[live], power), -1)
    return np.where(live & (power[..., None] > 0), np.maximum(level - floor, 0.0), 0.0)


def _waterfill(a: np.ndarray, scale: float, power: float) -> np.ndarray:
    """Water-filling Gram with trace ``power`` in the eigenbasis of the Hermitian PSD ``a``."""
    lam, u = np.linalg.eigh(a)
    return (u * _waterfill_powers(lam, scale, power)) @ u.conj().T


def sw_point(model: TrmModel, rho: float) -> tuple[TradeoffPoint, np.ndarray, np.ndarray]:
    """Separated-waveform operating point at power split rho, with its two Grams.

    The sensing Gram gets rho * T * P_T and minimizes the same sensing MSE
    metric; the communication Gram gets the remainder and maximizes the
    mutual information. The communication distortion is the reverse
    water-filling of the sensing-estimate spectrum at the achieved rate.
    Returns (point, q_s, q_c), with the total distortion in ``point.d_total``.
    """
    budget = model.trace_budget
    q_s = _waterfill(model.sigma_s, model.t / model.noise_s, rho * budget)
    q_c = _waterfill(model.h_c.conj().T @ model.h_c, model.t / model.noise_c, (1.0 - rho) * budget)
    return evaluate_gram(model, q_s, q_c), q_s, q_c


def _split_scores(model: TrmModel, rhos: np.ndarray) -> np.ndarray:
    """Separated-waveform total distortion at each power split, in closed form.

    Both water-filling Grams of ``sw_point`` are diagonal in the eigenbases
    of Sigma_s (eigenvalues sigma_i) and H^H H (eta_i), so with powers p_s
    and p_c on those modes: d_s = M_s sum_i sigma_i / (s p_si sigma_i + 1),
    the block estimate spectrum is sigma_i - sigma_i / (s p_si sigma_i + 1),
    and the mutual information is sum_i log(1 + c p_ci eta_i). No floor
    depends on rho, so a block of splits takes one ``water_level`` call per
    Gram and one batched reverse water-filling of all the estimate spectra.
    """
    budget = model.trace_budget
    s, c = model.t / model.noise_s, model.t / model.noise_c
    sigma = np.linalg.eigvalsh(model.sigma_s)
    eta = np.linalg.eigvalsh(model.h_c.conj().T @ model.h_c)
    scores = []
    for block in np.split(rhos, range(_SPLIT_BLOCK, len(rhos), _SPLIT_BLOCK)):
        p_s = _waterfill_powers(sigma, s, block * budget)
        p_c = _waterfill_powers(eta, c, (1.0 - block) * budget)
        err = sigma / (s * p_s * sigma + 1.0)
        mi = np.log1p(c * p_c * eta).sum(axis=1)
        d_c = _reverse_allocations(np.repeat(sigma - err, model.m_s, axis=1), mi)[2].sum(axis=1)
        scores.append(model.m_s * err.sum(axis=1) + d_c)
    return np.concatenate(scores)


def optimize_sw(model: TrmModel, split_grid: int = 101) -> OptResult:
    """Best separated-waveform design over a power-split grid.

    Scores split_grid values of rho in [0, 1] with ``_split_scores``, a
    batched pass per block of splits, and returns ``sw_point`` at the first
    split with the smallest total distortion.
    """
    if split_grid < 2:
        raise ValueError("split_grid must be at least 2")
    rhos = np.linspace(0.0, 1.0, split_grid)
    rho = float(rhos[np.argmin(_split_scores(model, rhos))])
    point, q_s, q_c = sw_point(model, rho)
    budget = model.trace_budget
    return OptResult(
        q_star=(GramMatrix(q_s, trace_limit=budget), GramMatrix(q_c, trace_limit=budget)),
        point=point,
        trace_used=point.budget,
        iterations=split_grid,
        converged=True,
        rho=rho,
    )


def sweep_snr(
    template: TrmModel,
    snr_db: list[float],
    schemes: tuple[str, ...] = ("isac", "sw"),
    split_grid: int = 101,
    max_iter: int = MAX_ITER,
) -> SweepCurve:
    """Run the optimizers over an SNR grid with a shared channel realization.

    SNR is applied as P_T / sigma^2 referenced to the communication noise
    power, with both noise powers held fixed. A change of SNR changes only
    the trace budget, so the ISAC descents of all the points run in
    lockstep in one ``_descend`` call, each taking the path that
    ``optimize_isac`` takes at its point alone. Per-point failures are
    recorded instead of aborting the sweep; should the lockstep call itself
    raise, each point is rerun alone so that the error lands on its point.
    These raise ValueError before the first point: an empty, decreasing or
    non-finite snr_db, or an SNR whose power or trace budget is not a
    positive finite float (messages "snr_db: ..."); an empty schemes, or an
    unknown or repeated scheme name ("schemes: ..."); a split_grid below 2
    and a negative max_iter.
    """
    snr_db = [float(s) for s in snr_db]
    if not snr_db:
        raise ValueError("snr_db: must be nonempty")
    if not all(map(np.isfinite, snr_db)):
        raise ValueError(f"snr_db: must be finite; got {snr_db!r}")
    if any(b < a for a, b in zip(snr_db, snr_db[1:])):
        raise ValueError("snr_db: must be nondecreasing")
    if split_grid < 2:
        raise ValueError("split_grid must be at least 2")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative; got {max_iter}")
    if (not schemes or any(s not in ("isac", "sw") for s in schemes)
            or len(set(schemes)) < len(schemes)):
        raise ValueError(f"schemes: must be distinct names out of 'isac' and 'sw', at least "
                         f"one; got {schemes!r}")
    models = []
    for snr in snr_db:
        try:    # 10 ** (snr / 10) overflows, or TrmModel rejects the power or T P_T
            models.append(replace(template, power=10.0 ** (snr / 10.0) * template.noise_c))
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"snr_db: {snr!r} dB gives a power or trace budget that is not "
                             f"a positive finite float") from exc

    def attempt(solve, *args, **kwargs):
        try:
            res = solve(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            res = exc
        return res

    found = {}
    if "isac" in schemes:
        budgets = [m.trace_budget for m in models]
        found["isac"] = attempt(_descend, models[0], budgets, [None] * len(budgets), max_iter)
        if isinstance(found["isac"], Exception):
            found["isac"] = [attempt(optimize_isac, m, max_iter=max_iter) for m in models]
    if "sw" in schemes:
        found["sw"] = [attempt(optimize_sw, m, split_grid=split_grid) for m in models]
    results = {s: [None if isinstance(r, Exception) else r for r in found[s]] for s in schemes}
    errors = {s: [f"{type(r).__name__}: {r}" if isinstance(r, Exception) else None
                  for r in found[s]] for s in schemes}
    return SweepCurve(snr_db=snr_db, results=results, errors=errors)


def curve_rows(curve: SweepCurve) -> list[dict]:
    """Flatten a sweep into CSV-schema rows (one per SNR point and scheme)."""
    nan = float("nan")
    rows = []
    for i, snr in enumerate(curve.snr_db):
        for scheme, res_list in curve.results.items():
            res = res_list[i]
            point = None if res is None else res.point
            rows.append(
                {
                    "snr_db": snr,
                    "scheme": scheme,
                    "d_s": nan if point is None else point.d_s,
                    "d_c": nan if point is None else point.d_c,
                    "d_total": nan if point is None else point.d_total,
                    "rate_nats": nan if point is None else point.rate,
                    "mi_nats": nan if point is None else point.capacity,
                    "trace_used": nan if res is None else res.trace_used,
                    "converged": res is not None and res.converged,
                }
            )
    return rows


def write_curve_csv(curve: SweepCurve, path) -> None:
    """Write the sweep rows to ``path`` as CSV, atomically."""
    rows = curve_rows(curve)

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                out = dict(row)
                for key, val in out.items():
                    if isinstance(val, float):
                        out[key] = format(val, ".17g")
                writer.writerow(out)

    atomic_write_file(write, path)
