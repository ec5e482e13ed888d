"""Gram-matrix optimizers: joint ISAC design and the separated-waveform baseline.

The ISAC solver runs projected gradient descent on the Hermitian Gram matrix
with the communication distortion treated as the reverse-water-filling value
function at the channel mutual information. The baseline splits the power
budget between a sensing-optimal and a communication-optimal Gram matrix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteObjective
from .gaussian import (
    GramMatrix,
    TrmModel,
    channel_mi,
    gram_spectrum,
    reverse_waterfill,
    sensing_mse,
    water_level,
)
from .types import TradeoffPoint

GRAD_STEP = 1e-5        # central-difference step, relative to the power scale
FTOL = 1e-8             # stop when the objective drops less than this over WINDOW
WINDOW = 5
MAX_ITER = 2000
ARMIJO_C = 1e-4

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
    """

    q_star: GramMatrix | tuple[GramMatrix, GramMatrix]
    point: TradeoffPoint
    trace_used: float
    iterations: int
    converged: bool
    rho: float | None = None


@dataclass
class SweepCurve:
    """Per-SNR optimizer results, one list per scheme label.

    Failed points are recorded as None in ``results`` with the error text
    in ``errors``.
    """

    snr_db: list[float]
    results: dict[str, list[OptResult | None]]
    errors: dict[str, list[str | None]]


def _tradeoff_point(
    model: TrmModel, q_s: np.ndarray, q_c: np.ndarray | None = None
) -> TradeoffPoint:
    """Trade-off point of a sensing Gram ``q_s`` and a communication Gram ``q_c``.

    D_s is the sensing MSE of q_s, and D_c the reverse water-filling of the
    estimate spectrum of q_s at the mutual information of q_c. Without q_c
    one Gram does both jobs, as in the ISAC design. The budget is the trace
    of the Grams in use.
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


def evaluate_gram(model: TrmModel, q) -> tuple[float, TradeoffPoint]:
    """Total distortion and trade-off record for a feasible Gram matrix."""
    qa = q.q if isinstance(q, GramMatrix) else np.asarray(q, dtype=np.complex128)
    point = _tradeoff_point(model, qa)
    return point.d_total, point


def _objective(model: TrmModel, qa: np.ndarray) -> float:
    val = _tradeoff_point(model, qa).d_total
    if not np.isfinite(val):
        raise NonFiniteObjective("objective evaluated to a non-finite value")
    return val


def _param_to_mat(v: np.ndarray, n: int) -> np.ndarray:
    """Real parameter vector (length n^2) -> Hermitian matrix."""
    q = np.zeros((n, n), dtype=np.complex128)
    q[np.diag_indices(n)] = v[:n]
    iu = np.triu_indices(n, k=1)
    m = iu[0].size
    off = v[n : n + m] + 1j * v[n + m :]
    q[iu] = off
    q[(iu[1], iu[0])] = off.conj()
    return q


def _mat_to_param(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.real(np.diag(q)), np.real(q[iu]), np.imag(q[iu])])


def _project(qa: np.ndarray, trace_budget: float) -> np.ndarray:
    """Map an iterate back into {Q PSD, Tr Q <= budget}.

    Negative eigenvalues are clipped to zero, then the matrix is rescaled
    when the trace cap still binds. The rescaling is deliberate: it keeps
    the shape of the spectrum instead of shifting it, which biases the
    solver toward evenly loaded subspaces. That is the behavior the
    high-SNR baseline comparison depends on; see the sweep tests.
    """
    qa = 0.5 * (qa + qa.conj().T)
    vals, vecs = np.linalg.eigh(qa)
    vals = np.maximum(vals, 0.0)
    total = vals.sum()
    if total > trace_budget:
        vals *= trace_budget / total
    return (vecs * vals) @ vecs.conj().T


def _fd_gradient(model: TrmModel, v: np.ndarray, n: int, h: float) -> np.ndarray:
    g = np.zeros_like(v)
    for k in range(v.size):
        vp = v.copy()
        vp[k] += h
        fp = _objective(model, _param_to_mat(vp, n))
        vp[k] -= 2 * h
        fm = _objective(model, _param_to_mat(vp, n))
        g[k] = (fp - fm) / (2 * h)
    return g


def optimize_isac(
    model: TrmModel,
    init: GramMatrix | np.ndarray | None = None,
    max_iter: int = MAX_ITER,
    ftol: float = FTOL,
) -> OptResult:
    """Minimize D_s(Q) + D_c(Q) over {Q PSD, Tr Q <= T P_T}.

    Projected gradient descent with central finite-difference gradients on
    the Hermitian parametrization and Armijo backtracking. The problem is
    non-convex, so the result is a local optimum; small-dimension grid
    oracles anchor correctness in the tests.
    """
    budget = model.trace_budget
    n = model.n
    if init is None:
        qa = (budget / n) * np.eye(n, dtype=np.complex128)
    else:
        qa = init.q if isinstance(init, GramMatrix) else np.asarray(init, dtype=np.complex128)
    qa = _project(qa, budget)
    scale = max(budget / n, 1e-12)
    h = GRAD_STEP * scale

    f = _objective(model, qa)
    history = [f]
    step = scale
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        v = _mat_to_param(qa)
        g = _fd_gradient(model, v, n, h)
        gnorm2 = float(g @ g)
        if gnorm2 < 1e-30:
            converged = True
            break
        step = min(step * 2.0, 1e6 * scale)
        accepted = False
        for _ in range(60):
            qa_new = _project(_param_to_mat(v - step * g, n), budget)
            move2 = float(np.sum(np.abs(qa_new - qa) ** 2))
            if move2 < 1e-30 * max(1.0, scale**2):
                break
            f_new = _objective(model, qa_new)
            # gradient-mapping Armijo: decrease proportional to actual movement
            if f_new <= f - (ARMIJO_C / step) * move2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        qa, f = qa_new, f_new
        history.append(f)
        if len(history) > WINDOW and history[-1 - WINDOW] - f < ftol:
            converged = True
            break

    _, point = evaluate_gram(model, qa)
    return OptResult(
        q_star=GramMatrix(qa, trace_limit=budget),
        point=point,
        trace_used=point.budget,
        iterations=it,
        converged=converged,
    )


def _waterfill(a: np.ndarray, scale: float, power: float) -> np.ndarray:
    """Water-filling Gram with trace ``power`` in the eigenbasis of ``a``.

    Mode i of the Hermitian PSD matrix ``a`` gets max(level - 1/(scale
    lambda_i), 0), null modes get nothing; ``water_level`` sets the level.
    """
    lam, u = np.linalg.eigh(a)
    with np.errstate(divide="ignore", over="ignore"):
        floor = 1.0 / (scale * np.maximum(np.real(lam), 0.0))
    live = np.isfinite(floor)
    n = lam.size
    if power <= 0 or not live.any():
        return np.zeros((n, n), dtype=np.complex128)
    level = water_level(floor[live], power)
    p = np.where(live, np.maximum(level - floor, 0.0), 0.0)
    return (u * p) @ u.conj().T


def sw_point(model: TrmModel, rho: float) -> tuple[float, TradeoffPoint, np.ndarray, np.ndarray]:
    """Separated-waveform operating point at power split rho.

    The sensing Gram gets rho * T * P_T and minimizes the same sensing MSE
    metric; the communication Gram gets the remainder and maximizes the
    mutual information. The communication distortion is the reverse
    water-filling of the sensing-estimate spectrum at the achieved rate.
    """
    budget = model.trace_budget
    q_s = _waterfill(model.sigma_s, model.t / model.noise_s, rho * budget)
    q_c = _waterfill(model.h_c.conj().T @ model.h_c, model.t / model.noise_c, (1.0 - rho) * budget)
    point = _tradeoff_point(model, q_s, q_c)
    return point.d_total, point, q_s, q_c


def optimize_sw(model: TrmModel, split_grid: int = 101) -> OptResult:
    """Best separated-waveform design over a power-split grid.

    Evaluates split_grid values of rho in [0, 1] and returns the split with
    the smallest total distortion.
    """
    if split_grid < 2:
        raise ValueError("split_grid must be at least 2")
    best = None
    for rho in np.linspace(0.0, 1.0, split_grid):
        total, point, q_s, q_c = sw_point(model, float(rho))
        if best is None or total < best[0]:
            best = (total, point, q_s, q_c, float(rho))
    _, point, q_s, q_c, rho = best
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
    power, with both noise powers held fixed. Per-point failures are
    recorded instead of aborting the sweep.
    """
    snr_db = [float(s) for s in snr_db]
    if not snr_db:
        raise ValueError("snr_db must be nonempty")
    if any(b < a for a, b in zip(snr_db, snr_db[1:])):
        raise ValueError("snr_db grid must be nondecreasing")
    results: dict[str, list[OptResult | None]] = {s: [] for s in schemes}
    errors: dict[str, list[str | None]] = {s: [] for s in schemes}
    for snr in snr_db:
        power = 10.0 ** (snr / 10.0) * template.noise_c
        model = replace(template, power=power)
        for scheme in schemes:
            try:
                if scheme == "isac":
                    res = optimize_isac(model, max_iter=max_iter)
                elif scheme == "sw":
                    res = optimize_sw(model, split_grid=split_grid)
                else:
                    raise ValueError(f"unknown scheme {scheme!r}")
                results[scheme].append(res)
                errors[scheme].append(None)
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                results[scheme].append(None)
                errors[scheme].append(f"{type(exc).__name__}: {exc}")
    return SweepCurve(snr_db=snr_db, results=results, errors=errors)


def curve_rows(curve: SweepCurve) -> list[dict]:
    """Flatten a sweep into CSV-schema rows (one per SNR point and scheme)."""
    rows = []
    for i, snr in enumerate(curve.snr_db):
        for scheme, res_list in curve.results.items():
            res = res_list[i]
            if res is None:
                rows.append(
                    {
                        "snr_db": snr,
                        "scheme": scheme,
                        "d_s": float("nan"),
                        "d_c": float("nan"),
                        "d_total": float("nan"),
                        "rate_nats": float("nan"),
                        "mi_nats": float("nan"),
                        "trace_used": float("nan"),
                        "converged": False,
                    }
                )
            else:
                rows.append(
                    {
                        "snr_db": snr,
                        "scheme": scheme,
                        "d_s": res.point.d_s,
                        "d_c": res.point.d_c,
                        "d_total": res.point.d_total,
                        "rate_nats": res.point.rate,
                        "mi_nats": res.point.capacity,
                        "trace_used": res.trace_used,
                        "converged": res.converged,
                    }
                )
    return rows


def write_curve_csv(curve: SweepCurve, path) -> None:
    rows = curve_rows(curve)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key, val in out.items():
                if isinstance(val, float):
                    out[key] = format(val, ".17g")
            writer.writerow(out)


def read_curve_csv(path) -> list[dict]:
    """Parse a sweep CSV back into the row schema (lossless round trip)."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            row = {k: rec[k] for k in CSV_COLUMNS}
            for key in CSV_COLUMNS:
                if key == "scheme":
                    continue
                if key == "converged":
                    row[key] = rec[key] == "True"
                else:
                    row[key] = float(rec[key])
            rows.append(row)
    return rows


def write_curve_json(curve: SweepCurve, path) -> None:
    payload = {"snr_db": curve.snr_db, "rows": curve_rows(curve), "errors": curve.errors}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
