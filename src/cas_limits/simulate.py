"""Monte Carlo validation of the Gaussian sensing/communication chain.

Draws the vectorized target response, pushes it through the sensing
observation model and MMSE filter, then through the distortion-achieving
Gaussian forward test channel, and compares the empirical distortions with
the closed forms. The communication stage is simulated at the
rate-distortion limit rather than with explicit codes.

Observations use the sqrt(T)-scaled waveform (T effective snapshots) so the
empirical sensing MSE matches the analytic T/sigma^2 convention; see the
calibration test in the suite.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    RANK_RTOL,
    TrmModel,
    mmse_filter,
    reverse_waterfill,
    sensing_mse,
    _block_covariance_from_waveform,
)

_BATCH = 4096


@dataclass(frozen=True)
class SimReport:
    """Empirical distortions with standard errors and analytic counterparts.

    Communication fields are None for sensing-only runs. The decomposition
    identity d_total = d_s + d_c + 2 * cross holds per trial by algebra and
    is asserted at construction.
    """

    n_trials: int
    seed: int
    n_workers: int
    d_s_emp: float
    d_s_se: float
    d_s_analytic: float
    d_c_emp: float | None = None
    d_c_se: float | None = None
    d_c_analytic: float | None = None
    d_total_emp: float | None = None
    d_total_se: float | None = None
    d_total_analytic: float | None = None
    cross_mean: float | None = None
    cross_se: float | None = None

    def __post_init__(self):
        if self.d_total_emp is not None:
            scale = max(1.0, abs(self.d_total_emp))
            gap = abs(self.d_total_emp - (self.d_s_emp + self.d_c_emp + 2 * self.cross_mean))
            if gap > 1e-9 * scale:
                raise ValueError(f"distortion decomposition violated by {gap}")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)


def _draw_complex_normal(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, float(np.sqrt(var / n))


def _run_chain(
    model: TrmModel,
    x: np.ndarray,
    rate_budget: float | None,
    n_trials: int,
    seed: int,
    n_workers: int,
    dump_path=None,
):
    """Shared trial loop; returns accumulated sums per metric."""
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

        # contiguous per-worker partitions, each with its own seeded substream
        base = n_trials // n_workers
        shares = [base + (1 if i < n_trials % n_workers else 0) for i in range(n_workers)]
        streams = np.random.SeedSequence(seed).spawn(n_workers)
        for share, ss in zip(shares, streams):
            rng = np.random.default_rng(ss)
            done = 0
            while done < share:
                nb = min(_BATCH, share - done)
                g = _draw_complex_normal(rng, (nb, model.m_s, model.n))
                s = g @ sigma_root.T
                noise = np.sqrt(model.noise_s) * _draw_complex_normal(rng, (nb, model.m_s, model.t))
                z = s @ x_eff.conj() + noise
                s_est = z @ w.T
                err_s = s - s_est
                d_s_i = np.sum(np.abs(err_s) ** 2, axis=(1, 2))
                sums["d_s"] += d_s_i.sum()
                sums["d_s2"] += (d_s_i**2).sum()
                columns = [d_s_i]

                if rate_budget is not None:
                    coeff = s_est @ u.conj()
                    wnoise = _draw_complex_normal(rng, (nb, model.m_s, model.n)) * np.sqrt(wvar)
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


def simulate_sensing(
    model: TrmModel,
    x: np.ndarray,
    n_trials: int,
    seed: int,
    n_workers: int = 1,
    dump_path=None,
) -> SimReport:
    """Estimate the sensing MSE empirically for waveform x (N x T).

    ``n_workers`` only sets the number of RNG substreams, which run serially.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    sums, _ = _run_chain(model, x, None, n_trials, seed, n_workers, dump_path)
    d_s_emp, d_s_se = _mean_se(sums["d_s"], sums["d_s2"], n_trials)
    x = np.asarray(x, dtype=np.complex128)
    return SimReport(
        n_trials=n_trials,
        seed=seed,
        n_workers=n_workers,
        d_s_emp=d_s_emp,
        d_s_se=d_s_se,
        d_s_analytic=sensing_mse(model, x @ x.conj().T),
    )


def simulate_end_to_end(
    model: TrmModel,
    x: np.ndarray,
    rate_budget: float,
    n_trials: int,
    seed: int,
    n_workers: int = 1,
    dump_path=None,
) -> SimReport:
    """Full chain: sensing, MMSE estimate, forward test channel, reconstruction.

    Per retained eigenmode the reconstruction is a scaled estimate plus
    independent Gaussian noise matched to the reverse-water-filling
    allocation; fully allocated modes reconstruct to zero. ``n_workers``
    only sets the number of RNG substreams, which run serially.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if rate_budget < 0:
        raise ValueError("rate_budget must be nonnegative")
    sums, analytic_d_c = _run_chain(model, x, rate_budget, n_trials, seed, n_workers, dump_path)
    d_s_emp, d_s_se = _mean_se(sums["d_s"], sums["d_s2"], n_trials)
    d_c_emp, d_c_se = _mean_se(sums["d_c"], sums["d_c2"], n_trials)
    d_emp, d_se = _mean_se(sums["d"], sums["d2"], n_trials)
    x_mean, x_se = _mean_se(sums["x"], sums["x2"], n_trials)
    x = np.asarray(x, dtype=np.complex128)
    d_s_analytic = sensing_mse(model, x @ x.conj().T)
    return SimReport(
        n_trials=n_trials,
        seed=seed,
        n_workers=n_workers,
        d_s_emp=d_s_emp,
        d_s_se=d_s_se,
        d_s_analytic=d_s_analytic,
        d_c_emp=d_c_emp,
        d_c_se=d_c_se,
        d_c_analytic=analytic_d_c,
        d_total_emp=d_emp,
        d_total_se=d_se,
        d_total_analytic=d_s_analytic + analytic_d_c,
        cross_mean=x_mean,
        cross_se=x_se,
    )
