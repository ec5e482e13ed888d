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

from dataclasses import dataclass

import numpy as np

from .gaussian import TrmModel, mmse_filter, reverse_waterfill, sensing_mse
from .modelio import atomic_write_file

_BATCH = 4096
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# (sums key, mean field, standard-error field) per metric; only the first for sensing alone
_METRICS = (("d_s", "d_s_emp", "d_s_se"), ("d_c", "d_c_emp", "d_c_se"),
            ("d", "d_total_emp", "d_total_se"), ("x", "cross_mean", "cross_se"))


@dataclass(frozen=True)
class SimReport:
    """Empirical distortions with standard errors and analytic counterparts.

    Communication fields are None for sensing-only runs. The decomposition
    identity d_total = d_s + d_c + 2 * cross holds per trial by algebra and
    is asserted at construction.
    """

    n_trials: int
    seed: int
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


def _draw_batch(rng, raw) -> np.ndarray:
    """Fill ``raw`` with the standard normals of one batch and return it.

    One call draws what the trial loop has always drawn, in its order: the
    real parts of g, then its imaginary parts, then those of the sensing
    noise and, end to end, of the test-channel noise. A ``Generator`` caches
    no normal between calls, so one call gives the values of one call per part.
    """
    rng.standard_normal(out=raw)
    return raw


def _matmul(a, b, out) -> None:
    """``out[...] = a @ b`` for a stack ``a`` of matrices, as one 2-D product over the stacked rows.

    NumPy runs a stacked product as one small product per matrix. With
    OpenBLAS, one GEMM over all rows gives the same bits in a fraction of the
    time; the suite's serial-reference test checks that. ``out`` is
    C-contiguous, so its 2-D reshape is a view.
    """
    np.matmul(a.reshape(-1, a.shape[-1]), b, out=out.reshape(-1, b.shape[-1]))


def _mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, float(np.sqrt(var / n))


class _Chain:
    """The fixed matrices of one simulation, and the arrays every batch of it reuses."""

    def __init__(self, model: TrmModel, x: np.ndarray, rate_budget: float | None,
                 n_trials: int):
        x = np.asarray(x, dtype=np.complex128)
        x_eff = np.sqrt(model.t) * x
        mu, u_sigma = np.linalg.eigh(model.sigma_s)
        sigma_root = (u_sigma * np.sqrt(np.maximum(np.real(mu), 0.0))) @ u_sigma.conj().T
        self.end_to_end = rate_budget is not None
        self.sigma_root_t = sigma_root.T
        self.x_eff_conj = x_eff.conj()
        w = mmse_filter(model, x_eff)
        self.w_t = w.T
        self.noise_std = np.sqrt(model.noise_s)
        self.analytic_d_c = None
        if self.end_to_end:
            # the block estimate covariance Sigma X_eff W^H, from the filter above
            block = model.sigma_s @ x_eff @ w.conj().T
            block = 0.5 * (block + block.conj().T)
            lam, u = np.linalg.eigh(block)
            lam = np.maximum(np.real(lam), 0.0)
            rwf = reverse_waterfill(np.repeat(lam, model.m_s), rate_budget)
            # per-mode allocation depends only on the eigenvalue
            alloc = np.minimum(lam, rwf.xi)
            self.gains = np.where(lam > 0.0, 1.0 - alloc / np.maximum(lam, 1e-300), 0.0)
            self.wnoise_std = np.sqrt(alloc * self.gains)
            self.u_conj = u.conj()
            self.u_t = u.T
            self.analytic_d_c = rwf.d_c

        batch, n, t = min(_BATCH, n_trials), model.n, model.t

        def stack(cols):
            return np.empty((batch, model.m_s, cols), dtype=np.complex128)

        # g, the sensing noise and, end to end, the test-channel noise, in draw order
        self.inputs = [stack(n), stack(t)] + ([stack(n)] if self.end_to_end else [])
        self.draws_per_trial = 2 * sum(a[0].size for a in self.inputs)
        self.s, self.z, self.s_est, self.err_s = stack(n), stack(t), stack(n), stack(n)
        if self.end_to_end:
            self.s_hat, self.err_c, self.err_t = stack(n), stack(n), stack(n)
        self.abs2 = np.empty((batch, model.m_s, n))
        self.block = np.empty((4 if self.end_to_end else 1, batch))

    def _sq_norms(self, err, out) -> None:
        """``out[i]`` = the squared Frobenius norm of ``err[i]``."""
        abs2 = self.abs2[: len(err)]
        np.abs(err, out=abs2)
        np.square(abs2, out=abs2)
        np.sum(abs2, axis=(1, 2), out=out)

    def columns(self, raw, nb) -> np.ndarray:
        """Per-trial metrics of ``nb`` trials, whose normals ``_draw_batch`` put in ``raw``.

        Rows: d_s, and for the end-to-end chain d_c, d_total and the cross
        term. Every step writes into the arrays made in ``__init__``, so the
        next call overwrites the block returned.
        """
        # (re + 1j * im) / sqrt(2) bit for bit: NumPy divides a complex number by a
        # real one as a multiplication by its reciprocal
        start = 0
        for a in self.inputs:
            flat = a[:nb].reshape(-1)
            for part in (flat.real, flat.imag):
                np.multiply(raw[start : start + flat.size], _INV_SQRT2, out=part)
                start += flat.size
        g, noise = self.inputs[0][:nb], self.inputs[1][:nb]
        s, z, s_est, err_s = self.s[:nb], self.z[:nb], self.s_est[:nb], self.err_s[:nb]
        block = self.block[:, :nb]

        _matmul(g, self.sigma_root_t, s)
        _matmul(s, self.x_eff_conj, z)
        noise *= self.noise_std
        z += noise
        _matmul(z, self.w_t, s_est)
        np.subtract(s, s_est, out=err_s)
        self._sq_norms(err_s, block[0])
        if self.end_to_end:
            wnoise = self.inputs[2][:nb]
            s_hat, err_c, err_t = self.s_hat[:nb], self.err_c[:nb], self.err_t[:nb]
            coeff_hat = g  # g is spent once s is computed
            _matmul(s_est, self.u_conj, coeff_hat)
            coeff_hat *= self.gains
            wnoise *= self.wnoise_std
            coeff_hat += wnoise
            _matmul(coeff_hat, self.u_t, s_hat)
            np.subtract(s_est, s_hat, out=err_c)
            np.subtract(s, s_hat, out=err_t)
            self._sq_norms(err_c, block[1])
            self._sq_norms(err_t, block[2])
            cross = np.conjugate(err_s, out=err_s)  # err_s is spent once its row is summed
            cross *= err_c
            np.sum(cross.real, axis=(1, 2), out=block[3])
        return block


def _write_rows(fh, columns) -> None:
    """Append one CSV row per trial, each value in ``.17g`` with ``\\r\\n`` line ends.

    The bytes are those of ``csv.writer`` on the same values; one format call
    covers the whole batch.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    fh.write((row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist()))


def _trial_loop(chain: _Chain, n_trials, seed, fh=None) -> dict:
    """Accumulated sums per metric; with ``fh``, one dump row per trial as well.

    One helper thread draws each batch while this thread computes and writes the
    one before it. Only the helper touches the generator, so the draws come in
    the serial order and the results are bit-identical to a serial loop. The
    helper fills two buffers in turn; it starts on batch k + 1 only after this
    thread is done with batch k - 1, whose buffer it refills.
    """
    # imported here, not at module level: it pulls in logging, and a fresh
    # ``import cas_limits`` should not pay for that when it runs no trials
    from concurrent.futures import ThreadPoolExecutor

    sums = dict.fromkeys(["d_s", "d_s2", "d_c", "d_c2", "d", "d2", "x", "x2"], 0.0)
    batch = min(_BATCH, n_trials)
    raws = [np.empty(batch * chain.draws_per_trial) for _ in range(2)]
    squares = np.empty(batch)
    # the spawned child, not SeedSequence(seed) itself, keeps the bytes of earlier runs
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    def consume(drawn, nb):
        block = chain.columns(drawn.result(), nb)
        for key, col in zip(("d_s", "d_c", "d", "x"), block):
            sums[key] += col.sum()
            sums[key + "2"] += np.square(col, out=squares[:nb]).sum()
        if fh is not None:
            _write_rows(fh, block)

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = None
        for k, done in enumerate(range(0, n_trials, _BATCH)):
            nb = min(_BATCH, n_trials - done)
            raw = raws[k % 2][: nb * chain.draws_per_trial]
            ahead = (pool.submit(_draw_batch, rng, raw), nb)
            if pending is not None:
                consume(*pending)
            pending = ahead
        consume(*pending)
    return sums


def _run_chain(
    model: TrmModel,
    x: np.ndarray,
    rate_budget: float | None,
    n_trials: int,
    seed: int,
    dump_path=None,
):
    """Shared trial loop; returns accumulated sums per metric and the analytic d_c.

    The dump at ``dump_path`` is written atomically: a run that raises leaves
    any earlier file there as it was.
    """
    chain = _Chain(model, x, rate_budget, n_trials)
    if dump_path is None:
        return _trial_loop(chain, n_trials, seed), chain.analytic_d_c

    header = "d_s,d_c,d_total,cross\r\n" if chain.end_to_end else "d_s\r\n"
    sums = {}

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write(header)
            sums.update(_trial_loop(chain, n_trials, seed, fh))

    atomic_write_file(write, dump_path)
    return sums, chain.analytic_d_c


def _report(model, x, rate_budget, n_trials, seed, dump_path) -> SimReport:
    """Run the chain and fill a SimReport; without a rate budget, sensing alone."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    sums, d_c_analytic = _run_chain(model, x, rate_budget, n_trials, seed, dump_path)
    x = np.asarray(x, dtype=np.complex128)
    fields = {"d_s_analytic": sensing_mse(model, x @ x.conj().T)}
    for key, mean, se in _METRICS if rate_budget is not None else _METRICS[:1]:
        fields[mean], fields[se] = _mean_se(sums[key], sums[key + "2"], n_trials)
    if rate_budget is not None:
        fields["d_c_analytic"] = d_c_analytic
        fields["d_total_analytic"] = fields["d_s_analytic"] + d_c_analytic
    return SimReport(n_trials=n_trials, seed=seed, **fields)


def simulate_sensing(
    model: TrmModel,
    x: np.ndarray,
    n_trials: int,
    seed: int,
    dump_path=None,
) -> SimReport:
    """Estimate the sensing MSE empirically for waveform x (N x T).

    All trials draw from one RNG stream seeded by ``seed``. One helper thread
    draws the normals one batch ahead of the computation, and the report and
    dump are bit-identical to a serial run.
    """
    return _report(model, x, None, n_trials, seed, dump_path)


def simulate_end_to_end(
    model: TrmModel,
    x: np.ndarray,
    rate_budget: float,
    n_trials: int,
    seed: int,
    dump_path=None,
) -> SimReport:
    """Full chain: sensing, MMSE estimate, forward test channel, reconstruction.

    Per retained eigenmode the reconstruction is a scaled estimate plus
    independent Gaussian noise matched to the reverse-water-filling
    allocation; fully allocated modes reconstruct to zero. The draws come
    from one RNG stream and run one batch ahead on one helper thread, as in
    ``simulate_sensing``, bit-identical to serial.
    """
    if not rate_budget >= 0:
        raise ValueError("rate_budget must be nonnegative")
    return _report(model, x, rate_budget, n_trials, seed, dump_path)
