"""Closed-form quantities for the Gaussian target-response-matrix example.

Covers the sensing MSE, the per-block MMSE filter, the estimate covariance
spectrum, the Gaussian rate-distortion allocation (reverse water-filling),
and the communication mutual information. All rates in nats.

Snapshot convention: the analytic sensing MSE carries a T/sigma^2 factor on
the Gram matrix. The observation model that reproduces it uses the
sqrt(T)-scaled waveform ("T effective snapshots"), so that the trace identity
M_s Tr(Sigma_s) = D_s + M_s Tr(R_block) holds; ``mmse_filter`` is the raw
per-block filter for whatever waveform it is handed, and callers scale it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10


def _as_complex(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.complex128)


def _check_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > HERM_TOL * scale:
        raise ValueError(f"{name}: matrix is not Hermitian within {HERM_TOL}")
    return 0.5 * (a + a.conj().T)


def _clip_psd(a: np.ndarray, name: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(vals.max(initial=0.0)))
    if vals.min(initial=0.0) < -1e-8 * scale:
        raise ValueError(f"{name}: matrix has significantly negative eigenvalues")
    if vals.min(initial=0.0) < 0.0:
        vals = np.maximum(vals, 0.0)
        a = (vecs * vals) @ vecs.conj().T
    return a


@dataclass(frozen=True)
class TrmModel:
    """Gaussian TRM sensing/communication instance.

    sigma_s : (N, N) Hermitian PSD covariance of each column of the TRM.
    h_c : (M_c, N) communication channel matrix.
    noise_s, noise_c : per-entry noise powers (finite, > 0).
    t : number of transmit symbols (T >= N).
    m_s : number of sensing receive antennas.
    power : total power budget P_T (finite, > 0); the Gram trace is capped at T * P_T,
        which must be a finite float too.

    A non-finite entry anywhere raises ValueError.
    """

    sigma_s: np.ndarray
    h_c: np.ndarray
    noise_s: float
    noise_c: float
    t: int
    m_s: int
    power: float

    def __post_init__(self):
        sigma, h_c = _as_complex(self.sigma_s), _as_complex(self.h_c)
        if not (np.isfinite(sigma).all() and np.isfinite(h_c).all()):
            raise ValueError("sigma_s and h_c must be finite")
        sigma = _clip_psd(_check_hermitian(sigma, "sigma_s"), "sigma_s")
        object.__setattr__(self, "sigma_s", sigma)
        object.__setattr__(self, "h_c", h_c)
        if self.sigma_s.ndim != 2 or self.sigma_s.shape[0] != self.sigma_s.shape[1]:
            raise ValueError("sigma_s: expected a square matrix")
        if self.h_c.ndim != 2 or self.h_c.shape[1] != self.sigma_s.shape[0]:
            raise ValueError("h_c: column count must match sigma_s dimension")
        if not (0 < self.noise_s < np.inf and 0 < self.noise_c < np.inf):
            raise ValueError("noise powers must be positive and finite")
        if self.t < self.sigma_s.shape[0]:
            raise ValueError("t must be at least the number of transmit antennas")
        if self.m_s < 1:
            raise ValueError("m_s must be at least 1")
        if not 0 < self.power < np.inf:
            raise ValueError("power budget must be positive and finite")
        try:
            finite_budget = self.t * self.power < np.inf
        except OverflowError:   # a t too large to convert to a float
            finite_budget = False
        if not finite_budget:
            raise ValueError(
                f"trace budget t * power must be a finite float; got power {self.power!r}")

    @property
    def n(self) -> int:
        return self.sigma_s.shape[0]

    @property
    def m_c(self) -> int:
        return self.h_c.shape[0]

    @property
    def trace_budget(self) -> float:
        return self.t * self.power


@dataclass(frozen=True)
class GramMatrix:
    """Transmit Gram Q = X X^H, the optimization variable for the waveform."""

    q: np.ndarray
    trace_limit: float | None = None

    def __post_init__(self):
        q = _check_hermitian(_as_complex(self.q), "q")
        q = _clip_psd(q, "q")
        object.__setattr__(self, "q", q)
        if self.trace_limit is not None:
            tr = float(np.real(np.trace(self.q)))
            if tr > self.trace_limit + 1e-9:
                raise ValueError(f"q: trace {tr} exceeds limit {self.trace_limit}")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.q)))


@dataclass(frozen=True)
class RwfResult:
    """Reverse water-filling allocation for a Gaussian source spectrum."""

    xi: float
    d_c: float
    allocations: np.ndarray
    rate: float


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _per_gram(x):
    """A float for one Gram, the array for a stack of them."""
    return float(x) if x.ndim == 0 else x


def _error_covariance(model: TrmModel, q: np.ndarray) -> np.ndarray:
    """Per-block MMSE error covariance Sigma (scale Q Sigma + I)^-1, scale = T / sigma_s^2.

    ``q`` is one N x N Gram or a (K, N, N) stack; each matrix is solved on its own.
    """
    scale = model.t / model.noise_s
    a = scale * q @ model.sigma_s + np.eye(model.n)
    # a stack gets a (1, N, N) right-hand side: NumPy < 2 reads a 2-D one as vectors
    b = model.sigma_s.T if a.ndim == 2 else model.sigma_s.T[None]
    return np.linalg.solve(a.swapaxes(-1, -2), b).swapaxes(-1, -2)


def sensing_mse(model: TrmModel, q: np.ndarray):
    """MSE of the MMSE estimate of the vectorized TRM for Gram matrix q.

    Uses the inverse-free form M_s Tr[Sigma (scale Q Sigma + I)^-1] with
    scale = T / sigma_s^2, valid for rank-deficient priors as well; agrees
    with the direct prior-inverse form whenever that one is defined. One
    Gram gives a float, a (K, N, N) stack the K values.
    """
    return _per_gram(model.m_s * _error_covariance(model, q).trace(axis1=-2, axis2=-1).real)


def mmse_filter(model: TrmModel, x: np.ndarray) -> np.ndarray:
    """Per-block MMSE filter W = Sigma_s X R_z^-1 for waveform X (N x T).

    Applying I_{M_s} (x) W to the vectorized observation yields the MMSE
    estimate of the vectorized TRM.
    """
    x = _as_complex(x)
    r_z = x.conj().T @ model.sigma_s @ x + model.noise_s * np.eye(x.shape[1])
    return np.linalg.solve(r_z.conj().T, (model.sigma_s @ x).conj().T).conj().T


def _estimate_block(model: TrmModel, e: np.ndarray) -> np.ndarray:
    """Per-block estimate covariance Sigma - E, Hermitian part, from the error covariance E."""
    block = model.sigma_s - e
    return 0.5 * (block + _adjoint(block))


def _expanded_spectrum(model: TrmModel, block: np.ndarray) -> np.ndarray:
    return np.repeat(np.maximum(np.linalg.eigvalsh(block)[..., ::-1], 0.0), model.m_s, axis=-1)


def gram_spectrum(model: TrmModel, q: np.ndarray) -> np.ndarray:
    """Spectrum of the MMSE estimate covariance for the Gram matrix q.

    N M_s eigenvalues, clipped at 0 and descending: each per-block eigenvalue
    is repeated M_s times (Kronecker structure of the full covariance). A
    (K, N, N) stack gives one such row per Gram.
    """
    return _expanded_spectrum(model, _estimate_block(model, _error_covariance(model, q)))


def water_level(floors: np.ndarray, total):
    """The level L with sum_i max(L - floors_i, 0) = total, for total >= 0.

    With the floors sorted, L is (total + sum of the k lowest floors) / k for
    the largest k whose level is not below the k-th floor; an infinite floor
    never fills, and a row with no finite floor gets an infinite level. An
    array of K totals, against one row of floors or a (K, L) array of rows,
    gives the K levels from one (K, L) array of candidate levels.
    """
    floors = np.sort(floors, axis=-1)
    levels = (np.asarray(total)[..., None] + np.cumsum(floors, axis=-1)) / np.arange(
        1, floors.shape[-1] + 1)
    filled = (levels >= floors) & (floors < np.inf)
    last = floors.shape[-1] - 1 - np.argmax(filled[..., ::-1], axis=-1)
    if levels.ndim == 1:    # one total: plain indexing keeps the scalar call cheap
        return float(levels[last])
    return levels[np.arange(len(last)), last]


def _reverse_allocations(spectra: np.ndarray, rates):
    """Reverse water-filling of each row of ``spectra`` at its rate, in the log domain.

    Each row is sorted descending; a positive mode has floor -log lambda_i,
    and a zero mode an infinite floor and no allocation. Returns the water
    level (a float for one row, K levels for a (K, L) stack, from one
    ``water_level`` call), the floors, and the allocations min(lambda_i, xi)
    with xi = exp(-level).
    """
    lam = np.sort(spectra, axis=-1)[..., ::-1]
    live = lam > 0.0
    floors = np.full(lam.shape, np.inf)
    # the log of the live modes alone: np.log with a where= mask can round differently
    floors[live] = -np.log(lam[live])
    level = water_level(floors, rates)
    xi = np.exp(-np.asarray(level))[..., None]
    return level, floors, np.where(live, np.minimum(lam, xi), 0.0)


def reverse_waterfill(spectrum: np.ndarray, rate_budget: float) -> RwfResult:
    """Distortion-minimizing rate allocation over Gaussian source modes.

    ``spectrum`` is an array of mode variances in any order, such as the
    one ``gram_spectrum`` returns; ``allocations`` follows them sorted
    descending. The water level xi makes
    sum_i log(lambda_i / min(lambda_i, xi)) equal the rate budget: in the
    log domain this is water-filling over the floors -log lambda_i, so
    xi = exp(-water_level(-log lambda, rate_budget)). Only zero (and
    negative) modes carry no rate and no distortion, so d_c is continuous in
    every eigenvalue. A NaN anywhere, or a negative budget, raises
    ValueError; an infinite budget gives d_c = 0.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if not rate_budget >= 0:
        raise ValueError("rate_budget must be nonnegative")
    if np.isnan(spectrum).any():
        raise ValueError("spectrum must not contain NaN")
    if spectrum.size == 0 or spectrum.max(initial=0.0) <= 0.0:
        return RwfResult(xi=0.0, d_c=0.0, allocations=np.zeros(spectrum.size), rate=0.0)
    level, floors, allocations = _reverse_allocations(spectrum, rate_budget)
    return RwfResult(
        xi=float(np.exp(-level)),
        d_c=float(allocations.sum()),
        allocations=allocations,
        rate=float(np.maximum(level - floors[floors < np.inf], 0.0).sum()),
    )


def channel_mi(model: TrmModel, q: np.ndarray):
    """Gaussian-input mutual information log det((T/sigma_c^2) H Q H^H + I).

    The identity has the receive dimension M_c (the dimensionally
    consistent choice). One Gram gives a float, a (K, N, N) stack the K
    values.
    """
    a = (model.t / model.noise_c) * model.h_c @ q @ model.h_c.conj().T + np.eye(model.m_c)
    sign, logdet = np.linalg.slogdet(0.5 * (a + _adjoint(a)))
    return _per_gram(np.where((sign.real > 0) & (logdet > 0.0), logdet, 0.0))


def random_trm_model(
    seed: int,
    n: int = 4,
    m_s: int = 4,
    m_c: int = 4,
    t: int = 16,
    power: float = 1.0,
    noise_s: float = 1.0,
    noise_c: float = 1.0,
) -> TrmModel:
    """Seeded random model: Wishart prior (trace N) and i.i.d. CN(0,1) channel."""
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    sigma = a @ a.conj().T
    sigma *= n / np.real(np.trace(sigma))
    h_c = (rng.standard_normal((m_c, n)) + 1j * rng.standard_normal((m_c, n))) / np.sqrt(2)
    return TrmModel(
        sigma_s=sigma, h_c=h_c, noise_s=noise_s, noise_c=noise_c, t=t, m_s=m_s, power=power
    )


def waveform_from_gram(model: TrmModel, q: np.ndarray) -> np.ndarray:
    """Any N x T waveform whose Gram is q: the PSD square root padded with zeros."""
    vals, vecs = np.linalg.eigh(q)
    vals = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    x = np.zeros((model.n, model.t), dtype=np.complex128)
    x[:, : model.n] = root
    return x
