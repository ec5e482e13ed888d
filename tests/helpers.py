"""Model builders shared across the test suite."""

import numpy as np

from cas_limits import FiniteCasModel, TrmModel
from cas_limits.waveform import _objective


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
