"""Dense linear-algebra verification helpers.

Exact time evolution by eigendecomposition, spectral norms, and trace
distance.  These routines are the measurement side of the package: every
approximate evolution is judged against them.  All dense work refuses
matrices above the configured cap so exponential blowups fail fast instead
of thrashing.
"""

from __future__ import annotations

import numpy as np

from .config import TOL, NumericsError, dense_cap


def _square(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NumericsError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NumericsError(f"{name} contains NaN or infinity")
    cap = dense_cap()
    if A.shape[0] > cap:
        raise NumericsError(
            f"{name} dimension {A.shape[0]} exceeds dense cap {cap}"
        )
    return A


def require_hermitian(A: np.ndarray, tol: float = TOL.hermiticity,
                      name: str = "matrix") -> np.ndarray:
    """Validate A = A^dagger entrywise within tol and return A as complex."""
    A = _square(A, name)
    dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if dev > tol:
        raise NumericsError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return A


def require_state(psi: np.ndarray, tol: float = TOL.state_norm) -> np.ndarray:
    """Validate a normalized state vector and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise NumericsError(f"state must be a nonempty vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise NumericsError("state contains NaN or infinity")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > tol:
        raise NumericsError(f"state norm {nrm!r} deviates from 1 beyond {tol}")
    return psi


def hermitian_expm(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    The result is checked to be unitary within TOL.unitarity before it is
    returned.
    """
    H = require_hermitian(H, name="Hamiltonian")
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * w * float(t))) @ V.conj().T
    err = spectral_norm(U @ U.conj().T - np.eye(U.shape[0]))
    if err > TOL.unitarity:
        raise NumericsError(f"evolution operator failed unitarity check: {err:.3e}")
    return U


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value."""
    A = _square(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def unitary_diff_norm(U: np.ndarray, V: np.ndarray) -> float:
    """Spectral norm of U - V."""
    U = _square(U, "U")
    V = _square(V, "V")
    if U.shape != V.shape:
        raise NumericsError(f"shape mismatch {U.shape} vs {V.shape}")
    return spectral_norm(U - V)


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state."""
    psi = require_state(psi)
    return np.outer(psi, psi.conj())


def require_density(rho: np.ndarray, name: str = "density") -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD within floor."""
    rho = require_hermitian(rho, name=name)
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > TOL.density_trace:
        raise NumericsError(f"{name} trace {tr!r} deviates from 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < TOL.density_eig_floor:
        raise NumericsError(f"{name} has negative eigenvalue {lo:.3e}")
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, both validated as densities."""
    rho = require_density(rho, "rho")
    sigma = require_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise NumericsError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def random_hermitian(dim: int, rng: np.random.Generator,
                     norm: float | None = None) -> np.ndarray:
    """Random dense Hermitian matrix, optionally rescaled to a spectral norm."""
    if norm is not None and not (norm > 0 and np.isfinite(norm)):
        raise NumericsError(f"norm target must be finite and positive, got {norm}")
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (G + G.conj().T)
    if norm is not None:
        cur = spectral_norm(H)
        if cur == 0.0:
            raise NumericsError("cannot rescale the zero matrix to a target norm")
        H *= norm / cur
    return H


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random normalized state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
