"""Linear-algebra verification helpers.

These routines are the measurement side of the package: every approximate
evolution is judged against them.  Two work on states at any size: the
action of exp(-iHt) on a state from the sparse entries of H (a scaled
truncated Taylor series), and the trace distance between pure states.  The
dense ones (exact evolution by eigendecomposition, spectral norms, trace
distance of density matrices) refuse matrices above the configured cap so
exponential blowups fail fast instead of thrashing.
"""

from __future__ import annotations

import math

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


def require_hermitian(A: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate A = A^dagger entrywise within TOL.hermiticity and return A
    as complex."""
    A = _square(A, name)
    dev = np.abs(A - A.conj().T).max() if A.size else 0.0
    if dev > TOL.hermiticity:
        raise NumericsError(f"{name} is not Hermitian: max deviation {dev:.3e}")
    return A


def require_state(psi: np.ndarray) -> np.ndarray:
    """Validate a state vector normalized within TOL.state_norm and return
    it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise NumericsError(f"state must be a nonempty vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise NumericsError("state contains NaN or infinity")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > TOL.state_norm:
        raise NumericsError(
            f"state norm {nrm!r} deviates from 1 beyond {TOL.state_norm}")
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


# Every Taylor step has a norm bound of at most 1, which needs degree 18;
# a degree past this means the bound was not finite.
_TAYLOR_MAX_DEGREE = 40
_UNIT_ROUNDOFF = 2.0 ** -53


def _taylor_degree(theta: float) -> int:
    """Smallest q with theta^(q+1) / (q+1)! * e^theta <= 2^-53.

    That quantity bounds the remainder sum_{j>q} theta^j / j! of the
    exponential series, so for ||A|| <= theta the degree-q Taylor
    polynomial of e^A is within 2^-53 of it in norm.
    """
    q = 0
    rest = theta * math.exp(theta)
    while not rest <= _UNIT_ROUNDOFF:
        q += 1
        if q > _TAYLOR_MAX_DEGREE:
            raise NumericsError(
                f"Taylor degree above {_TAYLOR_MAX_DEGREE} for a step of "
                f"norm bound {theta}")
        rest *= theta / (q + 1)
    return q


def max_row_sum(rows: np.ndarray, vals: np.ndarray) -> float:
    """Largest absolute row sum of the matrix with entries vals at rows.

    For Hermitian H this is ||H||_inf = ||H||_1, so it bounds ||H||_2 from
    above; 0 for no entries.
    """
    return float(np.bincount(rows, weights=np.abs(vals)).max(initial=0.0))


def expm_action(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i H t) psi for Hermitian H given by its entries H[rows, cols].

    The scaled truncated Taylor method of Al-Mohy & Higham, "Computing the
    action of the matrix exponential", SIAM J. Sci. Comput. 33(2) (2011),
    with a rigorous truncation rule: theta = (largest absolute row sum) |t|
    bounds ||H t||_2 for Hermitian H, t is split into s = ceil(theta)
    steps, and each step sums the series to the degree _taylor_degree
    picks for theta / s <= 1.  The matrix never forms; a product is a
    gather and a bincount.  As exp(-iHt) is unitary, the output's norm
    must match psi's within TOL.unitarity.
    """
    t = float(t)
    if not math.isfinite(t):
        raise NumericsError(f"evolution time must be finite, got {t}")
    psi = require_state(psi)
    dim = psi.size
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
        raise NumericsError("rows, cols and vals must be equal-length vectors")
    if rows.size and (min(rows.min(), cols.min()) < 0
                      or max(rows.max(), cols.max()) >= dim):
        raise NumericsError(f"an entry index is outside 0..{dim - 1}")
    theta = max_row_sum(rows, vals) * abs(t)
    steps = math.ceil(theta) if 1.0 < theta < math.inf else 1
    degree = _taylor_degree(theta / steps)
    h = vals * (-1j * t / steps)

    def apply(v: np.ndarray) -> np.ndarray:
        w = h * v[cols]
        return (np.bincount(rows, weights=w.real, minlength=dim)
                + 1j * np.bincount(rows, weights=w.imag, minlength=dim))

    out = psi
    for _ in range(steps):
        term = out
        out = out.copy()
        for j in range(1, degree + 1):
            term = apply(term) / j
            out += term
    drift = abs(float(np.linalg.norm(out)) - float(np.linalg.norm(psi)))
    if not drift <= TOL.unitarity:
        raise NumericsError(f"evolved state's norm moved by {drift:.3e}")
    return out


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


def pure_state_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance between the pure states |a> and |b>, in O(dim).

    It equals sqrt(1 - |<a|b>|^2), but that form cancels for nearby states
    and cannot resolve distances below about 1e-8.  With the phase of <a|b>
    taken out, delta = ||e^{i arg<a|b>} a - b|| satisfies
    delta^2 = 2 (1 - |<a|b>|), so the distance is
    delta sqrt((1 + |<a|b>|) / 2), which keeps full relative accuracy.
    """
    a = require_state(a)
    b = require_state(b)
    if a.shape != b.shape:
        raise NumericsError(f"shape mismatch {a.shape} vs {b.shape}")
    overlap = complex(np.vdot(a, b))
    mag = abs(overlap)
    phase = overlap / mag if mag > 0 else 1.0
    delta = float(np.linalg.norm(phase * a - b))
    return delta * math.sqrt((1.0 + mag) / 2.0)


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
    """Random dense Hermitian matrix, optionally rescaled to a spectral norm.

    A dim above the dense cap is refused before anything is drawn."""
    if norm is not None and not (norm > 0 and np.isfinite(norm)):
        raise NumericsError(f"norm target must be finite and positive, got {norm}")
    cap = dense_cap()
    if dim > cap:
        raise NumericsError(f"matrix dimension {dim} exceeds dense cap {cap}")
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
