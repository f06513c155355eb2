"""Numerics checks: exact evolution, its sparse action, norms, distances."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from hamsim import numerics, oracle
from hamsim.config import NumericsError
from hamsim.oracle import EntryList


def test_expm_zero_hamiltonian_is_identity():
    U = numerics.hermitian_expm(np.zeros((4, 4)), 1.3)
    assert np.allclose(U, np.eye(4), atol=1e-14)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(5)
    H = numerics.random_hermitian(6, rng)
    U = numerics.hermitian_expm(H, 0.0)
    assert np.allclose(U, np.eye(6), atol=1e-14)


def test_expm_half_swap_quarter_cycle():
    # H = [[0, 1/2], [1/2, 0]] has eigenvalues +-1/2, so t = pi gives
    # cos(pi/2) I - i sin(pi/2) (2H) = [[0, -i], [-i, 0]].
    H = np.array([[0.0, 0.5], [0.5, 0.0]])
    U = numerics.hermitian_expm(H, np.pi)
    expected = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    assert np.abs(U - expected).max() < 1e-14
    out = U @ np.array([1.0, 0.0])
    assert np.abs(out - np.array([0.0, -1.0j])).max() < 1e-14


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 32])
@pytest.mark.parametrize("t", [0.3, 1.7, -2.5])
def test_expm_matches_scaling_and_squaring(dim, t):
    # Independent route: scipy's expm uses Pade scaling-and-squaring, not
    # an eigendecomposition.
    rng = np.random.default_rng(1000 + dim)
    H = numerics.random_hermitian(dim, rng)
    U = numerics.hermitian_expm(H, t)
    V = scipy.linalg.expm(-1j * t * H)
    assert numerics.unitary_diff_norm(U, V) < 1e-11


def test_expm_output_unitary():
    rng = np.random.default_rng(7)
    for dim in (2, 5, 16, 40):
        H = numerics.random_hermitian(dim, rng, norm=3.0)
        U = numerics.hermitian_expm(H, 2.0)
        assert numerics.spectral_norm(U @ U.conj().T - np.eye(dim)) < 1e-11


def test_expm_rejects_non_hermitian():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericsError):
        numerics.hermitian_expm(A, 1.0)


def test_expm_rejects_nan():
    A = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericsError):
        numerics.hermitian_expm(A, 1.0)


def test_dense_cap_enforced(monkeypatch):
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "8")
    with pytest.raises(NumericsError):
        numerics.hermitian_expm(np.zeros((16, 16)), 1.0)
    # At the cap is fine.
    numerics.hermitian_expm(np.zeros((8, 8)), 1.0)


def test_spectral_norm_basics():
    assert numerics.spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert numerics.spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


def test_spectral_norm_properties():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = numerics.random_hermitian(6, rng)
        B = numerics.random_hermitian(6, rng)
        na, nb = numerics.spectral_norm(A), numerics.spectral_norm(B)
        assert numerics.spectral_norm(A + B) <= na + nb + 1e-12
        assert numerics.spectral_norm(2.5 * A) == pytest.approx(2.5 * na)
        assert numerics.spectral_norm(A.conj().T) == pytest.approx(na)


def test_trace_distance_identical_states():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert numerics.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_orthogonal_pure_states():
    rho = numerics.pure_density(np.array([1.0, 0.0]))
    sigma = numerics.pure_density(np.array([0.0, 1.0]))
    assert numerics.trace_distance(rho, sigma) == pytest.approx(1.0)


def test_trace_distance_diagonal_quarter():
    # Eigenvalues of the difference are +-1/4, so the distance is 1/4.
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    assert numerics.trace_distance(rho, sigma) == pytest.approx(0.25)


def test_trace_distance_validates_inputs():
    good = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NumericsError):
        numerics.trace_distance(good, np.diag([2.0, 0.0]).astype(complex))
    with pytest.raises(NumericsError):
        numerics.trace_distance(good, np.diag([1.5, -0.5]).astype(complex))


def test_trace_distance_unitary_invariance():
    rng = np.random.default_rng(33)
    for _ in range(10):
        rho = numerics.pure_density(numerics.random_state(5, rng))
        sigma = numerics.pure_density(numerics.random_state(5, rng))
        W = numerics.random_unitary(5, rng)
        d0 = numerics.trace_distance(rho, sigma)
        d1 = numerics.trace_distance(W @ rho @ W.conj().T, W @ sigma @ W.conj().T)
        assert d1 == pytest.approx(d0, abs=1e-11)


def test_trace_distance_bounded_by_operator_distance():
    # Evolving the same state under two unitaries can never separate the
    # outputs by more than the operator-norm gap.
    rng = np.random.default_rng(44)
    for i in range(60):
        dim = int(rng.integers(2, 17))
        psi = numerics.random_state(dim, rng)
        U = numerics.random_unitary(dim, rng)
        if i % 2:
            V = numerics.random_unitary(dim, rng)
        else:
            # nearby pair, the regime the bound is actually used in
            V = U @ numerics.hermitian_expm(
                numerics.random_hermitian(dim, rng, norm=1.0), 10.0 ** -rng.integers(1, 7))
        d = numerics.trace_distance(numerics.pure_density(U @ psi),
                                    numerics.pure_density(V @ psi))
        assert d <= numerics.unitary_diff_norm(U, V) + 1e-10


def test_state_validation():
    with pytest.raises(NumericsError):
        numerics.require_state(np.array([1.0, 1.0]))
    with pytest.raises(NumericsError):
        numerics.require_state(np.array([np.nan, 0.0]))
    psi = numerics.require_state(np.array([0.6, 0.8j]))
    assert psi.dtype == complex


def test_random_hermitian_norm_target():
    rng = np.random.default_rng(9)
    H = numerics.random_hermitian(12, rng, norm=2.5)
    assert numerics.spectral_norm(H) == pytest.approx(2.5)
    assert np.abs(H - H.conj().T).max() < 1e-15
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(NumericsError, match="finite and positive"):
            numerics.random_hermitian(12, rng, norm=bad)


def test_random_hermitian_refuses_a_dim_above_the_cap_before_drawing(
        monkeypatch):
    want = numerics.random_hermitian(16, np.random.default_rng(4), norm=1.0)
    monkeypatch.setenv("HAMSIM_DENSE_CAP", "16")
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for norm in (None, 1.0):
        with pytest.raises(NumericsError) as exc:
            numerics.random_hermitian(17, rng, norm=norm)
        # the message the spectral norm of a drawn matrix would give
        assert str(exc.value) == "matrix dimension 17 exceeds dense cap 16"
        assert rng.bit_generator.state == state
    # a draw at the cap is the draw without one
    assert np.array_equal(numerics.random_hermitian(16, rng, norm=1.0), want)


# the oracles of the reference grid, with a diagonal-only and a zero one
ACTION_CASES = {
    **{f"random n={n} d={d}": oracle.random_sparse(n, d, seed=10 * n + d)
       for n in range(2, 9) for d in range(1, 5)},
    "diagonal": oracle.from_entry_list(EntryList(
        3, 1, tuple((x, x, 0.25 * x - 0.8) for x in range(8)))),
    "zero": oracle.from_entry_list(EntryList(2, 1, ())),
}


@pytest.mark.parametrize("name", list(ACTION_CASES))
def test_expm_action_matches_scipy_and_dense(name):
    orc = ACTION_CASES[name]
    rows, cols, vals = oracle.read_entries(orc)
    H = oracle.to_dense(orc)
    sparse = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=H.shape)
    psi = numerics.random_state(orc.dim, np.random.default_rng(orc.dim))
    for t in (0.0, 0.7, -0.7, 7.5, 40.0):
        got = numerics.expm_action(rows, cols, vals, t, psi)
        dense = numerics.hermitian_expm(H, t) @ psi
        assert np.abs(got - dense).max() < 1e-12, t
        ref = scipy.sparse.linalg.expm_multiply(-1j * t * sparse, psi)
        assert np.abs(got - ref).max() < 1e-12, t


def test_expm_action_single_steps_are_exact_to_rounding():
    # One step at each norm bound in (0, 1]: the series must reach the
    # degree the remainder bound asks for.  Stopping one term short misses
    # by up to 2.1e-14 on this grid; rounding stays below 3e-16.
    lam = np.array([1.0, -1.0])
    psi = np.array([0.6, 0.8j])
    for t in np.linspace(0.005, 1.0, 200):
        got = numerics.expm_action([0, 1], [0, 1], lam, t, psi)
        assert np.abs(got - np.exp(-1j * lam * t) * psi).max() < 2e-15, t


def test_expm_action_refuses_bad_input():
    rows, cols, vals = [0, 1], [1, 0], [0.5, 0.5]
    psi = np.array([1.0, 0.0])
    for t in (float("nan"), float("inf")):
        with pytest.raises(NumericsError, match="time must be finite"):
            numerics.expm_action(rows, cols, vals, t, psi)
    with pytest.raises(NumericsError, match="Taylor degree above"):
        numerics.expm_action(rows, cols, [np.nan, 0.5], 1.0, psi)
    # an imaginary diagonal is not Hermitian: exp(-iHt) grows the state
    with pytest.raises(NumericsError, match="norm moved"):
        numerics.expm_action([0], [0], [0.5j], 1.0, psi)
    with pytest.raises(NumericsError, match="outside"):
        numerics.expm_action([0, 2], [2, 0], vals, 1.0, psi)
    with pytest.raises(NumericsError, match="equal-length"):
        numerics.expm_action(rows, cols, [0.5], 1.0, psi)
    with pytest.raises(NumericsError):
        numerics.expm_action(rows, cols, vals, 1.0, np.array([1.0, 1.0]))


def _nearby(a, angle, rng):
    # a state at trace distance sin(angle) from a, with a global phase
    perp = numerics.random_state(a.size, rng)
    perp -= np.vdot(a, perp) * a
    perp /= np.linalg.norm(perp)
    return np.exp(0.3j) * (np.cos(angle) * a + np.sin(angle) * perp)


def test_pure_state_distance_matches_density_route():
    rng = np.random.default_rng(12)
    a = numerics.random_state(16, rng)
    pairs = [(a, a), (a, np.exp(2.1j) * a), (a, _nearby(a, 1e-13, rng)),
             (a, _nearby(a, 1e-7, rng)), (a, _nearby(a, np.pi / 2, rng)),
             (np.eye(16)[0], np.eye(16)[5])]
    pairs += [(numerics.random_state(16, rng), numerics.random_state(16, rng))
              for _ in range(20)]
    for x, y in pairs:
        dense = numerics.trace_distance(numerics.pure_density(x),
                                        numerics.pure_density(y))
        assert abs(numerics.pure_state_distance(x, y) - dense) < 1e-14
    # the distance is resolved far below the 1e-8 where 1 - |<a|b>|^2 stops
    near = numerics.pure_state_distance(a, _nearby(a, 1e-13, rng))
    assert near == pytest.approx(1e-13, rel=1e-3)
    assert numerics.pure_state_distance(np.eye(16)[0], np.eye(16)[5]) == (
        pytest.approx(1.0, abs=1e-15))


def test_pure_state_distance_validates_states():
    good = np.array([1.0, 0.0])
    with pytest.raises(NumericsError):
        numerics.pure_state_distance(good, np.array([1.0, 1.0]))
    with pytest.raises(NumericsError):
        numerics.pure_state_distance(good, np.array([1.0, 0.0, 0.0]))
