"""Tests for the dense complex-matrix kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebloch.dissipators import RhsSpec
from ebloch.linalg import (
    as_matrix,
    eigenbasis,
    herm_part,
    hermitian_eig,
    is_hermitian,
    trace_distance,
)
from ebloch.stationary import gibbs_state
from ebloch.systems import BathModel, build_oscillator, jump_operators
from oracles import commutator, dense_compile_basis, dense_gibbs_state, is_psd, vectorize

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def devectorize(v, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize`; ``len(v)`` must equal ``dim**2``."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size != dim * dim:
        raise ValueError(f"expected a vector of length {dim * dim}, got {v.shape}")
    return v.reshape((dim, dim), order="F")


def random_hermitian(rng, n):
    return herm_part(random_complex(rng, n))


def commutator_oracle(A, B):
    # independent entrywise evaluation of AB - BA
    n = A.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += A[i, k] * B[k, j] - B[i, k] * A[k, j]
    return out


def test_commutator_identity_commutes_with_anything():
    rng = np.random.default_rng(0)
    X = random_complex(rng, 3)
    np.testing.assert_allclose(commutator(np.eye(3), X), np.zeros((3, 3)), atol=1e-14)


def test_commutator_standard_raising_operator():
    # [sz, |0><1|] = 2 |0><1|, i.e. [H, sigma_p] = E sigma_p for H = (E/2) sz
    sp_std = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(commutator(SZ, sp_std), 2 * sp_std, atol=1e-15)


def test_commutator_against_entrywise_oracle():
    rng = np.random.default_rng(1)
    A, B = random_complex(rng, 4), random_complex(rng, 4)
    np.testing.assert_allclose(commutator(A, B), commutator_oracle(A, B), atol=1e-13)


def test_commutator_trace_vanishes():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        for _ in range(20):
            A, B = random_complex(rng, n), random_complex(rng, n)
            scale = np.linalg.norm(A) * np.linalg.norm(B)
            assert abs(np.trace(commutator(A, B))) <= 1e-12 * scale


def test_hermitian_eig_diagonal():
    E = 2.0
    w, V = hermitian_eig(0.5 * E * SZ)
    np.testing.assert_allclose(w, [-E / 2, E / 2], atol=1e-15)
    np.testing.assert_allclose(V[:, 0], [0, 1], atol=1e-15)
    np.testing.assert_allclose(V[:, 1], [1, 0], atol=1e-15)


def test_hermitian_eig_sigma_x():
    w, V = hermitian_eig(0.5 * SX)
    np.testing.assert_allclose(w, [-0.5, 0.5], atol=1e-15)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(V[:, 0], [s, -s], atol=1e-14)
    np.testing.assert_allclose(V[:, 1], [s, s], atol=1e-14)


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        H = random_hermitian(rng, 5)
        w, V = hermitian_eig(H)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(5), atol=1e-12)
        np.testing.assert_allclose((V * w) @ V.conj().T, H, atol=1e-11)
        for k in range(5):
            resid = H @ V[:, k] - w[k] * V[:, k]
            assert np.linalg.norm(resid) <= 1e-12 * max(1, np.linalg.norm(H))


def test_hermitian_eig_phase_convention_is_deterministic():
    rng = np.random.default_rng(5)
    H = random_hermitian(rng, 4)
    _, V1 = hermitian_eig(H)
    _, V2 = hermitian_eig(H * 1.0)
    np.testing.assert_array_equal(V1, V2)
    for k in range(4):
        idx = np.argmax(np.abs(V1[:, k]))
        assert V1[idx, k].imag == pytest.approx(0.0, abs=1e-15)
        assert V1[idx, k].real > 0


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def assert_phase_convention(V):
    # largest-magnitude component of every column real and positive, first index on ties
    for k in range(V.shape[1]):
        idx = int(np.argmax(np.abs(V[:, k])))
        assert abs(V[idx, k].imag) <= 1e-15 and V[idx, k].real > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_hermitian_eig_on_a_stack_equals_per_matrix_calls(n, d, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([random_hermitian(rng, d) for _ in range(n)])
    if d == 2:  # sigma_x-like members tie on the magnitude of both components
        stack[0] = 0.5 * SX
    w, V = hermitian_eig(stack)
    assert w.shape == (n, d) and V.shape == (n, d, d)
    for k, H in enumerate(stack):
        w_k, V_k = hermitian_eig(H)
        assert np.abs(w[k] - w_k).max() <= 1e-14 * max(1.0, np.abs(w_k).max())
        assert np.abs(V[k] - V_k).max() <= 1e-14
        assert_phase_convention(V[k])


def test_hermitian_eig_stack_with_one_non_hermitian_member_raises():
    stack = np.stack([0.5 * SZ, 0.5 * SX, np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ValueError, match="not Hermitian within tolerance"):
        hermitian_eig(stack)


@pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 2, 3), (1, 2, 2, 2), ()])
def test_hermitian_eig_rejects_bad_shapes(shape):
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros(shape))


def _with_diagonal(E, off=0.0) -> np.ndarray:
    H = np.full((len(E), len(E)), complex(off))
    np.fill_diagonal(H, E)
    return H


def _basis_cases() -> dict:
    """name: (H, whether the dense tests find it diagonal)."""
    rng = np.random.default_rng(5)
    subnormal = _with_diagonal([1.0, 0.0, -2.0])
    subnormal[0, 2] = 5e-324
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return {
        "one level": (_with_diagonal([0.3]), True),
        "unsorted diagonal": (_with_diagonal(rng.permutation(3.0 * rng.standard_normal(9))), True),
        "ladder": (build_oscillator(16, 0.7, "harmonic", BathModel(1.0, 1.0)).hamiltonian, True),
        "negative zeros": (_with_diagonal([2.0, -1.0, 0.5, 0.0], complex(-0.0, -0.0)), True),
        "subnormal coupling": (subnormal, False),
        "imaginary diagonal": (_with_diagonal([1.0, 0.5 + 1e-13j, -2.0]), False),
        "tilted": (A + A.conj().T, False),
    }


BASIS_CASES = _basis_cases()


@pytest.mark.parametrize("name", BASIS_CASES)
def test_eigenbasis_makes_the_decision_of_the_dense_tests(name):
    H, diagonal = BASIS_CASES[name]
    E0, V0 = dense_compile_basis(H)
    assert (V0 is None) == diagonal
    gen = RhsSpec(H).compiled
    for E, V in (eigenbasis(H), (gen.E, gen.V)):
        assert E.tobytes() == E0.tobytes()
        assert V is None if V0 is None else V.tobytes() == V0.tobytes()
    for T in (0.7, math.inf):
        assert gibbs_state(H, T).tobytes() == dense_gibbs_state(H, T).tobytes()


@pytest.mark.parametrize("H", [_with_diagonal([0.0, math.nan]), _with_diagonal([math.inf, 1.0]),
                               _with_diagonal([1.0, -math.inf]), _with_diagonal([1.0, 0.5j])],
                         ids=["nan", "inf", "-inf", "imaginary"])
def test_eigenbasis_rejects_a_diagonal_the_dense_tests_reject(H):
    # a count of nonzero entries alone would call each of these diagonal;
    # an infinite entry meets inf - inf on the way to the rejection
    for call in (dense_compile_basis, eigenbasis, lambda H: RhsSpec(H).compiled,
                 lambda H: dense_gibbs_state(H, 0.7), lambda H: gibbs_state(H, 0.7)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            call(H)


def test_a_diagonal_h_costs_no_array_of_its_size():
    import tracemalloc
    spec = RhsSpec.for_system(build_oscillator(1024, 1.0, "harmonic", BathModel(1.0, 1.0)))
    tracemalloc.start()
    try:
        gen = spec.compiled
        compile_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rho = gibbs_state(spec.hamiltonian, 0.5)
        gibbs_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert gen.V is None
    assert compile_peak <= gen.W.nbytes + 2**20
    assert gibbs_peak <= rho.nbytes + 2**20


def test_vectorize_column_stacking():
    np.testing.assert_array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])
    M = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vectorize(M), [1, 3, 2, 4])


def test_vectorize_round_trip_exact():
    rng = np.random.default_rng(7)
    M = random_complex(rng, 3)
    np.testing.assert_array_equal(devectorize(vectorize(M), 3), M)


def test_vectorize_kronecker_identity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A, X, B = (random_complex(rng, 2) for _ in range(3))
        lhs = vectorize(A @ X @ B)
        rhs = np.kron(B.T, A) @ vectorize(X)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_devectorize_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        devectorize(np.zeros(5), 2)


def test_predicates():
    rng = np.random.default_rng(9)
    H = random_hermitian(rng, 3)
    assert is_hermitian(H)
    assert not is_hermitian(H + 1e-6 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]))
    assert is_psd(H @ H.conj().T)
    assert not is_psd(-np.eye(2))


@pytest.mark.parametrize("mu", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_hermiticity_and_trace_verdicts_hold_at_any_energy_scale(mu):
    H = np.array([[0.5, 0.3 - 0.4j], [0.3 + 0.4j, -0.5]])
    RhsSpec(mu * H)
    gibbs_state(mu * H, mu)
    jump_operators(mu * H)
    skew = mu * (H + 1e-9 * np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="^Hamiltonian is not Hermitian within tolerance$"):
        RhsSpec(skew)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        gibbs_state(skew, mu)
    with pytest.raises(ValueError, match="^matrix is not Hermitian within tolerance$"):
        jump_operators(skew)
    with pytest.raises(ValueError, match="traceless"):
        jump_operators(mu * (H + 1e-9 * np.diag([1.0, 0.0])))
    with pytest.raises(ValueError, match="^Hamiltonian is not Hermitian within tolerance$"):
        RhsSpec(mu * np.array([[0.0, 1e-11], [0.0, 0.0]]))


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-15)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        as_matrix(np.zeros((2, 3)))


def test_dag_and_herm_part():
    M = np.array([[1, 2j], [0, 1]], dtype=complex)
    np.testing.assert_allclose(herm_part(M), herm_part(M).conj().T)
