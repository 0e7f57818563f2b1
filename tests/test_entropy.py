import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdiscord import (
    NotAStateError,
    ValidationError,
    bell_diagonal_state,
    binary_entropy,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    shannon_entropy,
    von_neumann_entropy,
)
from qdiscord.states import random_unitary


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4, atol=1e-14)


def test_eigenvalues_diagonal_already_sorted():
    vals = hermitian_eigenvalues(np.diag([0.5, 0.3, 0.2, 0.0]))
    assert np.allclose(vals, [0.5, 0.3, 0.2, 0.0], atol=1e-14)


@pytest.mark.parametrize("t", [(0.5, 0.2, 0.1), (0.3, -0.3, 0.4), (1.0, -1.0, 1.0)])
def test_eigenvalues_bell_diagonal_spectrum(t):
    # spectrum of the x = y = 0 state: (1 +- t1 +- t2 -+ t3)/4 with an even
    # number of minus signs among the first two entries paired against t3
    t1, t2, t3 = t
    expected = sorted([(1 + t1 + t2 - t3) / 4, (1 - t1 - t2 - t3) / 4,
                       (1 + t1 - t2 + t3) / 4, (1 - t1 + t2 + t3) / 4], reverse=True)
    got = hermitian_eigenvalues(bell_diagonal_state(*t))
    assert np.allclose(got, expected, atol=1e-12)


def test_eigenvalue_sum_matches_trace(rng):
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g + g.conj().T
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10


def test_eigensystem_reconstruction(rng):
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = g + g.conj().T
        vals, vecs = hermitian_eigensystem(h)
        assert np.linalg.norm(h - (vecs * vals) @ vecs.conj().T) < 1e-10


def test_non_hermitian_rejected():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        hermitian_eigenvalues(m)


def test_shannon_entropy_values():
    assert shannon_entropy([1, 0, 0, 0]) == 0.0
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-14)
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-14)


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValidationError):
        shannon_entropy([0.7, -0.1, 0.4])
    with pytest.raises(ValidationError):
        shannon_entropy([0.5, 0.4])  # sums to 0.9


def test_shannon_entropy_clamps_tiny_negatives():
    assert shannon_entropy([1.0 + 5e-10, -5e-10]) == 0.0


def test_shannon_permutation_invariance(rng):
    for _ in range(30):
        p = rng.dirichlet(np.ones(5))
        assert shannon_entropy(p) == pytest.approx(
            shannon_entropy(rng.permutation(p)), abs=1e-12)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation of -x log2 x - (1-x) log2 (1-x) at x = 0.11
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValidationError):
        binary_entropy(-0.01)
    with pytest.raises(ValidationError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_equals_shannon_pair(x):
    assert binary_entropy(x) == shannon_entropy(np.array([x, 1.0 - x]))


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_von_neumann_maximally_mixed():
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)


def test_von_neumann_pure_state(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    assert von_neumann_entropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-9)


def test_von_neumann_ab_state_joint_entropy():
    from qdiscord import ab_state
    # eigenvalues are (a, (1-a-b)/2, (1-a+b)/2, 0) = (0.5, 0.2, 0.3, 0)
    assert von_neumann_entropy(ab_state(0.5, 0.1)) == pytest.approx(
        1.4854752972273344, abs=1e-12)


def test_von_neumann_unitary_invariance(rng):
    for _ in range(20):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        u = random_unitary(4, rng)
        assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-9)


def test_von_neumann_rejects_negative_eigenvalue():
    with pytest.raises(NotAStateError):
        von_neumann_entropy(np.diag([0.5, 0.6, -0.1, 0.0]))


def test_von_neumann_rejects_wrong_trace():
    with pytest.raises(NotAStateError):
        von_neumann_entropy(np.diag([0.5, 0.3, 0.25, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
@pytest.mark.parametrize("fn", [hermitian_eigenvalues, hermitian_eigensystem, von_neumann_entropy])
def test_non_finite_entries_are_rejected(fn, entry, bad):
    m = np.eye(4, dtype=complex) / 4
    m[entry] = bad
    with pytest.raises(NotAStateError, match="non-finite"):
        fn(m)
