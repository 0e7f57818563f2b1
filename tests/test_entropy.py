import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdiscord import (
    NotAStateError,
    bell_diagonal_state,
    binary_entropy,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    quantum_discord,
    shannon_entropy,
    von_neumann_entropy,
)
from qdiscord.entropy import CLAMP_TOL, _h_sum, _h_terms, _spectrum_entropy
from qdiscord.states import prepare_state, random_unitary


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


def test_shannon_entropy_values():
    assert shannon_entropy([1, 0, 0, 0]) == 0.0
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-14)
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-14)


def test_shannon_entropy_clamps_tiny_negatives():
    assert shannon_entropy([1.0 + 5e-10, -5e-10]) == 0.0
    assert shannon_entropy([1 + 5e-7]) == 0  # within the sum check, clipped to 1


@pytest.mark.parametrize("p", [[1.0], [1 + 5e-7], [1.0, 0.0, 0.0], [0.0, 1.0 + 5e-10, -5e-10]])
def test_a_certain_outcome_has_entropy_plus_zero(p):
    assert math.copysign(1.0, shannon_entropy(p)) == 1.0


def test_the_array_helper_equals_the_scalar_helper_column_by_column(rng):
    v = rng.dirichlet(np.ones(4), size=200).T
    v[:, :50] = rng.choice([0.0, 1.0, -1e-17, -5e-10, 1e-300, 0.5], size=(4, 50))
    got = _h_sum(v)
    assert got.shape == (200,)
    for k in range(200):
        assert abs(got[k] - _h_terms(*v[:, k].tolist())) <= 1e-15
    assert not np.signbit(got).any()  # columns of zeros, ones and negatives give +0.0


def test_an_eigenvalue_just_over_one_gives_no_negative_entropy():
    # trace 1 and eigenvalues within the checks, with the top one past 1 + 1e-9
    rho = np.diag([1 + 1.8e-9, 0.0, -0.9e-9, -0.9e-9])
    assert von_neumann_entropy(rho) >= 0.0
    assert prepare_state(rho).s_ab >= 0.0
    report = quantum_discord(rho)
    assert report.discord <= report.bounds.xi_bound


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


def test_binary_entropy_matches_shannon_on_a_grid_with_the_clamp_edges():
    edges = [0.0, 1.0, -CLAMP_TOL, -CLAMP_TOL / 2, CLAMP_TOL, 1 - CLAMP_TOL, 1 + CLAMP_TOL / 2,
             5e-324, 1e-300, 1e-16, 0.5]
    for x in edges + np.linspace(0, 1, 1001).tolist():
        assert abs(binary_entropy(x) - shannon_entropy(np.array([x, 1.0 - x]))) <= 1e-15
    # 1 - (1 + 1e-9) rounds below -1e-9, outside shannon_entropy's domain
    assert binary_entropy(1 + CLAMP_TOL) == binary_entropy(-CLAMP_TOL) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_equals_shannon_pair(x):
    # math.log2 against numpy's log2, which may differ in the last bit
    assert abs(binary_entropy(x) - shannon_entropy(np.array([x, 1.0 - x]))) <= 1e-15


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


def test_spectrum_entropy_checks_and_clamps_the_spectrum(rng):
    with pytest.raises(NotAStateError, match="trace is"):
        _spectrum_entropy([0.5, 0.5 + 2 * CLAMP_TOL])
    with pytest.raises(NotAStateError, match="negative eigenvalue"):
        _spectrum_entropy([0.3, 0.7 + 2 * CLAMP_TOL, -2 * CLAMP_TOL])
    assert _spectrum_entropy([1 + CLAMP_TOL, -CLAMP_TOL, 0.0, 0.0]) == 0.0
    for _ in range(100):
        vals = rng.dirichlet(np.ones(4))
        assert abs(_spectrum_entropy(vals.tolist()) - shannon_entropy(vals)) <= 1e-15
