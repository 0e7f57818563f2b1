import warnings

import numpy as np
import pytest

from conftest import random_rotation, random_triple
from qdiscord import (
    BlochTriple,
    NotAStateError,
    ValidationError,
    ab_state,
    apply_local_rotations,
    bell_diagonal_state,
    bloch_rotation,
    canonicalize,
    marginals,
    matrix_from_triple,
    mutual_information,
    random_state,
    random_unitary,
    triple_from_matrix,
    validate,
    von_neumann_entropy,
)
from qdiscord.states import prepare_state

PAULIS = [np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]


def _zeros3():
    return np.zeros(3)


def test_triple_of_maximally_mixed():
    t = triple_from_matrix(np.eye(4) / 4)
    assert np.allclose(t.x, 0) and np.allclose(t.y, 0) and np.allclose(t.T, 0)


def test_triple_of_ab_state():
    t = triple_from_matrix(ab_state(0.5, 0.1))
    assert np.allclose(t.x, [0, 0, -0.1], atol=1e-12)
    assert np.allclose(t.y, [0, 0, 0.1], atol=1e-12)
    assert np.allclose(t.T, np.diag([0.5, -0.5, 0.0]), atol=1e-12)


def test_triple_of_bell_state_by_direct_traces():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    t = triple_from_matrix(rho)
    # independent route: raw Pauli traces
    for i, pi in enumerate(PAULIS):
        for j, pj in enumerate(PAULIS):
            assert t.T[i, j] == pytest.approx(
                np.trace(rho @ np.kron(pi, pj)).real, abs=1e-12)
    assert np.allclose(t.T, np.diag([1, -1, 1]), atol=1e-12)
    assert np.allclose(t.x, 0, atol=1e-12) and np.allclose(t.y, 0, atol=1e-12)


def test_matrix_from_triple_diagonal_entries():
    x = np.array([0.1, 0.2, 0.3])
    y = np.array([-0.1, 0.0, 0.2])
    t1, t2, t3 = 0.4, 0.1, -0.2
    rho = 4 * matrix_from_triple(BlochTriple(x, y, np.diag([t1, t2, t3])))
    # entrywise form of the diagonal-T representative class
    expected = np.array([
        [1 + x[2] + y[2] + t3, y[0] - 1j * y[1], x[0] - 1j * x[1], t1 - t2],
        [y[0] + 1j * y[1], 1 + x[2] - y[2] - t3, t1 + t2, x[0] - 1j * x[1]],
        [x[0] + 1j * x[1], t1 + t2, 1 - x[2] + y[2] - t3, y[0] - 1j * y[1]],
        [t1 - t2, x[0] + 1j * x[1], y[0] + 1j * y[1], 1 - x[2] - y[2] + t3],
    ])
    assert np.allclose(rho, expected, atol=1e-14)


def test_matrix_triple_round_trip(rng):
    for _ in range(100):
        rho = random_state(rng=rng)
        back = matrix_from_triple(triple_from_matrix(rho))
        assert np.max(np.abs(back - rho)) < 1e-10


def test_triple_matrix_round_trip(rng):
    for _ in range(100):
        t = random_triple(rng)
        back = triple_from_matrix(matrix_from_triple(t))
        assert np.max(np.abs(back.x - t.x)) < 1e-10
        assert np.max(np.abs(back.y - t.y)) < 1e-10
        assert np.max(np.abs(back.T - t.T)) < 1e-10


def test_validate_accepts_and_rejects():
    assert validate(np.eye(4) / 4).ok
    diag = validate(np.diag([0.5, 0.6, -0.1, 0.0]))
    assert not diag.ok and diag.min_eigenvalue < -1e-9
    assert validate(ab_state(0.3, 0.2)).ok
    assert not validate(np.eye(4) / 4 + 1e-6 * np.triu(np.ones(4), 1)).ok


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_validate_rejects_non_finite_entries(value):
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = validate(rho)
        assert not diag.ok
        assert str(diag) == "REJECTED: non-finite entries"
        with pytest.raises(NotAStateError, match="non-finite"):
            triple_from_matrix(rho)


@pytest.mark.parametrize("entries", [{(0, 1): 1e308, (1, 0): -1e308},  # M - M^dag overflows
                                     {(0, 0): 1e308, (1, 1): 1e308},  # the trace overflows
                                     {(0, 1): 1e308, (1, 0): 1e308}])  # M + M^dag overflows
def test_validate_rejects_entries_near_the_float_range(entries):
    rho = np.eye(4, dtype=complex) / 4
    for index, value in entries.items():
        rho[index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = validate(rho)
        assert not diag.ok
        assert str(diag) == "REJECTED: an entry exceeds 1e+100 in real or imaginary part"
        with pytest.raises(NotAStateError, match="exceeds"):
            triple_from_matrix(rho)


def test_triple_from_matrix_rejects_invalid():
    with pytest.raises(NotAStateError):
        triple_from_matrix(np.diag([0.5, 0.6, -0.1, 0.0]))


def test_bloch_triple_rejects_long_vectors():
    with pytest.raises(ValidationError):
        BlochTriple(np.array([1.1, 0, 0]), _zeros3(), np.zeros((3, 3)))
    with pytest.raises(ValidationError, match="exceeds 1"):  # its squared norm overflows
        BlochTriple(_zeros3(), np.array([-1e300, 0.2, 0.7]), np.zeros((3, 3)))


def test_marginals():
    t = BlochTriple(_zeros3(), _zeros3(), np.zeros((3, 3)))
    rho_a, rho_b = marginals(t)
    assert np.allclose(rho_a, np.eye(2) / 2)
    assert von_neumann_entropy(rho_a) == pytest.approx(1.0, abs=1e-12)

    t = triple_from_matrix(ab_state(0.4, 0.25))
    rho_a, rho_b = marginals(t)
    from qdiscord import binary_entropy
    expected = binary_entropy((1 + 0.25) / 2)
    assert von_neumann_entropy(rho_a) == pytest.approx(expected, abs=1e-12)
    assert von_neumann_entropy(rho_b) == pytest.approx(expected, abs=1e-12)


def test_marginal_pure_when_x_is_unit():
    t = BlochTriple(np.array([0, 0, 1.0]), _zeros3(), np.zeros((3, 3)))
    rho_a, _ = marginals(t)
    assert von_neumann_entropy(rho_a) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_product_state(rng):
    for _ in range(10):
        g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho1 = g1 @ g1.conj().T
        rho1 /= np.trace(rho1).real
        rho2 = g2 @ g2.conj().T
        rho2 /= np.trace(rho2).real
        assert mutual_information(np.kron(rho1, rho2)) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_bell_state():
    assert mutual_information(bell_diagonal_state(1, -1, 1)) == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_ab_state():
    # 2 h2(0.55) - h3(0.5, 0.2, 0.3), evaluated directly
    assert mutual_information(ab_state(0.5, 0.1)) == pytest.approx(
        0.5000736107482822, abs=1e-11)


def test_mutual_information_nonnegative(rng):
    for _ in range(50):
        assert mutual_information(random_state(rng=rng)) >= -1e-9


def test_apply_local_rotations_identity():
    t = BlochTriple(np.array([0.3, 0, 0]), np.array([0, 0.2, 0]), np.diag([0.4, 0.2, 0.1]))
    out = apply_local_rotations(t, np.eye(3), np.eye(3))
    assert np.allclose(out.x, t.x) and np.allclose(out.T, t.T)


def test_apply_local_rotations_z_quarter_turn():
    rz = np.array([[0.0, -1.0, 0], [1.0, 0.0, 0], [0, 0, 1.0]])
    t = BlochTriple(np.array([1.0, 0, 0]), _zeros3(), np.zeros((3, 3)))
    out = apply_local_rotations(t, rz, np.eye(3))
    assert np.allclose(out.x, [0, 1, 0], atol=1e-15)


def test_apply_local_rotations_preserves_singular_values(rng):
    t = BlochTriple(_zeros3(), _zeros3(), np.diag([0.5, 0.3, 0.1]))
    r = random_rotation(rng)
    out = apply_local_rotations(t, r, r)
    assert np.allclose(np.linalg.svd(out.T, compute_uv=False), [0.5, 0.3, 0.1], atol=1e-12)


def test_apply_local_rotations_rejects_non_rotation():
    t = BlochTriple(_zeros3(), _zeros3(), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        apply_local_rotations(t, np.diag([1.0, 1.0, -1.0]), np.eye(3))  # reflection
    with pytest.raises(ValidationError):
        apply_local_rotations(t, 2 * np.eye(3), np.eye(3))


def test_canonicalize_already_diagonal():
    t = BlochTriple(np.array([0.1, 0, 0.2]), _zeros3(), np.diag([0.5, 0.3, 0.1]))
    c = canonicalize(t)
    assert np.allclose(c.diagonal, [0.5, 0.3, 0.1], atol=1e-12)
    assert np.allclose(c.rotation_a, np.eye(3), atol=1e-12)


def test_canonicalize_recovers_rotated_diagonal():
    alpha = 0.7
    rz = np.array([[np.cos(alpha), -np.sin(alpha), 0],
                   [np.sin(alpha), np.cos(alpha), 0],
                   [0, 0, 1.0]])
    target = np.diag([0.5, 0.3, 0.1])
    t = BlochTriple(_zeros3(), _zeros3(), rz @ target)
    c = canonicalize(t)
    assert np.allclose(np.abs(c.diagonal), [0.5, 0.3, 0.1], atol=1e-12)


def test_canonicalize_properties(rng):
    for _ in range(50):
        t = random_triple(rng)
        c = canonicalize(t)
        for o in (c.rotation_a, c.rotation_b):
            assert np.max(np.abs(o.T @ o - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(o) - 1) < 1e-10
        off = c.triple.T - np.diag(c.diagonal)
        assert np.max(np.abs(off)) <= 1e-10
        d = np.abs(c.diagonal)
        assert d[0] >= d[1] - 1e-12 and d[1] >= d[2] - 1e-12
        # applying (O1, O2) to the input reproduces the canonical triple
        redone = apply_local_rotations(t, c.rotation_a, c.rotation_b)
        assert np.max(np.abs(redone.T - c.triple.T)) < 1e-9
        assert np.max(np.abs(redone.x - c.triple.x)) < 1e-9
        assert np.max(np.abs(redone.y - c.triple.y)) < 1e-9
        # singular values of T and the norms of x, y are preserved
        assert np.allclose(np.sort(np.abs(c.diagonal)),
                           np.sort(np.linalg.svd(t.T, compute_uv=False)), atol=1e-10)
        assert np.linalg.norm(c.triple.x) == pytest.approx(np.linalg.norm(t.x), abs=1e-10)
        assert np.linalg.norm(c.triple.y) == pytest.approx(np.linalg.norm(t.y), abs=1e-10)


def test_canonicalize_zero_correlation():
    t = BlochTriple(np.array([0.2, 0.1, 0]), np.array([0, 0.3, 0]), np.zeros((3, 3)))
    c = canonicalize(t)
    assert np.allclose(c.rotation_a, np.eye(3))
    assert np.allclose(c.rotation_b, np.eye(3))


def test_canonicalize_rotated_bell_state(rng):
    rho = bell_diagonal_state(1, -1, 1)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    c = canonicalize(triple_from_matrix(u @ rho @ u.conj().T))
    assert np.allclose(np.abs(c.diagonal), [1, 1, 1], atol=1e-9)
    assert abs(abs(np.prod(c.diagonal)) - 1) < 1e-9


def test_random_state_ranks(rng):
    for rank in (1, 2, 3, 4):
        rho = random_state(rank=rank, rng=rng)
        eig = np.linalg.eigvalsh(rho)
        assert int((eig > 1e-9).sum()) == rank


def test_random_state_rank1_is_pure(rng):
    rho = random_state(rank=1, rng=rng)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)


def test_random_states_all_valid(rng):
    for _ in range(1000):
        assert validate(random_state(rng=rng)).ok


def test_random_state_seed_determinism():
    a = random_state(rng=42)
    b = random_state(rng=42)
    assert np.array_equal(a, b)


def test_bloch_rotation_is_proper(rng):
    for _ in range(20):
        o = bloch_rotation(random_unitary(2, rng))
        assert np.max(np.abs(o.T @ o - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(o) - 1) < 1e-10


def test_bloch_rotation_conjugation_action(rng):
    # U (a.sigma) U^dag = (O a).sigma
    u = random_unitary(2, rng)
    o = bloch_rotation(u)
    a = rng.standard_normal(3)
    lhs = u @ sum(a[i] * PAULIS[i] for i in range(3)) @ u.conj().T
    oa = o @ a
    rhs = sum(oa[i] * PAULIS[i] for i in range(3))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("field", ["x", "y", "T"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bloch_triple_rejects_non_finite_entries(field, bad):
    parts = {"x": np.zeros(3), "y": np.zeros(3), "T": np.zeros((3, 3))}
    parts[field].flat[0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        BlochTriple(**parts)


def test_mutual_information_takes_the_prepared_state(rng):
    rho = random_state(rng=rng)
    state = prepare_state(rho)
    assert prepare_state(state) is state
    assert mutual_information(state) == mutual_information(rho)
    t = triple_from_matrix(rho)
    assert all(np.array_equal(getattr(state.triple, k), getattr(t, k)) for k in ("x", "y", "T"))
