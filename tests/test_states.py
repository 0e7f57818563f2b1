import functools
import math
import warnings
from collections import Counter

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
    quantum_discord,
    theorem1_bounds,
    marginals,
    matrix_from_triple,
    mutual_information,
    random_state,
    random_unitary,
    reduced_states,
    sample_bell_diagonal,
    sample_kernel_class,
    triple_from_matrix,
    validate,
    von_neumann_entropy,
)
from qdiscord import states
from qdiscord.entropy import _as_complex, _spectrum_entropy, binary_entropy
from qdiscord.states import PreparedState, _proper_svd, prepare_state

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


def test_the_matrix_rule_casts_numbers_and_passes_complex128_through():
    rho = random_state(rng=np.random.default_rng(5))
    assert _as_complex(rho, "a 4x4 matrix", (4, 4)) is rho
    for form in (rho.astype(np.complex64), rho.real, rho.real.astype(np.float32), rho.astype(">c16"),
                 (rho.real * 8).astype(int), rho.tolist()):
        cast = _as_complex(form, "a 4x4 matrix", (4, 4))
        assert cast.dtype == np.complex128 and np.array_equal(cast, np.asarray(form, dtype=complex))


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


def _on_the_norm_bound(rng) -> np.ndarray:
    # a random direction, stretched until one more float step would pass BlochTriple's |v| <= 1 + 1e-9
    v = rng.standard_normal(3)
    v *= (1 + 1e-9) / np.linalg.norm(v)
    while math.hypot(*v) > 1 + 1e-9:
        v = np.nextafter(v, 0)
    while math.hypot(*(w := np.nextafter(v, 2 * v))) <= 1 + 1e-9:
        v = w
    return v


def test_rotations_take_every_triple_blochtriple_accepts(rng):
    # rounding in O x carried a vector on the bound just past it, and the rotated triple raised
    for _ in range(200):
        t = BlochTriple(_on_the_norm_bound(rng), _on_the_norm_bound(rng), 0.1 * rng.standard_normal((3, 3)))
        c = canonicalize(t)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        turned = apply_local_rotations(t, r1, r2)
        for out, o1, o2 in ((c.triple, c.rotation_a, c.rotation_b), (turned, r1, r2)):
            assert np.max(np.abs(out.x - o1 @ t.x)) <= 3e-15 and np.max(np.abs(out.y - o2 @ t.y)) <= 3e-15
    for _ in range(50):  # inside the bound, the rotated vectors keep numpy's bits
        t = random_triple(rng)
        c = canonicalize(t)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        turned = apply_local_rotations(t, r1, r2)
        for out, o1, o2 in ((c.triple, c.rotation_a, c.rotation_b), (turned, r1, r2)):
            assert out.x.tobytes() == (o1 @ t.x).tobytes() and out.y.tobytes() == (o2 @ t.y).tobytes()


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


def _bloch_rotation_reference(u):
    # O_ij = Re tr(sigma_i U sigma_j U^dag) / 2, one trace per entry
    o = np.empty((3, 3))
    for j, pj in enumerate(PAULIS):
        upu = u @ pj @ u.conj().T
        for i, pi in enumerate(PAULIS):
            o[i, j] = np.trace(pi @ upu).real / 2
    return o


def test_bloch_rotation_matches_the_trace_loop(rng):
    for _ in range(200):
        u = random_unitary(2, rng)
        assert np.max(np.abs(bloch_rotation(u) - _bloch_rotation_reference(u))) <= 1e-15


def test_mutual_information_takes_the_prepared_state(rng):
    rho = random_state(rng=rng)
    state = prepare_state(rho)
    assert prepare_state(state) is state
    assert mutual_information(state) == mutual_information(rho)
    t = triple_from_matrix(rho)
    assert all(np.array_equal(getattr(state.triple, k), getattr(t, k)) for k in ("x", "y", "T"))


def _near_pure_marginal_states(rng):
    # (1 - eps) |psi><psi| + eps I/2 on one side, a random qubit state on the other
    for eps in (0.0, 1e-16, 1e-13, 1e-10, 1e-6, 1e-3):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        near_pure = (1 - eps) * np.outer(psi, psi.conj()) / (psi.conj() @ psi).real + eps * np.eye(2) / 2
        other = reduced_states(random_state(rng=rng))[0]
        yield np.kron(near_pure, other)
        yield np.kron(other, near_pure)


def test_prepared_marginal_entropies_match_the_partial_traces(rng):
    rhos = [random_state(rank=rank, rng=rng) for rank in (1, 2, 3, 4) for _ in range(50)]
    for rho in rhos + list(_near_pure_marginal_states(rng)):
        state = prepare_state(rho)
        rho_a, rho_b = reduced_states(state.rho)
        assert abs(state.s_a - von_neumann_entropy(rho_a)) <= 1e-13
        assert abs(state.s_b - von_neumann_entropy(rho_b)) <= 1e-13


def test_triple_matches_the_einsum_pauli_traces(rng):
    eye = np.eye(2)
    kron_a = np.stack([np.kron(p, eye) for p in PAULIS])
    kron_b = np.stack([np.kron(eye, p) for p in PAULIS])
    kron_ab = np.stack([np.stack([np.kron(p, q) for q in PAULIS]) for p in PAULIS])
    for rank in (1, 2, 3, 4):
        for _ in range(50):
            rho = random_state(rank=rank, rng=rng)
            t = triple_from_matrix(rho)
            assert np.max(np.abs(t.x - np.einsum("ij,kji->k", rho, kron_a).real)) <= 1e-15
            assert np.max(np.abs(t.y - np.einsum("ij,kji->k", rho, kron_b).real)) <= 1e-15
            assert np.max(np.abs(t.T - np.einsum("ij,klji->kl", rho, kron_ab).real)) <= 1e-15


@pytest.mark.parametrize("delta", [4.5e-10, 9e-10])
def test_triple_of_an_accepted_matrix_with_overlong_marginals(delta):
    # |x| = 1 + 4 delta and |y| = 1 + 2 delta before they are scaled back
    rho = np.diag([1 + 2 * delta, 0.0, -delta, -delta])
    assert validate(rho).ok
    t = triple_from_matrix(rho)
    assert t.x == pytest.approx([0, 0, 1], abs=1e-15) and t.y == pytest.approx([0, 0, 1], abs=1e-15)
    state = prepare_state(rho)
    assert state.s_a == state.s_b == 0.0
    with pytest.raises(ValidationError, match="exceeds 1"):  # a triple given as such is not scaled
        BlochTriple(np.array([0, 0, 1 + 4 * delta]), _zeros3(), np.zeros((3, 3)))


def _hex(values):
    """float.hex of each float in a flat or nested sequence: equal strings are equal bits, -0.0 included."""
    return [_hex(v) if isinstance(v, (list, tuple)) else v.hex() for v in values]


def _assert_float_record(t):
    x, y, rows = t._floats
    assert type(x) is type(y) is type(rows) is tuple and all(type(r) is tuple for r in rows)
    assert _hex(x) == _hex(t.x.tolist()) and _hex(y) == _hex(t.y.tolist()) and _hex(rows) == _hex(t.T.tolist())
    assert not (t.x.flags.writeable or t.y.flags.writeable or t.T.flags.writeable)


def test_the_float_record_is_the_stored_arrays_bit_for_bit(rng):
    x, y, T = [0.1, -0.0, 0.3], [0.0, -0.2, -0.0], [[0.5, -0.0, 0.0], [0.0, -0.3, 0.0], [-0.0, 0.0, 0.1]]
    given = [BlochTriple(np.array(x), np.array(y), np.array(T)), BlochTriple(x, y, T),
             BlochTriple(tuple(x), tuple(y), tuple(map(tuple, T))),
             BlochTriple([0, 0, 1], [0, 0, 0], np.eye(3, dtype=int))]
    made = []
    for t in [random_triple(rng, rank) for rank in (1, 2, 3, 4)] + given[:1]:
        made += [canonicalize(t).triple, apply_local_rotations(t, random_rotation(rng), random_rotation(rng))]
    made.append(canonicalize(BlochTriple(x, y, np.zeros((3, 3)))).triple)  # the T = 0 case
    prepared = [prepare_state(random_state(rank=rank, rng=rng)).triple for rank in (1, 2, 3, 4)]
    prepared.append(prepare_state(np.diag([1 + 9e-10, 0.0, -4.5e-10, -4.5e-10])).triple)  # snapped to |x| = 1
    for t in given + made + prepared:
        _assert_float_record(t)
    assert _hex(given[1]._floats[0]) == ["0x1.999999999999ap-4", "-0x0.0p+0", "0x1.3333333333333p-2"]
    # the stored arrays are copies: mutating the caller's array changes neither them nor the record
    xs, ts = np.array(x), np.array(T)
    t = BlochTriple(xs, y, ts)
    xs[0], ts[1, 1] = 0.9, 0.9
    assert t.x[0] == 0.1 and t.T[1, 1] == -0.3 and t._floats[0][0] == 0.1 and t._floats[2][1][1] == -0.3
    with pytest.raises(ValueError):
        t.x[0] = 0.5


def _assert_same_triple(a, b):
    """Equal arrays and float records, bit for bit (-0.0 included), both read-only."""
    for name in ("x", "y", "T"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert getattr(a, name).dtype == getattr(b, name).dtype == np.float64
        assert getattr(a, name).shape == getattr(b, name).shape
    assert _hex(a._floats) == _hex(b._floats)
    _assert_float_record(a)
    _assert_float_record(b)


def test_the_private_constructor_is_the_public_one_bit_for_bit(rng):
    x, y, T = (0.1, -0.0, 0.3), (0.0, -0.2, -0.0), ((0.5, -0.0, 0.0), (0.0, -0.3, 0.0), (-0.0, 0.0, 0.1))
    triples = [BlochTriple(x, y, T), BlochTriple(x, y, np.zeros((3, 3))), BlochTriple(x, y, -np.zeros((3, 3)))]
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            t = random_triple(rng, rank)
            triples += [t, apply_local_rotations(t, random_rotation(rng), random_rotation(rng))]
    for t in triples:
        _assert_same_triple(BlochTriple._of(*t._floats), BlochTriple(t.x, t.y, t.T))
        # the triples made without checks: canonicalize's (the T = 0 case included) and prepare_state's
        canonical = canonicalize(t).triple
        _assert_same_triple(canonical, BlochTriple(canonical.x, canonical.y, canonical.T))
        prepared = prepare_state(matrix_from_triple(t)).triple
        _assert_same_triple(prepared, BlochTriple(prepared.x, prepared.y, prepared.T))
    zero_t = canonicalize(triples[2]).triple  # T = -0 is zero: the caller's x and y, and a +0.0 diagonal
    assert _hex(zero_t._floats[:2]) == _hex((x, y)) and _hex(zero_t._floats[2]) == [["0x0.0p+0"] * 3] * 3


def test_triple_from_matrix_takes_no_entropy(monkeypatch, rng):
    calls = []
    for name in ("binary_entropy", "_spectrum_entropy"):
        original = getattr(states, name)
        monkeypatch.setattr(states, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    rho = random_state(rng=rng)
    triple_from_matrix(rho)
    assert calls == []
    state = prepare_state(rho)
    # taken on first use, once each, with the values of their formulas
    s = [state.s_a, state.s_b, state.s_ab, state.s_a, state.mutual_information]
    assert sorted(calls) == ["_spectrum_entropy", "binary_entropy", "binary_entropy"]
    x, y = state.triple._floats[:2]
    assert s[0] == binary_entropy((1 + math.hypot(*x)) / 2) and s[1] == binary_entropy((1 + math.hypot(*y)) / 2)
    assert s[2] == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


def _parent_unit_ball(v: np.ndarray) -> np.ndarray:
    """The snap of a coherence vector as the numpy formula once wrote it, the oracle of the float one."""
    norm = math.hypot(*v.tolist())
    return v / norm if 1 < norm <= 1 + states._NORM_SLACK else v


def test_unit_ball_snap_is_the_numpy_formula_bit_for_bit(rng):
    snapped = 0
    for k in range(2000):
        v = rng.standard_normal(3)
        # |v| just above 1 within the slack, past it, exactly 1 and below
        scale = 1 + states._NORM_SLACK * (rng.uniform(0, 1.2) if k % 4 else rng.uniform(-1, 0))
        v = v / np.linalg.norm(v) * scale
        v[k % 3] = -0.0 if k % 7 == 0 else v[k % 3]
        expected = _parent_unit_ball(v).tolist()
        snapped += expected != v.tolist()
        assert _hex(states._unit_ball(v.tolist())) == _hex(expected)
    assert snapped > 1000


def _trace_deficit_states(rng):
    # an eigenvalue near -PSD_TOL and a trace below 1: dividing by the trace pushes it under -PSD_TOL
    yield np.diag([0.5, 0.3, 0.2 - 8e-9, -1e-9])
    for k in range(200):
        vals = np.concatenate([rng.dirichlet(np.ones(3)), [-states.PSD_TOL]])
        vals[:3] *= 1 - rng.uniform(0, 0.9) * states.TRACE_TOL
        if k % 2:  # exact eigenvalues, shuffled; rotated, rounding moves them by about 1e-17
            yield np.diag(rng.permutation(vals))
        else:
            vals[3] *= rng.uniform(0.5, 1)
            u = random_unitary(4, rng)
            yield (u * vals) @ u.conj().T


def test_trace_deficit_spectrum_is_the_numpy_formula_bit_for_bit(rng):
    clamped = 0
    for rho in _trace_deficit_states(rng):
        diag = validate(rho)
        if not diag.ok:
            continue
        trace = np.trace(diag.hermitian_part).real
        spectrum = np.maximum(diag.eigenvalues / trace, -states.PSD_TOL)
        clamped += bool((diag.eigenvalues / trace < -states.PSD_TOL).any())
        assert prepare_state(rho).s_ab.hex() == _spectrum_entropy(spectrum.tolist()).hex()
    assert clamped >= 100


def test_the_svd_helper_is_canonicalize_bit_for_bit(rng):
    # d and the rows of O1 and O2, which the pipeline reads in place of the canonical form
    x, y = (0.1, -0.0, 0.3), (0.0, -0.2, -0.0)
    triples = [BlochTriple(x, y, np.zeros((3, 3))), BlochTriple(x, y, -np.zeros((3, 3))),
               BlochTriple(_zeros3(), _zeros3(), np.diag([0.5, -0.5, 0.2])),  # a tied top pair
               triple_from_matrix(bell_diagonal_state(0.5, -0.5, 0.5))]
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            t = random_triple(rng, rank)
            triples += [t, apply_local_rotations(t, random_rotation(rng), random_rotation(rng))]
    for t in triples:
        d, (rows_a, rows_b) = _proper_svd(t)
        c = canonicalize(t)
        assert _hex(d) == _hex(c.diagonal.tolist())
        assert _hex(rows_a) == _hex(c.rotation_a.tolist()) and _hex(rows_b) == _hex(c.rotation_b.tolist())
    assert _proper_svd(triples[1]) == ([0.0] * 3, (np.eye(3).tolist(), np.eye(3).tolist()))  # T = -0 is zero


def _parent_matrix_from_triple(t):
    """The tensordot form of matrix_from_triple that the one product per term replaced: the reference."""
    p = states._PAULI_PRODUCTS
    rho = (np.eye(4, dtype=complex) + np.tensordot(t.x, p[:3], axes=1) + np.tensordot(t.y, p[3:6], axes=1)
           + np.tensordot(t.T, p[6:].reshape(3, 3, 4, 4), axes=2))
    return rho / 4


def _parent_qubit_matrix(v):
    """The tensordot form of (I + v.sigma)/2: the reference."""
    return (np.eye(2, dtype=complex) + np.tensordot(v, states.PAULIS, axes=1)) / 2


def _parent_bell_diagonal_state(t1, t2, t3):
    """bell_diagonal_state from np.zeros and np.diag arrays: the reference."""
    return _parent_matrix_from_triple(BlochTriple(np.zeros(3), np.zeros(3), np.diag([t1, t2, t3])))


def _parent_sample_kernel_class(rng):
    """sample_kernel_class from np.array, np.zeros and np.diag arrays: the reference, with the same draws."""
    while True:
        if rng.random() < 0.5:
            t1, t2 = sorted(rng.uniform(-0.95, 0.95, size=2), key=abs, reverse=True)
            x3 = float(rng.uniform(-0.95, 0.95))
            if math.hypot(t1 + t2, x3) <= 0.98 and math.hypot(t1 - t2, x3) <= 0.98:
                return BlochTriple(np.array([0.0, 0.0, x3]), np.zeros(3), np.diag([t1, t2, 0.0]))
        else:
            t1 = float(rng.uniform(-0.95, 0.95))
            x2, x3 = rng.uniform(-0.95, 0.95, size=2)
            if t1 * t1 + x2 * x2 + x3 * x3 <= 0.98**2:
                return BlochTriple(np.array([0.0, x2, x3]), np.zeros(3), np.diag([t1, 0.0, 0.0]))


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_one_product_builders_are_the_tensordot_formulas_bit_for_bit(rng):
    triples = [BlochTriple((0.0, -0.0, 0.3), (-0.0, 0.0, -0.0), np.diag([-0.0, 0.5, 0.0])),  # signed zeros
               BlochTriple(_zeros3(), _zeros3(), np.zeros((3, 3))),
               BlochTriple((0.1, -0.0, 0.3), (0.0, -0.2, -0.0), -np.zeros((3, 3)))]  # T = 0
    for rank in (1, 2, 3, 4):
        for _ in range(25):
            t = random_triple(rng, rank)
            triples += [t, apply_local_rotations(t, random_rotation(rng), random_rotation(rng))]
    for t in triples:
        assert _same_bits(matrix_from_triple(t), _parent_matrix_from_triple(t))
        rows = np.array([t.x, t.y, -t.x, -t.y])
        for v in (t.x, t.y, rows, rows[:0]):  # (3,), (N, 3) and (0, 3)
            assert _same_bits(states._qubit_matrix(v), _parent_qubit_matrix(v))
    # the four vertices of the Bell tetrahedron, a signed-zero point and sampled points
    points = [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (-0.0, 0.0, -0.5)]
    for t1, t2, t3 in points + [sample_bell_diagonal(rng) for _ in range(50)]:
        assert _same_bits(bell_diagonal_state(t1, t2, t3), _parent_bell_diagonal_state(t1, t2, t3))
    draws, parent_draws = np.random.default_rng(2028), np.random.default_rng(2028)
    for _ in range(500):
        t, ref = sample_kernel_class(draws), _parent_sample_kernel_class(parent_draws)
        assert all(_same_bits(a, b) for a, b in ((t.x, ref.x), (t.y, ref.y), (t.T, ref.T)))
        assert _same_bits(matrix_from_triple(t), _parent_matrix_from_triple(ref))


def test_each_lazy_field_runs_its_function_once(monkeypatch, rng):
    fields = [(PreparedState, name) for name in ("s_a", "s_b", "s_ab", "_svd", "_restricted")] + [(BlochTriple, "_tx")]
    calls = Counter()
    for cls, name in fields:
        lazy = cls.__dict__[name]
        assert cls.__dict__[name] is getattr(cls, name)  # read on the class, the descriptor itself

        @functools.wraps(lazy.func)
        def counted(obj, _func=lazy.func, _name=name):
            calls[_name] += 1
            return _func(obj)

        monkeypatch.setattr(lazy, "func", counted)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for rho in (u @ bell_diagonal_state(0.8, 0.3, -0.2) @ u.conj().T, random_state(rng=rng),
                np.outer(psi, psi.conj()) / np.vdot(psi, psi).real):
        calls.clear()
        state = prepare_state(rho)
        for _ in range(2):
            quantum_discord(state)
            theorem1_bounds(state)
            values = [getattr(state.triple if cls is BlochTriple else state, name) for cls, name in fields]
        assert calls == dict.fromkeys([name for _, name in fields], 1)
        # each value is the one stored in its instance's __dict__ on first read
        assert all(value is vars(state.triple if cls is BlochTriple else state)[name]
                   for value, (cls, name) in zip(values, fields))
