import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_direction, random_rotation, random_triple
from qdiscord import measurement
from qdiscord import (
    BlochTriple,
    MeasurementDirection,
    NotAStateError,
    ZeroProbabilityError,
    ab_state,
    apply_local_rotations,
    binary_entropy,
    conditional_entropy,
    conditional_entropy_batch,
    conditional_entropy_direct,
    direction_from_angles,
    joint_probabilities,
    outcome_probabilities,
    post_measurement_state,
    matrix_from_triple,
    projector_bloch,
    random_state,
    triple_from_matrix,
)
from qdiscord.measurement import BRANCH_TOL, branches, branches_batch

Z3 = np.zeros(3)
Z33 = np.zeros((3, 3))


def test_direction_from_angles():
    assert np.allclose(direction_from_angles(0.0, 1.3).n, [0, 0, 1], atol=1e-15)
    assert np.allclose(direction_from_angles(math.pi / 2, 0.0).n, [1, 0, 0], atol=1e-12)
    assert np.allclose(direction_from_angles(math.pi / 2, math.pi / 2).n, [0, 1, 0], atol=1e-12)


def test_direction_angle_round_trip(rng):
    for _ in range(50):
        d = random_direction(rng)
        again = direction_from_angles(d.theta, d.phi)
        assert np.allclose(again.n, d.n, atol=1e-12)


def test_direction_normalizes():
    d = MeasurementDirection(np.array([0.0, 0.0, 5.0]))
    assert np.allclose(d.n, [0, 0, 1])
    assert abs(np.linalg.norm(d.n) - 1) < 1e-12


def test_projectors_standard_basis():
    z = MeasurementDirection(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(projector_bloch(0, z), np.diag([1.0, 0.0]))
    assert np.allclose(projector_bloch(1, z), np.diag([0.0, 1.0]))
    x = MeasurementDirection(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(projector_bloch(0, x), np.full((2, 2), 0.5))


def test_projectors_complete_and_idempotent(rng):
    for _ in range(20):
        d = random_direction(rng)
        p0 = projector_bloch(0, d)
        p1 = projector_bloch(1, d)
        assert np.max(np.abs(p0 + p1 - np.eye(2))) < 1e-12
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12
        assert abs(np.trace(p0).real - 1) < 1e-12  # rank 1


def test_outcome_probabilities():
    t = BlochTriple(Z3, Z3, np.diag([0.5, 0.2, 0.1]))
    assert outcome_probabilities(t, MeasurementDirection(np.array([0, 0.6, 0.8]))) == (0.5, 0.5)

    b = 0.3
    t = BlochTriple(Z3, np.array([0, 0, -b]), Z33)
    p0, p1 = outcome_probabilities(t, MeasurementDirection(np.array([0.0, 0, 1])))
    assert p0 == pytest.approx((1 - b) / 2, abs=1e-15)
    assert p1 == pytest.approx((1 + b) / 2, abs=1e-15)

    t = BlochTriple(Z3, np.array([0, 0, 1.0]), Z33)
    assert outcome_probabilities(t, MeasurementDirection(np.array([0.0, 0, 1]))) == (1.0, 0.0)


def test_joint_probabilities_bell_diagonal(rng):
    t = BlochTriple(Z3, Z3, np.diag([0.7, 0.4, -0.2]))
    for _ in range(10):
        d = random_direction(rng)
        probs = joint_probabilities(t, d)
        m = np.linalg.norm(t.T @ d.n)
        assert probs.w1 == pytest.approx((1 + m) / 4, abs=1e-12)
        assert probs.w2 == pytest.approx((1 - m) / 4, abs=1e-12)
        assert probs.w3 == pytest.approx((1 + m) / 4, abs=1e-12)
        assert probs.w4 == pytest.approx((1 - m) / 4, abs=1e-12)


def test_joint_probabilities_uncorrelated_split(rng):
    t = BlochTriple(Z3, np.array([0.2, -0.1, 0.4]), Z33)
    d = random_direction(rng)
    probs = joint_probabilities(t, d)
    assert probs.w1 == pytest.approx(probs.p0 / 2, abs=1e-13)
    assert probs.w2 == pytest.approx(probs.p0 / 2, abs=1e-13)
    assert probs.w3 == pytest.approx(probs.p1 / 2, abs=1e-13)
    assert probs.w4 == pytest.approx(probs.p1 / 2, abs=1e-13)


def test_joint_probabilities_kernel_class_norm(rng):
    # T^t x = 0, y = 0 makes |x + T n| = |x - T n| = sqrt(x^2 + n.T^tT.n)
    t = BlochTriple(np.array([0, 0, 0.4]), Z3, np.diag([0.6, 0.3, 0.0]))
    for _ in range(10):
        d = random_direction(rng)
        probs = joint_probabilities(t, d)
        expected = math.sqrt(0.16 + float(d.n @ t.T.T @ t.T @ d.n))
        assert probs.w1 - probs.w2 == pytest.approx(expected / 2, abs=1e-12)
        assert probs.w3 - probs.w4 == pytest.approx(expected / 2, abs=1e-12)


def test_joint_probabilities_sums(rng):
    for _ in range(50):
        t = random_triple(rng)
        d = random_direction(rng)
        probs = joint_probabilities(t, d)
        assert probs.p0 + probs.p1 == pytest.approx(1.0, abs=1e-12)
        assert probs.w1 + probs.w2 == pytest.approx(probs.p0, abs=1e-12)
        assert probs.w3 + probs.w4 == pytest.approx(probs.p1, abs=1e-12)
        assert sum(probs.w) == pytest.approx(1.0, abs=1e-12)
        assert min(probs.w) >= 0.0


def test_joint_probabilities_swap_under_antipode_exact(rng):
    for _ in range(50):
        t = random_triple(rng)
        d = random_direction(rng)
        p = joint_probabilities(t, d)
        q = joint_probabilities(t, MeasurementDirection(-d.n))
        assert (p.p0, p.p1) == (q.p1, q.p0)
        assert (p.w1, p.w2, p.w3, p.w4) == (q.w3, q.w4, q.w1, q.w2)


def test_joint_probabilities_reject_invalid_triple():
    # |x| = 0.9 plus a strong correlation along x overshoots the probability cone
    t = BlochTriple(np.array([0.9, 0, 0]), Z3, np.diag([0.9, 0.0, 0.0]))
    with pytest.raises(NotAStateError):
        joint_probabilities(t, MeasurementDirection(np.array([1.0, 0, 0])))


def test_post_measurement_state_simple():
    t = BlochTriple(Z3, Z3, np.diag([0.7, 0.4, -0.2]))
    d = random_direction(np.random.default_rng(3))
    out = post_measurement_state(t, d, 0)
    assert np.allclose(out.x_tilde, t.T @ d.n, atol=1e-12)
    assert out.probability == pytest.approx(0.5, abs=1e-12)


def test_post_measurement_state_bell_is_pure():
    t = BlochTriple(Z3, Z3, np.diag([1.0, -1.0, 1.0]))
    out = post_measurement_state(t, MeasurementDirection(np.array([0.0, 0, 1])), 0)
    assert np.allclose(out.x_tilde, [0, 0, 1], atol=1e-12)
    assert abs(np.linalg.norm(out.x_tilde) - 1) < 1e-12


def test_post_measurement_state_ab_family():
    a, b = 0.5, 0.2
    t = triple_from_matrix(ab_state(a, b))
    out = post_measurement_state(t, MeasurementDirection(np.array([1.0, 0, 0])), 0)
    assert np.allclose(out.x_tilde, [a, 0, -b], atol=1e-12)


def test_post_measurement_zero_probability_branch():
    t = BlochTriple(Z3, np.array([0, 0, 1.0]), Z33)
    with pytest.raises(ZeroProbabilityError):
        post_measurement_state(t, MeasurementDirection(np.array([0.0, 0, 1])), 1)


def test_conditional_entropy_bell_diagonal(rng):
    t = BlochTriple(Z3, Z3, np.diag([0.7, 0.4, -0.2]))
    for _ in range(10):
        d = random_direction(rng)
        m = np.linalg.norm(t.T @ d.n)
        assert conditional_entropy(t, d) == pytest.approx(
            binary_entropy((1 + m) / 2), abs=1e-12)


def test_conditional_entropy_product_state_constant(rng):
    t = BlochTriple(np.array([0.3, -0.2, 0.4]), Z3, Z33)
    expected = binary_entropy((1 + np.linalg.norm(t.x)) / 2)
    for _ in range(10):
        assert conditional_entropy(t, random_direction(rng)) == pytest.approx(
            expected, abs=1e-12)


def test_conditional_entropy_kernel_class(rng):
    t = BlochTriple(np.array([0, 0, 0.4]), Z3, np.diag([0.6, 0.3, 0.0]))
    for _ in range(10):
        d = random_direction(rng)
        m = np.linalg.norm(t.x + t.T @ d.n)
        assert conditional_entropy(t, d) == pytest.approx(
            binary_entropy((1 + m) / 2), abs=1e-12)


def test_conditional_entropy_matches_direct(rng):
    worst = 0.0
    for _ in range(200):
        t = random_triple(rng)
        d = random_direction(rng)
        worst = max(worst, abs(conditional_entropy(t, d) - conditional_entropy_direct(t, d)))
    assert worst < 1e-10


def test_conditional_entropy_single_outcome():
    # p0 = 1 branch only: the average reduces to S(rho_A_0)
    t = BlochTriple(Z3, np.array([0, 0, 1.0]), Z33)
    d = MeasurementDirection(np.array([0.0, 0, 1]))
    assert conditional_entropy(t, d) == pytest.approx(
        conditional_entropy_direct(t, d), abs=1e-12)
    assert conditional_entropy(t, d) == pytest.approx(1.0, abs=1e-12)


def _direct_reference(rho, n):
    """sum_k p_k S(rho_A_k) at one unit direction, one outcome at a time: the oracle of the batched route."""
    total = 0.0
    for k in (0, 1):
        proj = np.kron(np.eye(2), projector_bloch(k, n))
        sandwich = proj @ rho @ proj
        pk = float(np.trace(sandwich).real)
        if pk <= BRANCH_TOL:
            continue
        rho_a = sandwich.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3) / pk
        for v in np.clip(np.linalg.eigvalsh(rho_a), 0.0, 1.0):
            if v > 0.0:
                total -= pk * v * math.log2(v)
    return total


def _unit_rows(rng, count):
    dirs = rng.standard_normal((count, 3))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def _dead_branch_case(rng):
    """rho_A (x) |m><m| with directions at or within 1e-6 rad of +-m: one branch of each is <= BRANCH_TOL."""
    m = _unit_rows(rng, 1)[0]
    x = 0.8 * _unit_rows(rng, 1)[0]
    t = BlochTriple(x, m, np.outer(x, m))
    u = np.cross(m, _unit_rows(rng, 1)[0])
    u /= np.linalg.norm(u)
    dirs = np.array([m, -m] + [s * math.cos(a) * m + math.sin(a) * u
                               for a in (1e-7, 6e-7, 1e-6) for s in (1.0, -1.0)])
    return t, dirs / np.linalg.norm(dirs, axis=1)[:, None]


def test_direct_route_matches_the_reference_loop():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(100):  # 500 (state, direction) pairs, ranks 1-4
        rho = random_state(rank=1 + i % 4, rng=rng)
        t = triple_from_matrix(rho)
        dirs = _unit_rows(rng, 5)
        got = conditional_entropy_direct(t, dirs, rho=rho)
        worst = max(worst, max(abs(g - _direct_reference(rho, n)) for g, n in zip(got, dirs)))
    assert worst <= 1e-14

    # y = n: the p1 branch is exactly zero and S(A|n) = S(rho_A)
    x, z = np.array([0.0, 0.6, 0.0]), np.array([[0.0, 0.0, 1.0]])
    t = BlochTriple(x, z[0], np.outer(x, z[0]))
    assert conditional_entropy_direct(t, z)[0] == pytest.approx(binary_entropy(0.8), abs=1e-14)
    assert abs(conditional_entropy_direct(t, z)[0] - _direct_reference(matrix_from_triple(t), z[0])) <= 1e-14

    t, dirs = _dead_branch_case(rng)
    rho = matrix_from_triple(t)
    assert all(min(branches(t, n)[:2]) <= BRANCH_TOL for n in dirs)
    got = conditional_entropy_direct(t, dirs)
    assert max(abs(g - _direct_reference(rho, n)) for g, n in zip(got, dirs)) <= 1e-14


def test_direct_route_batch_equals_single_calls_bitwise():
    rng = np.random.default_rng(8)
    cases = [(triple_from_matrix(random_state(rank=r, rng=rng)), _unit_rows(rng, 40)) for r in (1, 2, 3, 4)]
    for t, dirs in cases + [_dead_branch_case(rng)]:
        batch = conditional_entropy_direct(t, dirs)
        assert batch.shape == (len(dirs),)
        for value, n in zip(batch, dirs):
            assert conditional_entropy_direct(t, n) == value
            assert conditional_entropy_direct(t, MeasurementDirection(n)) == value
        assert conditional_entropy_direct(t, dirs[0] * 3.0) == pytest.approx(batch[0], abs=1e-15)


def test_direct_route_never_uses_the_branch_formula(monkeypatch):
    t = random_triple(np.random.default_rng(9))
    dirs = _unit_rows(np.random.default_rng(10), 8)
    expected = conditional_entropy_direct(t, dirs)

    def forbidden(*args):
        raise AssertionError("the direct route must not use the Bloch-triple branch formula")

    monkeypatch.setattr(measurement, "branches", forbidden)
    monkeypatch.setattr(measurement, "branches_batch", forbidden)
    assert np.array_equal(conditional_entropy_direct(t, dirs), expected)
    assert conditional_entropy_direct(t, MeasurementDirection(dirs[0])) == expected[0]


def test_conditional_entropy_antipode_bitwise(rng):
    for _ in range(200):
        t = random_triple(rng)
        d = random_direction(rng)
        assert conditional_entropy(t, d) == conditional_entropy(
            t, MeasurementDirection(-d.n))


_FIXED_TRIPLE = random_triple(np.random.default_rng(99))


@settings(deadline=None, max_examples=60)
@given(theta=st.floats(0.0, math.pi, allow_nan=False),
       phi=st.floats(0.0, 2 * math.pi, allow_nan=False))
def test_conditional_entropy_antipode_bitwise_angles(theta, phi):
    d = direction_from_angles(theta, phi)
    flipped = MeasurementDirection(-d.n)
    assert conditional_entropy(_FIXED_TRIPLE, d) == conditional_entropy(_FIXED_TRIPLE, flipped)


@settings(deadline=None, max_examples=60)
@given(theta=st.floats(0.0, math.pi, allow_nan=False),
       phi=st.floats(0.0, 2 * math.pi, allow_nan=False))
def test_conditional_entropy_in_unit_interval(theta, phi):
    s = conditional_entropy(_FIXED_TRIPLE, direction_from_angles(theta, phi))
    assert -1e-12 <= s <= 1 + 1e-12


def test_conditional_entropy_covariant_under_rotations(rng):
    for _ in range(20):
        t = random_triple(rng)
        d = random_direction(rng)
        o1 = random_rotation(rng)
        o2 = random_rotation(rng)
        rotated = apply_local_rotations(t, o1, o2)
        assert conditional_entropy(rotated, MeasurementDirection(o2 @ d.n)) == pytest.approx(
            conditional_entropy(t, d), abs=1e-10)


def test_conditional_entropy_batch_matches_scalar(rng):
    t = random_triple(rng)
    dirs = np.array([random_direction(rng).n for _ in range(64)])
    batch = conditional_entropy_batch(t, dirs)
    for k in range(64):
        assert batch[k] == pytest.approx(
            conditional_entropy(t, MeasurementDirection(dirs[k])), abs=1e-12)


def test_scalar_and_batch_branch_kernels_agree(rng):
    t = random_triple(rng)
    dirs = rng.standard_normal((1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    batch = branches_batch(t, dirs)
    worst = 0.0
    for i, n in enumerate(dirs):
        for scalar, rows in zip(branches(t, n), batch):
            worst = max(worst, float(np.max(np.abs(np.asarray(scalar) - rows[i]))))
    assert worst <= 1e-15
