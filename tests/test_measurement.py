import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_direction, random_rotation, random_triple
from qdiscord import measurement, optimize
from qdiscord import (
    BlochTriple,
    MeasurementDirection,
    NotAStateError,
    ValidationError,
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
    stationary_scan,
    triple_from_matrix,
)
from qdiscord.entropy import _h_sum
from qdiscord.measurement import (
    _W_DEFICIT_TOL,
    BRANCH_TOL,
    _least_of_rows,
    _probabilities,
    _qubit_matrix,
    _row_norms,
    branches,
    branches_batch,
)
from qdiscord.optimize import stationary_residual_batch

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


@pytest.mark.parametrize("n", [[1e300, 1e300, 0], [-1e308, 0, 1e308], [3e-12, 0, 4e-12],
                               [1.7e308, 1.7e308, 0], [1.7e308, -1.7e308, 1.7e308]])
def test_direction_far_from_unit_length_normalizes_without_overflow(n):
    d = MeasurementDirection(n)  # a RuntimeWarning would fail the test
    assert abs(math.hypot(*d.n) - 1) < 1e-15


def _numpy_rule(v):
    """A direction's normalization in numpy terms: n / hypot(n) unless |hypot(n) - 1| <= 1e-12."""
    n = np.asarray(v, dtype=float)
    norm = math.hypot(*n.tolist())
    return n / norm if abs(norm - 1.0) > 1e-12 else n.copy()


def test_normalization_rule_is_numpy_division_bit_for_bit():
    rng = np.random.default_rng(15)
    vecs = rng.standard_normal((10_000, 3))
    vecs[:2000] *= 10.0 ** rng.uniform(-12.5, 154, (2000, 1))  # norms from below 1e-12 to 1e154
    unit = vecs[2000:4000] / np.linalg.norm(vecs[2000:4000], axis=1)[:, None]
    vecs[2000:4000] = unit * (1 + rng.uniform(-2e-12, 2e-12, (2000, 1)))  # |norm - 1| on both sides of 1e-12
    vecs[4000:5000] = -vecs[2000:3000]
    zeros = rng.random((1000, 3)) < 0.4
    vecs[5000:6000] = np.where(zeros, np.copysign(0.0, rng.standard_normal((1000, 3))), vecs[5000:6000])
    vecs[6000:7000] *= 1e-12
    vecs[7000:8000] *= 1e154
    kept = rejected = 0
    for v in vecs:
        if math.hypot(*v) < 1e-12:
            for given in (v, v.tolist(), tuple(v.tolist())):
                with pytest.raises(ValidationError, match="nonzero"):
                    measurement._normalized(given)
            rejected += 1
            continue
        expected = _numpy_rule(v).tobytes()
        for given in (v, v.tolist(), tuple(v.tolist())):
            assert np.array(measurement._normalized(given)).tobytes() == expected
        assert MeasurementDirection(v).n.tobytes() == expected
        kept += abs(math.hypot(*v) - 1) <= 1e-12
    assert kept > 1000 and rejected > 200  # both branches of the rule and its rejection are exercised


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


def test_batch_kernels_reject_a_triple_that_is_not_a_state():
    # |T n| = 1.5 > 2 p_k = 1 in every direction
    t = BlochTriple(Z3, Z3, 1.5 * np.eye(3))
    dirs = np.eye(3)
    message = "triple is not a state"
    with pytest.raises(NotAStateError, match=message):
        conditional_entropy(t, dirs[0])
    with pytest.raises(NotAStateError, match=message):
        conditional_entropy_batch(t, dirs)
    with pytest.raises(NotAStateError, match=message):
        stationary_residual_batch(t, dirs)
    with pytest.raises(NotAStateError, match=message):
        stationary_scan(t)


#: n = +-e_x, where |T n| = 1 + eps exceeds 2 p_k = 1 for the triples below
_X_AXES = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


@pytest.mark.parametrize("eps", [1e-12, 4e-9, 7.9e-9])
def test_scalar_and_batch_paths_snap_alike(eps):
    t = BlochTriple(Z3, Z3, np.diag([1 + eps, 0.5, -0.2]))
    raw = branches_batch(t, _X_AXES)
    low = np.minimum(raw.w2, raw.w4)
    assert ((-_W_DEFICIT_TOL / 4 < low) & (low < 0)).all()
    rows = np.array(_probabilities(raw, _least_of_rows, np.where))
    batch = conditional_entropy_batch(t, _X_AXES)
    for i, n in enumerate(_X_AXES):
        p = joint_probabilities(t, n)
        assert np.array([p.p0, p.p1, *p.w]).tobytes() == rows[:, i].tobytes()
        assert np.float64(conditional_entropy(t, n)).tobytes() == batch[i].tobytes()


def test_scalar_and_batch_paths_reject_alike():
    # |T n| = 1 + 8.1e-9 at n = +-e_x: w2 and w4 lie just past the snap band
    t = BlochTriple(Z3, Z3, np.diag([1 + 8.1e-9, 0.5, -0.2]))
    messages = []
    for call in (lambda: conditional_entropy(t, _X_AXES[0]), lambda: conditional_entropy_batch(t, _X_AXES),
                 lambda: stationary_residual_batch(t, _X_AXES)):
        with pytest.raises(NotAStateError) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and "triple is not a state" in messages[0], messages


def _parent_branches(t, dirs):
    """The branch fields as the batch kernel once formed them: ten separate arrays."""
    tn = dirs @ t.T.T
    vp, vm = t.x + tn, t.x - tn
    sp, sm = _row_norms(vp), _row_norms(vm)
    d = dirs @ t.y
    p0, p1 = (1 + d) / 2, (1 - d) / 2
    return p0, p1, (2 * p0 + sp) / 4, (2 * p0 - sp) / 4, (2 * p1 + sm) / 4, (2 * p1 - sm) / 4, vp, vm, sp, sm


def _parent_rows(t, dirs):
    """w1 w2 w3 w4 p0 p1 and the branches, snapped by np.where."""
    p0, p1, w1, w2, w3, w4, vp, vm, sp, sm = _parent_branches(t, dirs)
    assert np.minimum(w2, w4).min(initial=0.0) >= -_W_DEFICIT_TOL / 4
    w1, w2 = np.where(w2 < 0, p0, w1), np.where(w2 < 0, 0.0, w2)
    w3, w4 = np.where(w4 < 0, p1, w3), np.where(w4 < 0, 0.0, w4)
    return (w1, w2, w3, w4, p0, p1), (vp, vm, sp, sm)


def _parent_conditional_entropy_batch(t, dirs):
    v = np.stack(_parent_rows(t, dirs)[0])
    np.clip(v[:4], 0.0, 1.0, out=v[:4])
    return _h_sum(v[:4]) - _h_sum(v[4:])


def _parent_stationary_residual_batch(t, dirs):
    (w1, w2, w3, w4, p0, p1), (vp, vm, sp, sm) = _parent_rows(t, dirs)
    valid = np.minimum.reduce([w1, w2, w3, w4, p0, p1]) > BRANCH_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log2((w1 * w2 * p1 * p1) / (w3 * w4 * p0 * p0))
        cp = np.where(sp > BRANCH_TOL, np.log2(w1 / w2) / sp, 0.0)
        cm = np.where(sm > BRANCH_TOL, np.log2(w3 / w4) / sm, 0.0)
        a = ly[:, None] * t.y + (cp[:, None] * vp - cm[:, None] * vm) @ t.T
        tang = a - (np.sum(a * dirs, axis=1))[:, None] * dirs
        resid = _row_norms(tang)
    return np.where(valid, resid, np.inf)


def test_stacked_batch_kernels_are_the_six_array_formula_bit_for_bit():
    rng = np.random.default_rng(1818)
    dirs = rng.standard_normal((300, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    # the six poles, then unit vectors with signed zero components
    special = [np.roll(np.array([0.0, 0.0, s]), k) for s in (1.0, -1.0) for k in range(3)]
    special += [[0.6, -0.0, 0.8], [-0.0, 0.0, -1.0], [-0.0, -0.6, -0.8], [0.8, 0.6, -0.0], [-0.0, -0.0, 1.0]]
    dirs = np.vstack([dirs, special])
    triples = [random_triple(rng, rank=1 + k % 4) for k in range(40)]
    triples += [BlochTriple(Z3, Z3, Z33), BlochTriple(Z3, Z3, np.diag([1.0, -1.0, 1.0])),
                BlochTriple(np.array([0.0, 0.0, 0.6]), np.array([0.0, 0.0, 0.6]), np.diag([0.0, 0.0, 0.4]))]
    # the snap path: |T n| = 1 + eps > 2 p_k = 1 along x, so w2 and w4 lie in (-_W_DEFICIT_TOL/4, 0)
    for eps in (1e-12, 4e-9, 7.9e-9):
        triples.append(BlochTriple(Z3, Z3, np.diag([1 + eps, 0.5, -0.2])))
    snapped = []
    for t in triples:
        fields = _parent_branches(t, dirs)
        snapped.append(min(fields[3].min(), fields[5].min()) < 0)
        b = branches_batch(t, dirs)
        assert b._fields == ("p0", "p1", "w1", "w2", "w3", "w4", "v_plus", "v_minus", "s_plus", "s_minus")
        assert all(new.tobytes() == old.tobytes() for new, old in zip(b, fields))
        for kernel, oracle in ((conditional_entropy_batch, _parent_conditional_entropy_batch),
                               (stationary_residual_batch, _parent_stationary_residual_batch)):
            assert kernel(t, dirs).tobytes() == oracle(t, dirs).tobytes()
    assert all(snapped[-3:])  # rounding snaps some of the rank-deficient random triples too
    # the snap works on a copy: the fields of the branches keep their raw values
    conditional_entropy_batch(t, dirs)
    assert b.w2.tobytes() == fields[3].tobytes() and fields[3].min() < 0


def _snapped_start_sets(triples, monkeypatch):
    """The start set _multistart hands to conditional_entropy_batch, one per triple."""
    seen = []

    def recording(t, dirs):
        seen.append(dirs)
        return conditional_entropy_batch(t, dirs)

    monkeypatch.setattr(optimize, "conditional_entropy_batch", recording)
    for t in triples:
        optimize.minimize_conditional_entropy(t)
    monkeypatch.undo()
    return seen


def test_unit_check_accepts_every_direction_set_of_the_search_unchanged(monkeypatch):
    rng = np.random.default_rng(1901)
    triples = [random_triple(rng, rank=1 + k % 4) for k in range(8)]
    sets = [optimize._grid(optimize.ORACLE_RESOLUTION).reshape(-1, 3)]
    sets += [optimize._lattice(math.radians(degrees))[0] for degrees in (0.5, 1, 3, 5, 10, 15, 22.5)]
    starts = _snapped_start_sets(triples, monkeypatch)
    assert all(not np.array_equal(s, optimize._lattice(optimize.DEFAULT_RESOLUTION)[0]) for s in starts)
    for t, dirs in [(t, dirs) for t in triples[:2] for dirs in sets] + list(zip(triples, starts)):
        assert measurement._unit_rows(dirs) is dirs  # checked, not copied
        assert conditional_entropy_batch(t, dirs).tobytes() == _parent_conditional_entropy_batch(t, dirs).tobytes()
    t = triples[0]
    assert stationary_residual_batch(t, sets[4]).tobytes() == _parent_stationary_residual_batch(t, sets[4]).tobytes()


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


@pytest.mark.parametrize("k", [True, False, np.True_, 0.0, 1.0, -1, 2, "0", None])
def test_outcome_index_is_an_integer_0_or_1(k):
    # a bool or a float passed "k not in (0, 1)", and post_measurement_state returned outcome=True
    t, n = random_triple(np.random.default_rng(6)), [0.0, 0.0, 1.0]
    for call in (lambda: projector_bloch(k, n), lambda: post_measurement_state(t, n, k)):
        with pytest.raises(ValidationError, match="outcome index"):
            call()
    for index in (0, 1, np.int64(1)):
        assert post_measurement_state(t, n, index).outcome == index and projector_bloch(index, n).shape == (2, 2)


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


def _stacked_direct(rho, dirs):
    """The direct route with its sandwich as the stacked lift @ rho @ lift."""
    lift = np.zeros((2 * len(dirs), 2, 2, 2, 2), dtype=complex)
    lift[:, 0, :, 0] = lift[:, 1, :, 1] = _qubit_matrix(np.concatenate((dirs, -dirs)))
    sandwich = lift.reshape(-1, 4, 4) @ rho @ lift.reshape(-1, 4, 4)
    pk = ((sandwich[:, 0, 0] + sandwich[:, 1, 1]) + (sandwich[:, 2, 2] + sandwich[:, 3, 3])).real
    live = pk > BRANCH_TOL
    terms = np.zeros(len(pk))
    rho_a = (sandwich[:, ::2, ::2] + sandwich[:, 1::2, 1::2])[live] / pk[live, None, None]
    terms[live] = pk[live] * _h_sum(np.clip(np.linalg.eigvalsh(rho_a), 0.0, 1.0).T)
    return terms[:len(dirs)] + terms[len(dirs):]


def test_direct_route_is_the_stacked_sandwich_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [(rho, _unit_rows(rng, 50)) for rho in (random_state(rank=1 + i % 4, rng=rng) for i in range(200))]
    t, dirs = _dead_branch_case(rng)
    for rho, dirs in cases + [(matrix_from_triple(t), dirs)]:
        t = triple_from_matrix(rho)  # without rho=, the route takes matrix_from_triple(t), a few ulp from rho
        for given, matrix in ((rho, rho), (None, matrix_from_triple(t))):
            assert conditional_entropy_direct(t, dirs, rho=given).tobytes() == _stacked_direct(matrix, dirs).tobytes()


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
    # the six poles, then unit vectors with signed zero components
    special = [np.roll(np.array([0.0, 0.0, s]), k) for s in (1.0, -1.0) for k in range(3)]
    special += [np.array(v) for v in ([0.6, -0.0, 0.8], [-0.0, 0.0, -1.0], [-0.0, -0.6, -0.8], [0.8, 0.6, -0.0])]
    dirs = np.vstack([dirs, special])
    batch = branches_batch(t, dirs)
    worst = 0.0
    for i, n in enumerate(dirs):
        for given in (n, tuple(n.tolist())):  # a (3,) array or a 3-tuple of floats
            for scalar, rows in zip(branches(t, given), batch):
                worst = max(worst, float(np.max(np.abs(np.asarray(scalar) - rows[i]))))
    assert worst <= 1e-15
