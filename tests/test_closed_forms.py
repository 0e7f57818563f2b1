import itertools
import math

import numpy as np
import pytest

from qdiscord import (
    ABState,
    BlochTriple,
    NotAStateError,
    StateKind,
    ValidationError,
    ab_discord,
    ab_q,
    ab_state,
    bell_diagonal_discord,
    bell_diagonal_state,
    binary_entropy,
    canonicalize,
    classify,
    kernel_class_min_entropy,
    matrix_from_triple,
    quantum_discord,
    random_unitary,
    sample_bell_diagonal,
    sample_kernel_class,
    triple_from_matrix,
    validate,
    x_subclass_discord,
)
from qdiscord.bounds import _rank_tol, _restricted_maximum
from qdiscord.states import prepare_state

Z3 = np.zeros(3)


def _canon(x, y, T):
    return canonicalize(BlochTriple(np.asarray(x, float), np.asarray(y, float),
                                    np.asarray(T, float)))


def test_classify_bell_diagonal():
    tag = classify(_canon(Z3, Z3, np.diag([0.5, 0.2, 0.1])))
    assert tag.kind is StateKind.BELL_DIAGONAL


def test_classify_x_subclass():
    tag = classify(_canon([0, 0, 0.3], Z3, np.diag([0.5, 0.2, 0.0])))
    assert tag.kind is StateKind.X_SUBCLASS


def test_classify_zero_discord_axial():
    tag = classify(_canon([0, 0.2, 0.3], Z3, np.diag([0.6, 0.0, 0.0])))
    assert tag.kind is StateKind.ZERO_DISCORD_AXIAL


def test_classify_zero_discord_uncorrelated():
    tag = classify(_canon([0.2, 0.1, 0.3], Z3, np.zeros((3, 3))))
    assert tag.kind is StateKind.ZERO_DISCORD_UNCORRELATED


def test_classify_generic(rng):
    from conftest import random_triple
    tag = classify(canonicalize(random_triple(rng)))
    assert tag.kind is StateKind.GENERIC
    # nonzero y also blocks the solvable families
    tag = classify(_canon(Z3, [0, 0, 0.2], np.diag([0.5, 0.2, 0.1])))
    assert tag.kind is StateKind.GENERIC


def test_bell_diagonal_discord_bell_state():
    out = bell_diagonal_discord(1, -1, 1)
    assert out.discord == pytest.approx(1.0, abs=1e-12)
    assert out.min_conditional_entropy == pytest.approx(0.0, abs=1e-12)
    assert out.degenerate  # all three |t_i| tie


def test_bell_diagonal_discord_maximally_mixed():
    out = bell_diagonal_discord(0, 0, 0)
    assert out.discord == pytest.approx(0.0, abs=1e-12)
    assert out.min_conditional_entropy == pytest.approx(1.0, abs=1e-12)


def test_bell_diagonal_discord_generic_point():
    # 1 - h4(0.4, 0.05, 0.35, 0.2) + h2(0.75), evaluated directly
    out = bell_diagonal_discord(0.5, 0.2, 0.1)
    assert out.discord == pytest.approx(0.071924252291932, abs=1e-12)
    assert out.optimal_axis == 0
    assert not out.degenerate


def test_bell_diagonal_discord_lu_symmetries():
    # proper-rotation symmetries: axis permutations and pairs of sign flips
    base = bell_diagonal_discord(0.5, -0.2, 0.1).discord
    for perm in itertools.permutations([0.5, -0.2, 0.1]):
        assert bell_diagonal_discord(*perm).discord == pytest.approx(base, abs=1e-12)
    for flips in ([-1, -1, 1], [-1, 1, -1], [1, -1, -1]):
        t = np.array([0.5, -0.2, 0.1]) * flips
        assert bell_diagonal_discord(*t).discord == pytest.approx(base, abs=1e-12)


def test_bell_diagonal_single_sign_flip_changes_the_state():
    # one sign flip is a reflection, not a local unitary: the spectrum and
    # the discord genuinely change, and the formula tracks the optimizer
    a = bell_diagonal_discord(0.5, 0.2, 0.1).discord
    b = bell_diagonal_discord(-0.5, 0.2, 0.1).discord
    assert abs(a - b) > 1e-3
    numeric = quantum_discord(bell_diagonal_state(-0.5, 0.2, 0.1), fast_path=False,
                              with_bounds=False).discord
    assert numeric == pytest.approx(b, abs=1e-7)


def test_kernel_class_reduces_to_bell_diagonal():
    t = np.diag([0.5, 0.2, 0.1])
    assert kernel_class_min_entropy(Z3, t) == pytest.approx(
        bell_diagonal_discord(0.5, 0.2, 0.1).min_conditional_entropy, abs=1e-12)


def test_kernel_class_zero_correlation():
    x = np.array([0.3, -0.2, 0.1])
    expected = binary_entropy((1 + np.linalg.norm(x)) / 2)
    assert kernel_class_min_entropy(x, np.zeros((3, 3))) == pytest.approx(expected, abs=1e-12)


def test_kernel_class_example_value():
    # h2((1 + sqrt(0.36 + 0.16)) / 2)
    got = kernel_class_min_entropy(np.array([0, 0, 0.4]), np.diag([0.6, 0.3, 0.0]))
    assert got == pytest.approx(0.5827831343002603, abs=1e-12)


def test_x_subclass_reduces_to_bell_diagonal():
    assert x_subclass_discord(0.5, 0.2, 0.0) == pytest.approx(
        bell_diagonal_discord(0.5, 0.2, 0.0).discord, abs=1e-12)


def test_x_subclass_example_values():
    assert x_subclass_discord(0.5, 0.2, 0.3) == pytest.approx(0.0419937107300129, abs=1e-12)
    # (0.5, 0.5, 0): mu = (0.5, 0, 0.25, 0.25)
    assert x_subclass_discord(0.5, 0.5, 0.0) == pytest.approx(0.31127812445913283, abs=1e-12)


def test_x_subclass_matches_optimizer():
    from qdiscord import matrix_from_triple
    t1, t2, x3 = 0.5, 0.2, 0.3
    triple = BlochTriple(np.array([0, 0, x3]), Z3, np.diag([t1, t2, 0.0]))
    rho = matrix_from_triple(triple)
    numeric = quantum_discord(rho, fast_path=False, with_bounds=False).discord
    assert numeric == pytest.approx(x_subclass_discord(t1, t2, x3), abs=1e-6)


@pytest.mark.parametrize("t", [(2.0, 0, 0), (0.9, 0.2, 0.1), (1, 1, 1), (math.nan, 0, 0), (0.1, 0.1, math.inf)])
def test_bell_diagonal_state_rejects_points_outside_the_tetrahedron(t):
    # (2, 0, 0) gave a matrix with eigenvalue -0.25; bell_diagonal_discord's rule now holds for both
    with pytest.raises(NotAStateError, match="tetrahedron"):
        bell_diagonal_state(*t)
    with pytest.raises(NotAStateError, match="tetrahedron"):
        bell_diagonal_discord(*t)
    assert validate(bell_diagonal_state(1, -1, 1)).ok  # the corners are states


def test_ab_state_corners():
    bell = ab_state(1.0, 0.0)
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(bell, np.outer(psi, psi), atol=1e-14)
    assert np.allclose(ab_state(0.0, 0.0), np.diag([0, 0.5, 0.5, 0]), atol=1e-14)


def test_ab_state_validates():
    assert validate(ab_state(0.5, 0.1)).ok
    t = triple_from_matrix(ab_state(0.5, 0.1))
    assert np.allclose(t.x, [0, 0, -0.1], atol=1e-13)
    assert np.allclose(t.y, [0, 0, 0.1], atol=1e-13)
    assert np.allclose(t.T, np.diag([0.5, -0.5, 0.0]), atol=1e-13)
    with pytest.raises(ValidationError):
        ab_state(0.6, 0.5)
    with pytest.raises(ValidationError):
        ab_state(-0.1, 0.0)


def test_ab_parameters_are_kept_and_computed_on_as_floats():
    s = ABState(np.array(0.1), np.float32(0.25))
    assert type(s.a) is float and type(s.b) is float
    assert (s.a, s.b) == (0.1, float(np.float32(0.25)))
    discord, q = ab_discord(np.array(0.3), 0.2)
    assert type(discord) is float and type(q) is float
    assert (discord, q) == ab_discord(0.3, 0.2)
    # a float32 parameter is widened first, not computed on in float32
    assert ab_state(np.float32(0.25), 0.1).tobytes() == ab_state(float(np.float32(0.25)), 0.1).tobytes()
    assert ab_q(np.float32(0.25), 0.1) == ab_q(float(np.float32(0.25)), 0.1)


def test_ab_q_against_term_by_term_formula():
    # literal four-term expression, valid at interior points
    def q_literal(a, b):
        s = math.hypot(a, b)
        return ((a / 2) * math.log2(4 * a**2 / ((1 - a) ** 2 - b**2))
                - (b / 2) * math.log2((1 + b) * (1 - a - b) / ((1 - b) * (1 - a + b)))
                - (s / 2) * math.log2((1 + s) / (1 - s))
                + 0.5 * math.log2(4 * ((1 - a) ** 2 - b**2) / ((1 - b**2) * (1 - a**2 - b**2))))

    for a, b in [(0.5, 0.3), (0.5, 0.1), (0.9, 0.05), (0.3, -0.2), (0.2, 0.6)]:
        assert ab_q(a, b) == pytest.approx(q_literal(a, b), abs=1e-12)


def test_ab_q_matches_bell_diagonal_at_b_zero():
    # at b = 0 the state is Bell-diagonal with T = diag(a, -a, 2a - 1)
    for a in (0.2, 0.5, 0.7, 0.9):
        exact = bell_diagonal_discord(a, -a, 2 * a - 1).discord
        discord, q = ab_discord(a, 0.0)
        assert discord == pytest.approx(exact, abs=1e-12)


def test_ab_q_even_in_b():
    for a, b in [(0.5, 0.3), (0.2, 0.7), (0.9, 0.05)]:
        assert ab_q(a, b) == pytest.approx(ab_q(a, -b), abs=1e-12)


def test_ab_q_finite_on_boundary():
    assert math.isfinite(ab_q(0.5, 0.5))
    assert math.isfinite(ab_q(0.0, 1.0))
    assert math.isfinite(ab_q(1.0, 0.0))
    # a = 0 collapses to a classical state: q = h2((1+b)/2), discord 0
    b = 0.4
    assert ab_q(0.0, b) == pytest.approx(binary_entropy((1 + b) / 2), abs=1e-12)
    assert ab_discord(0.0, b)[0] == 0.0


def test_ab_discord_vs_optimizer():
    for a, b in [(0.5, 0.3), (0.9, 0.05), (0.2, 0.1)]:
        expected, q = ab_discord(a, b)
        numeric = quantum_discord(ab_state(a, b), fast_path=False, with_bounds=False).discord
        assert numeric == pytest.approx(expected, abs=1e-6)


def test_ab_discord_is_not_exact_near_the_crossover():
    # q < a here, yet an off-axis measurement (theta ~ 43 degrees) beats both
    # the z axis (a) and the equator (q), so the discord lies below min{a, q}
    a, b = 0.19170, 0.70508
    expected, q = ab_discord(a, b)
    report = quantum_discord(ab_state(a, b), with_bounds=False)
    assert report.discord == pytest.approx(0.1915942, abs=1e-7)
    assert report.discord < expected - 4.5e-5
    assert math.degrees(report.optimal_direction.theta) == pytest.approx(43.0, abs=0.5)


def test_ab_discord_saturated_region():
    # q <= a here, so the discord equals q and the bound is tight
    discord, q = ab_discord(0.9, 0.05)
    assert discord == q
    report = quantum_discord(ab_state(0.9, 0.05))
    assert report.bounds.saturated
    assert abs(report.bounds.discord_ub - q) < 1e-9


def test_zero_discord_families_have_zero_discord(rng):
    from qdiscord import matrix_from_triple
    for _ in range(10):
        t1 = rng.uniform(-0.7, 0.7)
        x2, x3 = rng.uniform(-0.4, 0.4, size=2)
        triple = BlochTriple(np.array([0, x2, x3]), Z3, np.diag([t1, 0.0, 0.0]))
        report = quantum_discord(matrix_from_triple(triple), fast_path=False,
                                 with_bounds=False)
        assert report.discord <= 1e-7
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=3)
        triple = BlochTriple(x, Z3, np.zeros((3, 3)))
        report = quantum_discord(matrix_from_triple(triple), fast_path=False,
                                 with_bounds=False)
        assert report.discord <= 1e-7


def test_fast_path_agrees_with_grid(rng):
    from qdiscord import matrix_from_triple
    for _ in range(15):
        t1, t2, t3 = sample_bell_diagonal(rng)
        rho = bell_diagonal_state(t1, t2, t3)
        fast = quantum_discord(rho, with_bounds=False)
        slow = quantum_discord(rho, fast_path=False, with_bounds=False)
        assert fast.method == "closed-form"
        assert slow.method == "grid+refine"
        assert fast.discord == pytest.approx(slow.discord, abs=1e-6)
    for _ in range(15):
        rho = matrix_from_triple(sample_kernel_class(rng))
        fast = quantum_discord(rho, with_bounds=False)
        slow = quantum_discord(rho, fast_path=False, with_bounds=False)
        assert fast.method == "closed-form"
        assert fast.discord == pytest.approx(slow.discord, abs=1e-6)


def test_rank_zero_reports_are_the_bound(rng):
    # the closed form took |d0| from the canonical diagonal, x.x from numpy and its own tie rule
    # |d1| >= |d0| - 1e-12: its min S left the bound's in the last bits on 768 of 2,000 such states,
    # and on the near-tie below it reported degenerate=False 31.8 degrees from e0
    unitaries = np.random.default_rng(5)
    u = np.kron(random_unitary(2, unitaries), random_unitary(2, unitaries))
    states = [u @ bell_diagonal_state(0.3, 0.3 - 1.3e-12, 0.1) @ u.conj().T]
    for k in range(500):
        rho = bell_diagonal_state(*sample_bell_diagonal(rng)) if k % 2 else matrix_from_triple(sample_kernel_class(rng))
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        states.append(u @ rho @ u.conj().T)
    for rho in states:
        report = quantum_discord(rho)
        assert report.method == "closed-form" and report.bounds.perp_dim == 3
        assert report.min_conditional_entropy == report.bounds.cond_entropy_ub
        assert report.optimal_direction is report.bounds.e0  # one record of e0
        assert report.diagnostics.degenerate == _restricted_maximum(prepare_state(rho))[3]  # the bound's tie flag
    assert quantum_discord(states[0]).diagnostics.degenerate


#: an interior member of each solvable family, in the canonical frame, and a Bell-diagonal
#: one with |T|_F > 1, where the rank tolerance 1e-10 |T|_F exceeds classify's 1e-10
_CLASS_MEMBERS = {
    "bell-diagonal": (StateKind.BELL_DIAGONAL, Z3, [0.6, -0.3, 0.2]),
    "x-subclass": (StateKind.X_SUBCLASS, [0.0, 0.0, 0.3], [0.5, 0.3, 0.0]),
    "zero-discord-axial": (StateKind.ZERO_DISCORD_AXIAL, [0.0, 0.3, 0.2], [0.4, 0.0, 0.0]),
    "zero-discord-uncorrelated": (StateKind.ZERO_DISCORD_UNCORRELATED, [0.2, -0.1, 0.3], Z3),
    "kernel-class": (StateKind.KERNEL_CLASS, [0.0, 0.0, 0.3], [0.5, 0.3, 2e-10]),  # t3 just past X_SUBCLASS
    "bell-diagonal-large-T": (StateKind.BELL_DIAGONAL, Z3, [0.8, -0.5, 0.4]),
}


@pytest.mark.parametrize("member", list(_CLASS_MEMBERS))
def test_fast_path_is_continuous_across_the_class_tolerance(member):
    # the class of the fast path is rank 0 under the bounds' rank rule; the sweep straddles its tolerance
    kind, x, d = _CLASS_MEMBERS[member]
    x, d = np.asarray(x, float), np.asarray(d, float)
    assert classify(_canon(x, Z3, np.diag(d))).kind is kind
    tol = _rank_tol(BlochTriple(x, Z3, np.diag(d)))  # the perturbations below keep |x|, |y| < 1
    k = int(np.argmax(np.abs(d)))
    distances = np.logspace(-12, -6, 7)
    sides = 0
    for size in np.concatenate((tol - distances[distances < tol], tol + distances)):
        # |y| = size breaks y = 0; an x step along the largest t_k breaks T^t x = 0 by size
        perturbed = [(x, np.full(3, size / math.sqrt(3)))]
        if d[k]:
            perturbed.append((x + size / abs(d[k]) * np.eye(3)[k], Z3))
        for px, py in perturbed:
            rho = matrix_from_triple(BlochTriple(px, py, np.diag(d)))
            fast = quantum_discord(rho)
            slow = quantum_discord(rho, fast_path=False, with_bounds=False)
            assert slow.method == "grid+refine"
            assert (fast.method == "closed-form") == (fast.bounds.perp_dim == 3)  # the route is the rank rule
            assert fast.discord == pytest.approx(slow.discord, abs=1e-6), (size, px, py)
            sides |= 1 << (fast.method == "closed-form")
    assert sides == 3  # both routes were compared


def test_samplers_produce_valid_states(rng):
    from qdiscord import matrix_from_triple
    for _ in range(100):
        assert validate(bell_diagonal_state(*sample_bell_diagonal(rng))).ok
        assert validate(matrix_from_triple(sample_kernel_class(rng))).ok
