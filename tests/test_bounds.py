import math
import weakref

import numpy as np
import pytest

from conftest import random_triple
from qdiscord import (
    BlochTriple,
    NotAStateError,
    ValidationError,
    ab_discord,
    ab_state,
    bell_diagonal_state,
    binary_entropy,
    bound_comparison_scan,
    matrix_from_triple,
    perp_subspace,
    quantum_discord,
    random_state,
    random_unitary,
    rows_to_csv,
    sample_bell_diagonal,
    sample_kernel_class,
    stationary_vector,
    t0_squared,
    theorem1_bounds,
    triple_from_matrix,
)
from qdiscord import optimize
from qdiscord.bounds import SATURATION_TOL
from qdiscord.optimize import SCAN_CHUNK
from qdiscord.states import prepare_state

Z3 = np.zeros(3)


def test_perp_subspace_full_space_for_kernel_class():
    t = BlochTriple(np.array([0, 0, 0.4]), Z3, np.diag([0.6, 0.3, 0.0]))
    basis = perp_subspace(t)
    assert basis.shape == (3, 3)


def test_perp_subspace_ab_family_is_xy_plane():
    t = triple_from_matrix(ab_state(0.5, 0.3))
    basis = perp_subspace(t)
    assert basis.shape == (3, 2)
    assert np.max(np.abs(basis[2, :])) < 1e-12  # orthogonal to z


def test_perp_subspace_generic_is_line(rng):
    t = random_triple(rng)
    basis = perp_subspace(t)
    assert basis.shape == (3, 1)
    e0 = basis[:, 0]
    assert abs(e0 @ (t.T.T @ t.x)) < 1e-10
    assert abs(e0 @ t.y) < 1e-10


def test_t0_squared_bell_diagonal():
    t = BlochTriple(Z3, Z3, np.diag([0.9, 0.2, 0.1]))
    t0sq, e0 = t0_squared(t)
    assert t0sq == pytest.approx(0.81, abs=1e-12)
    assert np.allclose(np.abs(e0.n), [1, 0, 0], atol=1e-10)


def test_t0_squared_ab_family():
    t = triple_from_matrix(ab_state(0.5, 0.3))
    t0sq, e0 = t0_squared(t)
    assert t0sq == pytest.approx(0.25, abs=1e-12)
    assert abs(e0.n[2]) < 1e-10


def test_t0_squared_zero_correlation():
    t = BlochTriple(np.array([0.2, 0, 0]), Z3, np.zeros((3, 3)))
    t0sq, _ = t0_squared(t)
    assert t0sq == 0.0


def test_e0_on_a_tied_top_eigenvalue_ignores_the_last_bit_of_t():
    # every pure state ties the top eigenvalue of the projected form
    rng = np.random.default_rng(2718)
    for _ in range(20):
        t = random_triple(rng, rank=1)
        e0 = t0_squared(t)[1].n
        for i in range(3):
            for j in range(3):
                for toward in (-np.inf, np.inf):
                    T = t.T.copy()
                    T[i, j] = np.nextafter(T[i, j], toward)
                    assert np.abs(t0_squared(BlochTriple(t.x, t.y, T))[1].n - e0).max() <= 1e-12


def test_theorem_bounds_bell_diagonal_saturated(rng):
    for _ in range(10):
        t1, t2, t3 = sample_bell_diagonal(rng)
        report = quantum_discord(bell_diagonal_state(t1, t2, t3))
        b = report.bounds
        assert b.perp_dim == 3
        assert abs(b.discord_ub - report.discord) <= 1e-6
        assert b.saturated


def test_theorem_bounds_ab_discord_ub_equals_q():
    for a, b in [(0.5, 0.3), (0.2, 0.4), (0.9, 0.05), (0.3, -0.5)]:
        _, q = ab_discord(a, b)
        bounds = theorem1_bounds(ab_state(a, b), discord=0.0)
        assert bounds.discord_ub == pytest.approx(q, abs=1e-10)
        assert bounds.t0_squared == pytest.approx(a * a, abs=1e-10)
        assert bounds.cond_entropy_ub == pytest.approx(
            binary_entropy((1 + math.hypot(a, b)) / 2), abs=1e-10)


def test_theorem_bounds_tight_iff_q_below_a():
    tight = quantum_discord(ab_state(0.9, 0.05)).bounds   # q < a
    loose = quantum_discord(ab_state(0.2, 0.1)).bounds    # q > a
    assert tight.saturated
    assert not loose.saturated


def test_bound_validity_random_states(rng):
    for _ in range(100):
        report = quantum_discord(random_state(rng=rng))
        b = report.bounds
        assert report.discord <= b.discord_ub + 1e-6
        assert report.classical_correlation >= b.classical_lb - 1e-6


def test_bound_achieved_when_perp_dim_full(rng):
    for _ in range(20):
        rho = matrix_from_triple(sample_kernel_class(rng))
        report = quantum_discord(rho, fast_path=False)
        b = report.bounds
        assert b.perp_dim == 3
        assert abs(b.discord_ub - report.discord) <= 1e-6
        assert abs(b.cond_entropy_ub - report.min_conditional_entropy) <= 1e-6


def test_bound_point_restricted_stationarity(rng):
    # A(e0) has no component inside the restricted subspace beyond e0 itself
    for _ in range(30):
        t = random_triple(rng)
        basis = perp_subspace(t)
        _, e0 = t0_squared(t)
        a = stationary_vector(t, e0).a_vector
        if a is None:
            continue
        projected = basis @ (basis.T @ a)
        residual = np.linalg.norm(projected - (e0.n @ a) * e0.n)
        assert residual <= 1e-8


def test_bound_point_full_stationarity_on_solvable_families(rng):
    # on the benchmark family and the Bell-diagonal class, the bound point
    # also satisfies the unrestricted stationarity conditions
    for a, b in [(0.5, 0.3), (0.7, 0.2), (0.3, -0.4)]:
        t = triple_from_matrix(ab_state(a, b))
        _, e0 = t0_squared(t)
        av = stationary_vector(t, e0).a_vector
        assert abs(t.y @ av) <= 1e-8
        assert abs((t.T.T @ t.x) @ av) <= 1e-8
    for _ in range(5):
        t1, t2, t3 = sample_bell_diagonal(rng)
        t = triple_from_matrix(bell_diagonal_state(t1, t2, t3))
        _, e0 = t0_squared(t)
        av = stationary_vector(t, e0).a_vector
        if av is None:
            continue
        assert abs(t.y @ av) <= 1e-8
        assert abs((t.T.T @ t.x) @ av) <= 1e-8


def test_restricting_subspace_never_raises_t0(rng):
    # the plane maximum dominates every single axis inside the plane
    t = triple_from_matrix(ab_state(0.6, 0.2))
    basis = perp_subspace(t)
    t0sq, _ = t0_squared(t)
    tt = t.T.T @ t.T
    for angle in np.linspace(0, math.pi, 13):
        e = basis @ np.array([math.cos(angle), math.sin(angle)])
        assert e @ tt @ e <= t0sq + 1e-12


def test_scan_fig1_panel():
    states = [(a, 0.5, ab_state(a, 0.5)) for a in np.arange(0.0, 0.5001, 0.01)]
    rows = bound_comparison_scan(states)
    assert len(rows) == 51
    for row in rows:
        assert row.discord <= row.discord_ub + 1e-6


def test_scan_fig2_saturated_panel():
    states = [(0.9, b, ab_state(0.9, b)) for b in np.arange(-0.1, 0.1001, 0.01)]
    rows = bound_comparison_scan(states)
    for row in rows:
        assert row.discord_ub - row.discord <= 1e-6
        assert row.saturated


def test_scan_bell_diagonal_ray():
    ray = np.array([1.0, -1.0, 1.0])
    rows = bound_comparison_scan(
        (s, 0.0, bell_diagonal_state(*(s * ray))) for s in np.arange(0.0, 1.0001, 0.05))
    assert all(row.saturated for row in rows)


@pytest.mark.parametrize("states, row", [("abc", "row 0"), ([(0.1, 0.2)], "row 0"), ({"x": 1}, "row 0"),
                                         (None, "iterable"), ([(0.1, 0.2, np.eye(4) / 4, 0.0)], "row 0"),
                                         ([(0.1, 0.2, np.eye(4) / 4), 5], "row 1")])
def test_scan_rows_that_are_not_three_values_are_named(states, row):
    with pytest.raises(ValidationError, match=row):
        bound_comparison_scan(states)


def test_scan_raises_the_first_error_a_row_by_row_scan_meets():
    bad, good = np.diag([1.0, 0, 0, -0.5]), (0.1, 0.2, np.eye(4) / 4)
    with pytest.raises(NotAStateError, match="not a valid two-qubit state"):  # row 0's matrix before row 1's shape
        bound_comparison_scan([(0.1, 0.2, bad), (0.1,)])
    with pytest.raises(ValidationError, match="param1"):  # row 0's parameter before row 1's matrix
        bound_comparison_scan([(1j, 0.2, np.eye(4) / 4), (0.1, 0.2, bad)])
    with pytest.raises(ValidationError, match=f"row {SCAN_CHUNK + 1} "):  # after more rows than one stacked pass
        bound_comparison_scan([good] * (SCAN_CHUNK + 1) + [(0.1,), (0.1, 0.2, bad)])
    with pytest.raises(NotAStateError):  # a row's matrix before its own parameter, also alone in the last pass
        bound_comparison_scan([good] * SCAN_CHUNK + [(1j, 0.2, bad)])


def test_a_row_iterator_that_raises_part_way_raises_before_any_row_is_checked():
    def rows():
        yield 0.1, 0.2, np.diag([1.0, 0, 0, -0.5])  # not a state, in what is more than one stacked pass
        yield from [(0.1, 0.2, np.eye(4) / 4)] * SCAN_CHUNK
        raise RuntimeError("the row source failed")

    with pytest.raises(RuntimeError, match="the row source failed"):
        bound_comparison_scan(rows())


def test_a_scan_drops_each_report_once_its_row_is_made(monkeypatch):
    # flat memory: each report is dropped once its row is made, so no more than one pass of them is ever alive
    alive, most, reports = set(), [0], optimize._reports

    def spy(*args):
        made = reports(*args)
        for report in made:
            alive.add(id(report))
            weakref.finalize(report, alive.discard, id(report))
        most[0] = max(most[0], len(alive))
        return made

    monkeypatch.setattr(optimize, "_reports", spy)
    rows = bound_comparison_scan([(0.1, 0.2, np.eye(4) / 4)] * (3 * SCAN_CHUNK + 1))
    assert len(rows) == 3 * SCAN_CHUNK + 1 and most[0] <= SCAN_CHUNK + 1, most


@pytest.mark.parametrize("settings", [{"resolution": math.nan}, {"tolerance": 5.0}])
def test_scan_checks_its_settings_before_any_row(settings):
    with pytest.raises(ValidationError, match=next(iter(settings))):
        bound_comparison_scan([], **settings)


def test_rows_to_csv_schema():
    rows = bound_comparison_scan([(0.5, 0.1, ab_state(0.5, 0.1))])
    csv = rows_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "param1,param2,discord,discord_ub,xi_bound,saturated"
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert fields[0] == "0.5" and fields[1] == "0.1"
    assert fields[5] in ("true", "false")
    # floats are capped at 9 significant digits
    assert all(len(f.replace("-", "").replace(".", "").lstrip("0")) <= 10 for f in fields[2:5])


def test_stronger_than_marginal_bound_where_applicable():
    # wherever S(AB) > cond_entropy_ub the discord bound beats S(B)
    for a in np.arange(0.05, 0.951, 0.05):
        b = 0.3 * (1 - a)
        report = quantum_discord(ab_state(a, b))
        bnd = report.bounds
        from qdiscord import von_neumann_entropy
        s_ab = von_neumann_entropy(ab_state(a, b))
        if s_ab - bnd.cond_entropy_ub > 0:
            assert bnd.discord_ub < bnd.xi_bound


def test_bounds_of_a_matrix_match_the_pipeline(rng):
    worst = 0.0
    for _ in range(200):
        rho = random_state(rng=rng)
        report = quantum_discord(rho)
        alone = theorem1_bounds(rho, discord=report.discord)
        for field in ("t0_squared", "cond_entropy_ub", "discord_ub", "classical_lb", "xi_bound"):
            worst = max(worst, abs(getattr(alone, field) - getattr(report.bounds, field)))
        worst = max(worst, float(np.max(np.abs(alone.e0.n - report.bounds.e0.n))))
        assert (alone.perp_dim, alone.saturated) == (report.bounds.perp_dim, report.bounds.saturated)
    assert worst <= 1e-12


def _oracle_bounds(state, discord):
    """(perp_dim, saturated, t0^2, e0, cond_entropy_ub, discord_ub, classical_lb) through perp_subspace and t0_squared."""
    t = state.triple
    t0sq, e0 = t0_squared(t)
    cond_ub = binary_entropy((1 + math.sqrt(min(float(t.x @ t.x) + t0sq, 1.0))) / 2)
    discord_ub = state.s_b - state.s_ab + cond_ub
    return (perp_subspace(t).shape[1], abs(discord_ub - discord) <= SATURATION_TOL, t0sq, e0,
            cond_ub, discord_ub, state.s_a - cond_ub)


def _oracle_states(rng):
    """1,040 states over the three ranks of [T^t x, y], half of them in a random local frame."""
    def local(rho):
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        return u @ rho @ u.conj().T

    def small():
        return 10 ** rng.uniform(-12, -8)  # across the rank tolerance 1e-10

    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    states = []
    for k in range(120):  # Bell-diagonal with two or three tied |t_i|
        s = rng.uniform(0, 0.5) if k % 3 else rng.uniform(0, 1 / 3)
        mags = [s, s, rng.uniform(0, 1 - 2 * s)] if k % 3 else [s, s, s]
        states.append(bell_diagonal_state(*rng.permutation(mags * rng.choice([-1.0, 1.0], 3))))
    states += [matrix_from_triple(sample_kernel_class(rng)) for _ in range(120)]
    states += [ab_state(a, b) for a in np.linspace(0, 1, 21)
               for b in np.linspace(a - 1, 1 - a, 11)][:200]
    states += [random_state(rank=1 + k % 4, rng=rng) for k in range(400)]
    for k in range(150):  # y of 1e-12 to 1e-8, T^t x zero or of order 1
        t1, t2 = rng.uniform(-0.3, 0.3, 2)
        x, T = np.array([0.0, 0.0, rng.uniform(-0.3, 0.3)]), np.diag([t1, t2, 0.0])
        if k % 2:
            T[2, 2] = rng.uniform(-0.3, 0.3)
            x += rng.uniform(-0.05, 0.05, 3)
        states.append(matrix_from_triple(BlochTriple(x, small() * unit(), T)))
    states = [local(rho) if k % 2 else rho for k, rho in enumerate(states)]
    # T^t x of 1e-12 to 1e-8, y = 0, in the frame where T^t x has no cancellation: in any
    # other its direction carries rounding of eps |T| |x| / |T^t x|, the oracle's as much as the floats'
    for _ in range(50):
        t1, t2 = rng.uniform(-0.3, 0.3, 2)
        x = np.array([0.0, 0.0, rng.uniform(-0.3, 0.3)]) + small() * unit()
        states.append(matrix_from_triple(BlochTriple(x, np.zeros(3), np.diag([t1, t2, 0.0]))))
    return states


def test_float_bounds_match_the_lapack_oracle():
    rng = np.random.default_rng(1040)
    ranks = {1: 0, 2: 0, 3: 0}
    for rho in _oracle_states(rng):
        state = prepare_state(rho)
        discord = quantum_discord(state, with_bounds=False).discord
        b = theorem1_bounds(state, discord=discord)
        perp_dim, saturated, t0sq, e0, cond_ub, discord_ub, classical_lb = _oracle_bounds(state, discord)
        assert (b.perp_dim, b.saturated) == (perp_dim, saturated)
        for got, want in ((b.t0_squared, t0sq), (b.cond_entropy_ub, cond_ub),
                          (b.discord_ub, discord_ub), (b.classical_lb, classical_lb)):
            assert abs(got - want) <= 1e-14
        assert abs(b.e0.n @ e0.n) >= 1 - 1e-12  # the same measurement
        ranks[perp_dim] += 1
    assert min(ranks.values()) >= 150, ranks


def test_both_routes_round_a_cancelling_t_x_alike():
    # y = 0 and T^t x of 1e-12 to 1e-8 in a random local frame, where T^t x is the residue
    # of a cancellation between entries of order |T| |x|: its direction follows the
    # rounding of that one product, which both routes read, so they take the same subspace
    rng = np.random.default_rng(716)
    ranks = {2: 0, 3: 0}
    for _ in range(60):
        t1, t2 = rng.uniform(-0.3, 0.3, 2)
        v = rng.standard_normal(3)
        x = np.array([0.0, 0.0, rng.uniform(-0.3, 0.3)]) + 10 ** rng.uniform(-12, -8) * v / np.linalg.norm(v)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        state = prepare_state(u @ matrix_from_triple(BlochTriple(x, Z3, np.diag([t1, t2, 0.0]))) @ u.conj().T)
        discord = quantum_discord(state, with_bounds=False).discord
        b = theorem1_bounds(state, discord=discord)
        perp_dim, _, t0sq, e0, cond_ub, discord_ub, classical_lb = _oracle_bounds(state, discord)
        assert b.perp_dim == perp_dim
        for got, want in ((b.t0_squared, t0sq), (b.cond_entropy_ub, cond_ub),
                          (b.discord_ub, discord_ub), (b.classical_lb, classical_lb)):
            assert abs(got - want) <= 1e-14
        assert abs(b.e0.n @ e0.n) >= 1 - 1e-12
        ranks[perp_dim] += 1
    assert min(ranks.values()) >= 10, ranks


def test_bounds_without_a_discord_match_the_pipeline(rng):
    # theorem1_bounds computes the discord itself when none is passed
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    states = [random_state(rank=1 + k % 4, rng=rng) for k in range(8)]
    states += [u @ bell_diagonal_state(*sample_bell_diagonal(rng)) @ u.conj().T,
               u @ matrix_from_triple(sample_kernel_class(rng)) @ u.conj().T, ab_state(0.3, 0.2)]
    for rho in states:
        alone, piped = theorem1_bounds(rho), quantum_discord(rho).bounds
        for field in vars(piped):
            got, want = getattr(alone, field), getattr(piped, field)
            if field == "e0":
                assert np.array_equal(got.n, want.n)
            else:
                assert got == want, field
