import math
import time

import numpy as np
import pytest

from conftest import angle_between_axes, random_direction, random_rotation, random_triple
from qdiscord import (
    BlochTriple,
    MeasurementDirection,
    ab_discord,
    ab_q,
    ab_state,
    apply_local_rotations,
    bell_diagonal_state,
    binary_entropy,
    bloch_rotation,
    classical_correlation,
    conditional_entropy,
    direction_from_angles,
    grid_minimize,
    matrix_from_triple,
    minimize_conditional_entropy,
    mutual_information,
    quantum_discord,
    random_state,
    random_unitary,
    refine_minimum,
    sample_bell_diagonal,
    sample_kernel_class,
    stationary_scan,
    stationary_vector,
    triple_from_matrix,
    von_neumann_entropy,
)
from qdiscord import measurement, optimize
from qdiscord.states import reduced_states

Z3 = np.zeros(3)

# landscape-level fixture: T outside the state tetrahedron still defines a
# perfectly smooth entropy landscape over directions
LANDSCAPE = BlochTriple(Z3, Z3, np.diag([0.9, 0.2, 0.1]))


def test_grid_minimize_finds_dominant_axis():
    d, value = grid_minimize(LANDSCAPE)
    assert angle_between_axes(d.n, np.array([1.0, 0, 0])) <= math.pi / 180 + 1e-12
    assert value == pytest.approx(binary_entropy(0.95), abs=1e-12)


def test_grid_minimize_flat_landscape():
    t = BlochTriple(np.array([0.3, 0.1, -0.2]), Z3, np.zeros((3, 3)))
    _, value = grid_minimize(t, resolution=math.pi / 12)
    assert value == pytest.approx(binary_entropy((1 + np.linalg.norm(t.x)) / 2), abs=1e-12)


def test_grid_minimize_resolution_validation():
    with pytest.raises(Exception):
        grid_minimize(LANDSCAPE, resolution=1.0)  # > pi/8


def test_grid_discord_close_to_ab_formula():
    a, b = 0.5, 0.3
    rho = ab_state(a, b)
    t = triple_from_matrix(rho)
    _, min_s = grid_minimize(t)
    rho_a, _ = reduced_states(rho)
    discord_grid = mutual_information(rho) - (von_neumann_entropy(rho_a) - min_s)
    assert discord_grid == pytest.approx(ab_discord(a, b)[0], abs=1e-3)


def test_stationary_vector_on_eigenvector_axis():
    diag = stationary_vector(LANDSCAPE, MeasurementDirection(np.array([1.0, 0, 0])))
    assert not diag.degenerate
    assert diag.residual <= 1e-10
    assert abs(diag.grad_theta) <= 1e-10 and abs(diag.grad_phi) <= 1e-10


def test_stationary_vector_maximally_mixed_is_zero():
    t = BlochTriple(Z3, Z3, np.zeros((3, 3)))
    diag = stationary_vector(t, direction_from_angles(0.7, 1.1))
    assert not diag.degenerate
    assert np.allclose(diag.a_vector, 0.0)
    assert diag.residual == 0.0


def test_stationary_vector_degenerate_flag():
    # Bell state measured along z: two joint probabilities vanish
    t = BlochTriple(Z3, Z3, np.diag([1.0, -1.0, 1.0]))
    diag = stationary_vector(t, MeasurementDirection(np.array([0.0, 0, 1])))
    assert diag.degenerate
    assert diag.a_vector is None and diag.residual is None


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    checked = 0
    while checked < 25:
        t = random_triple(rng)
        d = random_direction(rng)
        diag = stationary_vector(t, d)
        if diag.degenerate or math.hypot(diag.grad_theta, diag.grad_phi) < 1e-3:
            continue
        th, ph = d.theta, d.phi
        fd_th = (conditional_entropy(t, direction_from_angles(th + h, ph))
                 - conditional_entropy(t, direction_from_angles(th - h, ph))) / (2 * h)
        fd_ph = (conditional_entropy(t, direction_from_angles(th, ph + h))
                 - conditional_entropy(t, direction_from_angles(th, ph - h))) / (2 * h)
        assert diag.grad_theta == pytest.approx(fd_th, rel=1e-6, abs=1e-9)
        assert diag.grad_phi == pytest.approx(fd_ph, rel=1e-6, abs=1e-9)
        checked += 1


def test_lagrange_scalar_consistent_with_a_vector(rng):
    for _ in range(50):
        t = random_triple(rng)
        d = random_direction(rng)
        diag = stationary_vector(t, d)
        if diag.degenerate:
            continue
        assert diag.a_scalar == pytest.approx(float(d.n @ diag.a_vector), abs=1e-9)


def test_refine_converges_to_axis():
    start = direction_from_angles(math.pi / 2 - 0.05, 0.08)
    d, value, diag = refine_minimum(LANDSCAPE, start)
    assert value == pytest.approx(binary_entropy(0.95), abs=1e-10)
    assert angle_between_axes(d.n, np.array([1.0, 0, 0])) < 1e-5
    assert diag.residual <= 1e-9


def test_refine_fixed_point():
    exact = MeasurementDirection(np.array([1.0, 0, 0]))
    d, value, diag = refine_minimum(LANDSCAPE, exact)
    assert np.array_equal(d.n, exact.n)
    assert value == conditional_entropy(LANDSCAPE, exact)


def test_refine_ab_state_matches_q():
    a, b = 0.5, 0.3
    t = triple_from_matrix(ab_state(a, b))
    start, _ = grid_minimize(t)
    _, min_s, _ = refine_minimum(t, start)
    # min S = q - S(B) + S(AB) in the bound-saturated region
    _, q = ab_discord(a, b)
    s_b = binary_entropy((1 + b) / 2)
    s_ab = von_neumann_entropy(ab_state(a, b))
    assert min_s == pytest.approx(q - s_b + s_ab, abs=1e-8)


def test_refine_never_exceeds_grid_value(rng):
    for _ in range(50):
        t = random_triple(rng)
        start, grid_value = grid_minimize(t)
        _, refined, _ = refine_minimum(t, start)
        assert refined <= grid_value + 1e-12


def test_refine_reaches_requested_residual(rng):
    for _ in range(30):
        t = random_triple(rng)
        start, _ = grid_minimize(t)
        _, _, diag = refine_minimum(t, start)
        assert diag.degenerate or diag.residual <= 1e-9


def _worst_oracle_gap(triples) -> float:
    """Largest |multi-start minimum - refined 1-degree exhaustive minimum|."""
    worst = 0.0
    for t in triples:
        _, coarse, _ = minimize_conditional_entropy(t)
        _, exhaustive, _ = refine_minimum(t, grid_minimize(t, math.pi / 180)[0])
        worst = max(worst, abs(coarse - exhaustive))
    return worst


def test_multistart_matches_oracle_on_random_states():
    rng = np.random.default_rng(3141)
    triples = (random_triple(rng, rank=1 + k % 4) for k in range(1000))
    assert _worst_oracle_gap(triples) <= 1e-12


def _crossover_a(b: float) -> float:
    """The a at which the ab family's branches cross, a = q(a, b), by bisection."""
    lo, hi = 1e-4, 1 - abs(b) - 1e-6  # a < q at lo, a > q at hi
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid < ab_q(mid, b) else (lo, mid)
    return lo


def test_multistart_matches_oracle_along_ab_crossover():
    offsets = np.concatenate([[0.0], np.logspace(-5, -2, 5), -np.logspace(-5, -2, 5)])
    triples = [triple_from_matrix(ab_state(a, b))
               for b in np.linspace(-0.95, 0.95, 25)
               for a in _crossover_a(b) + offsets if 0 < a < 1 - abs(b)]
    assert len(triples) >= 250
    assert _worst_oracle_gap(triples) <= 1e-12


def test_multistart_matches_oracle_just_off_closed_form_classes():
    rng = np.random.default_rng(2718)
    triples = []
    for k in range(200):
        if k % 2:
            base = bell_diagonal_state(*sample_bell_diagonal(rng))
        else:
            base = matrix_from_triple(sample_kernel_class(rng))
        eps = 10.0 ** rng.uniform(-8, -3)
        triples.append(triple_from_matrix((1 - eps) * base + eps * random_state(rng=rng)))
    assert _worst_oracle_gap(triples) <= 1e-12


def test_multistart_matches_oracle_on_x_states_near_axis_crossover():
    # where the z axis and the x/y axes nearly tie, X states can have an
    # off-axis optimum (Huang, PRA 88, 014302 (2013))
    rng = np.random.default_rng(12)
    triples, off_axis = [], 0
    while len(triples) < 100:
        p = rng.dirichlet(np.ones(4) * rng.uniform(0.3, 3))
        rho = np.diag(p).astype(complex)
        rho[0, 3] = rho[3, 0] = math.sqrt(p[0] * p[3]) * rng.uniform(0, 1)
        rho[1, 2] = rho[2, 1] = math.sqrt(p[1] * p[2]) * rng.uniform(0, 1)
        t = triple_from_matrix(rho)
        s_z = conditional_entropy(t, direction_from_angles(0.0, 0.0))
        s_xy = min(conditional_entropy(t, direction_from_angles(math.pi / 2, phi))
                   for phi in (0.0, math.pi / 2))
        if abs(s_z - s_xy) <= 2e-3:
            triples.append(t)
            theta = minimize_conditional_entropy(t)[0].theta
            off_axis += 0.01 < theta < math.pi / 2 - 0.01
    assert off_axis >= 5
    assert _worst_oracle_gap(triples) <= 1e-12


def test_basin_starts_one_per_plateau_in_ascending_value():
    dirs, nbrs = optimize._lattice(math.pi / 18)

    def quadratic(*diagonal):  # n.M.n has one minimum on the projective plane
        return dirs**2 @ np.array(diagonal)

    def nearest(axis):
        return int(np.argmax(np.abs(dirs @ axis)))

    rng = np.random.default_rng(0)
    flat = 0.5 + 1e-13 * rng.random(len(dirs))  # noise-level landscape
    assert len(optimize._basin_starts(flat, nbrs)) == 1
    assert optimize._basin_starts(quadratic(3, 2, 1), nbrs) == [0]  # the point nearest the pole
    # the x axis lies on the equator, where the lattice points near x and
    # near -x are neighbours: one start
    values = quadratic(1, 2, 3)
    equatorial = nearest(np.array([1.0, 0.0, 0.0]))
    assert optimize._basin_starts(values, nbrs) == [equatorial]
    # two adjacent minima near the pole give one start, the lower index of the
    # tie; a deeper minimum comes first
    values[0] = values[nbrs[0, 0]] = -1.0
    deepest = nearest(np.array([0.0, 1.0, 1.0]))
    values[deepest] = -2.0
    assert optimize._basin_starts(values, nbrs) == [deepest, 0, equatorial]


def test_lattice_neighbours_match_brute_force_adjacency():
    for degrees in (22.5, 10, 3):
        resolution = math.radians(degrees)
        dirs, nbrs = optimize._lattice(resolution)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0) and (dirs[:, 2] > 0).all()
        adjacent = np.abs(dirs @ dirs.T) >= math.cos(1.5 * resolution)
        np.fill_diagonal(adjacent, False)
        for i, row in enumerate(nbrs):
            assert set(row) - {i} == set(np.flatnonzero(adjacent[i]))
        degree = adjacent.sum(axis=1)
        assert degree.min() >= 5 and degree.max() <= 8
    assert len(optimize._lattice(math.pi / 18)[0]) == 207
    start = time.perf_counter()
    dirs, _ = optimize._lattice.__wrapped__(math.radians(1))  # bypass the cache
    assert time.perf_counter() - start < 1.0
    assert len(dirs) == 20627


@pytest.mark.parametrize("seed", [696, 1146, 1351])
def test_near_pure_state_on_a_noise_level_landscape_returns(seed):
    # S(rho) lies above PURE_STATE_TOL, so the search runs on a landscape
    # flat to rounding
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    eps = 10 ** rng.uniform(-16, -9)
    rho = (1 - eps) * np.outer(psi, psi.conj()) + eps * random_state(rng=rng)
    report = quantum_discord(rho)
    assert report.method == "grid+refine"
    rho_a, _ = reduced_states(rho)
    assert report.discord == pytest.approx(von_neumann_entropy(rho_a), abs=1e-6)  # pure: D = S(rho_A)


@pytest.mark.parametrize("eps, shortcut", [(0.0, True), (1e-15, True), (1e-13, False), (1e-11, False)])
def test_pure_state_shortcut_agrees_with_numeric_route(rng, eps, shortcut):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = (1 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(4) / 4
    report = quantum_discord(rho, with_bounds=False)
    numeric = quantum_discord(rho, fast_path=False, with_bounds=False)
    assert (report.method == "closed-form") == shortcut
    assert numeric.method == "grid+refine"
    assert report.discord == pytest.approx(numeric.discord, abs=1e-9)
    if shortcut:
        assert report.min_conditional_entropy == 0.0
        assert report.optimal_direction.theta == 0.0
        assert report.diagnostics.degenerate


def _fd_chart_hessian(t, n, h=1e-6):
    """Reference chart Hessian: symmetrized central differences of the analytic chart gradient."""
    u, v = optimize._tangent_basis(n)

    def chart_gradient(du, dv):
        m = n + du * u + dv * v
        r = float(np.linalg.norm(m))
        tang = optimize._point(t, m / r).tang
        if tang is None:
            return None
        g = -0.25 * tang
        return np.array([g @ u, g @ v]) / r

    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        gp, gm = chart_gradient(du, dv), chart_gradient(-du, -dv)
        if gp is None or gm is None:
            return None
        cols.append((gp - gm) / (2 * h))
    hess = np.stack(cols, axis=1)
    return (hess + hess.T) / 2


def test_chart_hessian_matches_finite_differences():
    rng = np.random.default_rng(404)
    compared = 0
    for k in range(200):
        t = random_triple(rng, rank=1 + k % 4)
        d = random_direction(rng)
        point = optimize._point(t, d.n)
        assert (point.a is None) == stationary_vector(t, d).degenerate
        if point.a is None:
            continue
        hess, u, v = optimize._chart_hessian(t, d.n, point)
        assert np.array_equal(np.array([u, v]), optimize._tangent_basis(d.n))
        reference = _fd_chart_hessian(t, d.n)
        assert np.linalg.norm(hess - reference) <= 1e-6 * np.linalg.norm(reference)
        compared += 1
    assert compared == 150  # rank 1 is degenerate everywhere, ranks 2-4 here nowhere


def test_chart_hessian_at_the_vanishing_norm_limit():
    # x -+ T n = 0 at n = z: both pairs take their finite limit
    t = BlochTriple(Z3, np.array([0.0, 0.0, 0.3]), np.diag([0.6, 0.3, 0.0]))
    n = np.array([0.0, 0.0, 1.0])
    b = optimize.branches(t, n)
    assert b.s_plus == b.s_minus == 0.0
    hess, _, _ = optimize._chart_hessian(t, n, optimize._point(t, n))
    assert np.linalg.eigvalsh(hess) == pytest.approx([-0.5707365, -0.1426841], abs=1e-7)
    reference = _fd_chart_hessian(t, n)
    assert np.linalg.norm(hess - reference) <= 1e-6 * np.linalg.norm(reference)


def test_tangent_basis_is_orthonormal():
    rng = np.random.default_rng(17)
    normals = [random_direction(rng).n for _ in range(1000)]
    normals += [np.array(v) for v in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, -0.0],
                                      [0.6, -0.8, -0.0], [0.6, 0.8, 0.0])]
    for n in normals:
        frame = np.vstack([optimize._tangent_basis(n), n])
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15


def test_search_branch_evaluations_do_not_grow(monkeypatch):
    # exact work counts, free of timing noise: the closed-form chart Hessian
    # costs one branch evaluation where the finite-difference one took four
    # gradients; on these states the search made 2,721 evaluations with the
    # finite-difference Hessian, 1,497 with the closed form while the entropy,
    # A, the Hessian and the final diagnostics each evaluated the branches,
    # 648 with one evaluation per point, and makes 545 from the seeded
    # lattice, with the saddle check reading the last point's record
    calls = []
    branches = optimize.branches

    def counting_branches(*args):
        calls.append(1)
        return branches(*args)

    monkeypatch.setattr(optimize, "branches", counting_branches)
    monkeypatch.setattr(measurement, "branches", counting_branches)
    rng = np.random.default_rng(1234)
    for k in range(100):
        minimize_conditional_entropy(random_triple(rng, rank=2 + k % 3))
    assert len(calls) <= 545


def test_refinement_reports_what_the_scalar_evaluators_give():
    # one branch evaluation serves each point, and the value and diagnostics
    # refinement returns are bitwise those of the scalar evaluators there
    rng = np.random.default_rng(5150)
    for k in range(210):
        t = random_triple(rng, rank=2 + k % 3)
        direction, value, diag = refine_minimum(t, random_direction(rng))
        assert value == conditional_entropy(t, direction)
        expected = stationary_vector(t, direction)
        for name in ("residual", "grad_theta", "grad_phi", "a_scalar", "degenerate"):
            assert getattr(diag, name) == getattr(expected, name), name
        assert np.array_equal(diag.a_vector, expected.a_vector)


def test_rank_one_search_refines_at_most_twice(rng, monkeypatch):
    calls = []

    def counting_refine(*args, **kwargs):
        calls.append(1)
        return refine_minimum(*args, **kwargs)

    monkeypatch.setattr(optimize, "refine_minimum", counting_refine)
    for _ in range(20):
        calls.clear()
        quantum_discord(random_state(rank=1, rng=rng), fast_path=False, with_bounds=False)
        assert 1 <= len(calls) <= 2


def test_quantum_discord_product_state(rng):
    for _ in range(5):
        g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho1 = g1 @ g1.conj().T
        rho1 /= np.trace(rho1).real
        rho2 = g2 @ g2.conj().T
        rho2 /= np.trace(rho2).real
        report = quantum_discord(np.kron(rho1, rho2), with_bounds=False)
        assert abs(report.discord) <= 1e-7
        assert abs(report.classical_correlation) <= 1e-7


def test_quantum_discord_bell_state():
    report = quantum_discord(bell_diagonal_state(1, -1, 1))
    assert report.discord == pytest.approx(1.0, abs=1e-12)
    assert report.classical_correlation == pytest.approx(1.0, abs=1e-12)
    assert report.mutual_information == pytest.approx(2.0, abs=1e-12)
    assert report.method == "closed-form"
    assert report.diagnostics.degenerate  # |t_i| all tie and branches vanish


def test_quantum_discord_ab_family_samples():
    for a, b in [(0.5, 0.1), (0.3, 0.4), (0.8, -0.1)]:
        expected, _ = ab_discord(a, b)
        report = quantum_discord(ab_state(a, b))
        assert report.discord == pytest.approx(expected, abs=1e-6)
        assert report.discord == report.mutual_information - report.classical_correlation


def test_quantum_discord_report_identity(rng):
    for _ in range(10):
        rho = random_state(rng=rng)
        report = quantum_discord(rho, with_bounds=False)
        assert report.discord == report.mutual_information - report.classical_correlation
        assert report.classical_correlation >= 0.0
        assert report.discord >= -1e-7
        assert report.min_conditional_entropy == pytest.approx(
            conditional_entropy(triple_from_matrix(rho), report.optimal_direction), abs=1e-12)


def test_discord_invariant_under_local_unitaries(rng):
    base = random_state(rng=rng)
    report = quantum_discord(base, with_bounds=False)
    for _ in range(10):
        u1 = random_unitary(2, rng)
        u2 = random_unitary(2, rng)
        rotated = np.kron(u1, u2) @ base @ np.kron(u1, u2).conj().T
        rotated_report = quantum_discord(rotated, with_bounds=False)
        assert rotated_report.discord == pytest.approx(report.discord, abs=1e-6)
        o2 = bloch_rotation(u2)
        assert angle_between_axes(rotated_report.optimal_direction.n,
                                  o2 @ report.optimal_direction.n) < 1e-3


def test_classical_correlation_wrapper():
    assert classical_correlation(bell_diagonal_state(1, -1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_path_on_rotated_family(rng):
    # local unitaries must not break fast-path detection, and the reported
    # direction (mapped back through O2^t) must achieve the reported value
    base = bell_diagonal_state(0.8, 0.3, -0.2)
    exact = quantum_discord(base, with_bounds=False)
    for _ in range(5):
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = u @ base @ u.conj().T
        report = quantum_discord(rotated, with_bounds=False)
        assert report.method == "closed-form"
        assert report.discord == pytest.approx(exact.discord, abs=1e-9)
        t = triple_from_matrix(rotated)
        achieved = conditional_entropy(t, report.optimal_direction)
        assert achieved == pytest.approx(report.min_conditional_entropy, abs=1e-9)
        assert report.diagnostics.residual <= 1e-7


def test_stationary_scan_bell_diagonal_axes():
    t = BlochTriple(Z3, Z3, np.diag([0.9, 0.5, 0.2]))
    points = stationary_scan(t)
    values = [p.value for p in points]
    expected = [binary_entropy(0.95), binary_entropy(0.75), binary_entropy(0.6)]
    assert len(points) == 3
    assert values == pytest.approx(expected, abs=1e-9)
    axes = np.eye(3)
    for point, axis in zip(points, axes):
        assert angle_between_axes(point.direction.n, axis) < 1e-6
        assert point.residual <= 1e-7


def test_stationary_scan_degenerate_circle():
    # t1 = t2: a full circle of equatorial minimizers
    t = BlochTriple(Z3, Z3, np.diag([0.6, 0.6, 0.1]))
    points = stationary_scan(t)
    minima = [p for p in points if p.value == pytest.approx(binary_entropy(0.8), abs=1e-9)]
    assert len(minima) >= 2
    non_antipodal = any(
        angle_between_axes(p.direction.n, q.direction.n) > 1e-3
        for i, p in enumerate(minima) for q in minima[i + 1:])
    assert non_antipodal


def test_stationary_scan_random_state_residuals(rng):
    t = random_triple(rng)
    points = stationary_scan(t)
    assert len(points) >= 1
    assert all(p.residual <= 1e-7 for p in points)
    # the best scan point is the global minimum found by the main pipeline
    _, min_s, _ = refine_minimum(t, grid_minimize(t)[0])
    assert points[0].value == pytest.approx(min_s, abs=1e-8)


def test_discord_invariance_through_triple_rotations(rng):
    # same covariance at the triple level: rotate and compare pipelines
    t = random_triple(rng)
    o1 = random_rotation(rng)
    o2 = random_rotation(rng)
    rotated = apply_local_rotations(t, o1, o2)
    d1 = quantum_discord(matrix_from_triple(t), with_bounds=False).discord
    d2 = quantum_discord(matrix_from_triple(rotated), with_bounds=False).discord
    assert d1 == pytest.approx(d2, abs=1e-6)


def test_one_call_validates_once_and_builds_the_subspace_once(monkeypatch, rng):
    from qdiscord import bounds, states

    calls = {"validate": 0, "perp_subspace": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(states, "validate")
    counted(bounds, "perp_subspace")
    eigvalsh = np.linalg.eigvalsh

    def counted_eigvalsh(m, *args, **kwargs):
        calls["eigvalsh 4x4"] += np.shape(m) == (4, 4)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    for rho in (random_state(rng=rng), bell_diagonal_state(0.3, -0.2, 0.1)):
        calls.update({"validate": 0, "perp_subspace": 0, "eigvalsh 4x4": 0})
        assert quantum_discord(rho).bounds is not None
        assert calls == {"validate": 1, "perp_subspace": 1, "eigvalsh 4x4": 1}


def test_one_call_takes_two_svds(monkeypatch, rng):
    # canonicalize and perp_subspace; the closed forms read the canonical
    # diagonal and the search's start axes reuse the canonical rotation
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated_bell = u @ bell_diagonal_state(0.8, 0.3, -0.2) @ u.conj().T
    for rho, method in ((rotated_bell, "closed-form"), (random_state(rng=rng), "grid+refine")):
        calls.clear()
        assert quantum_discord(rho).method == method
        assert len(calls) == 2
