import copy
import dataclasses
import math
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from conftest import (_ab_crossover_triples, angle_between_axes, random_direction, random_rotation, random_triple,
                      report_digits)
from qdiscord import (
    BlochTriple,
    MeasurementDirection,
    ab_discord,
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
    quantum_discord_many,
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
from qdiscord import optimize, states
from qdiscord.measurement import _row_norms
from qdiscord.states import canonicalize, reduced_states

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


def test_multistart_matches_oracle_along_ab_crossover():
    triples = _ab_crossover_triples()
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


def _parent_basin_starts(values: np.ndarray, nbrs: np.ndarray) -> list[int]:
    """The plateau starts as the label spread once found them, the oracle of the flood fill."""
    is_min = values <= np.minimum.reduce(values[nbrs], axis=0) + optimize._PLATEAU_TOL
    minima = is_min.nonzero()[0]
    if len(minima) == 1:
        return minima.tolist()
    outside = len(values)
    labels = np.where(is_min, np.arange(outside), outside)
    for _ in range(outside):
        spread = np.where(is_min, np.minimum(labels, np.minimum.reduce(labels[nbrs], axis=0)), outside)
        if np.logical_and.reduce(spread == labels):
            break
        labels = spread
    starts: dict[int, int] = {}
    for i in sorted(minima, key=lambda i: (values[i], i)):
        starts.setdefault(labels[i], i)
    return [int(i) for i in starts.values()]


def test_basin_starts_are_the_label_spread_starts():
    # random triples of rank 1-4 and an ab grid, whose landscapes have several plateaus, on three lattices;
    # plateaus of rounded values and of noise within the plateau tolerance on the search's lattice
    rng = np.random.default_rng(2901)
    ab = [triple_from_matrix(ab_state(a, b)) for a in np.arange(0.1, 1.0, 0.1)
          for b in np.arange(-0.8, 0.9, 0.2) if a + abs(b) < 1]
    triples = ab + [random_triple(rng, rank=1 + k % 4) for k in range(60)]
    several = 0
    for resolution, landscapes in ((math.pi / 18, triples), (math.radians(4), ab), (math.pi / 60, ab[::3])):
        dirs, nbrs = optimize._lattice(resolution)
        for t in landscapes:
            values = [optimize.conditional_entropy_batch(t, dirs)]
            if resolution == math.pi / 18:
                values += [values[0].round(2), values[0] + 5e-13 * rng.random(len(dirs))]
            for v in values:
                starts = optimize._basin_starts(v, nbrs)
                assert starts == _parent_basin_starts(v, nbrs) and all(type(i) is int for i in starts)
                several += len(starts) > 1
    assert several >= 100


def test_start_directions_are_the_stacked_axes_formula(monkeypatch):
    # the start axes are normalized in Python floats; the lattice they are moved
    # onto is, bit for bit, the one the (k, 3) array of axes and _row_norms gave
    lattice = optimize._lattice(optimize.DEFAULT_RESOLUTION)[0]
    evaluated = []
    batch = optimize.conditional_entropy_batch
    monkeypatch.setattr(optimize, "conditional_entropy_batch",
                        lambda t, dirs: evaluated.append(dirs) or batch(t, dirs))
    rng = np.random.default_rng(1812)
    triples = [random_triple(rng, rank=2 + k % 3) for k in range(196)]
    # y = 0 or T^t x = 0 drops an axis
    triples += [BlochTriple(Z3, Z3, np.diag([0.5, 0.3, 0.1])),
                BlochTriple(np.array([0.0, 0.0, 0.2]), Z3, np.diag([0.5, 0.3, 0.0])),
                BlochTriple(Z3, np.array([0.0, 0.3, 0.0]), np.diag([0.2, -0.4, 0.1])), triples[0]]
    for t in triples:
        minimize_conditional_entropy(t)
        axes = np.vstack((canonicalize(t).rotation_b, t.y, t._tx))
        norms = _row_norms(axes)
        axes = axes[norms > 1e-12] / norms[norms > 1e-12, None]
        expected = lattice.copy()
        for i, axis in zip(np.abs(lattice @ axes.T).argmax(axis=0).tolist(), axes):
            expected[i] = axis
        assert evaluated.pop().tobytes() == expected.tobytes()


def test_lattice_neighbours_match_brute_force_adjacency():
    for degrees in (22.5, 15, 10, 5, 3):
        resolution = math.radians(degrees)
        dirs, nbrs = optimize._lattice(resolution)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0) and (dirs[:, 2] > 0).all()
        adjacent = np.abs(dirs @ dirs.T) >= math.cos(1.5 * resolution)
        np.fill_diagonal(adjacent, False)
        for i, column in enumerate(nbrs.T):  # one column per point
            assert set(column) - {i} == set(np.flatnonzero(adjacent[i]))
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
    u, v = map(np.array, optimize._tangent_basis(n))

    def chart_gradient(du, dv):
        m = n + du * u + dv * v
        r = float(np.linalg.norm(m))
        tang = optimize._point(t, (m / r).tolist()).tang
        if tang is None:
            return None
        g = -0.25 * np.array(tang)
        return np.array([g @ u, g @ v]) / r

    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        gp, gm = chart_gradient(du, dv), chart_gradient(-du, -dv)
        if gp is None or gm is None:
            return None
        cols.append((gp - gm) / (2 * h))
    hess = np.stack(cols, axis=1)
    return (hess + hess.T) / 2


def _record_hessian(n, point):
    """The chart Hessian in the basis (u, v) of :func:`_tangent_basis`, rebuilt from the record's model."""
    basis = np.array(optimize._tangent_basis(n))
    vectors = np.array([point.e1, point.e2]) @ basis.T  # rows: e1, e2 in (u, v) coordinates
    return vectors.T @ np.diag([point.l1, point.l2]) @ vectors, basis


def test_chart_hessian_matches_finite_differences():
    rng = np.random.default_rng(404)
    compared = 0
    for k in range(200):
        t = random_triple(rng, rank=1 + k % 4)
        d = random_direction(rng)
        point = optimize._point(t, d.n.tolist())
        assert (point.a is None) == stationary_vector(t, d).degenerate
        if point.a is None:
            continue
        hess, basis = _record_hessian(d.n.tolist(), point)
        # the eigenvectors are an orthonormal basis of the tangent plane
        frame = np.array([point.e1, point.e2, d.n])
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15
        reference = _fd_chart_hessian(t, d.n)
        assert np.linalg.norm(hess - reference) <= 1e-6 * np.linalg.norm(reference)
        # the model: eigenvalues, eigenvectors mapped through (u, v), the gradient along them
        values, vectors = np.linalg.eigh(hess)
        scale = float(np.abs(values).max())
        assert abs(point.l1 - values[0]) <= 1e-14 * scale and abs(point.l2 - values[1]) <= 1e-14 * scale
        assert values[1] - values[0] > 1e-6 * scale  # separated: each vector is fixed up to sign
        for e, vector in ((point.e1, vectors[:, 0]), (point.e2, vectors[:, 1])):
            mapped = vector @ basis
            assert min(np.abs(np.array(e) - sign * mapped).max() for sign in (1, -1)) <= 1e-9
        for g, e in ((point.g1, point.e1), (point.g2, point.e2)):
            assert g == pytest.approx(-0.25 * float(np.dot(point.tang, e)), rel=1e-12, abs=1e-15)
        compared += 1
    assert compared == 150  # rank 1 is degenerate everywhere, ranks 2-4 here nowhere


def test_chart_hessian_at_the_vanishing_norm_limit():
    # x -+ T n = 0 at n = z: both pairs take their finite limit
    t = BlochTriple(Z3, np.array([0.0, 0.0, 0.3]), np.diag([0.6, 0.3, 0.0]))
    n = np.array([0.0, 0.0, 1.0])
    b = optimize.branches(t, n)
    assert b.s_plus == b.s_minus == 0.0
    point = optimize._point(t, n.tolist())
    assert [point.l1, point.l2] == pytest.approx([-0.5707365, -0.1426841], abs=1e-7)
    hess, _ = _record_hessian(n.tolist(), point)
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


def _symmetric_2x2(rng, cond):
    """A random symmetric 2x2 with eigenvalues of either sign and condition number ``cond``."""
    c, s = np.cos(angle := rng.uniform(0, np.pi)), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    scale = 10.0 ** rng.uniform(-3, 3)
    eigenvalues = scale * np.array([rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0)) / cond])
    h = rotation @ np.diag(eigenvalues) @ rotation.T
    return float(h[0, 0]), float(h[0, 1]), float(h[1, 1])


def test_closed_form_lowest_eigenpair_matches_lapack():
    rng = np.random.default_rng(23)
    cases = [_symmetric_2x2(rng, 10.0 ** rng.uniform(0, 8)) for _ in range(1000)]
    cases += [(2.0, 0.0, 3.0), (3.0, 0.0, 2.0), (-1.0, 0.0, -1.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0),
              (1.0, 1e-300, 1.0), (1.0, 0.5, 1.0)]
    for huu, huv, hvv in cases:
        values, vectors = np.linalg.eigh(np.array([[huu, huv], [huv, hvv]]))
        value, vector = optimize._lowest_eigenpair(huu, huv, hvv)
        scale = max(float(np.abs(values).max()), 1e-300)  # the spectral radius
        assert abs(value - values[0]) <= 1e-15 * scale
        assert math.hypot(*vector) == pytest.approx(1.0, abs=4e-16)
        if values[1] - values[0] > 1e-6 * scale:  # a separated eigenvalue fixes its vector up to sign
            assert min(np.abs(np.array(vector) - s * vectors[:, 0]).max() for s in (1, -1)) <= 1e-9
        else:  # H - lambda I vanishes within rounding: any unit vector is an eigenvector
            h = np.array([[huu, huv], [huv, hvv]])
            assert np.abs(h @ vector - value * np.array(vector)).max() <= 1e-15 * scale


def test_point_record_is_what_the_scalar_evaluators_give():
    # f is conditional_entropy's and A and the residual stationary_vector's,
    # bitwise, also where A is undefined and at the s+- = 0 limit; A is odd in
    # n, the rest of the record even
    rng = np.random.default_rng(8080)
    cases = [(random_triple(rng, rank=1 + k % 4), random_direction(rng)) for k in range(298)]
    # the s+- = 0 limit: x -+ T n = 0 at n = +-z
    limit = BlochTriple(Z3, np.array([0.0, 0.0, 0.3]), np.diag([0.6, 0.3, 0.0]))
    cases += [(limit, MeasurementDirection(np.array([0.0, 0.0, 1.0]))),
              (limit, MeasurementDirection(np.array([0.0, 0.0, -1.0])))]
    undefined = 0
    for t, d in cases:
        n = d.n.tolist()
        point, antipode = optimize._point(t, n), optimize._point(t, [-v for v in n])
        diag = stationary_vector(t, d)
        assert point.f == antipode.f == conditional_entropy(t, d)
        assert diag.degenerate == (point.a is None) == (antipode.a is None)
        assert optimize._point(t, n, model=False) == point[:5] + (None,) * 6  # the record short of its model
        if point.a is None:
            assert math.isnan(point.resid) and point.l1 is None
            undefined += 1
            continue
        assert np.array_equal(diag.a_vector, point.a) and diag.residual == point.resid == antipode.resid
        assert antipode.a == tuple(-v for v in point.a) and antipode.tang == tuple(-v for v in point.tang)
        assert (antipode.l1, antipode.l2) == (point.l1, point.l2)
        # against the batch kernel's independent numpy evaluation
        batch = optimize.stationary_residual_batch(t, d.n[None])[0]
        assert point.resid == pytest.approx(batch, abs=1e-12 * max(1.0, math.hypot(*point.a)))
    assert undefined == 75  # rank 1: A is undefined everywhere


def test_refinement_leaves_saddles_and_maxima():
    # stationary starts that are not minima: LANDSCAPE's saddle y and maximum z
    for start in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
        d, value, diag = refine_minimum(LANDSCAPE, np.array(start))
        assert angle_between_axes(d.n, np.array([1.0, 0, 0])) < 1e-5
        assert value == pytest.approx(binary_entropy(0.95), abs=1e-12)
        assert diag.residual <= 1e-9
    # the pole of ab states, a saddle with lowest chart curvature -1.2e-3, -0.11 and -0.028
    for a, b in [(0.19170, 0.70508), (0.3, 0.5), (0.2, 0.7)]:
        t = triple_from_matrix(ab_state(a, b))
        pole = np.array([0.0, 0.0, 1.0])
        assert stationary_vector(t, MeasurementDirection(pole)).residual <= 1e-9
        assert optimize._point(t, pole.tolist()).l1 <= -1e-3
        _, value, _ = refine_minimum(t, pole)
        _, oracle, _ = refine_minimum(t, grid_minimize(t)[0])
        assert abs(value - oracle) <= 1e-12


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


@pytest.mark.parametrize("diagonal", [(0.4 + 9e-10, 0.3, 0.3, -9e-10), (0.7, -9e-10, 0.1 + 9e-10, 0.2)])
def test_discord_is_not_negative_within_the_psd_slack(diagonal):
    # validate accepts both; S(rho_AB) is clamped, and J came out above I by rounding (D = -1.6e-9, -7.9e-10)
    rho = np.diag(diagonal)
    report = quantum_discord(rho)
    assert 0.0 <= report.classical_correlation <= report.mutual_information
    assert report.discord >= 0.0
    assert report.discord == report.mutual_information - report.classical_correlation


def test_mutual_information_of_product_states_is_not_negative(rng):
    # subadditivity; the three entropies of a product state cancel only up to rounding (to -2.2e-16)
    for _ in range(50):
        a, b = (reduced_states(random_state(rng=rng))[0] for _ in range(2))
        assert mutual_information(np.kron(a, b)) >= 0.0


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


def test_many_states_are_the_scalar_loop_bit_for_bit():
    # every route in one stack: pure, rotated closed-form, T = 0, A undefined at e0, generic of each rank, ab with
    # several plateaus and a prepared state; any stack size gives each report the scalar call's bits
    rng = np.random.default_rng(3131)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rhos = [random_state(rank=1 + k % 4, rng=rng) for k in range(16)]
    rhos += [u @ bell_diagonal_state(*sample_bell_diagonal(rng)) @ u.conj().T for _ in range(4)]
    rhos += [u @ matrix_from_triple(sample_kernel_class(rng)) @ u.conj().T for _ in range(4)]
    rhos += [np.eye(4) / 4, bell_diagonal_state(1.0, -0.5, 0.5), ab_state(0.3, 0.4),
             states.prepare_state(random_state(rng=rng))]
    for settings in ({}, {"fast_path": False}, {"with_bounds": False, "resolution": math.pi / 12}):
        expected = [report_digits(quantum_discord(rho, **settings)) for rho in rhos]
        for size in (1, 3, 8, len(rhos)):
            got = [report_digits(report) for i in range(0, len(rhos), size)
                   for report in quantum_discord_many(iter(rhos[i:i + size]), **settings)]
            assert got == expected, (settings, size)
    assert quantum_discord_many([]) == []


def test_many_states_are_stacked_at_most_a_chunk_at_a_time(monkeypatch):
    # SCAN_CHUNK + 1 generic states: no start-set pass holds more than SCAN_CHUNK of them, and the reports keep
    # the scalar loop's bits across the chunk boundary
    rng = np.random.default_rng(3232)
    rhos = [random_state(rng=rng) for _ in range(optimize.SCAN_CHUNK + 1)]
    settings = {"resolution": math.pi / 12, "with_bounds": False}
    sizes, stack = [], optimize._conditional_entropy_stack

    def spy(triples, dirs):
        sizes.append(len(triples))
        return stack(triples, dirs)

    monkeypatch.setattr(optimize, "_conditional_entropy_stack", spy)
    got = [report_digits(report) for report in quantum_discord_many(rhos, **settings)]
    assert max(sizes) <= optimize.SCAN_CHUNK and sum(sizes) == len(rhos), sizes
    assert got == [report_digits(quantum_discord(rho, **settings)) for rho in rhos]


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


def test_discord_invariant_under_local_unitaries_sweep():
    # an oracle-free guard of the global search: a local frame that led it to another minimum would move D
    rng = np.random.default_rng(2026)
    states = [random_state(rank=1 + k % 4, rng=rng) for k in range(1500)]
    states += [ab_state(a, s * (1 - a)) for a in np.linspace(0.02, 0.98, 25) for s in np.linspace(-0.95, 0.95, 21)]
    assert len(states) >= 2000
    worst = 0.0
    for rho in states:
        discord = quantum_discord(rho, with_bounds=False).discord
        for _ in range(4):
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            worst = max(worst, abs(quantum_discord(u @ rho @ u.conj().T, with_bounds=False).discord - discord))
    assert worst <= 1e-12


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


def test_stationary_scan_reports_its_refined_records():
    rng = np.random.default_rng(4242)
    for k in range(9):
        t = random_triple(rng, rank=2 + k % 3)
        points = stationary_scan(t)
        for p in points:
            assert p.value == conditional_entropy(t, p.direction)
            assert p.residual <= 1e-9
        assert abs(points[0].value - minimize_conditional_entropy(t)[1]) <= 1e-12


def test_stationary_scan_halves_a_newton_step(monkeypatch):
    # the one state of 563 scanned where a full Newton step does not lower the residual
    rng = np.random.default_rng(1)
    t = triple_from_matrix([random_state(rank=2 + k % 3, rng=rng) for k in range(256)][255])
    steps = []
    moved = optimize._moved

    def recorded(n, step, w):
        steps.append(step)
        return moved(n, step, w)

    monkeypatch.setattr(optimize, "_moved", recorded)
    points = stationary_scan(t)
    assert 0.5 in steps
    index = 0  # minima - saddles + maxima, which is 1 on the sphere with antipodes identified
    for p in points:
        assert p.residual <= 1e-9
        assert p.value == conditional_entropy(t, p.direction)
        assert stationary_vector(t, p.direction).residual == p.residual
        record = optimize._point(t, p.direction.n.tolist())
        index += -1 if record.l1 < 0 < record.l2 else 1
    assert len(points) == 3 and index == 1
    assert abs(points[0].value - minimize_conditional_entropy(t)[1]) <= 1e-12


def test_discord_invariance_through_triple_rotations(rng):
    # same covariance at the triple level: rotate and compare pipelines
    t = random_triple(rng)
    o1 = random_rotation(rng)
    o2 = random_rotation(rng)
    rotated = apply_local_rotations(t, o1, o2)
    d1 = quantum_discord(matrix_from_triple(t), with_bounds=False).discord
    d2 = quantum_discord(matrix_from_triple(rotated), with_bounds=False).discord
    assert d1 == pytest.approx(d2, abs=1e-6)


_DIAGNOSTIC_FIELDS = [f.name for f in dataclasses.fields(optimize.StationaryDiagnostics)]


def _bits(record):
    """The six fields of a diagnostics record, exactly: the vector's bytes, each float's hex, None and bools as such."""
    values = [getattr(record, name) for name in _DIAGNOSTIC_FIELDS]
    bits = [v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float) else v for v in values]
    with np.printoptions(floatmode="unique"):
        return bits, repr(record)


def _unread_records(rng):
    """(route, triple, direction, record) of every route that defers its diagnostics, each record unread."""
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    found = []
    for route, rho, settings in (("pure", pure, {}),
                                 ("closed-form", u @ bell_diagonal_state(0.8, 0.3, -0.2) @ u.conj().T, {}),
                                 ("closed-form", bell_diagonal_state(1.0, -0.5, 0.5), {}),  # A undefined at e0
                                 ("grid+refine", random_state(rng=rng), {}),
                                 ("grid+refine", pure, {"fast_path": False})):  # A undefined at the minimum
        report = quantum_discord(rho, **settings)
        assert report.method == route.replace("pure", "closed-form")
        found.append((route, triple_from_matrix(rho), report.optimal_direction, report.diagnostics))
    t = random_triple(rng)
    direction, _, record = refine_minimum(t, random_direction(rng))
    found.append(("refine_minimum", t, direction, record))
    direction, _, record = minimize_conditional_entropy(t)
    found.append(("minimize_conditional_entropy", t, direction, record))
    return found


def test_deferred_diagnostics_are_the_eager_ones_bit_for_bit(rng):
    for route, t, direction, record in _unread_records(rng):
        assert list(vars(record)) == ["_pending"], route  # nothing taken yet
        eager = optimize._diagnostics(*vars(record)["_pending"])
        assert _bits(record) == _bits(eager), route
        # every later read returns what the first stored (tests/test_budget.py counts that it ran once)
        assert all(getattr(record, name) is vars(record)[name] for name in _DIAGNOSTIC_FIELDS), route
        # and the numbers are the scalar evaluator's at the reported direction
        expected = stationary_vector(t, direction)
        assert _bits(record)[0][:5] == _bits(expected)[0][:5], route
    # a boundary state: s+ = 1 makes w2 = 0 at e0, which the branch evaluation alone knows, and no tie flags it
    state = states.prepare_state(bell_diagonal_state(1.0, -0.5, 0.5))
    assert state._restricted[3] is False
    record = quantum_discord(state).diagnostics
    assert record.degenerate is True and record.residual is None and record.a_vector is None


def test_an_unread_record_copies_and_pickles_with_the_eager_values(rng):
    for route, _, _, record in _unread_records(rng):
        eager = _bits(optimize._diagnostics(*vars(record)["_pending"]))
        copies = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
        assert all(list(vars(c)) == ["_pending"] for c in copies), route
        for c in copies + [record]:
            assert _bits(c) == eager, route


def test_the_public_constructor_and_stationary_vector_stay_eager(rng):
    t, d = random_triple(rng), random_direction(rng)
    assert set(vars(stationary_vector(t, d))) == set(_DIAGNOSTIC_FIELDS)
    assert set(vars(optimize.StationaryDiagnostics(None, None, None, None, None))) == set(_DIAGNOSTIC_FIELDS)


def test_threads_reading_fresh_reports_at_once_all_get_the_eager_values(rng):
    # more threads than cores and a short switch interval, so that first reads of one record interleave
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rhos = [u @ bell_diagonal_state(*sample_bell_diagonal(rng)) @ u.conj().T for _ in range(20)]
    rhos += [random_state(rng=rng) for _ in range(4)] + [bell_diagonal_state(1.0, -0.5, 0.5)]
    reports = [quantum_discord(rho, with_bounds=False) for rho in rhos * 8]
    expected = [_bits(optimize._diagnostics(*vars(r.diagnostics)["_pending"])) for r in reports]
    count = 8
    barrier, seen, errors = threading.Barrier(count), [None] * count, []

    def read(k):
        try:
            barrier.wait(timeout=30)
            seen[k] = [_bits(r.diagnostics) for r in (reports if k % 2 else reports[::-1])]
        except BaseException as err:  # reported below, with the thread's values
            errors.append(err)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for k, values in enumerate(seen):
        assert values == (expected if k % 2 else expected[::-1])
