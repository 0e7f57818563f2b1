"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from conftest import angle_between_axes
from qdiscord import (
    MeasurementDirection,
    ab_discord,
    ab_state,
    bell_diagonal_state,
    bloch_rotation,
    conditional_entropy,
    kernel_class_min_entropy,
    matrix_from_triple,
    quantum_discord,
    random_state,
    random_unitary,
    sample_kernel_class,
    triple_from_matrix,
    von_neumann_entropy,
)
from qdiscord.cli import (
    bell_diagonal_oracle_error,
    suite_bounds,
    suite_gradient,
    suite_identity,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_central_identity():
    # h4(w) - h2(p0) equals sum_k p_k S(rho_A_k) on 1000 states x 50 directions
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    ok, detail = suite_identity(1000, rng, {})
    elapsed = time.perf_counter() - start
    _report("criterion 1 (conditional-entropy identity)", ok,
            f"{detail} in {elapsed:.1f}s (target <10s)")


def test_criterion_2_bell_diagonal_oracle():
    rng = np.random.default_rng(1002)
    worst = bell_diagonal_oracle_error(200, rng, {})
    bell = quantum_discord(bell_diagonal_state(1, -1, 1), with_bounds=False).discord
    mixed = quantum_discord(np.eye(4) / 4, with_bounds=False).discord
    ok = worst < 1e-6 and abs(bell - 1) <= 1e-9 and abs(mixed) <= 1e-9
    _report("criterion 2 (Bell-diagonal oracle)", ok,
            f"max |closed - grid+refine| = {worst:.3e}, bell = {bell!r}, mixed = {mixed!r}")


def test_criterion_3_kernel_class_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    worst_angle = 0.0
    aligned_checked = 0
    for _ in range(200):
        t = sample_kernel_class(rng)
        exact = kernel_class_min_entropy(t.x, t.T)
        report = quantum_discord(matrix_from_triple(t), fast_path=False, with_bounds=False)
        worst = max(worst, abs(exact - report.min_conditional_entropy))
        mags = np.sort(np.abs(np.diag(t.T)))[::-1]
        if mags[0] - mags[1] > 0.05:  # clearly nondegenerate dominant axis
            axis = np.zeros(3)
            axis[int(np.argmax(np.abs(np.diag(t.T))))] = 1.0
            worst_angle = max(worst_angle,
                              angle_between_axes(report.optimal_direction.n, axis))
            aligned_checked += 1
    ok = worst < 1e-6 and worst_angle < 1e-3
    _report("criterion 3 (kernel-class oracle)", ok,
            f"max |closed - optimizer| = {worst:.3e}, "
            f"max axis misalignment = {worst_angle:.2e} rad on {aligned_checked} states")


def test_criterion_4_ab_family_grid():
    start = time.perf_counter()
    worst = 0.0
    for a in np.linspace(0.01, 0.99, 50):
        half_width = 0.98 * (1 - a)
        for b in np.linspace(-half_width, half_width, 50):
            expected, _ = ab_discord(a, b)
            numeric = quantum_discord(ab_state(a, b), fast_path=False,
                                      with_bounds=False).discord
            worst = max(worst, abs(numeric - expected))
    elapsed = time.perf_counter() - start
    _report("criterion 4 (benchmark family, 50x50 grid)", worst < 1e-5,
            f"max |discord - min(a, q)| = {worst:.3e} in {elapsed:.0f}s (target <5min)")


def test_criterion_5_figure_data():
    rows = []
    for b in (0.1, 0.3, 0.5, 0.9):
        for a in np.arange(0.0, 1 - b + 0.005, 0.01):
            rows.append((a, b, quantum_discord(ab_state(a, b))))
    fig2 = {}
    for a in (0.1, 0.3, 0.5, 0.9):
        fig2[a] = []
        for b in np.arange(-(1 - a), (1 - a) + 0.005, 0.01):
            report = quantum_discord(ab_state(a, b))
            rows.append((a, b, report))
            fig2[a].append(report)
    valid = all(r.discord <= r.bounds.discord_ub + 1e-6 for _, _, r in rows)
    coincide = all(r.bounds.discord_ub - r.discord <= 1e-6
                   for a in (0.5, 0.9) for r in fig2[a])
    stronger = all(
        r.bounds.discord_ub < r.bounds.xi_bound
        for a, b, r in rows
        if von_neumann_entropy(ab_state(a, b)) - r.bounds.cond_entropy_ub > 1e-12)
    ok = valid and coincide and stronger
    _report("criterion 5 (figure panel data)", ok,
            f"{len(rows)} rows; bound valid: {valid}, "
            f"a=0.5/0.9 panels coincide: {coincide}, stronger than S(B) where applicable: {stronger}")


def test_criterion_6_stationarity():
    rng = np.random.default_rng(1006)
    worst_residual = 0.0
    for _ in range(200):
        report = quantum_discord(random_state(rng=rng), fast_path=False, with_bounds=False)
        assert not report.diagnostics.degenerate
        worst_residual = max(worst_residual, report.diagnostics.residual)

    gradients_ok, gradients = suite_gradient(100, rng, {})
    ok = worst_residual <= 1e-7 and gradients_ok
    _report("criterion 6 (stationarity and gradients)", ok,
            f"max residual at minima = {worst_residual:.3e}; {gradients}")


def test_criterion_7_symmetries():
    rng = np.random.default_rng(1007)
    bitwise = True
    for _ in range(500):
        t = triple_from_matrix(random_state(rng=rng))
        d = MeasurementDirection(rng.standard_normal(3))
        if conditional_entropy(t, d) != conditional_entropy(t, MeasurementDirection(-d.n)):
            bitwise = False
            break

    worst_dev = 0.0
    worst_angle = 0.0
    for _ in range(10):
        base = random_state(rng=rng)
        report = quantum_discord(base, fast_path=False, with_bounds=False)
        for _ in range(10):
            u1 = random_unitary(2, rng)
            u2 = random_unitary(2, rng)
            u = np.kron(u1, u2)
            rotated = quantum_discord(u @ base @ u.conj().T, fast_path=False,
                                      with_bounds=False)
            worst_dev = max(worst_dev, abs(rotated.discord - report.discord))
            worst_angle = max(worst_angle, angle_between_axes(
                rotated.optimal_direction.n, bloch_rotation(u2) @ report.optimal_direction.n))
    ok = bitwise and worst_dev <= 1e-6 and worst_angle <= 1e-3
    _report("criterion 7 (symmetries)", ok,
            f"antipodal invariance bitwise: {bitwise}; 100 conjugations: "
            f"max |discord change| = {worst_dev:.3e}, max direction mismatch = {worst_angle:.2e} rad")


def test_criterion_8_theorem_validity():
    rng = np.random.default_rng(1008)
    valid, validity = suite_bounds(500, rng, {})
    worst_gap = 0.0
    for _ in range(50):
        rho = matrix_from_triple(sample_kernel_class(rng))
        report = quantum_discord(rho, fast_path=False)
        assert report.bounds.perp_dim == 3
        worst_gap = max(worst_gap, abs(report.bounds.discord_ub - report.discord))
    ok = valid and worst_gap <= 1e-6
    _report("criterion 8 (bound validity)", ok,
            f"0 violations required: {validity}; full-subspace bound gap = {worst_gap:.3e}")
