"""Global minimization of the conditioned entropy over measurement directions.

The pipeline is: a coarse hemisphere grid scan (the n -> -n symmetry halves
the sphere), analytic-gradient refinement driven by the stationarity vector
A from every grid-local minimum, and assembly of mutual information,
classical correlation and discord.  Pure states and states whose canonical
form lands in a solvable family skip the search and use a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bounds import BoundReport, theorem1_bounds
from .closed_forms import CLASS_TOL, classify, kernel_class_min_entropy
from .errors import ValidationError
from .measurement import (
    BRANCH_TOL,
    Branches,
    MeasurementDirection,
    _branch_entropy,
    _canonical_sign,
    _unit,
    branches,
    branches_batch,
    conditional_entropy,
    conditional_entropy_batch,
)
from .states import BlochTriple, PreparedState, canonicalize, prepare_state

# Unused here; kept bound because the benchmark trace (perfbench/spans.py) wraps them.
from .entropy import von_neumann_entropy  # noqa: F401
from .states import reduced_states, triple_from_matrix  # noqa: F401

#: step of the start grid of :func:`minimize_conditional_entropy`
DEFAULT_RESOLUTION = math.pi / 18
#: step of the exhaustive :func:`grid_minimize` scan, the search's test oracle
ORACLE_RESOLUTION = math.pi / 180
DEFAULT_TOLERANCE = 1e-9
MAX_REFINE_ITERATIONS = 200

_ARMIJO = 1e-4
_NEWTON_THRESHOLD = 1e-2
_FD_STEP = 1e-6
_COMPASS_MIN_STEP = 1e-9
#: grid values this close count as equal, so a landscape flat to this
#: spread (a pure state's S(A|n) = 0 up to rounding) is one plateau
_PLATEAU_TOL = 1e-12
#: S(rho) at or below this marks a pure state, whose S(A|n) vanishes for every n
PURE_STATE_TOL = 1e-12
#: chart curvature below -this marks a refined point as a saddle or maximum
#: (finite-difference noise in the Hessian is near 1e-10)
_SADDLE_CURVATURE = 1e-8
#: step off a saddle along its negative-curvature direction, radians
_ESCAPE_STEP = 1e-2
_MAX_ESCAPES = 3


@dataclass(frozen=True)
class StationaryDiagnostics:
    """Stationarity data at a measurement direction.

    ``residual`` is the norm of the component of A orthogonal to n; it
    vanishes exactly at stationary points.  ``grad_theta`` and ``grad_phi``
    are the derivatives of the conditioned entropy in bits.  When a branch
    probability vanishes the logarithms in A are undefined: the point is
    flagged ``degenerate`` and no numbers are reported.
    """

    a_vector: np.ndarray | None
    a_scalar: float | None
    residual: float | None
    grad_theta: float | None
    grad_phi: float | None
    degenerate: bool = False


@dataclass(frozen=True)
class StationaryPoint:
    direction: MeasurementDirection
    value: float
    residual: float


@dataclass(frozen=True)
class DiscordReport:
    """All correlation quantities of one state, plus diagnostics and bounds."""

    mutual_information: float
    classical_correlation: float
    discord: float
    optimal_direction: MeasurementDirection
    min_conditional_entropy: float
    method: str  # "closed-form" or "grid+refine"
    diagnostics: StationaryDiagnostics
    bounds: BoundReport | None


def _a_from(t: BlochTriple, b: Branches) -> np.ndarray | None:
    """The stationarity vector A from the branches at n, or None at degenerate points.

    Terms whose unit vector (x +- T n)/|x +- T n| is undefined carry a log
    coefficient that vanishes with the norm, so they are dropped (the limit
    is zero); vanishing w or p have no finite limit and flag degeneracy.
    """
    if min(b.w1, b.w2, b.w3, b.w4, b.p0, b.p1) <= BRANCH_TOL:
        return None
    a = math.log2((b.w1 * b.w2 * b.p1 * b.p1) / (b.w3 * b.w4 * b.p0 * b.p0)) * t.y
    if b.s_plus > BRANCH_TOL:
        a = a + math.log2(b.w1 / b.w2) * (t.T.T @ (b.v_plus / b.s_plus))
    if b.s_minus > BRANCH_TOL:
        a = a - math.log2(b.w3 / b.w4) * (t.T.T @ (b.v_minus / b.s_minus))
    return a


def _a_vector(t: BlochTriple, n: np.ndarray) -> np.ndarray | None:
    """The stationarity vector A at direction n, or None at degenerate points."""
    return _a_from(t, branches(t, n))


def _tangential(t: BlochTriple, n: np.ndarray) -> tuple[np.ndarray | None, float]:
    a = _a_vector(t, n)
    if a is None:
        return None, math.nan
    tang = a - (n @ a) * n
    return tang, float(np.linalg.norm(tang))


def stationary_vector(t: BlochTriple, direction) -> StationaryDiagnostics:
    """Evaluate the stationarity vector A and the entropy gradient at a direction.

    The derivative of the conditioned entropy along a tangent vector tau is
    -tau.A/4 (in bits), so stationary points are exactly where A is parallel
    to n.  The Lagrange scalar of the constrained formulation equals n.A.
    """
    direction = direction if isinstance(direction, MeasurementDirection) else MeasurementDirection(direction)
    n = direction.n
    b = branches(t, n)
    a = _a_from(t, b)
    if a is None:
        return StationaryDiagnostics(None, None, None, None, None, degenerate=True)
    th, ph = direction.theta, direction.phi
    n_theta = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
    n_phi = np.array([-math.sin(th) * math.sin(ph), math.sin(th) * math.cos(ph), 0.0])
    # the Lagrange scalar of A = A_scalar n from its own formula, a check on n.A
    a_scalar = -4 * _branch_entropy(*b[:6]) \
        - math.log2((b.w1 * b.w2 * b.w3 * b.w4) / (b.p0 * b.p0 * b.p1 * b.p1))
    if b.s_plus > BRANCH_TOL:
        a_scalar -= math.log2(b.w1 / b.w2) * float(t.x @ (b.v_plus / b.s_plus))
    if b.s_minus > BRANCH_TOL:
        a_scalar -= math.log2(b.w3 / b.w4) * float(t.x @ (b.v_minus / b.s_minus))
    tang = a - (n @ a) * n
    return StationaryDiagnostics(
        a_vector=a,
        a_scalar=a_scalar,
        residual=float(np.linalg.norm(tang)),
        grad_theta=-0.25 * float(n_theta @ a),
        grad_phi=-0.25 * float(n_phi @ a),
    )


@lru_cache(maxsize=8)
def _grid(resolution: float) -> np.ndarray:
    """Hemisphere directions as a read-only (theta rows, phi columns, 3) array.

    Row 0 is the pole; the last row lies on or just above the equator.
    """
    thetas = np.arange(0.0, math.pi / 2 + resolution / 2, resolution)
    phis = np.arange(0.0, 2 * math.pi, resolution)
    st = np.sin(thetas)[:, None]
    dirs = np.stack(np.broadcast_arrays(st * np.cos(phis), st * np.sin(phis),
                                        np.cos(thetas)[:, None]), axis=-1)
    dirs.setflags(write=False)
    return dirs


def _check_resolution(resolution: float) -> float:
    resolution = float(resolution)
    if not 0 < resolution <= math.pi / 8:
        raise ValidationError(f"resolution must be in (0, pi/8], got {resolution!r}")
    return resolution


def _scan(batch, t: BlochTriple, resolution: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """Evaluate ``batch(t, directions)`` on the hemisphere grid.

    Returns the (rows, cols, 3) directions, the (rows, cols) values and
    whether the last row lies on the equator.
    """
    dirs = _grid(_check_resolution(resolution))
    values = batch(t, dirs.reshape(-1, 3)).reshape(dirs.shape[:2])
    return dirs, values, abs(float(dirs[-1, 0, 2])) < 1e-12


def _neighbours(values: np.ndarray, equator: bool) -> list[np.ndarray]:
    """The eight grid neighbours of every entry of a (rows, cols) hemisphere array.

    Phi wraps around; past the last row lie the antipodes of the row before
    the equator (or of the last row itself when it is not on the equator),
    half a turn round.  Row 0 is the pole, which callers treat as one point.
    """
    rows, cols = values.shape
    beyond = np.roll(values[-2] if equator else values[-1], cols // 2)
    padded = np.vstack([values[:1], values, beyond[None]])
    padded = np.hstack([padded[:, -1:], padded, padded[:, :1]])
    return [padded[1 + dr:1 + dr + rows, 1 + dc:1 + dc + cols]
            for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def _grid_local_minima(values: np.ndarray, equator: bool, tol: float = 0.0) -> np.ndarray:
    """Mask of the grid-local minima of a (rows, cols) hemisphere array.

    An entry is a minimum when it exceeds none of its neighbours by more
    than ``tol``.  The pole row counts as one point, flagged (in every
    column) when it is a minimum against the whole of row 1.
    """
    is_min = np.logical_and.reduce([values <= nb + tol for nb in _neighbours(values, equator)])
    is_min[0] = values[0, 0] <= values[1].min() + tol
    return is_min


def _basin_starts(values: np.ndarray, equator: bool) -> list[tuple[int, int]]:
    """One start per connected plateau of grid-local minima, in ascending value.

    Grid-adjacent minima form one plateau, represented by its lowest entry
    (the first in theta, phi order among equals).
    """
    is_min = _grid_local_minima(values, equator, _PLATEAU_TOL)
    # spread the smallest flat index over each plateau; unflagged entries
    # carry a label larger than every index, so they link nothing
    outside = values.size
    labels = np.where(is_min, np.arange(outside).reshape(values.shape), outside)
    while True:
        labels[0] = labels[0].min()  # the pole is one point
        if equator:  # so is each antipodal pair on the equator
            labels[-1] = np.minimum(labels[-1], np.roll(labels[-1], values.shape[1] // 2))
        spread = np.minimum.reduce([labels] + _neighbours(labels, equator))
        spread[~is_min] = outside
        # jump to the label's own label: long plateaus merge in few passes
        spread[is_min] = spread.flat[spread[is_min]]
        if np.array_equal(spread, labels):
            break
        labels = spread
    flat_values = values.ravel()
    seen: set[int] = set()
    starts = []
    for i in sorted(np.flatnonzero(is_min), key=lambda i: (flat_values[i], i)):
        if labels.flat[i] not in seen:
            seen.add(labels.flat[i])
            starts.append(divmod(int(i), values.shape[1]))
    return starts


def grid_minimize(t: BlochTriple, resolution: float = ORACLE_RESOLUTION) -> tuple[MeasurementDirection, float]:
    """Exhaustive scan of the upper hemisphere at the given angular step.

    Directions are ordered by increasing theta then phi, and ``argmin``
    keeps the first minimum, which realizes the smallest-angle tie-break.
    With its 1-degree default this is the test oracle of
    :func:`minimize_conditional_entropy`.
    """
    dirs, values, _ = _scan(conditional_entropy_batch, t, resolution)
    best = MeasurementDirection(dirs.reshape(-1, 3)[int(np.argmin(values))])
    # re-evaluate through the scalar path so refinement starts bit-consistent
    return best, conditional_entropy(t, best)


def _tangent_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[k] = 1.0
    u = np.cross(n, e)
    u /= np.linalg.norm(u)
    return u, np.cross(n, u)


def _chart_gradient(t: BlochTriple, n: np.ndarray, u: np.ndarray, v: np.ndarray,
                    du: float, dv: float) -> np.ndarray | None:
    m = n + du * u + dv * v
    r = float(np.linalg.norm(m))
    m = m / r
    tang, _ = _tangential(t, m)
    if tang is None:
        return None
    g = -0.25 * tang
    return np.array([g @ u, g @ v]) / r


def _chart_hessian(t: BlochTriple, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Hessian of the conditioned entropy in the tangent chart at n, and the chart basis.

    Symmetrized central differences of the analytic gradient; None where
    the gradient is undefined.
    """
    u, v = _tangent_basis(n)
    cols = []
    for du, dv in ((_FD_STEP, 0.0), (0.0, _FD_STEP)):
        gp = _chart_gradient(t, n, u, v, du, dv)
        gm = _chart_gradient(t, n, u, v, -du, -dv)
        if gp is None or gm is None:
            return None
        cols.append((gp - gm) / (2 * _FD_STEP))
    hess = np.stack(cols, axis=1)
    return (hess + hess.T) / 2, u, v


def _newton_step(t: BlochTriple, n: np.ndarray, f: float, resid: float,
                 g: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """One damped Newton step on the tangent-chart gradient; None if it fails."""
    chart = _chart_hessian(t, n)
    if chart is None:
        return None
    hess, u, v = chart
    g0 = np.array([g @ u, g @ v])
    try:
        delta = np.linalg.solve(hess, -g0)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all() or float(np.linalg.norm(delta)) > 0.5:
        return None
    scale = 1.0
    for _ in range(8):
        cand = n + scale * (delta[0] * u + delta[1] * v)
        cand = cand / np.linalg.norm(cand)
        fc = conditional_entropy(t, MeasurementDirection(cand))
        tang, rc = _tangential(t, cand)
        if tang is not None and rc < resid and fc <= f + 1e-14:
            return cand, fc, rc
        scale *= 0.5
    return None


def _compass(t: BlochTriple, n: np.ndarray, f: float, step: float) -> tuple[np.ndarray, float]:
    """Derivative-free descent for points where the gradient is undefined."""
    while step > _COMPASS_MIN_STEP:
        u, v = _tangent_basis(n)
        moved = False
        for probe in (u, -u, v, -v):
            cand = n + step * probe
            cand = cand / np.linalg.norm(cand)
            fc = conditional_entropy(t, MeasurementDirection(cand))
            if fc < f:
                n, f = cand, fc
                moved = True
                break
        if not moved:
            step /= 2
    return n, f


def refine_minimum(t: BlochTriple, start, *, tolerance: float = DEFAULT_TOLERANCE,
                   max_iterations: int = MAX_REFINE_ITERATIONS,
                   ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """Descend the conditioned entropy from ``start`` until A is parallel to n.

    Projected gradient descent on the sphere with a Barzilai-Borwein step
    and Armijo backtracking; once the tangential residual is small a damped
    Newton step in the local tangent chart finishes the convergence.  The
    returned value never exceeds the starting value, and points where the
    gradient is undefined fall back to compass search.
    """
    n = _unit(start)
    f = conditional_entropy(t, MeasurementDirection(n))
    step: float | None = None
    n_prev = g_prev = None
    for _ in range(max_iterations):
        tang, resid = _tangential(t, n)
        if tang is None:
            n, f = _compass(t, n, f, step or 0.01)
            break
        if resid <= tolerance:
            break
        g = -0.25 * tang
        if resid < _NEWTON_THRESHOLD:
            polished = _newton_step(t, n, f, resid, g)
            if polished is not None:
                n, f, _ = polished
                continue
        if n_prev is not None:
            s_diff = n - n_prev
            y_diff = g - g_prev
            denom = float(y_diff @ y_diff)
            if denom > 1e-30:
                step = min(max(abs(float(s_diff @ y_diff) / denom), 1e-12), 1e3)
        if step is None:
            step = 1.0
        n_prev, g_prev = n, g
        gg = float(g @ g)
        for _ in range(60):
            cand = n - step * g
            cand = cand / np.linalg.norm(cand)
            fc = conditional_entropy(t, MeasurementDirection(cand))
            if fc <= f - _ARMIJO * step * gg:
                n, f = cand, fc
                break
            step /= 2
        else:
            break  # improvements below machine precision
        step *= 2
    direction = MeasurementDirection(_canonical_sign(n))
    return direction, conditional_entropy(t, direction), stationary_vector(t, direction)


def minimize_conditional_entropy(t: BlochTriple, resolution: float = DEFAULT_RESOLUTION,
                                 tolerance: float = DEFAULT_TOLERANCE,
                                 ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """Multi-start search: refine from every basin of a coarse grid, keep the lowest.

    The hemisphere grid at step ``resolution`` only has to find the basins
    of the minima, since refinement solves the stationarity condition.
    Each plateau of grid-local minima gives one start, refined in ascending
    grid value; the first lowest refined value wins, and no refined value
    exceeds its start's grid value.  Refinement stops at any stationary
    point, and a start can sit exactly on a saddle or maximum of a
    symmetric landscape (the pole of an ab-family state near its crossover
    a = q, ringed by minima); such a point is left a small step down its
    negative curvature and refined again.
    """
    dirs, values, equator = _scan(conditional_entropy_batch, t, resolution)
    best = None
    for row, col in _basin_starts(values, equator):
        found = refine_minimum(t, dirs[row, col], tolerance=tolerance)
        for _ in range(_MAX_ESCAPES):
            start = None if found[2].degenerate else _downhill_start(t, found[0].n)
            if start is None:
                break
            pushed = refine_minimum(t, start, tolerance=tolerance)
            if pushed[1] >= found[1]:
                break
            found = pushed
        if best is None or found[1] < best[1]:
            best = found
    return best


def _downhill_start(t: BlochTriple, n: np.ndarray) -> np.ndarray | None:
    """A point a small step down the most negative curvature at n; None at a minimum."""
    chart = _chart_hessian(t, n)
    if chart is None:
        return None
    hess, u, v = chart
    curvatures, axes = np.linalg.eigh(hess)
    if curvatures[0] >= -_SADDLE_CURVATURE:
        return None
    return n + _ESCAPE_STEP * (axes[0, 0] * u + axes[1, 0] * v)


def _closed_form_minimum(t: BlochTriple, s_ab: float) -> tuple[float, np.ndarray, bool] | None:
    """(min S(A|n), optimal direction, tie flag) when a closed form applies, else None."""
    if s_ab <= PURE_STATE_TOL:
        # pure state: S(A|n) = 0 for every direction, report theta = 0
        return 0.0, np.array([0.0, 0.0, 1.0]), True
    canon = canonicalize(t)
    if not classify(canon).kind.has_closed_form:
        return None
    d = canon.diagonal
    min_s = kernel_class_min_entropy(canon.triple.x, canon.triple.T)
    mags = np.abs(d)
    t_max = float(mags.max())
    if t_max <= CLASS_TOL:
        # flat landscape: every direction is optimal, report theta = 0
        return min_s, np.array([0.0, 0.0, 1.0]), True
    axis = int(mags.argmax())
    direction = np.zeros(3)
    direction[axis] = 1.0
    degenerate = int((mags >= t_max - 1e-12).sum()) > 1
    return min_s, canon.rotation_b.T @ direction, degenerate


def quantum_discord(rho: np.ndarray | PreparedState, *, resolution: float = DEFAULT_RESOLUTION,
                    tolerance: float = DEFAULT_TOLERANCE, fast_path: bool = True,
                    with_bounds: bool = True) -> DiscordReport:
    """Mutual information, classical correlation and discord of a two-qubit state.

    Parameters
    ----------
    rho :
        4x4 density matrix (measurement side is subsystem B), or the
        :class:`~qdiscord.states.PreparedState` built for one.
    resolution :
        Angular step of the hemisphere grid that seeds the refinement, radians.
    tolerance :
        Stationarity residual at which refinement stops.
    fast_path :
        Use the closed forms for pure states (``min_s = 0``) and when the
        canonical form lands in a solvable family; disable to force
        grid+refine (e.g. to cross-check oracles).
    with_bounds :
        Attach the correlation bounds to the report.

    Returns
    -------
    DiscordReport
        With ``discord = mutual_information - classical_correlation`` exact.
    """
    state = prepare_state(rho)
    t = state.triple
    closed_form = _closed_form_minimum(t, state.s_ab) if fast_path else None
    if closed_form is not None:
        min_s, axis_dir, tie_degenerate = closed_form
        direction = MeasurementDirection(_canonical_sign(axis_dir))
        method = "closed-form"
        diagnostics = stationary_vector(t, direction)
        if tie_degenerate:
            diagnostics = replace(diagnostics, degenerate=True)
    else:
        direction, min_s, diagnostics = minimize_conditional_entropy(t, resolution, tolerance)
        method = "grid+refine"

    classical = max(0.0, state.s_a - min_s)
    discord = state.mutual_information - classical
    bounds = theorem1_bounds(state, discord=discord) if with_bounds else None
    return DiscordReport(
        mutual_information=state.mutual_information,
        classical_correlation=classical,
        discord=discord,
        optimal_direction=direction,
        min_conditional_entropy=min_s,
        method=method,
        diagnostics=diagnostics,
        bounds=bounds,
    )


def classical_correlation(rho: np.ndarray, **kwargs) -> float:
    """max over measurements of S(rho_A) - S(A | measurement), in bits."""
    return quantum_discord(rho, with_bounds=False, **kwargs).classical_correlation


def stationary_residual_batch(t: BlochTriple, dirs: np.ndarray) -> np.ndarray:
    """Vectorized stationarity residual |A - (n.A) n|; inf at degenerate directions."""
    b = branches_batch(t, dirs)
    valid = np.minimum.reduce([b.w1, b.w2, b.w3, b.w4, b.p0, b.p1]) > BRANCH_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log2((b.w1 * b.w2 * b.p1 * b.p1) / (b.w3 * b.w4 * b.p0 * b.p0))
        lp = np.where(b.s_plus > BRANCH_TOL, np.log2(b.w1 / b.w2), 0.0)
        lm = np.where(b.s_minus > BRANCH_TOL, np.log2(b.w3 / b.w4), 0.0)
        up = b.v_plus / np.where(b.s_plus > BRANCH_TOL, b.s_plus, 1.0)[:, None]
        um = b.v_minus / np.where(b.s_minus > BRANCH_TOL, b.s_minus, 1.0)[:, None]
        a = ly[:, None] * t.y + lp[:, None] * (up @ t.T) - lm[:, None] * (um @ t.T)
        tang = a - (np.sum(a * dirs, axis=1))[:, None] * dirs
        resid = np.linalg.norm(tang, axis=1)
    return np.where(valid, resid, np.inf)


def _refine_stationary(t: BlochTriple, n0: np.ndarray, tolerance: float = 1e-9,
                       max_iterations: int = 60) -> tuple[np.ndarray, float] | None:
    """Damped Newton iteration toward the nearest stationary point (any type)."""
    n = n0.copy()
    tang, resid = _tangential(t, n)
    if tang is None:
        return None
    for _ in range(max_iterations):
        if resid <= tolerance:
            return n, resid
        g = -0.25 * tang
        chart = _chart_hessian(t, n)
        if chart is None:
            return None
        hess, u, v = chart
        g0 = np.array([g @ u, g @ v])
        delta, *_ = np.linalg.lstsq(hess, -g0, rcond=None)
        if not np.isfinite(delta).all():
            return None
        norm = float(np.linalg.norm(delta))
        if norm > 0.5:
            delta *= 0.5 / norm
        scale = 1.0
        for _ in range(10):
            cand = n + scale * (delta[0] * u + delta[1] * v)
            cand = cand / np.linalg.norm(cand)
            tang_c, resid_c = _tangential(t, cand)
            if tang_c is not None and resid_c < resid:
                n, tang, resid = cand, tang_c, resid_c
                break
            scale /= 2
        else:
            break
    return (n, resid) if resid <= tolerance else None


def stationary_scan(t: BlochTriple, resolution: float = math.pi / 60) -> list[StationaryPoint]:
    """All stationary measurement directions found from a hemisphere grid.

    Grid-local minima of the stationarity residual are refined with a damped
    Newton iteration (this captures saddles and maxima of the entropy, not
    just its minima), deduplicated with antipodes identified, and returned
    sorted by entropy value.  Points that fail to reach residual 1e-7 are
    dropped.
    """
    dirs, resid, equator = _scan(stationary_residual_batch, t, resolution)
    candidates = dirs[_grid_local_minima(resid, equator) & np.isfinite(resid)]

    found: list[StationaryPoint] = []
    for n0 in candidates:
        refined = _refine_stationary(t, n0)
        if refined is None:
            continue
        n, r = refined
        if r > 1e-7:
            continue
        n = _canonical_sign(n)
        if any(math.acos(min(1.0, abs(float(n @ p.direction.n)))) < 1e-4 for p in found):
            continue
        direction = MeasurementDirection(n)
        found.append(StationaryPoint(direction, conditional_entropy(t, direction), r))
    found.sort(key=lambda p: (p.value, p.direction.theta, p.direction.phi))
    return found
