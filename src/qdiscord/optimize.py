"""Global minimization of the conditioned entropy over measurement directions.

The pipeline is: a coarse hemisphere lattice scan seeded with the state's
own axes (the n -> -n symmetry halves the sphere), analytic-gradient
refinement driven by the stationarity vector A from every plateau of
lattice-local minima, and assembly of mutual information, classical
correlation and discord.  Pure states and states whose canonical form
lands in a solvable family skip the search and use a closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bounds import BoundReport, theorem1_bounds
from .closed_forms import CLASS_TOL, classify
from .entropy import binary_entropy
from .errors import ValidationError
from .measurement import (
    BRANCH_TOL,
    Branches,
    MeasurementDirection,
    _branch_entropy,
    _canonical_sign,
    _probabilities,
    _unit,
    branches,
    branches_batch,
    conditional_entropy,
    conditional_entropy_batch,
)
from .states import BlochTriple, CanonicalForm, PreparedState, canonicalize, prepare_state

# Unused here; kept bound because the benchmark trace (perfbench/spans.py) wraps them.
from .closed_forms import kernel_class_min_entropy  # noqa: F401
from .entropy import von_neumann_entropy  # noqa: F401
from .states import reduced_states, triple_from_matrix  # noqa: F401

#: spacing of the start lattice of :func:`minimize_conditional_entropy`
DEFAULT_RESOLUTION = math.pi / 18
#: the finest spacing accepted; finer lattices and grids grow as 1/resolution^2
MIN_RESOLUTION = math.radians(0.5)
#: step of the exhaustive :func:`grid_minimize` scan, the search's test oracle
ORACLE_RESOLUTION = math.pi / 180
DEFAULT_TOLERANCE = 1e-9
MAX_REFINE_ITERATIONS = 200

_ARMIJO = 1e-4
_NEWTON_THRESHOLD = 1e-2
_COMPASS_MIN_STEP = 1e-9
#: lattice values this close count as equal, so a landscape flat to this
#: spread (a pure state's S(A|n) = 0 up to rounding) is one plateau
_PLATEAU_TOL = 1e-12
#: S(rho) at or below this marks a pure state, whose S(A|n) vanishes for every n
PURE_STATE_TOL = 1e-12
#: chart curvature below -this marks a refined point as a saddle or maximum
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
    """A = log2(w1 w2 p1^2/(w3 w4 p0^2)) y + T^T (c+ v+ - c- v-) from the branches at n; None if degenerate.

    c+ = log2(w1/w2)/s+ and c- = log2(w3/w4)/s-, each 0 (its limit) where
    v+-/s+- is undefined; vanishing w or p have no finite limit.
    """
    if min(b.w1, b.w2, b.w3, b.w4, b.p0, b.p1) <= BRANCH_TOL:
        return None
    cp = math.log2(b.w1 / b.w2) / b.s_plus if b.s_plus > BRANCH_TOL else 0.0
    cm = math.log2(b.w3 / b.w4) / b.s_minus if b.s_minus > BRANCH_TOL else 0.0
    return (math.log2((b.w1 * b.w2 * b.p1 * b.p1) / (b.w3 * b.w4 * b.p0 * b.p0)) * t.y
            + t.T.T @ (cp * b.v_plus - cm * b.v_minus))


_Point = namedtuple("_Point", "f b a tang resid")


def _point(t: BlochTriple, n: np.ndarray) -> _Point:
    """What refinement reads at the unit vector n, from one branch evaluation.

    The entropy f (bitwise :func:`conditional_entropy`) and branches b at the
    sign-canonical representative of {n, -n}; A at n by A(-n) = -A(n), its
    tangential part and that part's norm (None, None, nan where A is undefined).
    """
    c = _canonical_sign(n)
    b = branches(t, c)
    f = _branch_entropy(*_probabilities(b))
    a = _a_from(t, b)
    if a is None:
        return _Point(f, b, None, None, math.nan)
    a = a if c is n else -a
    tang = a - (n @ a) * n
    return _Point(f, b, a, tang, math.sqrt(tang @ tang))


def stationary_vector(t: BlochTriple, direction) -> StationaryDiagnostics:
    """Evaluate the stationarity vector A and the entropy gradient at a direction.

    The derivative of the conditioned entropy along a tangent vector tau is
    -tau.A/4 (in bits), so stationary points are exactly where A is parallel
    to n.  The Lagrange scalar of the constrained formulation equals n.A.
    """
    direction = direction if isinstance(direction, MeasurementDirection) else MeasurementDirection(direction)
    return _diagnostics(t, direction, branches(t, direction.n))


def _diagnostics(t: BlochTriple, direction: MeasurementDirection, b: Branches) -> StationaryDiagnostics:
    """:func:`stationary_vector` from the branches ``b`` at ``direction.n``."""
    n = direction.n
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
    return StationaryDiagnostics(
        a_vector=a,
        a_scalar=a_scalar,
        residual=float(np.linalg.norm(a - (n @ a) * n)),
        grad_theta=-0.25 * float(n_theta @ a),
        grad_phi=-0.25 * float(n_phi @ a),
    )


def _check_resolution(resolution: float) -> float:
    resolution = float(resolution)
    if not MIN_RESOLUTION <= resolution <= math.pi / 8:
        raise ValidationError(f"resolution must be in [{MIN_RESOLUTION!r}, pi/8], got {resolution!r}")
    return resolution


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


@lru_cache(maxsize=8)
def _lattice(resolution: float) -> tuple[np.ndarray, np.ndarray]:
    """A Fibonacci lattice on the upper hemisphere and its neighbour graph.

    One point per ``resolution**2`` of area, at heights z = 1 - (i + 1/2)/N,
    none on the pole or the equator.  Two points are neighbours when
    |n.m| >= cos(1.5 resolution), which identifies antipodes.  Returns the
    read-only (N, 3) directions and (N, k) neighbour indices, padded with
    each point's own index.
    """
    count = math.ceil(2 * math.pi / resolution**2)
    index = np.arange(count)
    z = 1 - (index + 0.5) / count
    phi = index * (math.pi * (3 - math.sqrt(5)))
    r = np.sqrt(1 - z * z)
    dirs = np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
    # the antipodes in reverse order go on below the equator with z still
    # falling by 1/N per index, and the angle between two points bounds
    # their difference in z: neighbours lie within reach * N indices
    reach = 1.5 * resolution
    sphere = np.vstack((dirs, -dirs[::-1]))
    pairs = [np.stack((index, index + k))[:, np.einsum("ij,ij->i", dirs, sphere[k:count + k]) >= math.cos(reach)]
             for k in range(1, int(reach * count) + 1)]
    i, j = np.concatenate(pairs, axis=1)
    j = np.minimum(j, 2 * count - 1 - j)  # fold the antipodes back
    i, j = i[j > i], j[j > i]  # each antipodal pair turns up from both ends
    rows, cols = np.divmod(np.sort(np.concatenate((i * count + j, j * count + i))), count)
    nbrs = np.repeat(index[:, None], np.bincount(rows).max(), axis=1)
    nbrs[rows, np.arange(len(rows)) - np.searchsorted(rows, rows)] = cols
    dirs.setflags(write=False)
    nbrs.setflags(write=False)
    return dirs, nbrs


def _basin_starts(values: np.ndarray, nbrs: np.ndarray) -> list[int]:
    """Lattice indices of one start per plateau of local minima, in ascending value.

    Neighbouring minima form one plateau, represented by its lowest point
    (the lowest index among equals).  Plateaus are found by spreading the
    smallest index over the graph of minima, which settles within N passes.
    """
    is_min = values <= values[nbrs].min(axis=1) + _PLATEAU_TOL
    outside = len(values)  # the label of the other points, which link nothing
    labels = np.where(is_min, np.arange(outside), outside)
    for _ in range(outside):
        spread = np.where(is_min, np.minimum(labels, labels[nbrs].min(axis=1)), outside)
        if np.array_equal(spread, labels):
            break
        labels = spread
    starts: dict[int, int] = {}  # plateau label -> its first point in ascending (value, index)
    for i in sorted(np.flatnonzero(is_min), key=lambda i: (values[i], i)):
        starts.setdefault(labels[i], i)
    return list(starts.values())


def grid_minimize(t: BlochTriple, resolution: float = ORACLE_RESOLUTION) -> tuple[MeasurementDirection, float]:
    """Exhaustive scan of the upper hemisphere at the given angular step.

    Directions are ordered by increasing theta then phi, and ``argmin``
    keeps the first minimum, which realizes the smallest-angle tie-break.
    With its 1-degree default this is the test oracle of
    :func:`minimize_conditional_entropy`.
    """
    dirs = _grid(_check_resolution(resolution)).reshape(-1, 3)
    best = MeasurementDirection(dirs[int(np.argmin(conditional_entropy_batch(t, dirs)))])
    # re-evaluate through the scalar path so refinement starts bit-consistent
    return best, conditional_entropy(t, best)


def _tangent_basis(n: np.ndarray) -> np.ndarray:
    """Rows u, v with (u, v, n) orthonormal; Duff et al., "Building an Orthonormal Basis, Revisited" (2017)."""
    x, y, z = n.tolist()
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.array(((1.0 + sign * x * x * a, sign * b, -sign * x),
                     (b, sign + y * y * a, -y)))


def _chart_hessian(t: BlochTriple, n: np.ndarray, point: _Point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hessian of the conditioned entropy in the tangent chart at n, and the chart basis.

    Closed form, from the record ``point`` of n, where A is defined.  With
    u+- = (x +- T n)/s+- and the gradients g1,2 = (y +- T^T u+)/4,
    g3,4 = -(y +- T^T u-)/4 of w1..w4, the ambient Hessian of h4(w) - h2(p0) is

        -[sum_i g_i g_i^T/w_i - (1/p0 + 1/p1) y y^T/4]/ln 2
        - [log2(w1/w2) T^T (I - u+ u+^T) T/s+ + log2(w3/w4) T^T (I - u- u-^T) T/s-]/4

    and the chart Hessian is B^T (that) B + (n.A)/4 I with B = [u v].  Where
    s+- = 0 the pair's terms take their limit -(y y^T + T^T T)/(4 p ln 2).
    The ambient Hessian is even in n, so the branches at -n serve as well.
    """
    b = point.b
    basis = _tangent_basis(n)
    tb = t.T @ basis.T  # T B
    units, curvature = [], []  # per pair: u and the kappa of its term -kappa T^T (I - u u^T) T
    for p, wa, wb, vec, s in ((b.p0, b.w1, b.w2, b.v_plus, b.s_plus),
                              (b.p1, b.w3, b.w4, b.v_minus, b.s_minus)):
        if s > BRANCH_TOL:
            units.append(vec / s)
            curvature.append(math.log2(wa / wb) / (4 * s))
        else:  # the limit, in which u drops out
            units.append(np.zeros(3))
            curvature.append(1 / (4 * math.log(2) * p))
    c = np.array(units) @ tb  # rows B^T T^T u+, B^T T^T u-
    yb = basis @ t.y
    # one row per outer-product term: 4 g1, 4 g3, 4 g2, 4 g4 (up to sign), y, B^T T^T u+-
    rows = np.concatenate((yb + c, yb - c, yb[None], c))
    k = -1 / (16 * math.log(2))
    weights = np.array((k / b.w1, k / b.w3, k / b.w2, k / b.w4,
                        -4 * k * (1 / b.p0 + 1 / b.p1), *curvature))
    hess = (rows.T * weights) @ rows - (curvature[0] + curvature[1]) * (tb.T @ tb)
    hess += 0.25 * float(n @ point.a) * np.eye(2)  # the sphere's own curvature, -(n . grad S) I
    return hess, basis[0], basis[1]


def _newton_step(t: BlochTriple, n: np.ndarray, point: _Point) -> tuple[np.ndarray, _Point] | None:
    """One damped Newton step from n, where A is defined: (new point, its record) or None."""
    hess, u, v = _chart_hessian(t, n, point)
    g0 = -0.25 * np.array([point.tang @ u, point.tang @ v])
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
        pc = _point(t, cand)
        if pc.resid < point.resid and pc.f <= point.f + 1e-14:  # False at a nan residual
            return cand, pc
        scale *= 0.5
    return None


def _compass(t: BlochTriple, n: np.ndarray, f: float, step: float) -> np.ndarray:
    """Derivative-free descent for points where the gradient is undefined."""
    while step > _COMPASS_MIN_STEP:
        u, v = _tangent_basis(n)
        for probe in (u, -u, v, -v):
            cand = n + step * probe
            cand = cand / np.linalg.norm(cand)
            fc = conditional_entropy(t, MeasurementDirection(cand))
            if fc < f:
                n, f = cand, fc
                break
        else:
            step /= 2
    return n


def _descend(t: BlochTriple, n: np.ndarray, tolerance: float, max_iterations: int) -> tuple[np.ndarray, _Point]:
    """Descent from the unit vector n to a stationary point: that point and its record."""
    p = _point(t, n)
    step: float | None = None
    n_prev = g_prev = None
    for _ in range(max_iterations):
        if p.tang is None:
            n = _compass(t, n, p.f, step or 0.01)
            return n, _point(t, n)
        if p.resid <= tolerance:
            break
        g = -0.25 * p.tang
        if p.resid < _NEWTON_THRESHOLD and (polished := _newton_step(t, n, p)) is not None:
            n, p = polished
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
            pc = _point(t, cand)
            if pc.f <= p.f - _ARMIJO * step * gg:
                n, p = cand, pc
                break
            step /= 2
        else:
            break  # improvements below machine precision
        step *= 2
    return n, p


def refine_minimum(t: BlochTriple, start, *, tolerance: float = DEFAULT_TOLERANCE,
                   max_iterations: int = MAX_REFINE_ITERATIONS,
                   ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """Descend the conditioned entropy from ``start`` until A is parallel to n.

    Projected gradient descent on the sphere with a Barzilai-Borwein step
    and Armijo backtracking; once the tangential residual is small, damped
    Newton steps on the closed-form tangent-chart Hessian finish the
    convergence.  Points where the gradient is undefined fall back to
    compass search, and a saddle or maximum (the pole of an ab-family state
    near its crossover a = q) is left a small step down its negative
    curvature.  The returned value never exceeds the starting value.  One
    branch evaluation serves each point visited and all that is read there.
    """
    n, p = _descend(t, _unit(start), tolerance, max_iterations)
    for _ in range(_MAX_ESCAPES):
        if p.a is None:
            break
        hess, u, v = _chart_hessian(t, n, p)
        curvatures, axes = np.linalg.eigh(hess)
        if curvatures[0] >= -_SADDLE_CURVATURE:
            break
        pushed = n + _ESCAPE_STEP * (axes[0, 0] * u + axes[1, 0] * v)
        pushed = _descend(t, pushed / np.linalg.norm(pushed), tolerance, max_iterations)
        if pushed[1].f >= p.f:
            break
        n, p = pushed
    # p holds the branches at the sign-canonical representative of n
    direction = MeasurementDirection(_canonical_sign(n))
    return direction, p.f, _diagnostics(t, direction, p.b)


def minimize_conditional_entropy(t: BlochTriple, resolution: float = DEFAULT_RESOLUTION,
                                 tolerance: float = DEFAULT_TOLERANCE,
                                 ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """Multi-start search: refine from every basin of a start lattice, keep the lowest.

    The lattice is a Fibonacci lattice on the hemisphere at spacing
    ``resolution``, with the state's own axes (the eigenvectors of T^T T, y
    and T^T x, where A || n holds in the solvable families) moved onto their
    nearest points.  It only has to find the basins of the minima, since
    refinement solves the stationarity condition.  Each plateau of
    lattice-local minima gives one start, refined in ascending lattice
    value; the first lowest refined value wins.
    """
    return _multistart(t, canonicalize(t), resolution, tolerance)


def _multistart(t: BlochTriple, canon: CanonicalForm, resolution: float, tolerance: float,
                ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """:func:`minimize_conditional_entropy` with the canonical form of ``t`` already taken."""
    lattice, nbrs = _lattice(_check_resolution(resolution))
    dirs = lattice.copy()
    for axis in (*canon.rotation_b, t.y, t.T.T @ t.x):
        norm = float(np.linalg.norm(axis))
        if norm > 1e-12:
            dirs[int(np.argmax(np.abs(lattice @ axis)))] = axis / norm
    starts = _basin_starts(conditional_entropy_batch(t, dirs), nbrs)
    return min((refine_minimum(t, dirs[i], tolerance=tolerance) for i in starts), key=lambda found: found[1])


def _closed_form_minimum(canon: CanonicalForm) -> tuple[float, np.ndarray, bool] | None:
    """(min S(A|n), optimal direction, tie flag) when a closed form applies, else None."""
    if not classify(canon).kind.has_closed_form:
        return None
    x = canon.triple.x
    mags = np.abs(canon.diagonal)
    t_max = float(mags.max())
    min_s = binary_entropy((1 + math.sqrt(float(x @ x) + t_max * t_max)) / 2)  # y = 0, T^T x = 0 in each family
    if t_max <= CLASS_TOL:
        # flat landscape: every direction is optimal, report theta = 0
        return min_s, np.array([0.0, 0.0, 1.0]), True
    degenerate = int((mags >= t_max - 1e-12).sum()) > 1
    return min_s, canon.rotation_b[int(mags.argmax())], degenerate  # O2^T applied to that axis


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
        Spacing of the start lattice that seeds the refinement, radians, in
        [0.5 degrees, pi/8].
    tolerance :
        Stationarity residual at which refinement stops.
    fast_path :
        Use the closed forms for pure states (``min_s = 0``) and when the
        canonical form lands in a solvable family; disable to force the
        multi-start search, reported as grid+refine (e.g. to cross-check
        oracles).
    with_bounds :
        Attach the correlation bounds to the report.

    Returns
    -------
    DiscordReport
        With ``discord = mutual_information - classical_correlation`` exact.
    """
    state = prepare_state(rho)
    t = state.triple
    if fast_path and state.s_ab <= PURE_STATE_TOL:
        # pure state: S(A|n) = 0 for every direction, report theta = 0
        closed_form = 0.0, np.array([0.0, 0.0, 1.0]), True
    else:
        canon = canonicalize(t)  # one SVD serves the class check and the search's start axes
        closed_form = _closed_form_minimum(canon) if fast_path else None
    if closed_form is not None:
        min_s, axis_dir, tie_degenerate = closed_form
        direction = MeasurementDirection(_canonical_sign(axis_dir))
        method = "closed-form"
        diagnostics = stationary_vector(t, direction)
        if tie_degenerate:
            diagnostics = replace(diagnostics, degenerate=True)
    else:
        direction, min_s, diagnostics = _multistart(t, canon, resolution, tolerance)
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
        cp = np.where(b.s_plus > BRANCH_TOL, np.log2(b.w1 / b.w2) / b.s_plus, 0.0)
        cm = np.where(b.s_minus > BRANCH_TOL, np.log2(b.w3 / b.w4) / b.s_minus, 0.0)
        a = ly[:, None] * t.y + (cp[:, None] * b.v_plus - cm[:, None] * b.v_minus) @ t.T
        tang = a - (np.sum(a * dirs, axis=1))[:, None] * dirs
        resid = np.linalg.norm(tang, axis=1)
    return np.where(valid, resid, np.inf)


def _refine_stationary(t: BlochTriple, n0: np.ndarray, tolerance: float = 1e-9,
                       max_iterations: int = 60) -> tuple[np.ndarray, float] | None:
    """Damped Newton iteration toward the nearest stationary point (any type)."""
    n, p = n0, _point(t, n0)
    if p.tang is None:
        return None
    for _ in range(max_iterations):
        if p.resid <= tolerance:
            return n, p.resid
        hess, u, v = _chart_hessian(t, n, p)  # A is defined at every accepted point
        g0 = -0.25 * np.array([p.tang @ u, p.tang @ v])
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
            pc = _point(t, cand)
            if pc.resid < p.resid:
                n, p = cand, pc
                break
            scale /= 2
        else:
            break
    return (n, p.resid) if p.resid <= tolerance else None


def stationary_scan(t: BlochTriple, resolution: float = math.pi / 60) -> list[StationaryPoint]:
    """All stationary measurement directions found from a start lattice.

    The local minima of the stationarity residual on the start lattice of
    :func:`minimize_conditional_entropy`, at spacing ``resolution``, are
    refined with a damped Newton iteration (this captures saddles and maxima
    of the entropy, not just its minima), deduplicated with antipodes
    identified, and returned sorted by entropy value.  Points whose
    refinement does not reach residual 1e-9 are dropped.
    """
    dirs, nbrs = _lattice(_check_resolution(resolution))
    resid = stationary_residual_batch(t, dirs)
    candidates = dirs[(resid <= resid[nbrs].min(axis=1)) & np.isfinite(resid)]

    found: list[StationaryPoint] = []
    for n0 in candidates:
        refined = _refine_stationary(t, n0)
        if refined is None:
            continue
        n, r = refined
        n = _canonical_sign(n)
        if any(math.acos(min(1.0, abs(float(n @ p.direction.n)))) < 1e-4 for p in found):
            continue
        direction = MeasurementDirection(n)
        found.append(StationaryPoint(direction, conditional_entropy(t, direction), r))
    found.sort(key=lambda p: (p.value, p.direction.theta, p.direction.phi))
    return found
