"""Global minimization of the conditioned entropy over measurement directions.

The pipeline is: a coarse hemisphere lattice scan seeded with the state's
own axes (the n -> -n symmetry halves the sphere), saddle-free Newton
refinement of the stationarity condition A || n from every plateau of
lattice-local minima, and assembly of mutual information, classical
correlation and discord.  Pure states and states with T^t x = y = 0, as the
bounds' rank rule decides, skip the search: there the bound is the minimum.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .bounds import BoundReport, ScanRow, theorem1_bounds
from .entropy import _real_scalar
from .errors import ValidationError
from .measurement import (
    BRANCH_TOL,
    MeasurementDirection,
    _branch_entropy,
    _canonical_sign,
    _dot,
    _least_of_rows,
    _lowest_eigenpair,
    _normalized,
    _polar,
    _probabilities,
    _row_norms,
    _tangent_basis,
    branches,
    branches_batch,
    conditional_entropy,
    conditional_entropy_batch,
)
from .states import BlochTriple, PreparedState, _proper_svd, prepare_state

# Unused here; kept bound because the benchmark trace (perfbench/spans.py) wraps them.
from .closed_forms import classify, kernel_class_min_entropy  # noqa: F401
from .entropy import von_neumann_entropy  # noqa: F401
from .states import canonicalize, reduced_states, triple_from_matrix  # noqa: F401

#: spacing of the start lattice of :func:`minimize_conditional_entropy`
DEFAULT_RESOLUTION = math.pi / 18
#: the finest spacing accepted; finer lattices and grids grow as 1/resolution^2
MIN_RESOLUTION = math.radians(0.5)
#: step of the exhaustive :func:`grid_minimize` scan, the search's test oracle
ORACLE_RESOLUTION = math.pi / 180
DEFAULT_TOLERANCE = 1e-9
MAX_REFINE_ITERATIONS = 200

_ARMIJO = 1e-4
_COMPASS_MIN_STEP = 1e-9
#: lattice values this close count as equal, so a landscape flat to this
#: spread (a pure state's S(A|n) = 0 up to rounding) is one plateau
_PLATEAU_TOL = 1e-12
#: S(rho) at or below this marks a pure state, whose S(A|n) vanishes for every n
PURE_STATE_TOL = 1e-12
#: chart curvature below -this marks a saddle or maximum; refinement divides by no smaller |curvature|
_SADDLE_CURVATURE = 1e-8


@dataclass(frozen=True)
class StationaryDiagnostics:
    """Stationarity data at a measurement direction.

    ``residual`` is the norm of the component of A orthogonal to n; it
    vanishes exactly at stationary points.  ``grad_theta`` and ``grad_phi``
    are the derivatives of the conditioned entropy in bits.  When a branch
    probability vanishes the logarithms in A are undefined: the point is
    flagged ``degenerate`` and no numbers are reported.  A report's record
    takes all six fields on the first read of any (:func:`stationary_vector`
    returns them taken), so a caller that reads none never pays for them.
    """

    a_vector: np.ndarray | None
    a_scalar: float | None
    residual: float | None
    grad_theta: float | None
    grad_phi: float | None
    degenerate: bool = False


class _Deferred:
    """A field of a :func:`_deferred` record; non-data, so a record built by ``__init__`` never runs it."""

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        fields = obj.__dict__
        # the pending arguments stay: a thread reading at once takes its own values and returns the ones stored
        for name, value in vars(_diagnostics(*fields["_pending"])).items():
            fields.setdefault(name, value)
        return fields[self.name]


for _name in ("a_vector", "a_scalar", "residual", "grad_theta", "grad_phi", "degenerate"):  # after @dataclass, not defaults
    setattr(StationaryDiagnostics, _name, _Deferred(_name))


def _deferred(*pending) -> StationaryDiagnostics:
    """``_diagnostics(*pending)`` as a record whose first read of any field takes all six; ``pending`` is plain data."""
    record = object.__new__(StationaryDiagnostics)
    record.__dict__["_pending"] = pending
    return record


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


def _moved(n, step: float, w) -> tuple[float, float, float]:
    """The unit vector along n + step w."""
    m = (n[0] + step * w[0], n[1] + step * w[1], n[2] + step * w[2])
    r = math.sqrt(_dot(m, m))
    return m[0] / r, m[1] / r, m[2] / r


_Point = namedtuple("_Point", "f b a tang resid l1 l2 g1 g2 e1 e2", defaults=(None,) * 6)

#: -1/(16 ln 2), the weight unit of the chart Hessian's outer-product terms
_K = -1 / (16 * math.log(2))


def _point(t: BlochTriple, n, model: bool = True) -> _Point:
    """Everything refinement reads at the unit vector n (three floats), from one branch evaluation.

    The entropy f (bitwise :func:`conditional_entropy`) and branches b at the
    sign-canonical representative of {n, -n}; where A is defined, A at n by
    A(-n) = -A(n), its tangential part tang and that part's norm resid, and
    the chart model: the chart Hessian's eigenvalues l1 <= l2, the chart
    gradient -tang/4 along its eigenvectors (g1, g2) and the eigenvectors as
    ambient vectors (e1, e2), unless ``model`` is false.  A vanishing w or p
    has no finite limit: there only f and b are set, and resid is nan.  Sums
    run in :func:`_dot`'s order.

    A = log2(w1 w2 p1^2/(w3 w4 p0^2)) y + T^T (c+ v+ - c- v-), c+- = log2(w1/w2)/s+,
    log2(w3/w4)/s-, each 0 (its limit) where v+-/s+- is undefined.  With
    u+- = (x +- T n)/s+- and the gradients g1,2 = (y +- T^T u+)/4,
    g3,4 = -(y +- T^T u-)/4 of w1..w4, the ambient Hessian of h4(w) - h2(p0) is

        -[sum_i g_i g_i^T/w_i - (1/p0 + 1/p1) y y^T/4]/ln 2
        - [log2(w1/w2) T^T (I - u+ u+^T) T/s+ + log2(w3/w4) T^T (I - u- u-^T) T/s-]/4

    and the chart Hessian is B^T (that) B + (n.A)/4 I with B = [u v], the
    :func:`_tangent_basis`.  Where s+- = 0 the pair's terms take their limit
    -(y y^T + T^T T)/(4 p ln 2).  The ambient Hessian is even in n.
    """
    c = _canonical_sign(n)
    b = branches(t, c)
    f = _branch_entropy(*_probabilities(b))
    p0, p1, w1, w2, w3, w4, (vp0, vp1, vp2), (vm0, vm1, vm2), sp, sm = b
    if min(w1, w2, w3, w4, p0, p1) <= BRANCH_TOL:
        return _Point(f, b, None, None, math.nan)
    _, (y0, y1, y2), ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) = t._floats
    n0, n1, n2 = n
    # per pair: c+-, the kappa+- of its term -kappa T^T (I - u u^T) T, and u+- (None in the limit, where it drops out)
    if sp > BRANCH_TOL:
        log_p, up = math.log2(w1 / w2), (vp0 / sp, vp1 / sp, vp2 / sp)
        cp, kp = log_p / sp, log_p / (4 * sp)
    else:
        cp, kp, up = 0.0, 1 / (4 * math.log(2) * p0), None
    if sm > BRANCH_TOL:
        log_m, um = math.log2(w3 / w4), (vm0 / sm, vm1 / sm, vm2 / sm)
        cm, km = log_m / sm, log_m / (4 * sm)
    else:
        cm, km, um = 0.0, 1 / (4 * math.log(2) * p1), None
    ly = math.log2((w1 * w2 * p1 * p1) / (w3 * w4 * p0 * p0))
    q0, q1, q2 = cp * vp0 - cm * vm0, cp * vp1 - cm * vm1, cp * vp2 - cm * vm2
    a0 = ly * y0 + (r00 * q0 + r10 * q1 + r20 * q2)
    a1 = ly * y1 + (r01 * q0 + r11 * q1 + r21 * q2)
    a2 = ly * y2 + (r02 * q0 + r12 * q1 + r22 * q2)
    if c is not n:
        a0, a1, a2 = -a0, -a1, -a2
    na = n0 * a0 + n1 * a1 + n2 * a2
    tang = (a0 - na * n0, a1 - na * n1, a2 - na * n2)
    resid = math.sqrt(_dot(tang, tang))
    if not model:
        return _Point(f, b, (a0, a1, a2), tang, resid)
    (u0, u1, u2), (v0, v1, v2) = _tangent_basis(n)
    tu0, tu1, tu2 = r00 * u0 + r01 * u1 + r02 * u2, r10 * u0 + r11 * u1 + r12 * u2, r20 * u0 + r21 * u1 + r22 * u2
    tv0, tv1, tv2 = r00 * v0 + r01 * v1 + r02 * v2, r10 * v0 + r11 * v1 + r12 * v2, r20 * v0 + r21 * v1 + r22 * v2
    yu, yv = y0 * u0 + y1 * u1 + y2 * u2, y0 * v0 + y1 * v1 + y2 * v2
    # B^T T^T u+-, then the weight and (u, v) row of each term: y, per pair 4 g_i (up to sign) for its two w
    # and B^T T^T u; each sum starts from 0.0, so that a sum of zeros is +0.0
    pu, pv = (up[0] * tu0 + up[1] * tu1 + up[2] * tu2, up[0] * tv0 + up[1] * tv1 + up[2] * tv2) if up else (0.0, 0.0)
    mu, mv = (um[0] * tu0 + um[1] * tu1 + um[2] * tu2, um[0] * tv0 + um[1] * tv1 + um[2] * tv2) if um else (0.0, 0.0)
    w0, k1, k2, k3, k4 = -4 * _K * (1 / p0 + 1 / p1), _K / w1, _K / w2, _K / w3, _K / w4
    r1, r2, r3, r4, s1, s2, s3, s4 = yu + pu, yu - pu, yu + mu, yu - mu, yv + pv, yv - pv, yv + mv, yv - mv
    huu = 0.0 + yu * w0 * yu + r1 * k1 * r1 + r2 * k2 * r2 + pu * kp * pu + r3 * k3 * r3 + r4 * k4 * r4 + mu * km * mu
    huv = 0.0 + yu * w0 * yv + r1 * k1 * s1 + r2 * k2 * s2 + pu * kp * pv + r3 * k3 * s3 + r4 * k4 * s4 + mu * km * mv
    hvv = 0.0 + yv * w0 * yv + s1 * k1 * s1 + s2 * k2 * s2 + pv * kp * pv + s3 * k3 * s3 + s4 * k4 * s4 + mv * km * mv
    kappa, sphere = kp + km, 0.25 * na  # sphere: the sphere's own curvature, -(n . grad S) I
    huu = huu - kappa * (tu0 * tu0 + tu1 * tu1 + tu2 * tu2) + sphere
    huv = huv - kappa * (tu0 * tv0 + tu1 * tv1 + tu2 * tv2)
    hvv = hvv - kappa * (tv0 * tv0 + tv1 * tv1 + tv2 * tv2) + sphere
    l1, (cu, cv) = _lowest_eigenpair(huu, huv, hvv)
    e1 = (cu * u0 + cv * v0, cu * u1 + cv * v1, cu * u2 + cv * v2)
    e2 = (cu * v0 - cv * u0, cu * v1 - cv * u1, cu * v2 - cv * u2)
    return _Point(f, b, (a0, a1, a2), tang, resid, l1, huu + hvv - l1,
                  -0.25 * _dot(tang, e1), -0.25 * _dot(tang, e2), e1, e2)


def stationary_vector(t: BlochTriple, direction) -> StationaryDiagnostics:
    """Evaluate the stationarity vector A and the entropy gradient at a direction.

    The derivative of the conditioned entropy along a tangent vector tau is
    -tau.A/4 (in bits), so stationary points are exactly where A is parallel
    to n.  The Lagrange scalar of the constrained formulation equals n.A.
    """
    return _diagnostics(t, _normalized(direction), None)


def _diagnostics(t: BlochTriple, n, p: _Point | None, sign: float = 1.0, degenerate: bool = False,
                 ) -> StationaryDiagnostics:
    """:func:`stationary_vector` at the unit vector n (three floats) from the record ``p`` of ``sign * n``, or of n if None.

    ``degenerate`` flags a tied optimum; a point where A is undefined is flagged in any case.
    """
    if p is None:
        p = _point(t, n, model=False)
    if p.a is None:
        return StationaryDiagnostics(None, None, None, None, None, degenerate=True)
    a, b = (sign * p.a[0], sign * p.a[1], sign * p.a[2]), p.b
    th, ph = _polar(n)
    ct, st, cp, sp = math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)
    n_theta, n_phi = (ct * cp, ct * sp, -st), (-st * sp, st * cp, 0.0)
    # the Lagrange scalar of A = A_scalar n from its own formula, a check on n.A
    a_scalar = -4 * p.f - math.log2((b.w1 * b.w2 * b.w3 * b.w4) / (b.p0 * b.p0 * b.p1 * b.p1))
    if b.s_plus > BRANCH_TOL:
        a_scalar -= math.log2(b.w1 / b.w2) * _dot(t._floats[0], [v / b.s_plus for v in b.v_plus])
    if b.s_minus > BRANCH_TOL:
        a_scalar -= math.log2(b.w3 / b.w4) * _dot(t._floats[0], [v / b.s_minus for v in b.v_minus])
    return StationaryDiagnostics(
        a_vector=np.array(a),
        a_scalar=a_scalar,
        residual=p.resid,
        grad_theta=-0.25 * _dot(n_theta, a),
        grad_phi=-0.25 * _dot(n_phi, a),
        degenerate=degenerate,
    )


def _in_range(name: str, value, low: float, high: float) -> float:
    """``value`` as a float in [low, high]; a ValidationError for any other value, nan or one that is not real."""
    if not low <= (number := _real_scalar(value, name)) <= high:
        raise ValidationError(f"{name} must be in [{low!r}, {high!r}], got {value!r}")
    return number


def _check_resolution(resolution: float) -> float:
    return _in_range("resolution", resolution, MIN_RESOLUTION, math.pi / 8)


def _check_tolerance(tolerance: float) -> float:
    return _in_range("tolerance", tolerance, 1e-12, 1e-3)


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
    read-only (N, 3) directions and (k, N) neighbour indices, a contiguous
    column per point padded with its own index.
    """
    count = math.ceil(2 * math.pi / resolution**2)
    index = np.arange(count)
    z = 1 - (index + 0.5) / count
    phi = index * (math.pi * (3 - math.sqrt(5)))
    r = np.sqrt(1 - z * z)
    dirs = np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
    # z falls by 1/N per index, and whether m lies near n or near -n (both
    # with z >= 0), |z_n - z_m| <= 2 sin(reach/2) < reach: neighbours lie
    # within reach * N indices; elementwise products and lists build the graph
    # (a first use of numpy's einsum and sort costs more memory than the build)
    reach = 1.5 * resolution
    x, y, z = dirs.T
    rows: list[list[int]] = [[] for _ in range(count)]
    for k in range(1, int(reach * count) + 1):
        dots = x[:-k] * x[k:] + y[:-k] * y[k:] + z[:-k] * z[k:]
        for i in np.flatnonzero(np.abs(dots) >= math.cos(reach)).tolist():
            rows[i].append(i + k)
            rows[i + k].append(i)
    width = max(map(len, rows))
    nbrs = np.array([sorted(row) + [i] * (width - len(row)) for i, row in enumerate(rows)]).T.copy()
    dirs.setflags(write=False)
    nbrs.setflags(write=False)
    return dirs, nbrs


def _basin_starts(values: np.ndarray, nbrs: np.ndarray) -> list[int]:
    """Lattice indices of one start per plateau of local minima, in ascending value.

    Neighbouring minima form one plateau, represented by its lowest point
    (the lowest index among equals).  Plateaus are found by spreading the
    smallest index over the graph of minima, which settles within N passes.
    """
    is_min = values <= np.minimum.reduce(values[nbrs], axis=0) + _PLATEAU_TOL
    minima = is_min.nonzero()[0]
    if len(minima) == 1:  # one plateau: nothing to spread
        return minima.tolist()
    outside = len(values)  # the label of the other points, which link nothing
    labels = np.where(is_min, np.arange(outside), outside)
    for _ in range(outside):
        spread = np.where(is_min, np.minimum(labels, np.minimum.reduce(labels[nbrs], axis=0)), outside)
        if np.logical_and.reduce(spread == labels):
            break
        labels = spread
    starts: dict[int, int] = {}  # plateau label -> its first point in ascending (value, index)
    for i in sorted(minima, key=lambda i: (values[i], i)):
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
    return best, conditional_entropy(t, best)


def _compass(t: BlochTriple, n, f: float, step: float) -> tuple[float, float, float]:
    """Compass search where the gradient is undefined, until no probe is lower and all four lie within _PLATEAU_TOL."""
    while step > _COMPASS_MIN_STEP:
        u, v = _tangent_basis(n)
        rise = 0.0
        for signed, probe in ((step, u), (-step, u), (step, v), (-step, v)):
            cand = _moved(n, signed, probe)
            fc = _point(t, cand, model=False).f
            if fc < f:
                n, f = cand, fc
                break
            rise = max(rise, fc - f)
        else:
            if rise <= _PLATEAU_TOL:
                break
            step /= 2
    return n


def _descend(t: BlochTriple, n, tolerance: float) -> tuple[tuple[float, float, float], _Point]:
    """Saddle-free Newton descent from the unit vector n to a local minimum: that point and its record."""
    p = _point(t, n)
    for _ in range(MAX_REFINE_ITERATIONS):
        if p.tang is None:
            n = _compass(t, n, p.f, 0.01)
            return n, _point(t, n)
        _, _, _, _, resid, l1, l2, g1, g2, e1, e2 = p
        if resid <= tolerance:
            if l1 >= -_SADDLE_CURVATURE:
                break
            c1, c2 = math.copysign(0.5, -g1), 0.0  # a saddle or maximum: 0.5 rad down e1
        else:
            c1, c2 = -g1 / max(abs(l1), _SADDLE_CURVATURE), -g2 / max(abs(l2), _SADDLE_CURVATURE)
        slope, curvature = g1 * c1 + g2 * c2, min(l1 * c1 * c1 + l2 * c2 * c2, 0.0)
        w = (c1 * e1[0] + c2 * e2[0], c1 * e1[1] + c2 * e2[1], c1 * e1[2] + c2 * e2[2])
        s = min(1.0, 0.5 / math.hypot(c1, c2))
        for _ in range(60):
            model = s * slope + 0.5 * s * s * curvature
            cand = _moved(n, s, w)
            pc = _point(t, cand)
            # a model decrease below rounding tests nothing: take a lower residual at no rise past rounding
            if (pc.f <= p.f + 1e-14 and pc.resid < resid) if abs(model) < 1e-13 else pc.f <= p.f + _ARMIJO * model:
                n, p = cand, pc
                break
            s /= 2
        else:
            break  # no halving is accepted
    return n, p


def refine_minimum(t: BlochTriple, start, *, tolerance: float = DEFAULT_TOLERANCE,
                   ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """Descend the conditioned entropy from ``start`` until A is parallel to n at a minimum.

    Newton steps on the closed-form tangent-chart Hessian with each
    eigenvalue taken by its magnitude ("saddle-free": Nocedal & Wright,
    *Numerical Optimization*, 3.4; Dauphin et al., NIPS 2014) go downhill
    from any start; a saddle or maximum (the pole of an ab-family state near
    its crossover a = q) is left down its negative curvature.  Points where
    the gradient is undefined fall back to compass search.  The returned
    value never exceeds the starting value.  One branch evaluation serves
    each point visited; the diagnostics reuse the last, on first read.
    """
    n, p = _descend(t, _normalized(start), _check_tolerance(tolerance))
    direction = MeasurementDirection(c := _canonical_sign(n))
    return direction, p.f, _deferred(t, c, p, 1.0 if c is n else -1.0, False)


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
    return _multistart(t, _proper_svd(t)[1][1], _check_resolution(resolution), _check_tolerance(tolerance))


def _multistart(t: BlochTriple, axes_b: list, resolution: float, tolerance: float,
                ) -> tuple[MeasurementDirection, float, StationaryDiagnostics]:
    """:func:`minimize_conditional_entropy` with checked settings and ``axes_b``, the rows of O2 in T's SVD."""
    lattice, nbrs = _lattice(resolution)
    axes = []
    for a in (*axes_b, t._floats[1], t._tx):  # _row_norms' sum and sqrt, in floats
        norm = math.sqrt(_dot(a, a))
        if norm > 1e-12:
            axes.append((a[0] / norm, a[1] / norm, a[2] / norm))
    dirs = lattice.copy()
    for i, axis in zip(np.abs(lattice @ np.array(axes).T).argmax(axis=0).tolist(), axes):  # the later axis wins a point
        dirs[i] = axis
    starts = _basin_starts(conditional_entropy_batch(t, dirs), nbrs)
    return min((refine_minimum(t, dirs[i].tolist(), tolerance=tolerance) for i in starts), key=lambda found: found[1])


def _closed_form_minimum(state: PreparedState) -> tuple[MeasurementDirection, float, StationaryDiagnostics] | None:
    """(optimal direction, min S(A|n), diagnostics) for a pure state or one with T^t x = y = 0, else None."""
    if state.s_ab <= PURE_STATE_TOL:  # pure state: S(A|n) = 0 for every direction
        direction, min_s, tie = MeasurementDirection((0.0, 0.0, 1.0)), 0.0, True  # all optimal: theta = 0
    else:
        _, dim, direction, tie, min_s = state._restricted
        if dim < 3:  # dimension 3: the bounds' rank rule finds T^t x = y = 0, so their bound is the minimum
            return None
    return direction, min_s, _deferred(state.triple, direction.n.tolist(), None, 1.0, tie)


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
        Stationarity residual at which refinement stops, in [1e-12, 1e-3].
    fast_path :
        Skip the search for pure states (``min_s = 0``) and where the bounds'
        rank rule finds T^t x = y = 0, whose bound (value, e0 and tie flag)
        is then the minimum; disable to force the multi-start search,
        reported as grid+refine (e.g. to cross-check oracles).
    with_bounds :
        Attach the correlation bounds to the report.

    Returns
    -------
    DiscordReport
        With ``discord = mutual_information - classical_correlation`` exact;
        its ``diagnostics`` are taken on first read.
    """
    resolution, tolerance = _check_resolution(resolution), _check_tolerance(tolerance)
    if not (isinstance(fast_path, (bool, np.bool_)) and isinstance(with_bounds, (bool, np.bool_))):
        raise ValidationError(f"fast_path and with_bounds must be bools, got {fast_path!r} and {with_bounds!r}")
    state = prepare_state(rho)
    found = _closed_form_minimum(state) if fast_path else None
    method = "grid+refine" if found is None else "closed-form"
    direction, min_s, diagnostics = found or _multistart(state.triple, state._svd[1][1], resolution, tolerance)

    # 0 <= J <= I, which the PSD slack of an accepted matrix can break by rounding
    mutual = state.mutual_information
    classical = min(max(0.0, state.s_a - min_s), mutual)
    discord = mutual - classical
    bounds = theorem1_bounds(state, discord=discord) if with_bounds else None
    return DiscordReport(
        mutual_information=mutual,
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


def bound_comparison_scan(states: Iterable[tuple[float, float, np.ndarray]],
                          resolution: float = DEFAULT_RESOLUTION,
                          tolerance: float = DEFAULT_TOLERANCE) -> list[ScanRow]:
    """Discord versus bounds over a parameterized family.

    ``states`` yields ``(param1, param2, rho)`` tuples, each parameter a real number (not
    a bool, complex or string); rows come back in the same order.  What is not an iterable,
    or a row that is not three values, raises :class:`ValidationError` naming the row.
    Each row records the computed discord, the discord upper bound, the comparison bound
    S(rho_B), and whether the bound is saturated within 1e-6.
    """
    try:
        states = iter(states)
    except TypeError:
        raise ValidationError(f"states must be an iterable of rows, got {reprlib.repr(states)}") from None
    rows = []
    for k, row in enumerate(states):
        try:
            p1, p2, rho = row
        except (TypeError, ValueError):  # not iterable, or not three values
            raise ValidationError(f"states row {k} is not (param1, param2, rho): {reprlib.repr(row)}") from None
        report = quantum_discord(rho, resolution=resolution, tolerance=tolerance)
        b = report.bounds
        rows.append(ScanRow(_real_scalar(p1, "param1"), _real_scalar(p2, "param2"), report.discord,
                            b.discord_ub, b.xi_bound, b.saturated))
    return rows


def stationary_residual_batch(t: BlochTriple, dirs: np.ndarray) -> np.ndarray:
    """Vectorized stationarity residual |A - (n.A) n|; inf at degenerate directions.

    ``dirs`` is an (N, 3) array of unit vectors, checked as by :func:`conditional_entropy_batch`.
    """
    b = branches_batch(t, dirs)
    dirs = np.asarray(dirs, dtype=float)  # real, (N, 3) and unit rows: branches_batch checked them
    probs = p0, p1, w1, w2, w3, w4 = _probabilities(b, _least_of_rows, np.where)
    valid = np.minimum.reduce(probs) > BRANCH_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log2((w1 * w2 * p1 * p1) / (w3 * w4 * p0 * p0))
        cp = np.where(b.s_plus > BRANCH_TOL, np.log2(w1 / w2) / b.s_plus, 0.0)
        cm = np.where(b.s_minus > BRANCH_TOL, np.log2(w3 / w4) / b.s_minus, 0.0)
        a = ly[:, None] * t.y + (cp[:, None] * b.v_plus - cm[:, None] * b.v_minus) @ t.T
        tang = a - (np.sum(a * dirs, axis=1))[:, None] * dirs
        resid = _row_norms(tang)
    return np.where(valid, resid, np.inf)


def _refine_stationary(t: BlochTriple, n) -> tuple[tuple[float, float, float], _Point] | None:
    """Up to 60 damped Newton steps on A || n from n toward a stationary point of any type.

    Each step solves the chart model (refused for a singular chart Hessian or a
    step not finite or over 0.5 rad) and takes the first of up to 8 halvings
    that lowers the residual.  The first point with residual <= 1e-9 and its
    record; None where A is undefined, a step fails or 60 steps do not get there.
    """
    p = _point(t, n)
    for _ in range(60):
        if p.tang is None or p.resid <= 1e-9:
            break
        _, _, _, _, _, l1, l2, g1, g2, e1, e2 = p
        if l1 == 0 or l2 == 0 or not math.hypot(g1 / l1, g2 / l2) <= 0.5:  # False for a step that is not finite
            break
        w = [-g1 / l1 * a - g2 / l2 * b for a, b in zip(e1, e2)]
        for k in range(8):
            cand = _moved(n, 0.5**k, w)
            pc = _point(t, cand)
            if pc.resid < p.resid:  # False at a nan residual
                break
        else:
            break
        n, p = cand, pc
    return (n, p) if p.resid <= 1e-9 else None


def stationary_scan(t: BlochTriple, resolution: float = math.pi / 60) -> list[StationaryPoint]:
    """All stationary measurement directions found from a start lattice.

    The local minima of the stationarity residual on the start lattice of
    :func:`minimize_conditional_entropy`, at spacing ``resolution``, are
    refined by Newton steps on the search's chart model (this captures
    saddles and maxima of the entropy, not just its minima), deduplicated
    with antipodes identified, and returned sorted by entropy value, each
    with the value and residual of its refined record.  Points whose
    refinement does not reach residual 1e-9 are dropped.
    """
    dirs, nbrs = _lattice(_check_resolution(resolution))
    resid = stationary_residual_batch(t, dirs)
    candidates = dirs[(resid <= resid[nbrs].min(axis=0)) & np.isfinite(resid)]

    found: list[StationaryPoint] = []
    for n0 in candidates.tolist():
        refined = _refine_stationary(t, n0)
        if refined is None:
            continue
        n, point = refined
        n = _canonical_sign(n)
        if any(math.acos(min(1.0, abs(_dot(n, p.direction.n)))) < 1e-4 for p in found):
            continue
        direction = MeasurementDirection(n)
        found.append(StationaryPoint(direction, point.f, point.resid))
    found.sort(key=lambda p: (p.value, p.direction.theta, p.direction.phi))
    return found
