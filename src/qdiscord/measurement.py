"""Projective measurements on subsystem B and the conditioned quantities.

A measurement is labelled by a unit vector n: its two projectors have
Bloch vectors +n and -n.  Given a state triple {x, y, T} this module
computes the outcome probabilities, the joint probabilities (w1..w4), the
post-measurement states of subsystem A, and the measurement-conditioned
entropy of A both through the Shannon-difference identity

    S(A | n) = h4(w) - h2(p0)

and through the direct average sum_k p_k S(rho_A_k), which serves as an
independent cross-check of the identity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .entropy import _as_complex, _as_real, _h_sum, _h_terms, _real_scalar
from .errors import NotAStateError, ValidationError, ZeroProbabilityError
from .states import PSD_TOL, BlochTriple, _count, _qubit_matrix, matrix_from_triple

#: probabilities below this are treated as exactly zero branches
BRANCH_TOL = 1e-12

#: how far from unit length a direction may lie and keep its bits, or a row of a batch at all
_UNIT_TOL = 1e-12

#: how far |x +- T n| may exceed 2 p_k before the state is rejected: twice the 4 PSD_TOL an accepted matrix reaches
_W_DEFICIT_TOL = 8 * PSD_TOL


def _normalized(v) -> tuple[float, float, float] | list[float]:
    """The one normalization rule of a direction: v / hypot(v) as three floats, v itself within 1e-12 of unit length."""
    if not ((type(v) is tuple or type(v) is list) and len(v) == 3 and type(v[0]) is type(v[1]) is type(v[2]) is float):
        if isinstance(v, MeasurementDirection):
            return v.n.tolist()  # the bits it stores, which came out of this rule
        v = _as_real(v, "direction")
        if v.shape != (3,):
            raise ValidationError(f"direction must be a real 3-vector, got shape {v.shape}")
        v = v.tolist()
    x, y, z = v
    # hypot, unlike sqrt(n . n), does not overflow on entries beyond 1e154
    if not (norm := math.hypot(x, y, z)) < math.inf:  # a nan or inf entry, or a norm past the largest float
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValidationError("direction has non-finite entries")
        x, y, z = x / 2, y / 2, z / 2  # exact, and it brings the norm back below the largest float
        norm = math.hypot(x, y, z)
    if norm < 1e-12:
        raise ValidationError("direction vector must be nonzero")
    return (x / norm, y / norm, z / norm) if abs(norm - 1.0) > _UNIT_TOL else (x, y, z)  # kept bits keep -n exact


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit vector on the Bloch sphere labelling a projective measurement.

    The vector is normalized at construction; the polar angles are derived
    on demand (theta in [0, pi], phi in [0, 2 pi)).
    """

    n: np.ndarray

    def __post_init__(self):
        n = np.array(_normalized(self.n))
        n.setflags(write=False)
        object.__setattr__(self, "n", n)

    @property
    def theta(self) -> float:
        return _polar(self.n)[0]

    @property
    def phi(self) -> float:
        return _polar(self.n)[1]


def _polar(n) -> tuple[float, float]:
    """(theta, phi) of a unit vector, three floats or an array: theta in [0, pi], phi in [0, 2 pi)."""
    return math.acos(min(max(n[2], -1.0), 1.0)), math.atan2(n[1], n[0]) % (2 * math.pi)


def _unit_from_angles(theta: float, phi: float) -> tuple[float, float, float]:
    """(sin t cos p, sin t sin p, cos t) as three floats, whose bits :func:`_normalized` keeps."""
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def direction_from_angles(theta: float, phi: float) -> MeasurementDirection:
    """Direction (sin t cos p, sin t sin p, cos t) from real, finite polar angles, else ValidationError."""
    theta, phi = _real_scalar(theta, "theta"), _real_scalar(phi, "phi")
    if not (math.isfinite(theta) and math.isfinite(phi)):  # sin and cos raise ValueError on inf
        raise ValidationError(f"angles must be finite, got ({theta!r}, {phi!r})")
    return MeasurementDirection(_unit_from_angles(theta, phi))


def _canonical_sign(n):
    """Representative of the pair {n, -n}: first nonzero of (z, y, x) positive; n itself or a 3-tuple."""
    for k in (2, 1, 0):
        if n[k] > 0:
            return n
        if n[k] < 0:
            return (-n[0], -n[1], -n[2])
    return n


def _dot(a, b) -> float:
    """a . b for two 3-vectors of floats."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    """a x b for two 3-vectors of floats."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The norm of every row of an (..., 3) array: np.linalg.norm(v, axis=-1), bit for bit, without its dispatch."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def _tangent_basis(n) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Rows u, v with (u, v, n) orthonormal; Duff et al., "Building an Orthonormal Basis, Revisited" (2017)."""
    x, y, z = n
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return (1.0 + sign * x * x * a, sign * b, -sign * x), (b, sign + y * y * a, -y)


def _lowest_eigenpair(huu: float, huv: float, hvv: float) -> tuple[float, tuple[float, float]]:
    """The smaller eigenvalue of [[huu, huv], [huv, hvv]] and a unit eigenvector; (1, 0) for a multiple of I."""
    half_gap = (huu - hvv) / 2
    r = math.hypot(half_gap, huv)
    vec = (huv, -(half_gap + r)) if half_gap >= 0 else (-(r - half_gap), huv)  # a row of H - lambda I, no cancellation
    norm = math.hypot(*vec)
    return (huu + hvv) / 2 - r, (vec[0] / norm, vec[1] / norm) if norm > 0 else (1.0, 0.0)


def projector_bloch(k: int, direction) -> np.ndarray:
    """Rank-1 projector (I + n_k . sigma)/2 with n_0 = n and n_1 = -n."""
    k = _count("outcome index", k, 1, least=0)
    n = np.array(_normalized(direction))
    return _qubit_matrix(n if k == 0 else -n)


#: Raw branch quantities at a direction n, before any clamp or degeneracy policy:
#: p0, p1; w1, w2 = (2 p0 +- s_plus)/4; w3, w4 = (2 p1 +- s_minus)/4; v_plus,
#: v_minus = x +- T n with norms s_plus, s_minus.  Floats and float 3-tuples from
#: :func:`branches`, (N,) and (N, 3) arrays from :func:`branches_batch`; both
#: take p and w from :func:`_weights`.
Branches = namedtuple("Branches", "p0 p1 w1 w2 w3 w4 v_plus v_minus s_plus s_minus")


def _weights(d, sp, sm):
    """(p0, p1, w1, w2, w3, w4) from y . n and |x +- T n|, alike on floats and on (N,) arrays."""
    p0, p1 = (1 + d) / 2, (1 - d) / 2
    return p0, p1, (2 * p0 + sp) / 4, (2 * p0 - sp) / 4, (2 * p1 + sm) / 4, (2 * p1 - sm) / 4


def branches(t: BlochTriple, n) -> Branches:
    """Branch quantities at one unit direction n, a (3,) array or three floats, in float arithmetic."""
    n0, n1, n2 = n.tolist() if isinstance(n, np.ndarray) else n
    (x0, x1, x2), (y0, y1, y2), ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) = t._floats
    # T n and the dot products unrolled, each sum in _dot's order
    tn0, tn1, tn2 = r00 * n0 + r01 * n1 + r02 * n2, r10 * n0 + r11 * n1 + r12 * n2, r20 * n0 + r21 * n1 + r22 * n2
    vp0, vp1, vp2, vm0, vm1, vm2 = x0 + tn0, x1 + tn1, x2 + tn2, x0 - tn0, x1 - tn1, x2 - tn2
    sp, sm = math.sqrt(vp0 * vp0 + vp1 * vp1 + vp2 * vp2), math.sqrt(vm0 * vm0 + vm1 * vm1 + vm2 * vm2)
    return Branches(*_weights(y0 * n0 + y1 * n1 + y2 * n2, sp, sm), (vp0, vp1, vp2), (vm0, vm1, vm2), sp, sm)


def _unit_rows(dirs) -> np.ndarray:
    """``dirs`` as an (N, 3) float array of rows within 1e-12 of unit length, else :class:`ValidationError`."""
    dirs = _as_real(dirs, "directions")
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValidationError(f"directions must be an (N, 3) array, got shape {dirs.shape}")
    norms = _row_norms(np.minimum(np.abs(dirs), 2.0))  # entries capped at 2, so none overflows; a nan fails
    if not (np.minimum.reduce(norms, initial=1.0) >= 1 - _UNIT_TOL
            and np.maximum.reduce(norms, initial=1.0) <= 1 + _UNIT_TOL):
        if not np.logical_and.reduce(np.isfinite(dirs), axis=None):
            raise ValidationError("directions have non-finite entries")
        raise ValidationError("directions must be unit vectors (within 1e-12)")
    return dirs


def branches_batch(t: BlochTriple, dirs) -> Branches:
    """Branch quantities at every row of an (N, 3) array of unit directions, with T n as one matrix product."""
    return _stacked_branches(t.x, t.y, t.T, _unit_rows(dirs))


def _stacked_branches(x: np.ndarray, y: np.ndarray, T: np.ndarray, dirs: np.ndarray) -> Branches:
    """:func:`branches_batch` on checked unit rows, over leading state axes: x (..., 1, 3), y (..., 3), T (..., 3, 3);
    T n and y . n are a product per state, so each state keeps the bits of a batch of its own."""
    tn = dirs @ T.swapaxes(-1, -2)
    vp, vm = x + tn, x - tn
    sp, sm = _row_norms(vp), _row_norms(vm)
    return Branches(*_weights((dirs @ y[..., None])[..., 0], sp, sm), vp, vm, sp, sm)


def _pick(c, a, b):
    """a if c else b: the select of :func:`_probabilities` on floats."""
    return a if c else b


def _least_of_rows(w2: np.ndarray, w4: np.ndarray) -> float:
    """The least entry of two arrays of one shape, or 0.0: the least of :func:`_probabilities` on arrays."""
    return float(np.minimum.reduce(np.minimum(w2, w4), axis=None, initial=0.0))


def _probabilities(b: Branches, least=min, select=_pick):
    """(p0, p1, w1, w2, w3, w4) of the branches; a w below zero by at most 1e-9/4 snaps to 0.

    Its partner snaps to p_k, so w1 + w2 = p0 and w3 + w4 = p1 stay exact.
    Floats as given; for the (N,) arrays of :func:`branches_batch` pass
    ``_least_of_rows`` and ``np.where``, so the two shapes share the check,
    its error and the snap.
    """
    p0, p1, w1, w2, w3, w4 = b[:6]
    low = least(w2, w4)
    if low < -_W_DEFICIT_TOL / 4:
        raise NotAStateError(f"|x +- T n| exceeds 2 p_k by {-4 * low:.3e}; triple is not a state")
    if low < 0:
        w1, w2 = select(w2 < 0, p0, w1), select(w2 < 0, 0.0, w2)
        w3, w4 = select(w4 < 0, p1, w3), select(w4 < 0, 0.0, w4)
    return p0, p1, w1, w2, w3, w4


@dataclass(frozen=True)
class MeasurementProbabilities:
    """Outcome probabilities (p0, p1) and joint probabilities (w1..w4)."""

    p0: float
    p1: float
    w1: float
    w2: float
    w3: float
    w4: float

    @property
    def w(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)


@dataclass(frozen=True)
class PostMeasurementState:
    """Subsystem-A state after outcome ``k``: coherence vector and probability."""

    outcome: int
    x_tilde: np.ndarray
    probability: float


def outcome_probabilities(t: BlochTriple, direction) -> tuple[float, float]:
    """Outcome probabilities p_k = (1 + y . n_k) / 2."""
    b = branches(t, _normalized(direction))
    return b.p0, b.p1


def joint_probabilities(t: BlochTriple, direction) -> MeasurementProbabilities:
    """The six probabilities w_{1,2} = (2 p0 +- |x + T n|)/4, w_{3,4} = (2 p1 +- |x - T n|)/4."""
    return MeasurementProbabilities(*_probabilities(branches(t, _normalized(direction))))


def post_measurement_state(t: BlochTriple, direction, k: int) -> PostMeasurementState:
    """State of A after outcome ``k``: x_tilde_k = (x + T n_k) / (1 + y . n_k)."""
    k = _count("outcome index", k, 1, least=0)
    b = branches(t, _normalized(direction))
    pk, v = (b.p0, b.v_plus) if k == 0 else (b.p1, b.v_minus)
    if pk <= BRANCH_TOL:
        raise ZeroProbabilityError(f"outcome {k} has probability {pk:.3e}")
    return PostMeasurementState(k, np.array(v) / (2 * pk), pk)


def _branch_entropy(p0: float, p1: float, w1: float, w2: float, w3: float, w4: float) -> float:
    # h4(w) - h2(p0) in bits
    return _h_terms(w1, w2, w3, w4) - _h_terms(p0, p1)


def conditional_entropy(t: BlochTriple, direction) -> float:
    """Measurement-conditioned entropy of A: h4(w) - h2(p0), in bits.

    Evaluated at the sign-canonical representative of {n, -n}, so the
    result is bitwise identical for antipodal directions.
    """
    return _branch_entropy(*_probabilities(branches(t, _canonical_sign(_normalized(direction)))))


def conditional_entropy_batch(t: BlochTriple, directions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`conditional_entropy` over an (N, 3) array of unit vectors.

    Each row must be a real vector within 1e-12 of unit length; any other
    row, shape or entry raises :class:`ValidationError`.
    """
    return _entropies(branches_batch(t, directions))


def _conditional_entropy_stack(triples: list[BlochTriple], dirs: np.ndarray) -> np.ndarray:
    """:func:`conditional_entropy_batch` of each triple at its own rows of an (S, N, 3) stack, as one (S, N) pass."""
    x, y, T = (np.array(v) for v in zip(*(t._floats for t in triples)))
    return _entropies(_stacked_branches(x[:, None], y, T, _unit_rows(dirs.reshape(-1, 3)).reshape(dirs.shape)))


def _entropies(b: Branches) -> np.ndarray:
    """h4(w) - h2(p0) at each direction of array branches, of any shape."""
    rows = np.array(_probabilities(b, _least_of_rows, np.where))
    w = rows[2:]
    np.minimum(np.maximum(w, 0.0, out=w), 1.0, out=w)
    return _h_sum(w) - _h_sum(rows[:2])


def conditional_entropy_direct(t: BlochTriple, directions, *, rho: np.ndarray | None = None):
    """Conditioned entropy via the defining average sum_k p_k S(rho_A_k).

    ``directions`` is one direction (a 3-vector, normalized here, or a
    :class:`MeasurementDirection`), which gives a float, or an (N, 3) array
    of unit vectors, as for :func:`conditional_entropy_batch`, which gives
    an (N,) array; a single direction is a batch of one, so both shapes
    give the same bits.

    Works entirely at the matrix level: for each outcome the sandwich
    (I (x) P_k) rho (I (x) P_k), its trace p_k, the partial trace over B
    and a 2x2 eigendecomposition, all batched over the directions.  It
    never uses the Bloch-triple branch formula (:func:`branches`), so it
    stays an independent cross-check of the Shannon-difference identity.
    Branches with p_k <= BRANCH_TOL contribute nothing.  ``rho`` may be
    passed to reuse a precomputed matrix for the same triple.
    """
    dirs = directions.n if isinstance(directions, MeasurementDirection) else _as_real(directions, "directions")
    single = dirs.ndim != 2
    dirs = np.array([_normalized(dirs)]) if single else _unit_rows(dirs)
    if rho is None:
        rho = matrix_from_triple(t)
    else:
        rho = _as_complex(rho, "rho as a finite 4x4 matrix", (4, 4))
        if not np.logical_and.reduce(np.isfinite(rho), axis=None):
            raise ValidationError("rho must be a finite 4x4 matrix")
    count = len(dirs)
    # rows 0..N-1 are outcome 0 (Bloch vector n), rows N..2N-1 outcome 1 (-n)
    proj = _qubit_matrix(np.array((dirs, -dirs)).reshape(-1, 3))
    lift = np.zeros((2 * count, 2, 2, 2, 2), dtype=complex)  # I (x) P_k: P_k on both diagonal blocks
    lift[:, 0, :, 0] = lift[:, 1, :, 1] = proj
    lift = lift.reshape(-1, 4, 4)
    sandwich = (lift.reshape(-1, 4) @ rho).reshape(-1, 4, 4) @ lift  # lift @ rho as one 2-D matmul, same bits
    block = sandwich[:, ::2, ::2] + sandwich[:, 1::2, 1::2]  # einsum's Tr_B, before dividing by p_k
    pk = (block[:, 0, 0] + block[:, 1, 1]).real  # np.trace's order: (s00 + s11) + (s22 + s33)
    live = pk > BRANCH_TOL
    rho_a = block[live] / pk[live, None, None]
    eig = np.linalg.eigvalsh(rho_a)
    np.minimum(np.maximum(eig, 0.0, out=eig), 1.0, out=eig)
    terms = np.zeros(2 * count)
    terms[live] = pk[live] * _h_sum(eig.T)
    total = terms[:count] + terms[count:]
    return float(total[0]) if single else total
