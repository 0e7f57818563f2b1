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

from .errors import NotAStateError, ValidationError, ZeroProbabilityError
from .states import _I2, PAULIS, BlochTriple, matrix_from_triple

_PAULI_STACK = np.stack(PAULIS)

#: probabilities below this are treated as exactly zero branches
BRANCH_TOL = 1e-12

#: how far |x +- T n| may exceed 2 p_k before the state is rejected
_W_DEFICIT_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit vector on the Bloch sphere labelling a projective measurement.

    The vector is normalized at construction; the polar angles are derived
    on demand (theta in [0, pi], phi in [0, 2 pi)).
    """

    n: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.shape != (3,):
            raise ValidationError(f"direction must be a real 3-vector, got shape {n.shape}")
        norm = float(np.linalg.norm(n))
        if norm < 1e-12:
            raise ValidationError("direction vector must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            n = n / norm
        else:
            n = n.copy()  # keep bits: negating a unit vector must stay exact
        n.setflags(write=False)
        object.__setattr__(self, "n", n)

    @property
    def theta(self) -> float:
        return float(math.acos(min(max(self.n[2], -1.0), 1.0)))

    @property
    def phi(self) -> float:
        return float(math.atan2(self.n[1], self.n[0]) % (2 * math.pi))


def direction_from_angles(theta: float, phi: float) -> MeasurementDirection:
    """Direction (sin t cos p, sin t sin p, cos t) from polar angles."""
    st = math.sin(theta)
    return MeasurementDirection(np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)]))


def _unit(direction) -> np.ndarray:
    if isinstance(direction, MeasurementDirection):
        return direction.n
    return MeasurementDirection(np.asarray(direction, dtype=float)).n


def _canonical_sign(n: np.ndarray) -> np.ndarray:
    """Representative of the pair {n, -n}: first nonzero of (z, y, x) positive."""
    for k in (2, 1, 0):
        if n[k] > 0:
            return n
        if n[k] < 0:
            return -n
    return n


def projector_bloch(k: int, direction) -> np.ndarray:
    """Rank-1 projector (I + n_k . sigma)/2 with n_0 = n and n_1 = -n."""
    if k not in (0, 1):
        raise ValidationError(f"outcome index must be 0 or 1, got {k}")
    n = _unit(direction)
    nk = n if k == 0 else -n
    return (_I2 + np.tensordot(nk, _PAULI_STACK, axes=1)) / 2


#: Raw branch quantities at a direction n, before any clamp or degeneracy policy:
#: p0, p1; w1, w2 = (2 p0 +- s_plus)/4; w3, w4 = (2 p1 +- s_minus)/4; v_plus,
#: v_minus = x +- T n with norms s_plus, s_minus.  Scalars and 3-vectors from
#: :func:`branches`, (N,) and (N, 3) arrays from :func:`branches_batch`.
Branches = namedtuple("Branches", "p0 p1 w1 w2 w3 w4 v_plus v_minus s_plus s_minus")


def _assemble(d, vp, vm, sp, sm) -> Branches:
    p0 = (1 + d) / 2
    p1 = (1 - d) / 2
    return Branches(p0, p1, (2 * p0 + sp) / 4, (2 * p0 - sp) / 4,
                    (2 * p1 + sm) / 4, (2 * p1 - sm) / 4, vp, vm, sp, sm)


def branches(t: BlochTriple, n: np.ndarray) -> Branches:
    """Branch quantities at one unit direction n of shape (3,)."""
    tn = t.T @ n
    vp, vm = t.x + tn, t.x - tn
    # sqrt(v . v) is what np.linalg.norm computes for a real vector, minus its overhead
    return _assemble(float(t.y @ n), vp, vm, math.sqrt(vp @ vp), math.sqrt(vm @ vm))


def branches_batch(t: BlochTriple, dirs: np.ndarray) -> Branches:
    """Branch quantities at every row of an (N, 3) array of unit directions."""
    tn = dirs @ t.T.T
    vp, vm = t.x + tn, t.x - tn
    return _assemble(dirs @ t.y, vp, vm, np.linalg.norm(vp, axis=1), np.linalg.norm(vm, axis=1))


def _probabilities(t: BlochTriple, n: np.ndarray) -> tuple[float, float, float, float, float, float]:
    """(p0, p1, w1, w2, w3, w4) at n; a w below zero by at most 1e-9/4 snaps to 0.

    Its partner snaps to p_k, so w1 + w2 = p0 and w3 + w4 = p1 stay exact.
    """
    p0, p1, w1, w2, w3, w4 = branches(t, n)[:6]
    if min(w2, w4) < -_W_DEFICIT_TOL / 4:
        raise NotAStateError(f"|x +- T n| exceeds 2 p_k by {-4 * min(w2, w4):.3e}; triple is not a state")
    if w2 < 0:
        w1, w2 = p0, 0.0
    if w4 < 0:
        w3, w4 = p1, 0.0
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
    b = branches(t, _unit(direction))
    return b.p0, b.p1


def joint_probabilities(t: BlochTriple, direction) -> MeasurementProbabilities:
    """The six probabilities w_{1,2} = (2 p0 +- |x + T n|)/4, w_{3,4} = (2 p1 +- |x - T n|)/4."""
    return MeasurementProbabilities(*_probabilities(t, _unit(direction)))


def post_measurement_state(t: BlochTriple, direction, k: int) -> PostMeasurementState:
    """State of A after outcome ``k``: x_tilde_k = (x + T n_k) / (1 + y . n_k)."""
    if k not in (0, 1):
        raise ValidationError(f"outcome index must be 0 or 1, got {k}")
    b = branches(t, _unit(direction))
    pk, v = (b.p0, b.v_plus) if k == 0 else (b.p1, b.v_minus)
    if pk <= BRANCH_TOL:
        raise ZeroProbabilityError(f"outcome {k} has probability {pk:.3e}")
    return PostMeasurementState(k, v / (2 * pk), pk)


def _h_terms(*values: float) -> float:
    # -sum v log2 v with 0 log 0 = 0, fixed summation order
    acc = 0.0
    for v in values:
        if v > 0.0:
            acc -= v * math.log2(v)
    return acc


def _branch_entropy(p0: float, p1: float, w1: float, w2: float, w3: float, w4: float) -> float:
    # h4(w) - h2(p0) in bits
    return _h_terms(w1, w2, w3, w4) - _h_terms(p0, p1)


def conditional_entropy(t: BlochTriple, direction) -> float:
    """Measurement-conditioned entropy of A: h4(w) - h2(p0), in bits.

    Evaluated at the sign-canonical representative of {n, -n}, so the
    result is bitwise identical for antipodal directions.
    """
    return _branch_entropy(*_probabilities(t, _canonical_sign(_unit(direction))))


def conditional_entropy_batch(t: BlochTriple, directions: np.ndarray) -> np.ndarray:
    """Vectorized :func:`conditional_entropy` over an (N, 3) array of unit vectors."""
    b = branches_batch(t, np.asarray(directions, dtype=float))
    w = np.stack([b.w1, b.w2, b.w3, b.w4])
    np.clip(w, 0.0, 1.0, out=w)
    with np.errstate(divide="ignore", invalid="ignore"):
        h4 = -np.where(w > 0, w * np.log2(w), 0.0).sum(axis=0)
        h2 = -(np.where(b.p0 > 0, b.p0 * np.log2(b.p0), 0.0)
               + np.where(b.p1 > 0, b.p1 * np.log2(b.p1), 0.0))
    return h4 - h2


def conditional_entropy_direct(t: BlochTriple, direction, *, rho: np.ndarray | None = None) -> float:
    """Conditioned entropy via the defining average sum_k p_k S(rho_A_k).

    Works entirely at the matrix level (projector sandwich, partial trace,
    eigendecomposition), independent of the Shannon-difference identity,
    so the two routes cross-check each other.  Zero-probability branches
    contribute nothing.  ``rho`` may be passed to reuse a precomputed
    matrix for the same triple.
    """
    n = _unit(direction)
    if rho is None:
        rho = matrix_from_triple(t)
    total = 0.0
    for k in (0, 1):
        proj = np.kron(_I2, projector_bloch(k, n))
        sandwich = proj @ rho @ proj
        pk = float(np.trace(sandwich).real)
        if pk <= BRANCH_TOL:
            continue
        rho_a = sandwich.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3) / pk
        eig = np.linalg.eigvalsh(rho_a)
        total += pk * _h_terms(*np.clip(eig, 0.0, 1.0))
    return total
