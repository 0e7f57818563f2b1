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


def _probabilities(b: Branches) -> tuple[float, float, float, float, float, float]:
    """(p0, p1, w1, w2, w3, w4) of the branches; a w below zero by at most 1e-9/4 snaps to 0.

    Its partner snaps to p_k, so w1 + w2 = p0 and w3 + w4 = p1 stay exact.
    """
    p0, p1, w1, w2, w3, w4 = b[:6]
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
    return MeasurementProbabilities(*_probabilities(branches(t, _unit(direction))))


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
    return _branch_entropy(*_probabilities(branches(t, _canonical_sign(_unit(direction)))))


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
    single = isinstance(directions, MeasurementDirection) or np.ndim(directions) != 2
    dirs = _unit(directions)[None] if single else np.asarray(directions, dtype=float)
    if rho is None:
        rho = matrix_from_triple(t)
    count = len(dirs)
    # rows 0..N-1 are outcome 0 (Bloch vector n), rows N..2N-1 outcome 1 (-n)
    proj = (_I2 + np.tensordot(np.concatenate((dirs, -dirs)), _PAULI_STACK, axes=1)) / 2
    lift = np.zeros((2 * count, 2, 2, 2, 2), dtype=complex)  # I (x) P_k: P_k on both diagonal blocks
    lift[:, 0, :, 0] = lift[:, 1, :, 1] = proj
    lift = lift.reshape(-1, 4, 4)
    sandwich = lift @ rho @ lift
    pk = np.trace(sandwich, axis1=1, axis2=2).real
    live = pk > BRANCH_TOL
    rho_a = np.einsum("nabcb->nac", sandwich[live].reshape(-1, 2, 2, 2, 2)) / pk[live, None, None]
    eig = np.clip(np.linalg.eigvalsh(rho_a), 0.0, 1.0)
    log_eig = np.log2(eig, out=np.zeros_like(eig), where=eig > 0.0)  # 0 log 0 = 0
    terms = np.zeros(2 * count)
    terms[live] = pk[live] * -(eig * log_eig).sum(axis=1)
    total = terms[:count] + terms[count:]
    return float(total[0]) if single else total
