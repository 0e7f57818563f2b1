"""Two-qubit state model in the Bloch (Hilbert-Schmidt) picture.

A two-qubit density matrix is parameterized by the triple ``{x, y, T}``:
the coherence vectors of the two subsystems and the 3x3 correlation
matrix.  This module converts between the matrix and triple pictures,
validates states, applies local rotations, brings the correlation matrix
to diagonal form, and samples random states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _spectrum_entropy, von_neumann_entropy
from .errors import NotAStateError, ValidationError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
# sigma_i (x) I, I (x) sigma_j, sigma_i (x) sigma_j, precomputed once
_KRON_A = np.stack([np.kron(p, _I2) for p in PAULIS])
_KRON_B = np.stack([np.kron(_I2, p) for p in PAULIS])
_KRON_AB = np.stack([np.stack([np.kron(pi, pj) for pj in PAULIS]) for pi in PAULIS])

#: acceptance thresholds used by :func:`validate`
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-8
PSD_TOL = 1e-9
# no state has an entry beyond 1 in modulus; validate rejects a real or
# imaginary part beyond this before any arithmetic, which near the float
# range would overflow
_MAX_ENTRY = 1e100

_ROTATION_TOL = 1e-10


def _vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class BlochTriple:
    """Hilbert-Schmidt parametrization of a two-qubit state.

    Attributes
    ----------
    x, y :
        Coherence vectors of subsystems A and B (norm at most 1).
    T :
        3x3 real correlation matrix.
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        x = _vec3(self.x, "x")
        y = _vec3(self.y, "y")
        T = np.asarray(self.T, dtype=float)
        if T.shape != (3, 3):
            raise ValidationError(f"T must be a real 3x3 matrix, got shape {T.shape}")
        for name, arr in (("x", x), ("y", y), ("T", T)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} has non-finite entries")
            # hypot, unlike sqrt(v . v), does not overflow on entries beyond 1e154
            if arr.ndim == 1 and (norm := math.hypot(*arr)) > 1 + 1e-9:
                raise ValidationError(f"|{name}| = {norm!r} exceeds 1")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class StateDiagnostics:
    """Result of :func:`validate`: deviations from the density-matrix axioms."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    ok: bool
    #: ascending eigenvalues of the Hermitian part; None if rejected before any arithmetic
    eigenvalues: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: the read-only Hermitian part (M + M^dag)/2 they belong to; None likewise
    hermitian_part: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __str__(self) -> str:
        if math.isnan(self.min_eigenvalue):
            if math.isnan(self.trace_deviation):
                return "REJECTED: non-finite entries"
            return f"REJECTED: an entry exceeds {_MAX_ENTRY:g} in real or imaginary part"
        status = "ok" if self.ok else "REJECTED"
        return (f"{status}: |M-M^dag|={self.hermiticity_deviation:.2e}, "
                f"|tr-1|={self.trace_deviation:.2e}, min eig={self.min_eigenvalue:.2e}")


@dataclass(frozen=True)
class CanonicalForm:
    """A triple with diagonal T plus the proper rotations that produced it.

    ``rotation_a`` and ``rotation_b`` act on the original triple as
    ``x -> O1 x``, ``y -> O2 y``, ``T -> O1 T O2^t`` and yield ``triple``.
    The diagonal of T is ordered by descending magnitude; signs are free.
    """

    triple: BlochTriple
    rotation_a: np.ndarray
    rotation_b: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.triple.T)


def validate(rho: np.ndarray) -> StateDiagnostics:
    """Check a 4x4 matrix against the density-matrix axioms.

    Raises only on a wrong shape; otherwise returns the measured deviations
    and an accept flag (Hermiticity and trace deviations at most 1e-8,
    minimum eigenvalue at least -1e-9).  A matrix with an infinite or NaN
    entry is rejected before any arithmetic, with every deviation NaN; so is
    one with a real or imaginary part beyond 1e100, with infinite
    deviations and a NaN eigenvalue.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {rho.shape}")
    # the largest real or imaginary part; NaN if any is NaN
    peak = float(np.abs(np.ascontiguousarray(rho).view(float)).max())
    if not peak <= _MAX_ENTRY:
        dev = math.inf if math.isfinite(peak) else math.nan
        return StateDiagnostics(dev, dev, math.nan, False)
    herm = rho.conj().T
    dev_h = float(np.abs(rho - herm).max())
    dev_tr = float(abs(rho.trace() - 1.0))
    hermitian = (rho + herm) / 2
    hermitian.setflags(write=False)
    eigenvalues = np.linalg.eigvalsh(hermitian)
    eigenvalues.setflags(write=False)
    min_eig = float(eigenvalues[0])
    ok = dev_h <= HERMITICITY_TOL and dev_tr <= TRACE_TOL and min_eig >= -PSD_TOL
    return StateDiagnostics(dev_h, dev_tr, min_eig, ok, eigenvalues, hermitian)


def _require_state(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian part of an accepted matrix, which :func:`validate` diagonalized, and its eigenvalues."""
    diag = validate(rho)
    if not diag.ok:
        raise NotAStateError(f"not a valid two-qubit state ({diag})")
    return diag.hermitian_part, diag.eigenvalues


def _triple(rho: np.ndarray) -> BlochTriple:
    # Pauli traces of a matrix that is already validated
    x = np.einsum("ij,kji->k", rho, _KRON_A).real
    y = np.einsum("ij,kji->k", rho, _KRON_B).real
    T = np.einsum("ij,klji->kl", rho, _KRON_AB).real
    return BlochTriple(x, y, T)


def triple_from_matrix(rho: np.ndarray) -> BlochTriple:
    """Extract {x, y, T} from a valid density matrix via Pauli traces."""
    return _triple(_require_state(rho)[0])


def matrix_from_triple(t: BlochTriple) -> np.ndarray:
    """Assemble the 4x4 density matrix of a triple (Hermitian, unit trace)."""
    rho = (_I4
           + np.tensordot(t.x, _KRON_A, axes=1)
           + np.tensordot(t.y, _KRON_B, axes=1)
           + np.tensordot(t.T, _KRON_AB, axes=2))
    return rho / 4


def reduced_states(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_A, rho_B) of a 4x4 matrix."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)


def marginals(t: BlochTriple) -> tuple[np.ndarray, np.ndarray]:
    """Subsystem states rho_A = (I + x.sigma)/2 and rho_B = (I + y.sigma)/2."""
    rho_a = (_I2 + np.tensordot(t.x, np.stack(PAULIS), axes=1)) / 2
    rho_b = (_I2 + np.tensordot(t.y, np.stack(PAULIS), axes=1)) / 2
    return rho_a, rho_b


@dataclass(frozen=True)
class PreparedState:
    """A validated unit-trace state, its triple and its entropies S(A), S(B), S(AB) in bits."""

    rho: np.ndarray
    triple: BlochTriple
    s_a: float
    s_b: float
    s_ab: float

    @property
    def mutual_information(self) -> float:
        return self.s_a + self.s_b - self.s_ab


def prepare_state(rho: np.ndarray | PreparedState) -> PreparedState:
    """Validate a 4x4 density matrix once and derive its triple and entropies (a record passes through)."""
    if isinstance(rho, PreparedState):
        return rho
    rho, eigenvalues = _require_state(rho)
    trace = np.trace(rho).real
    rho = rho / trace
    rho_a, rho_b = reduced_states(rho)
    return PreparedState(rho, _triple(rho), von_neumann_entropy(rho_a),
                         von_neumann_entropy(rho_b), _spectrum_entropy(eigenvalues / trace))


def mutual_information(rho: np.ndarray | PreparedState) -> float:
    """Mutual information S(rho_A) + S(rho_B) - S(rho_AB), in bits."""
    return prepare_state(rho).mutual_information


def _require_rotation(o: np.ndarray, name: str) -> np.ndarray:
    o = np.asarray(o, dtype=float)
    if o.shape != (3, 3):
        raise ValidationError(f"{name} must be a 3x3 matrix")
    if np.max(np.abs(o.T @ o - np.eye(3))) > _ROTATION_TOL:
        raise ValidationError(f"{name} is not orthogonal")
    if abs(np.linalg.det(o) - 1.0) > _ROTATION_TOL:
        raise ValidationError(f"{name} is not a proper rotation (det != +1)")
    return o


def apply_local_rotations(t: BlochTriple, o1: np.ndarray, o2: np.ndarray) -> BlochTriple:
    """Local-unitary action on the triple: x -> O1 x, y -> O2 y, T -> O1 T O2^t."""
    o1 = _require_rotation(o1, "O1")
    o2 = _require_rotation(o2, "O2")
    return BlochTriple(o1 @ t.x, o2 @ t.y, o1 @ t.T @ o2.T)


def canonicalize(t: BlochTriple) -> CanonicalForm:
    """Rotate a triple so that T is diagonal with |t1| >= |t2| >= |t3|.

    Uses the singular value decomposition of T with determinant repair:
    if either orthogonal factor is a reflection, its last row and the
    smallest diagonal entry are negated, keeping both rotations proper
    while allowing negative diagonal entries.
    """
    if float(np.max(np.abs(t.T))) == 0.0:
        return CanonicalForm(BlochTriple(t.x, t.y, np.zeros((3, 3))), np.eye(3), np.eye(3))
    u, s, vt = np.linalg.svd(t.T)
    o1 = u.T.copy()
    o2 = vt.copy()
    d = s.copy()
    if np.linalg.det(o1) < 0:
        o1[2, :] *= -1
        d[2] *= -1
    if np.linalg.det(o2) < 0:
        o2[2, :] *= -1
        d[2] *= -1
    triple = BlochTriple(o1 @ t.x, o2 @ t.y, np.diag(d))
    return CanonicalForm(triple, o1, o2)


def random_state(rank: int | None = None, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Sample a random two-qubit density matrix of the given rank.

    Draws a 4 x rank matrix G of independent standard complex Gaussians and
    returns G G^dag / tr(G G^dag) (rank defaults to 4, the unconstrained
    Ginibre ensemble).  Pass a seeded ``numpy.random.Generator`` (or an int
    seed) for reproducible output.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    rank = 4 if rank is None else int(rank)
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim: int = 2, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fix."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) rotation induced on the Bloch sphere by a single-qubit unitary.

    O_ij = Re tr(sigma_i U sigma_j U^dag) / 2; the global phase of U drops out.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - _I2)) > 1e-10:
        raise ValidationError("expected a 2x2 unitary")
    o = np.empty((3, 3))
    for j, pj in enumerate(PAULIS):
        upu = u @ pj @ u.conj().T
        for i, pi in enumerate(PAULIS):
            o[i, j] = np.trace(pi @ upu).real / 2
    return o
