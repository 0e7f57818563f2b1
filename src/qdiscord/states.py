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

from .entropy import _as_complex, _as_real, _spectrum_entropy, binary_entropy
from .errors import NotAStateError, ValidationError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack((PAULI_X, PAULI_Y, PAULI_Z))

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
# the 15 products P_k: sigma_i (x) I, I (x) sigma_j, then sigma_i (x) sigma_j in
# row-major order, matching the entries of x, y and T
_PAULI_PRODUCTS = np.array([np.kron(p, _I2) for p in PAULIS] + [np.kron(_I2, p) for p in PAULIS]
                           + [np.kron(p, q) for p in PAULIS for q in PAULIS])
# row k holds P_k flattened, so coefficients times a block of rows is the sum of c_k P_k, flattened
_PAULI_ROWS = _PAULI_PRODUCTS.reshape(15, 16)
# column k holds P_k^t flattened, so rho flattened times column k is tr(rho P_k)
_PAULI_TRACES = _PAULI_PRODUCTS.transpose(2, 1, 0).reshape(16, 15)
# row i holds sigma_i flattened, for (I + v.sigma)/2
_PAULI_VECTORS = PAULIS.reshape(3, 4)

#: acceptance thresholds used by :func:`validate`
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-8
PSD_TOL = 1e-9
# an accepted matrix's marginals have eigenvalues (tr - |x|)/2 >= -2 PSD_TOL, so once it
# is divided by its trace, |x| and |y| pass 1 by at most 4 PSD_TOL / tr, under
# TRACE_TOL + 4 PSD_TOL; twice that covers rounding
_NORM_SLACK = 2 * (TRACE_TOL + 4 * PSD_TOL)
# no state has an entry beyond 1 in modulus; validate rejects a real or
# imaginary part beyond this before any arithmetic, which near the float
# range would overflow
_MAX_ENTRY = 1e100

_ROTATION_TOL = 1e-10
#: the most |x| and |y| of a BlochTriple may be
_NORM_BOUND = 1 + 1e-9


class _lazy:
    """A field computed on first read and kept in the instance ``__dict__``: cached_property without 3.11's lock."""

    def __init__(self, func):
        self.func = func

    def __get__(self, obj, cls=None):
        # the descriptor itself on the class; an instance's later reads find its __dict__ entry first
        return self if obj is None else obj.__dict__.setdefault(self.func.__name__, self.func(obj))


def _checked_norm(name: str, v) -> float:
    """|v| of a coherence vector given as three finite floats; past the norm bound a ValidationError."""
    # hypot, unlike sqrt(v . v), does not overflow on entries beyond 1e154
    if (norm := math.hypot(*v)) > _NORM_BOUND:
        raise ValidationError(f"|{name}| = {norm!r} exceeds 1")
    return norm


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
        floats = []  # (x, y, rows of T) as floats for the scalar kernels; not a field
        for name, kind in (("x", "3-vector"), ("y", "3-vector"), ("T", "3x3 matrix")):
            arr = _as_real(getattr(self, name), name)
            if arr.shape != ((3, 3) if name == "T" else (3,)):
                raise ValidationError(f"{name} must be a real {kind}, got shape {arr.shape}")
            values = arr.tolist()
            entries = values[0] + values[1] + values[2] if name == "T" else values
            if not all(map(math.isfinite, entries)):
                raise ValidationError(f"{name} has non-finite entries")
            if name != "T":
                _checked_norm(name, values)
            floats.append(tuple(map(tuple, values)) if name == "T" else tuple(values))
        self._store(*floats)

    @classmethod
    def _of(cls, x: tuple, y: tuple, rows: tuple) -> BlochTriple:
        """A triple from checked floats: x, y and T's rows as tuples of finite floats, |x|, |y| in bound; no check."""
        t = object.__new__(cls)
        t._store(x, y, rows)
        return t

    def _store(self, x: tuple, y: tuple, rows: tuple) -> None:
        # the float record, and read-only arrays made from it that the caller cannot mutate
        for name, values in (("x", x), ("y", y), ("T", rows)):
            arr = np.array(values)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_floats", (x, y, rows))

    @_lazy
    def _tx(self):
        # T^t x, numpy's product as floats, on first use; the search's start axes and both bounds routes read it
        return tuple((self.T.T @ self.x).tolist())


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

    Raises only on a wrong shape or what is not numbers (a bool, string,
    object or ragged array); otherwise returns the measured deviations
    and an accept flag (Hermiticity and trace deviations at most 1e-8,
    minimum eigenvalue at least -1e-9).  A matrix with an infinite or NaN
    entry is rejected before any arithmetic, with every deviation NaN; so is
    one with a real or imaginary part beyond 1e100, with infinite
    deviations and a NaN eigenvalue.
    """
    rho = _as_complex(rho, "a 4x4 matrix of numbers", (4, 4))
    # the largest real or imaginary part; NaN if any is NaN
    peak = float(np.maximum.reduce(np.abs(np.ascontiguousarray(rho).view(float)), axis=None))
    if not peak <= _MAX_ENTRY:
        dev = math.inf if math.isfinite(peak) else math.nan
        return StateDiagnostics(dev, dev, math.nan, False)
    herm = rho.conj().T
    dev_h = float(np.maximum.reduce(np.abs(rho - herm), axis=None))
    dev_tr = float(abs(rho.trace() - 1.0))
    hermitian = (rho + herm) / 2
    hermitian.setflags(write=False)
    eigenvalues = np.linalg.eigvalsh(hermitian)
    eigenvalues.setflags(write=False)
    min_eig = float(eigenvalues[0])
    ok = dev_h <= HERMITICITY_TOL and dev_tr <= TRACE_TOL and min_eig >= -PSD_TOL
    return StateDiagnostics(dev_h, dev_tr, min_eig, ok, eigenvalues, hermitian)


def _unit_ball(v: list[float]) -> list[float]:
    # a coherence vector of the unit-trace matrix past 1 by at most _NORM_SLACK is scaled back to the sphere
    norm = math.hypot(*v)
    return [c / norm for c in v] if 1 < norm <= 1 + _NORM_SLACK else v


def triple_from_matrix(rho: np.ndarray) -> BlochTriple:
    """{x, y, T} of a valid density matrix divided by its trace, as :func:`prepare_state` extracts it.

    This is the triple :func:`~qdiscord.optimize.quantum_discord` measures.
    A matrix :func:`validate` rejects raises :class:`NotAStateError`.
    """
    return prepare_state(rho).triple


def matrix_from_triple(t: BlochTriple) -> np.ndarray:
    """Assemble the 4x4 density matrix of a triple (Hermitian, unit trace)."""
    # one matmul per term: the product a contraction helper makes after its reshapes, without its Python layer
    rho = (_I4
           + (t.x @ _PAULI_ROWS[:3]).reshape(4, 4)
           + (t.y @ _PAULI_ROWS[3:6]).reshape(4, 4)
           + (t.T.reshape(9) @ _PAULI_ROWS[6:]).reshape(4, 4))
    return rho / 4


def reduced_states(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_A, rho_B) of a 4x4 matrix."""
    r = _as_complex(rho, "a 4x4 matrix of numbers", (4, 4)).reshape(2, 2, 2, 2)
    return r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)


def _qubit_matrix(v: np.ndarray) -> np.ndarray:
    """(I + v.sigma)/2 for a (3,) Bloch vector, or stacked for each row of an (N, 3) array."""
    return (_I2 + (v @ _PAULI_VECTORS).reshape(*v.shape[:-1], 2, 2)) / 2


def marginals(t: BlochTriple) -> tuple[np.ndarray, np.ndarray]:
    """Subsystem states rho_A = (I + x.sigma)/2 and rho_B = (I + y.sigma)/2."""
    return _qubit_matrix(t.x), _qubit_matrix(t.y)


@dataclass(frozen=True)
class PreparedState:
    """A validated unit-trace state and its triple; S(A), S(B), S(AB) in bits and T's SVD are taken on first use."""

    rho: np.ndarray
    triple: BlochTriple
    _norms: tuple[float, float] = field(repr=False)  # |x| and |y|
    _spectrum: tuple[np.ndarray, float] = field(repr=False)  # validate's eigenvalues and the trace they divide by

    @_lazy
    def s_a(self) -> float:
        return binary_entropy((1 + self._norms[0]) / 2)

    @_lazy
    def s_b(self) -> float:
        return binary_entropy((1 + self._norms[1]) / 2)

    @_lazy
    def s_ab(self) -> float:
        eigenvalues, trace = self._spectrum
        # an accepted eigenvalue is at least -PSD_TOL, which only the division can have pushed lower
        return _spectrum_entropy([max(v / trace, -PSD_TOL) for v in eigenvalues.tolist()])

    @property
    def mutual_information(self) -> float:
        # I >= 0 by subadditivity; an accepted matrix's PSD slack can leave it just below
        return max(0.0, self.s_a + self.s_b - self.s_ab)

    @_lazy
    def _svd(self):
        # T's SVD as floats, taken on first use: the bounds' rank-0 case and the search's start axes read it
        return _proper_svd(self.triple)

    @_lazy
    def _restricted(self):
        # the bounds' restricted maximum, taken on first use: it routes quantum_discord and fills its bounds
        return bounds._restricted_maximum(self)


def prepare_state(rho: np.ndarray | PreparedState) -> PreparedState:
    """Validate a 4x4 density matrix once and derive its triple (a record passes through).

    This is the one place a matrix is validated and its triple extracted
    (:func:`triple_from_matrix` returns this triple).  The matrix is divided
    by its trace, and the triple is its Pauli traces.  The entropies, taken
    on first use, are S(rho_AB) from the eigenvalues :func:`validate` took,
    divided by the trace (one that a trace below 1 pushes under -1e-9 snaps
    back to -1e-9, as the coherence vectors snap back to the unit ball), and
    S(rho_A) = h2((1 + |x|)/2), S(rho_B) = h2((1 + |y|)/2), whose smaller
    eigenvalue (1 - |x|)/2 lies no lower than -1e-9 by :class:`BlochTriple`'s
    norm bound, checked here.  A matrix :func:`validate` rejects raises
    :class:`NotAStateError`.
    """
    if isinstance(rho, PreparedState):
        return rho
    diag = validate(rho)
    if not diag.ok:
        raise NotAStateError(f"not a valid two-qubit state ({diag})")
    trace = float(diag.hermitian_part.trace().real)
    rho = diag.hermitian_part / trace
    pauli = (rho.reshape(16) @ _PAULI_TRACES).real.tolist()  # tr(rho P_k): x, y, then T row by row
    # finite, as validate's matrix is; only the norm bound is left to check
    x, y = tuple(_unit_ball(pauli[:3])), tuple(_unit_ball(pauli[3:6]))
    norms = _checked_norm("x", x), _checked_norm("y", y)
    t = BlochTriple._of(x, y, (tuple(pauli[6:9]), tuple(pauli[9:12]), tuple(pauli[12:])))
    return PreparedState(rho, t, norms, (diag.eigenvalues, trace))


def mutual_information(rho: np.ndarray | PreparedState) -> float:
    """Mutual information S(rho_A) + S(rho_B) - S(rho_AB), in bits."""
    return prepare_state(rho).mutual_information


def _require_rotation(o: np.ndarray, name: str) -> np.ndarray:
    o = _as_real(o, name)
    if o.shape != (3, 3):
        raise ValidationError(f"{name} must be a 3x3 matrix")
    if not np.logical_and.reduce(np.isfinite(o), axis=None):  # before o^t o and det, which warn on inf or nan
        raise ValidationError(f"{name} has non-finite entries")
    if np.max(np.abs(o.T @ o - np.eye(3))) > _ROTATION_TOL:
        raise ValidationError(f"{name} is not orthogonal")
    if abs(np.linalg.det(o) - 1.0) > _ROTATION_TOL:
        raise ValidationError(f"{name} is not a proper rotation (det != +1)")
    return o


def _rotated(o: np.ndarray, v: np.ndarray) -> tuple[float, ...]:
    """O v as floats; where rounding carries it past the norm bound (a rotation keeps |v|), scaled back just inside."""
    w = (o @ v).tolist()
    norm = math.hypot(*w)
    return tuple(c * (_NORM_BOUND * (1 - 1e-15) / norm) for c in w) if norm > _NORM_BOUND else tuple(w)


def apply_local_rotations(t: BlochTriple, o1: np.ndarray, o2: np.ndarray) -> BlochTriple:
    """Local-unitary action on the triple: x -> O1 x, y -> O2 y, T -> O1 T O2^t."""
    o1, o2 = _require_rotation(o1, "O1"), _require_rotation(o2, "O2")
    return BlochTriple(_rotated(o1, t.x), _rotated(o2, t.y), o1 @ t.T @ o2.T)


def _proper_svd(t: BlochTriple) -> tuple[list[float], tuple[list[list[float]], list[list[float]]]]:
    """(d, (rows of O1, rows of O2)) of :func:`canonicalize` as floats; zeros and identities at T = 0."""
    if not any(map(any, t._floats[2])):
        return [0.0, 0.0, 0.0], (np.eye(3).tolist(), np.eye(3).tolist())
    u, s, vt = np.linalg.svd(t.T)
    d, rows = s.tolist(), (u.T.tolist(), vt.tolist())
    for o in rows:
        (a, b, c), (e, f, g), (h, i, k) = o
        if a * (f * k - g * i) + b * (g * h - e * k) + c * (e * i - f * h) < 0:  # det o by cofactors
            o[2] = [-h, -i, -k]
            d[2] = -d[2]
    return d, rows


def canonicalize(t: BlochTriple) -> CanonicalForm:
    """Rotate a triple so that T is diagonal with |t1| >= |t2| >= |t3|.

    Uses the singular value decomposition of T with determinant repair:
    if either orthogonal factor is a reflection (the triple product of its
    rows, its determinant, is negative), its last row and the smallest
    diagonal entry are negated, keeping both rotations proper while
    allowing negative diagonal entries.  A triple with T = 0 keeps its x and y.
    """
    d, rows = _proper_svd(t)
    o1, o2 = map(np.array, rows)
    # a rotation keeps |x| and |y| within the bound, and _rotated keeps the rounding within it
    x, y = (_rotated(o1, t.x), _rotated(o2, t.y)) if any(map(any, t._floats[2])) else t._floats[:2]
    return CanonicalForm(BlochTriple._of(x, y, ((d[0], 0.0, 0.0), (0.0, d[1], 0.0), (0.0, 0.0, d[2]))), o1, o2)


def _count(name: str, value, most: float, least: int = 1) -> int:
    """``value`` if it is an int or numpy integer, not a bool, in least..most; else a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not least <= value <= most:
        raise ValidationError(f"{name} must be an integer in {least}..{most}, got {value!r}")
    return value


def _generator(rng) -> np.random.Generator:
    """A Generator passes through, None draws fresh entropy, and a seed is an integer of at least 0, not a bool."""
    if not (rng is None or isinstance(rng, np.random.Generator)):
        _count("rng", rng, math.inf, least=0)
    return np.random.default_rng(rng)


def random_state(rank: int | None = None, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Sample a random two-qubit density matrix of the given rank.

    Draws a 4 x rank matrix G of independent standard complex Gaussians and
    returns G G^dag / tr(G G^dag) (rank defaults to 4, the unconstrained
    Ginibre ensemble); any rank but an int or numpy integer in 1..4 raises
    :class:`ValidationError`.  Pass a seeded ``numpy.random.Generator`` (or
    an int seed of at least 0) for reproducible output.
    """
    rng = _generator(rng)
    rank = _count("rank", 4 if rank is None else rank, 4)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def random_unitary(dim: int = 2, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fix; any ``dim`` but an integer >= 1 raises."""
    dim = _count("dim", dim, math.inf)
    rng = _generator(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def bloch_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) rotation induced on the Bloch sphere by a single-qubit unitary.

    O_ij = Re tr(sigma_i U sigma_j U^dag) / 2; the global phase of U drops out.
    """
    u = _as_complex(u, "a 2x2 unitary", (2, 2))
    if not np.isfinite(u).all() or np.max(np.abs(u @ u.conj().T - _I2)) > 1e-10:
        raise ValidationError("expected a 2x2 unitary")
    upu = u @ PAULIS @ u.conj().T
    return np.einsum("iab,jba->ij", PAULIS, upu).real / 2


from . import bounds  # noqa: E402  (bound last: bounds imports this module, and the package imports bounds first)
