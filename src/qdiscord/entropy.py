"""Entropy primitives and small-matrix Hermitian eigensolvers.

All entropies are in bits (base-2 logarithms) with the convention
``0 * log2(0) = 0``.  Probability-like inputs that pass a function's
domain check (entries down to -1e-9, eigenvalues of a trace within 1e-9 of
1) are clipped to [0, 1] before use, so rank-deficient states coming out of
an eigensolver give entropies that are never negative.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotAStateError, ValidationError

#: how far a probability may lie outside [0, 1], an eigenvalue below 0 or a trace from 1
CLAMP_TOL = 1e-9

#: tolerance of the Hermiticity checks
HERMITIAN_TOL = 1e-10


#: complex128 in native byte order, the dtype of a matrix that :func:`_as_complex` passes through
_COMPLEX = np.dtype(complex)


def _as_real(arr, name: str) -> np.ndarray:
    """Numbers as a float array (itself if it is one); complex entries raise instead of losing their imaginary part.

    Only integer and float arrays are numbers: a bool, string, object, date or void array or a ragged nesting raises
    too, whose cast would count True as 1, parse the strings, count days or leak a ValueError or TypeError.
    """
    try:
        arr = np.asarray(arr)
    except ValueError as err:  # a ragged nesting
        raise ValidationError(f"{name} must be real numbers: {err}") from None
    if arr.dtype.kind == "c":
        raise ValidationError(f"{name} has complex entries")
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be real numbers, got an array of dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_complex(m, what: str, *shapes: tuple[int, int]) -> np.ndarray:
    """``m`` as a complex array of one of ``shapes`` (itself if it is one); else ValidationError "expected {what}".

    The complex counterpart of :func:`_as_real`, whose rule it keeps, and a ragged nesting raises too.
    """
    try:
        m = np.asarray(m)
    except ValueError as err:  # a ragged nesting
        raise ValidationError(f"expected {what}: {err}") from None
    if m.dtype is not _COMPLEX:  # the one dtype test that a complex128 array pays
        if m.dtype.kind not in "iufc":
            raise ValidationError(f"expected {what}, got an array of dtype {m.dtype}")
        m = m.astype(complex)
    if m.shape not in shapes:
        raise ValidationError(f"expected {what}, got shape {m.shape}")
    return m


def _real_scalar(value, name: str) -> float:
    """A real number as a float; a bool, a complex one, a string or what float() rejects raises ValidationError."""
    try:
        # float() would take a bool as 0 or 1, drop an imaginary part, and parse a string
        if type(value) is float or not (isinstance(value, (str, bytes)) or np.asarray(value).dtype.kind in "bc"):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be a real number, not a bool, complex or string; got {value!r}")


def _as_hermitian(m: np.ndarray) -> np.ndarray:
    m = _as_complex(m, "a 2x2 or 4x4 matrix of numbers", (2, 2), (4, 4))
    if not np.isfinite(m).all():
        raise NotAStateError("matrix has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} > {HERMITIAN_TOL:.1e}")
    return (m + m.conj().T) / 2


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a 2x2 or 4x4 Hermitian matrix, sorted descending.

    Raises :class:`ValidationError` if the input deviates from Hermiticity
    by more than 1e-10, and :class:`NotAStateError` if an entry is
    infinite or NaN.
    """
    h = _as_hermitian(m)
    return np.linalg.eigvalsh(h)[::-1].copy()


def hermitian_eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    h = _as_hermitian(m)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def _h_terms(*values: float) -> float:
    # -sum v log2 v with 0 log 0 = 0, fixed summation order
    acc = 0.0
    for v in values:
        if v > 0.0:
            acc -= v * math.log2(v)
    return acc


def _h_sum(v: np.ndarray) -> np.ndarray:
    """-sum v log2 v over the leading axis of an array, with 0 log 0 = 0; never -0.0."""
    # entries <= 0 take log2(1) = 0, so they add (-)0 and no warning is raised
    return 0.0 - (v * np.log2(np.where(v > 0.0, v, 1.0))).sum(axis=0)


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits.

    The entries must be at least -1e-9 and sum to 1 within 1e-6; anything
    further off raises :class:`ValidationError`.  They are clipped to [0, 1].
    """
    p = np.atleast_1d(_as_real(p, "probability vector"))
    if p.ndim != 1:
        raise ValidationError("probability vector must be one-dimensional")
    if not float(p.min(initial=0.0)) >= -CLAMP_TOL:
        raise ValidationError(f"negative or NaN probability {p.min():.3e}")
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-6:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    return float(_h_sum(np.clip(p, 0.0, 1.0)))


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h2(x) = -x log2 x - (1-x) log2(1-x), in bits.

    ``x`` must lie in ``[-1e-9, 1+1e-9]``, else :class:`ValidationError`;
    it is clamped to [0, 1] and evaluated in scalar arithmetic, which
    agrees with :func:`shannon_entropy` of the pair ``(x, 1-x)`` to rounding.
    """
    x = _real_scalar(x, "binary entropy argument")
    if not -CLAMP_TOL <= x <= 1 + CLAMP_TOL:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return _h_terms(x, 1.0 - x)


def von_neumann_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits.

    The matrix must be Hermitian, PSD within ``-1e-9`` and unit trace within
    1e-9; violations raise :class:`NotAStateError`.
    """
    return _spectrum_entropy(hermitian_eigenvalues(m).tolist())


def _spectrum_entropy(vals: list[float]) -> float:
    """:func:`von_neumann_entropy` from the eigenvalues of the density matrix, as floats.

    Raises :class:`NotAStateError` if they sum to 1 only beyond 1e-9 or one
    lies below -1e-9; the rest are clipped to [0, 1] as in
    :func:`shannon_entropy` and summed in scalar arithmetic.
    """
    trace = sum(vals)  # NaN if a value is NaN
    if not abs(trace - 1.0) <= CLAMP_TOL:
        raise NotAStateError(f"trace is {trace!r}, not 1")
    if not (low := min(vals)) >= -CLAMP_TOL:
        raise NotAStateError(f"negative eigenvalue {low:.3e}")
    return _h_terms(*(min(max(v, 0.0), 1.0) for v in vals))
