"""Entropy primitives and small-matrix Hermitian eigensolvers.

All entropies are in bits (base-2 logarithms) with the convention
``0 * log2(0) = 0``.  Probability-like inputs are clamped before use:
values in ``[-1e-9, 0)`` snap to 0 and values in ``(1, 1+1e-9]`` snap to 1,
so rank-deficient states coming out of an eigensolver do not trip the
domain checks.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAStateError, ValidationError

#: tolerance for clamping near-boundary probabilities and eigenvalues
CLAMP_TOL = 1e-9

#: default tolerance on Hermiticity checks
HERMITIAN_TOL = 1e-10


def _as_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise ValidationError(f"only 2x2 and 4x4 matrices are supported, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise NotAStateError("matrix has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} > {tol:.1e}")
    return (m + m.conj().T) / 2


def hermitian_eigenvalues(m: np.ndarray, *, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Real eigenvalues of a 2x2 or 4x4 Hermitian matrix, sorted descending.

    Raises :class:`ValidationError` if the input deviates from Hermiticity
    by more than ``tol``, and :class:`NotAStateError` if an entry is
    infinite or NaN.
    """
    h = _as_hermitian(m, tol)
    return np.linalg.eigvalsh(h)[::-1].copy()


def hermitian_eigensystem(m: np.ndarray, *, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a Hermitian matrix."""
    h = _as_hermitian(m, tol)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def _clamp_unit(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[(out < 0) & (out >= -CLAMP_TOL)] = 0.0
    out[(out > 1) & (out <= 1 + CLAMP_TOL)] = 1.0
    return out


def shannon_entropy(p) -> float:
    """Shannon entropy of a probability vector, in bits.

    The entries must lie in ``[-1e-9, 1+1e-9]`` and sum to 1 within 1e-6;
    anything further off raises :class:`ValidationError`.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.ndim != 1:
        raise ValidationError("probability vector must be one-dimensional")
    if float(p.min(initial=0.0)) < -CLAMP_TOL:
        raise ValidationError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    p = _clamp_unit(p)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h2(x) = -x log2 x - (1-x) log2(1-x), in bits."""
    x = float(x)
    if x < -CLAMP_TOL or x > 1 + CLAMP_TOL:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return shannon_entropy(np.array([x, 1.0 - x]))


def von_neumann_entropy(m: np.ndarray, *, tol: float = HERMITIAN_TOL) -> float:
    """Von Neumann entropy of a density matrix, in bits.

    The matrix must be Hermitian, PSD within ``-1e-9`` and unit trace within
    1e-9; violations raise :class:`NotAStateError`.
    """
    vals = hermitian_eigenvalues(m, tol=tol)
    trace = float(vals.sum())
    if abs(trace - 1.0) > CLAMP_TOL:
        raise NotAStateError(f"trace is {trace!r}, not 1")
    if float(vals.min()) < -CLAMP_TOL:
        raise NotAStateError(f"negative eigenvalue {vals.min():.3e}")
    return shannon_entropy(_clamp_unit(vals))
