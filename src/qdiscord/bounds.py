"""Correlation bounds from the restricted-direction construction.

Measurement directions confined to the orthogonal complement of
R = span{T^t x, y} equalize the outcome probabilities and make the
conditioned entropy a binary entropy, which yields a closed-form upper
bound on the minimal conditioned entropy and hence an upper bound on the
discord and a lower bound on the classical correlation.  The marginal
entropy S(rho_B) is also reported as a comparison bound.  The rows of a
bound comparison scan and their CSV form are defined here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import _real_scalar, binary_entropy
from .errors import ValidationError
from .measurement import MeasurementDirection, _canonical_sign, _cross, _dot, _lowest_eigenpair, _tangent_basis
from .states import BlochTriple, PreparedState, prepare_state

# Unused here; kept bound because the benchmark trace (perfbench/spans.py) wraps them.
from .entropy import von_neumann_entropy  # noqa: F401
from .states import reduced_states, triple_from_matrix  # noqa: F401

#: |discord_ub - discord| below this counts as a saturated bound
SATURATION_TOL = 1e-6

#: top eigenvalues of the projected form this close count as tied
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Bounds for one state.

    ``t0_squared`` is the largest value of the quadratic form e^t T^t T e
    over unit vectors of the restricted subspace (of dimension
    ``perp_dim``), attained at ``e0``, sign-canonicalized.  Where the top
    eigenvalue is tied within 1e-12 (as on every pure state), ``e0`` is the
    normalized projection onto the tied eigenspace of the first of the z, y
    and x axes whose squared projection is at least 1/2, not a vector that
    follows the last bits of T.  ``cond_entropy_ub`` bounds the minimal
    conditioned entropy from above, ``discord_ub`` the discord from
    above, ``classical_lb`` the classical correlation from below;
    ``xi_bound`` is the comparison bound S(rho_B).
    """

    t0_squared: float
    perp_dim: int
    e0: MeasurementDirection
    cond_entropy_ub: float
    discord_ub: float
    classical_lb: float
    xi_bound: float
    saturated: bool


def _rank_tol(t: BlochTriple) -> float:
    """The rank rule of [T^t x, y] for both routes: singular values at or below 1e-10 max(1, |T|, |x|, |y|) are zero."""
    x, y, rows = t._floats
    return 1e-10 * max(1.0, math.hypot(*rows[0], *rows[1], *rows[2]), math.hypot(*x), math.hypot(*y))


def perp_subspace(t: BlochTriple) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of span{T^t x, y}.

    Rank is decided with singular values at or below 1e-10 max(1, |T|, |x|, |y|)
    treated as zero, so the case split is stable near the solvable families.
    """
    u, s, _ = np.linalg.svd(np.column_stack([t._tx, t.y]))
    return u[:, int((s > _rank_tol(t)).sum()):]


def t0_squared(t: BlochTriple) -> tuple[float, MeasurementDirection]:
    """Maximize e^t T^t T e over unit vectors of the restricted subspace.

    Projects T^t T onto the subspace and takes its largest eigenvalue; the
    maximizing direction is returned sign-canonicalized, and a tied top
    eigenvalue takes :func:`_tied_axis` of its eigenspace.
    """
    basis = perp_subspace(t)
    vals, vecs = np.linalg.eigh(basis.T @ (t.T.T @ t.T) @ basis)
    e0 = basis @ vecs[:, -1]
    if len(vals) > 1 and vals[-2] >= vals[-1] - _TIE_TOL:
        # eigh's vector in a tied eigenspace follows the last bits of T
        e0 = _tied_axis((basis @ vecs[:, vals >= vals[-1] - _TIE_TOL]).T.tolist())
    return max(float(vals[-1]), 0.0), MeasurementDirection(_canonical_sign(e0))


def _tied_axis(span) -> tuple[float, float, float]:
    """The normalized projection onto a tied eigenspace of the first of the z, y and x axes whose squared projection is >= 1/2.

    ``span`` is an orthonormal basis of the space, of dimension >= 2; the
    squared projections of the three axes sum to that dimension, so one of
    them is at least 2/3.
    """
    for k in (2, 1, 0):
        coords = [e[k] for e in span]  # the projection of axis k in the basis span
        sq = sum(c * c for c in coords)
        if sq >= 0.5:
            r = math.sqrt(sq)
            return tuple(sum(c * e[i] for c, e in zip(coords, span)) / r for i in range(3))


def _restricted_maximum(state: PreparedState) -> tuple[float, int, MeasurementDirection, bool, float]:
    """(t0^2, dimension, e0, tie, bound): :func:`t0_squared` and :func:`perp_subspace` on floats.

    ``tie`` says whether the top eigenvalue tied (by :func:`t0_squared`'s rule), ``bound`` is
    h2((1 + sqrt(|x|^2 + t0^2))/2).  The singular values of [a, y] with a = T^t x come from
    s1 s2 = |a x y| and s1^2 + s2^2 = |a|^2 + |y|^2 and are counted with :func:`_rank_tol`, as
    in perp_subspace.  Rank 2: the complement is the line of a x y.  Rank 1: it is the tangent
    plane of the top left singular vector, where the projected form is a 2x2.  Rank 0: it is the
    whole space, and t0^2 = d_0^2 = |T e|^2 with e0 = e the first row of O2 in T's SVD (the
    canonical ``rotation_b``); the bound is then the minimum itself.  e0 is sign-canonical.
    """
    t = state.triple
    x, y, rows = t._floats
    a = t._tx
    normal = _cross(a, y)
    aa, ay, yy, cross = _dot(a, a), _dot(a, y), _dot(y, y), math.sqrt(_dot(normal, normal))
    total = aa + yy
    s1 = math.sqrt((total + math.sqrt(max((total - 2 * cross) * (total + 2 * cross), 0.0))) / 2)
    s2 = cross / s1 if s1 > 0 else 0.0
    tol = _rank_tol(t)
    if s2 > tol:
        e0 = (normal[0] / cross, normal[1] / cross, normal[2] / cross)
        te = [_dot(row, e0) for row in rows]
        t0sq, dim, tied = _dot(te, te), 1, False
    elif s1 > tol:
        # the top left singular vector of [a, y] is [a, y] c for the top eigenvector c of its Gram matrix
        _, (ca, cy) = _lowest_eigenpair(-aa, -ay, -yy)
        m = [ca * p + cy * q for p, q in zip(a, y)]
        r = math.sqrt(_dot(m, m))
        u, v = _tangent_basis((m[0] / r, m[1] / r, m[2] / r))
        tu, tv = [_dot(row, u) for row in rows], [_dot(row, v) for row in rows]
        huu, huv, hvv = _dot(tu, tu), _dot(tu, tv), _dot(tv, tv)
        low, (cu, cv) = _lowest_eigenpair(-huu, -huv, -hvv)
        t0sq, dim = max(-low, 0.0), 2
        tied = huu + hvv - t0sq >= t0sq - _TIE_TOL
        e0 = _tied_axis((u, v)) if tied else tuple(cu * p + cv * q for p, q in zip(u, v))
    else:
        d, (_, axes) = state._svd
        squares = [v * v for v in d]
        top = [axes[j] for j in range(3) if squares[j] >= squares[0] - _TIE_TOL]
        te = [_dot(row, axes[0]) for row in rows]  # d_0^2 as |T e|^2, rounded from T's entries rather than from d_0
        t0sq, dim, tied = _dot(te, te), 3, len(top) > 1
        e0 = _tied_axis(top) if tied else tuple(axes[0])
    # |x|^2 + t0^2 <= 1 on states; one that validate accepts with an eigenvalue
    # down to -PSD_TOL can exceed 1 by a few 1e-9, past binary_entropy's clamp
    bound = binary_entropy((1 + math.sqrt(min(_dot(x, x) + t0sq, 1.0))) / 2)
    return t0sq, dim, MeasurementDirection(_canonical_sign(e0)), tied, bound


def theorem1_bounds(rho: np.ndarray | PreparedState, discord: float | None = None) -> BoundReport:
    """Correlation bounds of a state.

    ``rho`` is a 4x4 density matrix or the :class:`~qdiscord.states.PreparedState`
    built for one.  If ``discord`` is not supplied it is computed with the default
    optimizer settings in order to fill the ``saturated`` flag; one that is not a
    finite real number raises :class:`~qdiscord.errors.ValidationError`.
    """
    state = prepare_state(rho)
    t0sq, perp_dim, e0, _, cond_ub = state._restricted
    discord_ub = state.s_b - state.s_ab + cond_ub
    if discord is None:
        from .optimize import quantum_discord

        discord = quantum_discord(state, with_bounds=False).discord
    elif not math.isfinite(discord := _real_scalar(discord, "discord")):
        raise ValidationError(f"discord must be finite, got {discord!r}")
    return BoundReport(
        t0_squared=t0sq,
        perp_dim=perp_dim,
        e0=e0,
        cond_entropy_ub=cond_ub,
        discord_ub=discord_ub,
        classical_lb=state.s_a - cond_ub,
        xi_bound=state.s_b,
        saturated=bool(abs(discord_ub - discord) <= SATURATION_TOL),
    )


@dataclass(frozen=True)
class ScanRow:
    param1: float
    param2: float
    discord: float
    discord_ub: float
    xi_bound: float
    saturated: bool


CSV_HEADER = "param1,param2,discord,discord_ub,xi_bound,saturated"


def fmt9(x: float) -> str:
    """A float to 9 significant digits, the precision of every CLI number."""
    return format(float(x), ".9g")


def _csv_cell(value) -> str:
    """One CSV cell: empty for None, true/false for a flag, :func:`fmt9` for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt9(value) if isinstance(value, float) else str(value)


def rows_to_csv(rows: Sequence[ScanRow]) -> str:
    """Serialize scan rows, one cell per field in field order (the header's columns), row order kept."""
    lines = [CSV_HEADER] + [",".join(_csv_cell(v) for v in vars(r).values()) for r in rows]
    return "\n".join(lines) + "\n"
