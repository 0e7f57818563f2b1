"""Correlation bounds from the restricted-direction construction.

Measurement directions confined to the orthogonal complement of
R = span{T^t x, y} equalize the outcome probabilities and make the
conditioned entropy a binary entropy, which yields a closed-form upper
bound on the minimal conditioned entropy and hence an upper bound on the
discord and a lower bound on the classical correlation.  The marginal
entropy S(rho_B) is also reported as a comparison bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy import binary_entropy
from .measurement import MeasurementDirection, _canonical_sign
from .states import BlochTriple, PreparedState, prepare_state

# Unused here; kept bound because the benchmark trace (perfbench/spans.py) wraps them.
from .entropy import von_neumann_entropy  # noqa: F401
from .states import reduced_states, triple_from_matrix  # noqa: F401

#: |discord_ub - discord| below this counts as a saturated bound
SATURATION_TOL = 1e-6

_RANK_TOL = 1e-10
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


def perp_subspace(t: BlochTriple) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of span{T^t x, y}.

    Rank is decided with singular values below ``1e-10 * max(1, |T|, |x|, |y|)``
    treated as zero, so the case split is stable near the solvable families.
    """
    spanning = np.column_stack([t.T.T @ t.x, t.y])
    u, s, _ = np.linalg.svd(spanning)
    scale = max(1.0, float(np.linalg.norm(t.T)), float(np.linalg.norm(t.x)),
                float(np.linalg.norm(t.y)))
    rank = int((s > _RANK_TOL * scale).sum())
    return u[:, rank:]


def t0_squared(t: BlochTriple) -> tuple[float, MeasurementDirection]:
    """Maximize e^t T^t T e over unit vectors of the restricted subspace.

    Projects T^t T onto the subspace and takes its largest eigenvalue; the
    maximizing direction is returned sign-canonicalized.
    """
    return _max_on_subspace(t, perp_subspace(t))


def _max_on_subspace(t: BlochTriple, basis: np.ndarray) -> tuple[float, MeasurementDirection]:
    projected = basis.T @ (t.T.T @ t.T) @ basis
    vals, vecs = np.linalg.eigh(projected)
    e0 = basis @ vecs[:, -1]
    if len(vals) > 1 and vals[-2] >= vals[-1] - _TIE_TOL:
        # eigh's vector in a tied eigenspace follows the last bits of T; the squared projections
        # of the axes onto the space sum to its dimension >= 2, so one of them is >= 2/3
        tied = basis @ vecs[:, vals >= vals[-1] - _TIE_TOL]
        row = next(r for r in tied[::-1] if r @ r >= 0.5)  # rows z, y, x
        e0 = tied @ row / math.sqrt(row @ row)
    return max(float(vals[-1]), 0.0), MeasurementDirection(_canonical_sign(e0))


def theorem1_bounds(rho: np.ndarray | PreparedState, discord: float | None = None) -> BoundReport:
    """Correlation bounds of a state.

    ``rho`` is a 4x4 density matrix or the
    :class:`~qdiscord.states.PreparedState` built for one.  If ``discord``
    is not supplied it is computed with the default optimizer settings in
    order to fill the ``saturated`` flag.
    """
    state = prepare_state(rho)
    t = state.triple
    basis = perp_subspace(t)
    t0sq, e0 = _max_on_subspace(t, basis)
    # |x|^2 + t0^2 <= 1 on states; one that validate accepts with an eigenvalue
    # down to -PSD_TOL can exceed 1 by a few 1e-9, past binary_entropy's clamp
    r2 = min(float(t.x @ t.x) + t0sq, 1.0)
    cond_ub = binary_entropy((1 + np.sqrt(r2)) / 2)
    discord_ub = state.s_b - state.s_ab + cond_ub
    if discord is None:
        from .optimize import quantum_discord

        discord = quantum_discord(state, with_bounds=False).discord
    return BoundReport(
        t0_squared=t0sq,
        perp_dim=basis.shape[1],
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


def bound_comparison_scan(states: Iterable[tuple[float, float, np.ndarray]],
                          resolution: float | None = None,
                          tolerance: float | None = None) -> list[ScanRow]:
    """Discord versus bounds over a parameterized family.

    ``states`` yields ``(param1, param2, rho)`` tuples; rows come back in
    the same order.  Each row records the computed discord, the discord
    upper bound, the comparison bound S(rho_B), and whether the bound is
    saturated within 1e-6.
    """
    from .optimize import DEFAULT_RESOLUTION, DEFAULT_TOLERANCE, quantum_discord

    resolution = DEFAULT_RESOLUTION if resolution is None else resolution
    tolerance = DEFAULT_TOLERANCE if tolerance is None else tolerance
    rows = []
    for p1, p2, rho in states:
        report = quantum_discord(rho, resolution=resolution, tolerance=tolerance)
        b = report.bounds
        rows.append(ScanRow(float(p1), float(p2), report.discord, b.discord_ub,
                            b.xi_bound, b.saturated))
    return rows


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
