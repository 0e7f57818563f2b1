"""Closed-form discord results for the exactly solvable state families.

These are independent test oracles of the optimizer, which finds these
families by the bounds' rank rule.  They all have y = 0 and x in the kernel
of T^t in the diagonal-T frame, where the conditioned entropy collapses to a
binary entropy whose minimum is known in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entropy import _as_real, _h_terms, _real_scalar, binary_entropy, shannon_entropy
from .errors import NotAStateError, ValidationError, WrongClassError
from .states import BlochTriple, CanonicalForm, matrix_from_triple

#: class predicates of :func:`classify` and :func:`kernel_class_min_entropy` hold to this tolerance
CLASS_TOL = 1e-10


class StateKind(Enum):
    """Solvable family labels, most specific first; GENERIC is the fallback."""

    BELL_DIAGONAL = "bell-diagonal"
    X_SUBCLASS = "x-subclass"
    ZERO_DISCORD_AXIAL = "zero-discord-axial"
    ZERO_DISCORD_UNCORRELATED = "zero-discord-uncorrelated"
    KERNEL_CLASS = "kernel-class"
    AB_FAMILY = "ab-family"
    GENERIC = "generic"


@dataclass(frozen=True)
class ClassTag:
    kind: StateKind
    parameters: tuple[float, ...]


def classify(c: CanonicalForm) -> ClassTag:
    """Assign a canonical form to its most specific solvable family.

    The AB benchmark family is never auto-detected (it is tied to a fixed
    basis); it only enters through its explicit constructor.
    """
    x, y, rows = c.triple._floats
    d = (rows[0][0], rows[1][1], rows[2][2])
    if math.hypot(*y) <= CLASS_TOL:
        if math.hypot(*x) <= CLASS_TOL:
            return ClassTag(StateKind.BELL_DIAGONAL, d)
        if math.hypot(d[0] * x[0], d[1] * x[1], d[2] * x[2]) <= CLASS_TOL:  # T^t x with diagonal T
            if max(abs(x[0]), abs(x[1]), abs(d[2])) <= CLASS_TOL:
                return ClassTag(StateKind.X_SUBCLASS, (d[0], d[1], x[2]))
            if max(abs(x[0]), abs(d[1]), abs(d[2])) <= CLASS_TOL:
                return ClassTag(StateKind.ZERO_DISCORD_AXIAL, (d[0], x[1], x[2]))
            if math.hypot(*d) <= CLASS_TOL:
                return ClassTag(StateKind.ZERO_DISCORD_UNCORRELATED, x)
            return ClassTag(StateKind.KERNEL_CLASS, d + x)
    return ClassTag(StateKind.GENERIC, ())


def _bell_diagonal_mus(t1: float, t2: float, t3: float) -> np.ndarray:
    """The eigenvalues of the Bell-diagonal state.

    A t that is not a real number raises ValidationError, a point outside the tetrahedron NotAStateError.
    """
    t1, t2, t3 = map(_real_scalar, (t1, t2, t3), ("t1", "t2", "t3"))
    mus = np.array([
        (1 + t1 + t2 - t3) / 4,
        (1 - t1 - t2 - t3) / 4,
        (1 + t1 - t2 + t3) / 4,
        (1 - t1 + t2 + t3) / 4,
    ])
    if not float(mus.min()) >= -1e-9:
        raise NotAStateError(f"(t1,t2,t3)=({t1},{t2},{t3}) lies outside the state tetrahedron")
    return mus


def bell_diagonal_state(t1: float, t2: float, t3: float) -> np.ndarray:
    """Density matrix with x = y = 0 and T = diag(t1, t2, t3); a non-state point raises NotAStateError."""
    _bell_diagonal_mus(t1, t2, t3)
    return matrix_from_triple(BlochTriple(np.zeros(3), np.zeros(3), np.diag([t1, t2, t3])))


@dataclass(frozen=True)
class BellDiagonalDiscord:
    discord: float
    min_conditional_entropy: float
    optimal_axis: int
    degenerate: bool


def bell_diagonal_discord(t1: float, t2: float, t3: float) -> BellDiagonalDiscord:
    """Exact discord of a Bell-diagonal state.

    D = 1 - h4(mu) + h2((1 + t_max)/2) with t_max = max |t_i|; the optimal
    measurement axis is the coordinate axis achieving t_max (ties broken by
    smallest index and flagged degenerate).
    """
    mus = _bell_diagonal_mus(t1, t2, t3)
    mags = np.abs([t1, t2, t3])
    t_max = float(mags.max())
    axis = int(mags.argmax())
    degenerate = int((mags >= t_max - 1e-12).sum()) > 1
    min_s = binary_entropy((1 + t_max) / 2)
    discord = 1 - shannon_entropy(np.clip(mus, 0, 1)) + min_s
    return BellDiagonalDiscord(discord, min_s, axis, degenerate)


def kernel_class_min_entropy(x: np.ndarray, T: np.ndarray) -> float:
    """Minimal conditioned entropy h2((1 + sqrt(|x|^2 + t_max^2))/2) for y = 0, T^t x = 0.

    ``t_max`` is the largest singular value of T.  Raises
    :class:`WrongClassError` when x is not in the kernel of T^t.
    """
    x, T = _as_real(np.asarray(x), "x"), _as_real(np.asarray(T), "T")
    if x.shape != (3,) or T.shape != (3, 3):
        raise ValidationError(f"expected a 3-vector x and a 3x3 T, got shapes {x.shape} and {T.shape}")
    if not float(np.linalg.norm(T.T @ x)) <= CLASS_TOL:  # a non-finite entry fails too, before the SVD
        raise WrongClassError("x is not in the kernel of T^t")
    t_max = float(np.linalg.svd(T, compute_uv=False)[0]) if np.any(T) else 0.0
    x2 = float(x @ x)
    return binary_entropy((1 + math.sqrt(x2 + t_max * t_max)) / 2)


def x_subclass_discord(t1: float, t2: float, x3: float) -> float:
    """Exact discord for the family T = diag(t1, t2, 0), x = (0, 0, x3), y = 0.

    Requires |t1| >= |t2|.  The joint eigenvalues are
    (1 +- sqrt((t1 + t2)^2 + x3^2))/4 and (1 +- sqrt((t1 - t2)^2 + x3^2))/4.
    """
    t1, t2, x3 = map(_real_scalar, (t1, t2, x3), ("t1", "t2", "x3"))
    if not abs(t1) >= abs(t2) - 1e-12:
        raise WrongClassError(f"|t1| >= |t2| required, got |{t1}| < |{t2}|")
    sp = math.hypot(t1 + t2, x3)
    sm = math.hypot(t1 - t2, x3)
    mus = np.array([(1 + sp) / 4, (1 - sp) / 4, (1 + sm) / 4, (1 - sm) / 4])
    if not float(mus.min()) >= -1e-9:
        raise NotAStateError(f"(t1,t2,x3)=({t1},{t2},{x3}) is not a state")
    return (1 - shannon_entropy(np.clip(mus, 0, 1))
            + binary_entropy((1 + math.hypot(t1, x3)) / 2))


@dataclass(frozen=True)
class ABState:
    """Parameters of the two-parameter benchmark family.

    Valid region: 0 <= a <= 1 and a - 1 <= b <= 1 - a.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = _real_scalar(self.a, "a"), _real_scalar(self.b, "b")
        if not (-1e-12 <= a <= 1 + 1e-12 and abs(b) <= 1 - a + 1e-12):
            raise ValidationError(f"(a, b) = ({a}, {b}) outside the valid region")


def ab_state(a: float, b: float) -> np.ndarray:
    """Density matrix of the benchmark family.

    Its triple is x = -y = (0, 0, -b), T = diag(a, -a, 2a - 1).
    """
    s = ABState(a, b)
    a, b = s.a, s.b
    return 0.5 * np.array([
        [a, 0, 0, a],
        [0, 1 - a - b, 0, 0],
        [0, 0, 1 - a + b, 0],
        [a, 0, 0, a],
    ], dtype=complex)


def ab_q(a: float, b: float) -> float:
    """The q value of the benchmark family's discord formula.

    Algebraically regrouped so that every logarithm carries the coefficient
    that vanishes with it; this keeps the expression finite on the closed
    parameter region (the term-by-term form has cancelling divergences at
    |b| = 1 - a and a^2 + b^2 = 1).
    """
    ABState(a, b)
    s = math.hypot(a, b)
    return (1 + a - _h_terms(a)
            + 0.5 * (-_h_terms(1 - a - b) - _h_terms(1 - a + b)
                     + _h_terms(1 + b) + _h_terms(1 - b)
                     + _h_terms(1 + s) + _h_terms(1 - s)))


def ab_discord(a: float, b: float) -> tuple[float, float]:
    """The benchmark family's discord formula min{a, q}, returned as (discord, q).

    ``a`` is the discord left by the z-axis measurement and ``q`` that
    left by the best equatorial one, so min{a, q} is an upper bound on the
    discord and equals it away from the crossover a = q.  Near the
    crossover the optimal direction can leave both: at (a, b) =
    (0.19170, 0.70508) it lies at theta ~ 43 degrees, and the discord
    0.1915942 is 4.9e-5 below min{a, q}.
    """
    q = ab_q(a, b)
    return min(a, q), q


def sample_bell_diagonal(rng: np.random.Generator) -> tuple[float, float, float]:
    """Random point of the Bell-diagonal tetrahedron (Dirichlet eigenvalues)."""
    mu = rng.dirichlet(np.ones(4))
    t1 = mu[0] - mu[1] + mu[2] - mu[3]
    t2 = mu[0] - mu[1] - mu[2] + mu[3]
    t3 = -mu[0] - mu[1] + mu[2] + mu[3]
    return float(t1), float(t2), float(t3)


def sample_kernel_class(rng: np.random.Generator) -> BlochTriple:
    """Random member of the y = 0, T^t x = 0 family, PSD by construction.

    Alternates between the T = diag(t1, t2, 0), x = (0, 0, x3) pattern and
    the T = diag(t1, 0, 0), x = (0, x2, x3) pattern, rejection-sampled to
    stay strictly inside the state set.
    """
    while True:
        if rng.random() < 0.5:
            t1, t2 = sorted(rng.uniform(-0.95, 0.95, size=2), key=abs, reverse=True)
            x3 = float(rng.uniform(-0.95, 0.95))
            if math.hypot(t1 + t2, x3) <= 0.98 and math.hypot(t1 - t2, x3) <= 0.98:
                return BlochTriple(np.array([0.0, 0.0, x3]), np.zeros(3),
                                   np.diag([t1, t2, 0.0]))
        else:
            t1 = float(rng.uniform(-0.95, 0.95))
            x2, x3 = rng.uniform(-0.95, 0.95, size=2)
            if t1 * t1 + x2 * x2 + x3 * x3 <= 0.98**2:
                return BlochTriple(np.array([0.0, x2, x3]), np.zeros(3),
                                   np.diag([t1, 0.0, 0.0]))
