"""A fixed reference computation that measures how fast the machine is running.

The benchmark runs on a shared host whose other tenants slow it down, at
times by a third or more for a minute and longer.  Timing the program alone
cannot tell such a phase from a slower program.  This module holds a frozen
computation with the program's mix of work (a vectorized scan of a
measurement-direction grid, scalar evaluations with small numpy arrays and
Python arithmetic, and Hermitian eigenvalue problems) that never changes
with the program.  The benchmark times it between requests, with the same
fastest-try rule as the requests, and rescales the program's times by
``NOMINAL_MS / measured``: the times it reports are those of a machine on
which this computation takes ``NOMINAL_MS``.  A change to the program moves
the program's times and not this one, so it shows in full.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: about the computation's time, in ms, as the benchmark measures it on the
#: 2-vCPU Xeon virtual machine that recorded the baseline in ``baseline.json``
#: when that machine runs at full speed
NOMINAL_MS = 8.5

_RNG = np.random.default_rng(20260417)
_X = _RNG.uniform(-0.3, 0.3, 3)
_Y = _RNG.uniform(-0.3, 0.3, 3)
_T = _RNG.uniform(-0.4, 0.4, (3, 3))
_THETA, _PHI = np.meshgrid(np.radians(np.arange(0.5, 90.0, 1.0)),
                           np.radians(np.arange(0.5, 360.0, 1.0)), indexing="ij")
_DIRS = np.stack([np.sin(_THETA) * np.cos(_PHI), np.sin(_THETA) * np.sin(_PHI),
                  np.cos(_THETA)], axis=-1).reshape(-1, 3)
_H = _RNG.standard_normal((4, 4, 4)) + 1j * _RNG.standard_normal((4, 4, 4))
_H = _H @ _H.conj().transpose(0, 2, 1)


def _h(values: np.ndarray) -> np.ndarray:
    v = np.clip(values, 1e-300, None)
    return -(values * np.log2(v)).sum(axis=-1)


def _scan() -> float:
    tn = _DIRS @ _T.T
    s_plus = np.linalg.norm(tn + _X, axis=1)
    s_minus = np.linalg.norm(tn - _X, axis=1)
    d = _DIRS @ _Y
    p = np.stack([(1 + d) / 2, (1 - d) / 2], axis=1)
    w = np.stack([(2 * p[:, 0] + s_plus) / 4, (2 * p[:, 0] - s_plus) / 4,
                  (2 * p[:, 1] + s_minus) / 4, (2 * p[:, 1] - s_minus) / 4], axis=1)
    return float((_h(np.clip(w, 0.0, None)) - _h(p)).min())


def _scalar(n: np.ndarray) -> float:
    tn = _T @ n
    s_plus = float(np.linalg.norm(_X + tn))
    s_minus = float(np.linalg.norm(_X - tn))
    d = float(_Y @ n)
    acc = 0.0
    for pk, s in (((1 + d) / 2, s_plus), ((1 - d) / 2, s_minus)):
        for v in ((2 * pk + s) / 4, (2 * pk - s) / 4):
            if v > 0.0:
                acc -= v * math.log2(v)
        if pk > 0.0:
            acc += pk * math.log2(pk)
    return acc


def compute() -> float:
    """One round of the reference computation; returns a value so none of it is skipped."""
    total = _scan()
    for k in range(150):
        a = 0.02 * k
        total += _scalar(np.array([math.sin(a) * math.cos(3 * a), math.sin(a) * math.sin(3 * a),
                                   math.cos(a)]))
    for m in _H:
        ev = np.linalg.eigvalsh(m)
        total += float(ev.sum())
    return total


def time_rounds(rounds: int) -> float:
    """Seconds per round of ``rounds`` back-to-back rounds of :func:`compute`."""
    t0 = perf_counter()
    for _ in range(rounds):
        compute()
    return (perf_counter() - t0) / rounds
