"""Shared fixtures and small helpers for the test suite."""

import math
import os
import sys

import numpy as np
import pytest

import qdiscord
from qdiscord import (
    BlochTriple,
    MeasurementDirection,
    ab_q,
    ab_state,
    bloch_rotation,
    random_state,
    random_unitary,
    triple_from_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def report_digits(report) -> str:
    """A report and its diagnostics with every digit that tells two floats apart."""
    with np.printoptions(floatmode="unique"):
        return repr(report) + repr(report.diagnostics)


def random_direction(rng) -> MeasurementDirection:
    return MeasurementDirection(rng.standard_normal(3))


def random_triple(rng, rank=None):
    return triple_from_matrix(random_state(rank=rank, rng=rng))


def random_rotation(rng) -> np.ndarray:
    return bloch_rotation(random_unitary(2, rng))


def angle_between_axes(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between measurement axes, identifying antipodal directions."""
    c = abs(float(np.dot(u, v))) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(c, 1.0))


def _crossover_a(b: float) -> float:
    """The a at which the ab family's branches cross, a = q(a, b), by bisection."""
    lo, hi = 1e-4, 1 - abs(b) - 1e-6  # a < q at lo, a > q at hi
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid < ab_q(mid, b) else (lo, mid)
    return lo


def _ab_crossover_triples() -> list[BlochTriple]:
    """ab states on 25 b values at their crossover a = q and 10 offsets from it."""
    offsets = np.concatenate([[0.0], np.logspace(-5, -2, 5), -np.logspace(-5, -2, 5)])
    return [triple_from_matrix(ab_state(a, b))
            for b in np.linspace(-0.95, 0.95, 25)
            for a in _crossover_a(b) + offsets if 0 < a < 1 - abs(b)]


def _numpy_frames(call, exempt=lambda caller: False):
    """Names of the numpy Python functions entered from package code while ``call()`` runs.

    The list leaves out the ``*_dispatcher`` functions that numpy's
    C layer calls on entry to an overridable function, and every entry
    whose calling package frame ``exempt`` accepts.
    """
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    package_dir = os.path.dirname(qdiscord.__file__) + os.sep
    direct = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_filename.startswith(numpy_dir)
                and frame.f_back.f_code.co_filename.startswith(package_dir)
                and not frame.f_code.co_name.endswith("_dispatcher") and not exempt(frame.f_back)):
            direct.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return direct
