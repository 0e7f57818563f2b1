"""Shared fixtures and small helpers for the test suite."""

import math
import os
import sys

import numpy as np
import pytest

import qdiscord
from qdiscord import (
    MeasurementDirection,
    bloch_rotation,
    random_state,
    random_unitary,
    triple_from_matrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


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


def _numpy_frames(call, exempt=lambda caller: False):
    """Names of the numpy Python functions entered while ``call()`` runs: all, and those entered from package code.

    The second list leaves out the ``*_dispatcher`` functions that numpy's
    C layer calls on entry to an overridable function, and every entry
    whose calling package frame ``exempt`` accepts.
    """
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    package_dir = os.path.dirname(qdiscord.__file__) + os.sep
    entered, direct = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            entered.append(frame.f_code.co_name)
            if (frame.f_back.f_code.co_filename.startswith(package_dir)
                    and not frame.f_code.co_name.endswith("_dispatcher") and not exempt(frame.f_back)):
                direct.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return entered, direct
