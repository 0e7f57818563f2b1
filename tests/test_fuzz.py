"""Property fuzzing of the input contract: any array or state file gives a report or a typed error.

A 4x4 array either raises :class:`NotAStateError` (the CLI's exit 3) or
yields a report whose invariants hold; a state file makes ``qdiscord
compute`` exit 0, 2 or 3, never 1 with a traceback.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdiscord import NotAStateError, quantum_discord, random_state
from qdiscord.cli import main

#: covers PSD_TOL: an accepted matrix may have an eigenvalue down to -1e-9
SLACK = 1e-8

_NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 1.0))
_KINDS = ("state", "non-finite", "huge", "non-hermitian", "trace", "near-psd", "near-pure", "raw")


@st.composite
def matrices(draw):
    """A 4x4 complex array: a random state, perturbed around one acceptance threshold, or raw."""
    kind = draw(st.sampled_from(_KINDS))
    if kind == "raw":
        entries = st.lists(st.complex_numbers(allow_nan=True), min_size=16, max_size=16)
        return np.array(draw(entries)).reshape(4, 4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_state(rank=draw(st.integers(1, 4)), rng=rng)
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "non-finite":
        rho[i, j] = draw(st.sampled_from(_NON_FINITE))
    elif kind == "huge":  # arithmetic on entries near the float range overflows
        rho *= draw(st.sampled_from((1e99, 1e101, 1e300)))
        k = (i + 1 + j % 3) % 4
        rho[i, k], rho[k, i] = 1.7e308, draw(st.sampled_from((1.7e308, -1.7e308)))
    elif kind == "non-hermitian":  # around HERMITICITY_TOL = 1e-8
        rho[i, (i + 1 + j % 3) % 4] += draw(st.floats(0.5e-8, 1.5e-8)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    elif kind == "trace":  # around TRACE_TOL = 1e-8
        rho *= 1 + draw(st.floats(-2e-8, 2e-8))
    elif kind == "near-psd":  # smallest eigenvalue around -PSD_TOL = -1e-9
        rho -= draw(st.floats(0.0, 2e-9)) * np.eye(4)
        rho /= np.trace(rho).real
    elif kind == "near-pure":  # S(rho) near PURE_STATE_TOL, a landscape flat to rounding
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        eps = 10 ** draw(st.floats(-16, -8))
        rho = (1 - eps) * np.outer(psi, psi.conj()) + eps * random_state(rng=rng)
    return rho


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matrices())
def test_any_array_gives_a_report_or_a_typed_error(rho):
    try:
        report = quantum_discord(rho)
    except NotAStateError:
        return
    b = report.bounds
    assert report.discord == report.mutual_information - report.classical_correlation
    assert -SLACK <= report.discord <= b.xi_bound + SLACK
    assert report.discord <= b.discord_ub + SLACK
    assert report.classical_correlation >= b.classical_lb - SLACK


_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=5)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=20)
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**400, 10**400)


def _vectors(size):
    return st.lists(_NUMBERS, min_size=size, max_size=size)


_STATE_FILES = st.one_of(
    _JSON,
    st.fixed_dictionaries({"matrix": _JSON}),
    st.fixed_dictionaries({"matrix": st.lists(st.lists(_vectors(2), min_size=4, max_size=4),
                                              min_size=3, max_size=5)}),
    st.fixed_dictionaries({"triple": st.fixed_dictionaries({"x": _vectors(3), "y": _vectors(3),
                                                            "T": st.lists(_vectors(3), min_size=3, max_size=3)})}),
    st.fixed_dictionaries({"triple": _JSON}),
)


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "state.json"


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_STATE_FILES.map(json.dumps), st.text(max_size=30)))
def test_any_state_file_exits_0_2_or_3(state_path, text):
    state_path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["compute", str(state_path)])
    assert code in (0, 2, 3)
