"""Property fuzzing of the input contract: any array or state file gives a report or a typed error.

A 4x4 array that :func:`validate` rejects raises :class:`NotAStateError`
(the CLI's exit 3), and any other yields a report whose invariants hold,
measured on the triple that :func:`triple_from_matrix` returns; a state
file makes ``qdiscord compute`` exit 0, 2 or 3, and a range string makes
``qdiscord scan`` exit 0, 2 or 3, never 1 with a traceback.  A
3-vector becomes a unit measurement direction or raises
:class:`ValidationError`, without a warning.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdiscord import (
    MeasurementDirection,
    NotAStateError,
    ValidationError,
    cli,
    conditional_entropy,
    quantum_discord,
    random_state,
    random_unitary,
    reduced_states,
    triple_from_matrix,
    validate,
)
from qdiscord.cli import MAX_SCAN_POINTS, main
from qdiscord.states import PSD_TOL, TRACE_TOL, prepare_state

#: covers PSD_TOL: an accepted matrix may have an eigenvalue down to -1e-9
SLACK = 1e-8

_NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 1.0))
_KINDS = ("state", "non-finite", "huge", "non-hermitian", "trace", "near-psd", "product-deficit", "trace-deficit",
          "near-pure", "raw")


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
        if draw(st.booleans()):  # a pure marginal, whose |x| or |y| the shift below pushes past 1
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pure = np.outer(psi, psi.conj()) / (psi.conj() @ psi).real
            mixed = reduced_states(rho)[0]
            rho = np.kron(pure, mixed) if i % 2 else np.kron(mixed, pure)
        rho -= draw(st.floats(0.0, 2e-9)) * np.eye(4)
        rho /= np.trace(rho).real
    elif kind == "product-deficit":  # a diagonal entry of a product-basis state lowered by up to PSD_TOL
        below_zero = draw(st.booleans())
        p, q = rng.uniform(0, 1, 2)
        if below_zero:  # B pure, so entries 1 and 3 vanish and the lowered one goes negative
            q, i = 1.0, 2 * (i % 2) + 1
        rho = np.kron(np.diag([p, 1 - p]), np.diag([q, 1 - q])).astype(complex)
        rho[i, i] -= draw(st.floats(0.0, PSD_TOL))
        rho /= np.trace(rho).real
        if draw(st.booleans()):  # the same state in a random local basis
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rho = u @ rho @ u.conj().T
    elif kind == "trace-deficit":  # an eigenvalue at -PSD_TOL and a trace below 1, which dividing by it pushes lower
        spectrum = rng.dirichlet(np.ones(3)) * (1 - draw(st.floats(0.0, TRACE_TOL - PSD_TOL)))
        rho = np.diag(np.append(spectrum, -PSD_TOL)[rng.permutation(4)]).astype(complex)
        if draw(st.booleans()):  # the same state in a random local basis
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rho = u @ rho @ u.conj().T
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
        assert not validate(rho).ok  # a matrix validate accepts always gives a report
        return
    b = report.bounds
    assert report.discord == report.mutual_information - report.classical_correlation
    assert 0.0 <= report.discord <= b.xi_bound + SLACK
    assert report.discord <= b.discord_ub + SLACK
    assert report.classical_correlation >= b.classical_lb - SLACK
    # the public triple is the one the report measured, also at a trace off 1 by up to TRACE_TOL
    t, measured = triple_from_matrix(rho), prepare_state(rho).triple
    assert all(np.array_equal(getattr(t, k), getattr(measured, k)) for k in ("x", "y", "T"))
    assert abs(conditional_entropy(t, report.optimal_direction) - report.min_conditional_entropy) <= 1e-10


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from((1e-12, 1e154, 1e300)),
                min_size=3, max_size=3))
def test_any_3_vector_gives_a_unit_direction_or_a_validation_error(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            n = MeasurementDirection(v).n
        except ValidationError:
            return
    assert np.isfinite(n).all() and abs(math.hypot(*n) - 1) <= 1e-12


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


@st.composite
def triple_files(draw):
    """A triple-form state file: a sampled state's triple with x, y or T made non-finite, huge, misshapen or near a norm limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = triple_from_matrix(random_state(rank=draw(st.integers(1, 4)), rng=rng))
    fields = {"x": t.x, "y": t.y, "T": t.T}
    key = draw(st.sampled_from(sorted(fields)))
    value = fields[key].copy()
    kind = draw(st.sampled_from(("state", "non-finite", "huge", "shape", "norm")))
    if kind in ("non-finite", "huge"):
        value.flat[draw(st.integers(0, value.size - 1))] = draw(st.sampled_from(
            (math.nan, math.inf, -math.inf) if kind == "non-finite" else (1e100, -1e300, 1.7e308)))
    elif kind == "shape":
        value = draw(st.sampled_from((value[:2], np.append(value, 0.0), value.reshape(-1)[:9],
                                      value.reshape(-1, 1), np.array(0.5), np.zeros((3, 2)))))
    elif kind == "norm":  # |x| or |y| around 1, or the top singular value of T around 1
        scale = np.linalg.norm(value, 2) if value.ndim == 2 else np.linalg.norm(value)
        if scale > 0:
            value *= (1 + draw(st.floats(-1e-8, 1e-8))) / scale
    fields[key] = value
    return json.dumps({"triple": {k: v.tolist() for k, v in fields.items()}})


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(triple_files())
def test_any_triple_file_exits_0_2_or_3(state_path, text):
    state_path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["compute", str(state_path)])
    assert code in (0, 2, 3)


_FINITE = st.floats(-1.5, 1.5)


@st.composite
def over_cap_ranges(draw):
    """start:stop:step holding more than MAX_SCAN_POINTS values (counted, never built)."""
    lo, span = draw(_FINITE), draw(st.floats(1e-6, 1e6))
    step = span / draw(st.integers(MAX_SCAN_POINTS + 1, 10**30))
    return draw(st.sampled_from((f"{lo!r}:{lo + span!r}:{step!r}", "-1e308:1e308:1")))


@st.composite
def range_strings(draw, most):
    """A scan range: accepted with at most ``most`` values, or malformed, non-finite, mis-stepped or over the cap."""
    kind = draw(st.sampled_from(("accepted",) * 3 + ("malformed", "non-finite", "bad-step", "over-cap")))
    if kind == "accepted":  # starts near 0, where both families hold states
        lo = draw(st.floats(0.0, 0.3))
        if draw(st.booleans()):
            return repr(lo)
        step = draw(st.floats(1e-3, 0.1))
        return f"{lo!r}:{lo + (draw(st.integers(1, most)) - 1) * step!r}:{step!r}"
    lo = draw(_FINITE)
    if kind == "malformed":
        return draw(st.sampled_from(("", ":", "0:1", "0::0.1", "0:1:0.1:2", "a", "0.1,0.2", "0:1:x"))
                    | st.text(max_size=8))
    if kind == "non-finite":
        return draw(st.sampled_from(("nan", "inf", "-inf", "1e999", "0:inf:0.1", "nan:1:0.1",
                                     "0:1:nan", "0:1:inf", "-inf:0:0.1")))
    if kind == "bad-step":
        step = draw(st.sampled_from((0.0, -0.0)) | st.floats(-1.0, -1e-300))
        return draw(st.sampled_from((f"{lo!r}:{lo + 0.5!r}:{step!r}", f"{lo!r}:{lo - 0.5!r}:0.1")))
    return draw(over_cap_ranges())


def _scan(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["scan", *argv])


_RAYS = st.sampled_from(("1,-1,1", "0.5,0.2,-0.1", "1,1,1", "0.9,0,0"))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(range_strings(most=5), range_strings(most=5))
def test_any_ab_scan_range_exits_0_2_or_3(a, b):
    assert _scan("ab", f"--a={a}", f"--b={b}") in (0, 2, 3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_RAYS, range_strings(most=25))
def test_any_bell_diagonal_scan_range_exits_0_2_or_3(ray, s):
    assert _scan("bell-diagonal", f"--ray={ray}", f"--s={s}") in (0, 2, 3)


def _refuse(*args):
    raise AssertionError("a state was built for a range over the point cap")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(over_cap_ranges(), st.integers(1, 400), _RAYS)
def test_an_over_cap_range_exits_2_before_a_state_is_built(text, other_count, ray):
    other = f"0:{(other_count - 1) * 1e-3!r}:0.001"  # 1 to 400 values, under the cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ab_state", _refuse)
        mp.setattr(cli, "bell_diagonal_state", _refuse)
        assert _scan("ab", f"--a={text}", f"--b={other}") == 2
        assert _scan("ab", f"--a={other}", f"--b={text}") == 2
        assert _scan("bell-diagonal", f"--ray={ray}", f"--s={text}") == 2
