"""One contract table over the public surface of ``qdiscord``.

A row gives a callable's postcondition; its valid arguments are ``VALID``'s by parameter name, under the row's
variants. By each parameter's annotation, the harness puts hostile values into one argument at a time under
``warnings.simplefilter("error")``. Each such cell raises the class its tag names (a ValidationError subclass for a
value, AttributeError or TypeError for a record) with every message fragment the tag, the name or the row gives,
or returns a result that meets the postcondition: a cell of a tag in ACCEPTED must, one in a row's accept may.
"""

import inspect
import math
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qdiscord
from qdiscord import (ABState, BellDiagonalDiscord, BlochTriple, BoundReport, CanonicalForm, ClassTag, DiscordReport,
                      MeasurementDirection, MeasurementProbabilities, NotAStateError, PostMeasurementState, ScanRow,
                      StateDiagnostics, StationaryDiagnostics, StationaryPoint, ValidationError, WrongClassError,
                      canonicalize, random_state, triple_from_matrix, validate)
from qdiscord.measurement import branches_batch
from qdiscord.optimize import stationary_residual_batch

NAN, INF = math.nan, math.inf
Z3, Z33 = np.zeros(3), np.zeros((3, 3))

#: the kind of hostile values of each annotation; a parameter without one (or a keyword of **kwargs) is an
#: array, or a flag or a scalar by its valid value
KINDS = {"float": "scalar", "float | None": "scalar", "int": "count", "int | None": "count", "bool": "flag",
         "np.random.Generator | int | None": "seed", "BlochTriple": "record", "CanonicalForm": "record",
         "np.random.Generator": "record", "Sequence[ScanRow]": "records",
         "Iterable[tuple[float, float, np.ndarray]]": "scan rows"}
#: per tag of a cell that must raise: the exception, whether exactly that class, and a fragment of its message
TAGS = {"non-finite": (ValidationError, False, None), "out of range": (ValidationError, False, None),
        "not a number": (ValidationError, True, "bool, complex or string"),
        "complex": (ValidationError, True, "complex"), "shape": (ValidationError, True, None),
        "not real numbers": (ValidationError, True, "real numbers, got an array of dtype"),
        "not numbers": (ValidationError, True, "got an array of dtype"), "one row": (ValidationError, True, None),
        "not an integer": (ValidationError, True, "must be an integer"), "not a bool": (ValidationError, True, "bools"),
        "not a record": ((AttributeError, TypeError), False, None)}
#: tags of numbers in another form, whose cells must give a result
ACCEPTED = {"0-d array", "numpy integer", "numpy bool"}
RECORDS = [None, "triple", {"x": [0.0, 0.0, 0.0]}, np.eye(4) / 4]


def _array_values(valid) -> list:
    """Non-finite entries, complex entries of a real array, arrays that are not numbers, and wrong shapes."""
    v = np.asarray(valid)
    cells = [("non-finite", np.full(v.shape, bad)) for bad in (NAN, INF, -INF)]
    for bad in (NAN, INF, -INF):
        for base in (v, np.zeros_like(v)):
            for i in (0, 1, -1):
                cells.append(("non-finite", base.copy()))
                cells[-1][1].flat[i] = bad
    if v.dtype.kind != "c":
        imaginary, mixed = v + 0j, v.astype(object)
        imaginary.flat[0] += 1j
        mixed.flat[-1] = complex(mixed.flat[-1])
        cells += [("complex", bad) for bad in (v + 0j, imaginary, imaginary.tolist(), (v + 0j).tolist(),
                                               tuple(mixed.tolist()), list(v + 0j))]
    cells += [("not real numbers" if v.dtype.kind != "c" else "not numbers", bad)
              for bad in (v.astype(bool), np.full(v.shape, "x"), v.astype(object), np.full(v.shape, object()),
                          np.zeros(v.shape, "datetime64[D]"), np.zeros(v.shape, "timedelta64[s]"),
                          np.zeros(v.shape, "V8"), np.full(v.shape, 10**400, dtype=object).tolist(), "abc",
                          object(), {}, None)]
    cells += [("shape", bad) for bad in (v[..., :-1], v[..., None], np.asarray(v.flat[0]), [[1.0, 2.0], [3.0]],
                                         np.concatenate([v.ravel(), v.ravel()]), NAN, INF, 1j, True)]
    if v.ndim == 2:
        cells += [("shape", v[:-1, :-1]), ("shape", np.eye(v.size)), ("one row", v[0])]
    return cells


def _scan_values(valid) -> list:
    """Hostile values in each place of the one row: the two parameters, which may be non-finite, and the matrix."""
    row = valid[0]
    return [("non-finite parameter" if i < 2 and tag == "non-finite" else tag, [row[:i] + (bad,) + row[i + 1:]])
            for i, kind in enumerate(("scalar", "scalar", "array")) for tag, bad in VALUES[kind](row[i])]


VALUES = {
    "scalar": lambda v: [("non-finite", bad) for bad in (NAN, INF, -INF)] + [("0-d array", np.array(v))] + [
        ("not a number", bad) for bad in (complex(v), v + 0.01j, np.complex128(v), np.complex128(v + 0.01j),
                                          np.array(complex(v)), 1j, True, False, np.True_, np.False_, np.array(True),
                                          str(v), "abc", None, {}, np.array([v]), np.array([v, v]))],
    "count": lambda v: [("numpy integer", np.int64(v))] + [("not an integer", bad) for bad in (
        True, False, np.True_, float(v), v + 0.5, str(v), NAN, INF, 1j, None, np.array(v), np.array([v, v]))],
    "seed": lambda v: [("numpy integer", np.int64(7))] + [("not an integer", bad) for bad in (
        -1, 1.5, "x", True, np.True_, NAN, 1j, {}, np.array([1, 2]), np.eye(4) / 4)],
    "flag": lambda v: [("numpy bool", np.bool_(v))] + [("not a bool", bad) for bad in (
        None, 0, 1, 1.0, NAN, "yes", "", 1j, np.array([True, False]), np.array(True))],
    "array": _array_values, "scan rows": _scan_values, "record": lambda v: [("not a record", r) for r in RECORDS],
    "records": lambda v: [("not a record", bad) for r in RECORDS for bad in (r, [r])]}


def _entropy(s) -> bool:
    """A finite entropy, at least 0: a float, or a sequence or array of them."""
    a = np.asarray(s)
    return (isinstance(s, float) if a.ndim == 0 else a.dtype == float) and bool(np.all((0.0 <= a) & (a < INF)))


def _state(m) -> bool:
    return isinstance(m, np.ndarray) and m.shape == (4, 4) and validate(m).ok


def _unitary(u) -> bool:
    return np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)


def _rotation(o) -> bool:
    return o.shape == (3, 3) and np.isrealobj(o) and _unitary(o) and abs(np.linalg.det(o) - 1) <= 1e-12


def _unit(d) -> bool:
    return isinstance(d, MeasurementDirection) and abs(math.hypot(*d.n) - 1) <= 1e-15


def _spectrum(v) -> bool:
    return np.isrealobj(v) and bool(np.all(np.isfinite(v))) and bool(np.all(np.diff(v) <= 0))


def _search(r) -> bool:
    return _unit(r[0]) and _entropy(r[1]) and isinstance(r[2], StationaryDiagnostics)


def _bounds(b) -> bool:
    return (isinstance(b, BoundReport) and b.perp_dim in (1, 2, 3) and _unit(b.e0) and type(b.saturated) is bool
            and _entropy([b.t0_squared, b.cond_entropy_ub, b.discord_ub, b.xi_bound]) and b.classical_lb >= -1e-12)


def _report(r) -> bool:
    """D >= 0, D <= S(rho_B), I = J + D (D = I - J exactly) and the bounds hold."""
    b = r.bounds
    return (isinstance(r, DiscordReport) and r.method in ("closed-form", "grid+refine") and _unit(r.optimal_direction)
            and _bounds(b) and 0.0 <= r.discord == r.mutual_information - r.classical_correlation
            and r.discord <= b.xi_bound + 1e-12 and r.discord <= b.discord_ub + 1e-9
            and r.classical_correlation >= b.classical_lb - 1e-9
            and r.min_conditional_entropy <= b.cond_entropy_ub + 1e-9
            and isinstance(r.diagnostics, StationaryDiagnostics))


RHO = random_state(4, 2)
T = triple_from_matrix(RHO)
N = (0.0, 0.0, 1.0)
DIRS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
COARSE = math.pi / 8
#: a valid value of each parameter name, which a row's variants override
VALID = {"t": T, "c": canonicalize(T), "rng": np.random.default_rng(5), "rho": RHO, "m": np.eye(4, dtype=complex) / 4,
         "u": np.eye(2, dtype=complex), "o1": np.eye(3), "o2": np.eye(3), "n": N, "direction": N, "start": N,
         "directions": DIRS, "dirs": DIRS, "k": 0, "rank": 2, "dim": 3, "resolution": COARSE, "tolerance": 1e-9,
         "fast_path": True, "with_bounds": True, "discord": 0.1, "a": 0.1, "b": 0.1, "t1": 0.3, "t2": 0.1, "t3": 0.1,
         "x3": 0.1, "theta": 0.3, "phi": 0.2, "x": (0.1, 0.0, 0.0), "y": (0.0, 0.2, 0.0), "T": np.diag([0.3, 0.3, 0.3]),
         "p": [0.5, 0.25, 0.25], "states": [(0.1, 0.2, RHO)], "rows": [ScanRow(0.1, 0.2, 0.3, 0.4, 0.5, False)]}
#: out-of-range values by parameter name, which a row's ``out`` extends: for a batch, rows off unit length
#: (one that gave a value, one that blamed the triple and one that overflowed)
OUT = {"direction": [Z3, (1e-13, 0.0, 0.0)], "n": [Z3, (1e-13, 0.0, 0.0)], "start": [Z3], "k": [-1, 2],
       "rank": [0, 5], "dim": [0, -1], "a": [1.5, -0.1], "b": [0.95],
       "resolution": [-5.0, 100.0, 0.0, 1.0, math.radians(0.4)], "tolerance": [1.0, 2e-3, 1e-13, 0.0, -1.0],
       **dict.fromkeys(("directions", "dirs"), [np.array([[0.0, 0.0, 1.0], row]) for row in (
           [2.0, 0, 0], Z3, [1e200, 0, 0], [0.6, 0, 0.8 + 2e-12])])}
#: message fragments by parameter name (every tag) or by (parameter name, tag), which a row's ``match`` extends
FRAGMENTS = {**{name: name for name in ("resolution", "tolerance", "discord", "rank", "dim", "fast_path",
                                        "with_bounds")},
             ("rng", "not an integer"): "rng", ("k", "not an integer"): "outcome index", "dirs": "directions",
             ("m", "non-finite"): "non-finite", ("directions", "out of range"): "unit vectors",
             ("dirs", "out of range"): "unit vectors",
             **{(name, "non-finite"): "non-finite"
                for name in ("n", "direction", "directions", "dirs", "start", "o1", "o2")}}
#: the exact exception by (parameter name, tag), which a row's ``raises`` extends
RAISES = {("rho", "out of range"): NotAStateError, ("m", "non-finite"): NotAStateError,
          **{(name, tag): ValidationError for name in ("directions", "dirs") for tag in ("non-finite", "out of range")}}
NOT_STATES = [np.diag([0.5, 0.6, -0.1, 0.0]), np.diag([0.5, 0.3, 0.25, 0.0]), np.full((4, 4), 1e300)]
#: triples on which a non-finite direction reaches the branches only through 0 * inf, and T = 0
TRIPLES = [{"t": t} for t in (T, BlochTriple((0.3, 0.0, 0.0), Z3, Z33), BlochTriple(Z3, (0.0, 0.5, 0.0), Z33),
                              BlochTriple(Z3, Z3, np.diag([0.0, 0.5, 0.0])), BlochTriple(Z3, Z3, Z33))]


class Row(NamedTuple):
    post: Callable  # the postcondition a result meets
    out: dict = {}  # out-of-range values by parameter name
    variants: list = [{}]  # arguments over VALID, one dict per variant
    match: dict = {}  # message fragments by parameter name, or by (parameter name, tag)
    raises: dict = {}  # the exact exception by (parameter name, tag), in place of its tag's
    accept: tuple = ()  # (parameter name, tag) whose cells may also give a result
    call: Callable | None = None  # qdiscord's function or class of the row's name, where None


#: the rows of the callables that take a state, which raise NotAStateError for what is not one
STATE_OUT = {"rho": NOT_STATES}
ROWS = {
    "ABState": Row(lambda s: isinstance(s, ABState)),
    "BlochTriple": Row(lambda t: isinstance(t, BlochTriple), {"x": [(1.1, 0.0, 0.0)], "y": [(-1e300, 0.2, 0.7)]},
                       match={**{(name, "non-finite"): "non-finite" for name in "xyT"},
                              **{(name, "out of range"): "exceeds 1" for name in "xy"}}),
    "MeasurementDirection": Row(_unit),
    "ab_discord": Row(lambda r: all(map(_entropy, r)) and r[0] <= r[1]),
    "ab_q": Row(_entropy),
    "ab_state": Row(_state),
    "apply_local_rotations": Row(lambda t: isinstance(t, BlochTriple),
                                 {"o1": [2 * np.eye(3), np.diag([1.0, 1.0, -1.0])], "o2": [np.ones((3, 3))]}),
    "bell_diagonal_discord": Row(lambda r: isinstance(r, BellDiagonalDiscord)
                                 and _entropy([r.discord, r.min_conditional_entropy]), {"t1": [2.0, 0.9], "t3": [-1.1]},
                                 raises={(name, "out of range"): NotAStateError for name in ("t1", "t3")}),
    "bell_diagonal_state": Row(_state, {"t1": [2.0], "t2": [1.5]}),
    "binary_entropy": Row(_entropy, {"x": [-0.01, -1.1e-9, 1 + 1.1e-9, 1.01]}, [{"x": 0.3}]),
    "bloch_rotation": Row(_rotation, {"u": [np.triu(np.ones((2, 2))), 2 * np.eye(2)]}, match={"u": "unitary"}),
    "bound_comparison_scan": Row(
        lambda rows: all(isinstance(r, ScanRow) and type(r.param1) is type(r.param2) is float and type(r.saturated)
                         is bool and 0.0 <= r.discord <= r.discord_ub + 1e-9 and _entropy(r.xi_bound) for r in rows),
        {"states": [[(0.1, 0.2, m)] for m in NOT_STATES]}, accept=[("states", "non-finite parameter")]),
    "canonicalize": Row(lambda c: isinstance(c, CanonicalForm) and _rotation(c.rotation_a) and _rotation(c.rotation_b)),
    "classical_correlation": Row(_entropy, STATE_OUT, [{"resolution": COARSE, "tolerance": 1e-9, "fast_path": True}]),
    "classify": Row(lambda tag: isinstance(tag, ClassTag)),
    "conditional_entropy": Row(_entropy),
    "conditional_entropy_batch": Row(_entropy, {"directions": [np.zeros((1, 3))]}, TRIPLES,
                                     match={"directions": "directions"}),
    # one direction or a batch of them; t builds rho only where rho is not given
    "conditional_entropy_direct": Row(_entropy, variants=[{"directions": dirs, "rho": rho} for rho in (None, RHO)
                                                          for dirs in (N, DIRS)], match={"rho": "finite 4x4"},
                                      accept=[("directions", "one row"), ("t", "not a record")]),
    "direction_from_angles": Row(_unit, match={"theta": "finite|complex", "phi": "finite|complex"}),
    "grid_minimize": Row(lambda r: _unit(r[0]) and _entropy(r[1])),
    "hermitian_eigensystem": Row(lambda r: _spectrum(r[0]) and _unitary(r[1]), {"m": [np.triu(np.ones((4, 4)))]}),
    "hermitian_eigenvalues": Row(_spectrum, {"m": [np.triu(np.ones((4, 4)))]}),
    "joint_probabilities": Row(lambda p: isinstance(p, MeasurementProbabilities)
                               and all(0.0 <= w <= 1.0 for w in (p.p0, p.p1, *p.w)) and abs(sum(p.w) - 1) <= 1e-15),
    "kernel_class_min_entropy": Row(_entropy, {"x": [(0.3, 0.0, 0.0)], "T": [np.eye(3)]},
                                    [{"x": (0.0, 0.0, 0.4), "T": np.diag([0.6, 0.3, 0.0])}],
                                    raises={(name, tag): WrongClassError for name in ("x", "T")
                                            for tag in ("non-finite", "out of range")}),
    "marginals": Row(lambda r: all(np.allclose(m, m.conj().T) and abs(np.trace(m) - 1) <= 1e-12
                                   and np.linalg.eigvalsh(m)[0] >= 0 for m in r)),
    "matrix_from_triple": Row(_state),
    "minimize_conditional_entropy": Row(_search),
    "mutual_information": Row(_entropy, STATE_OUT),
    "outcome_probabilities": Row(lambda p: _entropy(p) and max(p) <= 1 and abs(sum(p) - 1) <= 1e-15),
    "perp_subspace": Row(lambda b: b.shape[0] == 3 and np.allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-12)),
    "post_measurement_state": Row(lambda s: isinstance(s, PostMeasurementState) and s.outcome == 0
                                  and 0.0 < s.probability <= 1.0 and np.linalg.norm(s.x_tilde) <= 1 + 1e-9),
    "projector_bloch": Row(lambda p: np.allclose(p, [[1, 0], [0, 0]], atol=1e-15)),
    # a pure state, a closed-form one and a generic one: the three routes, each with and without the fast path
    "quantum_discord": Row(_report, STATE_OUT, [{"rho": rho, "fast_path": fast} for rho in (
        random_state(1, 3), qdiscord.bell_diagonal_state(0.3, 0.2, 0.1), RHO) for fast in (True, False)]),
    "random_state": Row(lambda m: _state(m) and np.linalg.matrix_rank(m, tol=1e-9) == 2, variants=[{"rng": 7}]),
    "random_unitary": Row(lambda u: u.shape == (3, 3) and _unitary(u), variants=[{"rng": 7}]),
    # any 4x4 matrix of numbers, one with non-finite entries too: both partial traces keep its trace
    "reduced_states": Row(lambda r: all(m.shape == (2, 2) for m in r) and np.allclose(
        np.trace(r[0]), np.trace(r[1]), equal_nan=True), accept=[("rho", "non-finite")]),
    "refine_minimum": Row(_search),
    "rows_to_csv": Row(lambda s: s.startswith("param1,param2,") and s.count("\n") == 2),
    "sample_bell_diagonal": Row(lambda r: len(r) == 3 and all(isinstance(v, float) and -1 <= v <= 1 for v in r)),
    "sample_kernel_class": Row(lambda t: isinstance(t, BlochTriple)),
    "shannon_entropy": Row(_entropy, {"p": [[0.7, -0.1, 0.4], [0.5, 0.4], [1.2, -0.2], [0.5, 0.5 - 2e-6]]}),
    "stationary_scan": Row(lambda points: all(isinstance(p, StationaryPoint) and _unit(p.direction)
                                              and _entropy(p.value) for p in points)),
    "stationary_vector": Row(lambda d: isinstance(d, StationaryDiagnostics) and (d.degenerate or d.residual >= 0)),
    "t0_squared": Row(lambda r: _entropy(r[0]) and _unit(r[1])),
    "theorem1_bounds": Row(_bounds, STATE_OUT, [{"discord": None}, {}]),
    "triple_from_matrix": Row(lambda t: isinstance(t, BlochTriple), STATE_OUT),
    "validate": Row(lambda d: isinstance(d, StateDiagnostics) and isinstance(str(d), str)
                    # the accept flag is the thresholds on the deviations, which are NaN for a non-finite matrix
                    and d.ok == (d.hermiticity_deviation <= 1e-8 and d.trace_deviation <= 1e-8
                                 and d.min_eigenvalue >= -1e-9), accept=[("rho", "non-finite")]),
    "von_neumann_entropy": Row(_entropy, {"m": NOT_STATES[:2]}, raises={("m", "out of range"): NotAStateError}),
    "x_subclass_discord": Row(_entropy, {"t2": [0.5], "x3": [1.0]}, raises={("t2", "out of range"): WrongClassError}),
}
#: the batch kernels behind the public ones, which check their directions alike
KERNEL_ROWS = {"branches_batch": Row(lambda b: all(np.all(np.isfinite(f)) for f in b), variants=TRIPLES,
                                     call=branches_batch),
               "stationary_residual_batch": Row(lambda r: bool(np.all(r >= 0)), variants=TRIPLES,
                                                call=stationary_residual_batch)}
TABLE = {**{key: row._replace(call=getattr(qdiscord, key)) for key, row in ROWS.items()}, **KERNEL_ROWS}


def _variants(key: str) -> list:
    """The valid arguments of each variant: VALID by parameter name, then the variant's own."""
    valid = {p.name: VALID[p.name] for p in inspect.signature(TABLE[key].call).parameters.values()
             if p.kind is not p.VAR_KEYWORD}
    return [{**valid, **v} for v in TABLE[key].variants]


def _cells(key: str, name: str):
    """(tag, arguments) of each hostile value of argument ``name``, in each variant, by its annotation."""
    row, param = TABLE[key], inspect.signature(TABLE[key].call).parameters.get(name)  # None: a keyword of **kwargs
    for variant in _variants(key):
        if (valid := variant[name]) is None:  # the default None: another variant gives a value to vary
            continue
        kind = KINDS.get(param.annotation if param else None) or (
            "flag" if isinstance(valid, bool) else "scalar" if isinstance(valid, float) else "array")
        out = OUT.get(name, []) + row.out.get(name, [])
        for tag, value in VALUES[kind](valid) + [("out of range", v) for v in out]:
            if not (value is None and param is not None and param.default is None):
                yield tag, {**variant, name: value}


def _verdict(key: str, name: str, tag: str, args: dict) -> str | None:
    """None if the cell holds, else what went wrong."""
    row = TABLE[key]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = TABLE[key].call(**args)
        except Exception as err:  # noqa: BLE001 - the class is the test
            expected, exact, fragment = TAGS.get(tag, (None, True, None))
            pinned = row.raises.get((name, tag), RAISES.get((name, tag)))
            if expected is None or not (type(err) is (pinned or expected) if exact or pinned
                                        else isinstance(err, expected)):
                return f"raised {type(err).__name__}: {err}"
            fragments = [fragment, FRAGMENTS.get(name), FRAGMENTS.get((name, tag)), row.match.get(name),
                         row.match.get((name, tag))]
            missed = [f for f in fragments if f is not None and not re.search(f, str(err))]
            return f"message {str(err)!r} lacks {missed}" if missed else None
    if tag not in ACCEPTED and (name, tag) not in row.accept:
        return f"returned {result!r}"
    return None if row.post(result) else f"returned {result!r}, which fails the postcondition"


def test_the_table_covers_every_public_callable_and_every_argument():
    # the functions qdiscord exports, and the classes whose constructor validates
    public = {name for name in dir(qdiscord) if not name.startswith("_") and (
        inspect.isfunction(obj := getattr(qdiscord, name)) or "__post_init__" in getattr(obj, "__dict__", {}))}
    assert public == set(ROWS) and len(ROWS) == 49
    for key in TABLE:  # a parameter without a VALID entry raises KeyError; **kwargs needs a keyword to pass on
        params = inspect.signature(TABLE[key].call).parameters.values()
        assert all(p.kind is not p.VAR_KEYWORD for p in params) or any(
            v.keys() - {p.name for p in params} for v in _variants(key)), key


@pytest.mark.parametrize("key", sorted(TABLE))
def test_valid_arguments_meet_the_postcondition(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in _variants(key):
            assert TABLE[key].post(TABLE[key].call(**variant)), variant


def test_the_quantum_discord_row_takes_every_route():
    rhos = [variant["rho"] for variant in _variants("quantum_discord") if variant["fast_path"]]
    assert [qdiscord.quantum_discord(rho).method for rho in rhos] == ["closed-form", "closed-form", "grid+refine"]
    assert qdiscord.von_neumann_entropy(rhos[0]) <= 1e-12  # the pure route


@pytest.mark.parametrize("key, name, tag", [pytest.param(key, name, tag, id=f"{key}-{name}-{tag}") for key in TABLE
                                            for name in dict.fromkeys(k for v in _variants(key) for k in v)
                                            for tag in dict.fromkeys(tag for tag, _ in _cells(key, name))])
def test_hostile_values_raise_or_meet_the_postcondition(key, name, tag):
    failures = [f"{repr(args[name])[:70]} {verdict[:160]}" for cell, args in _cells(key, name)
                if cell == tag and (verdict := _verdict(key, name, tag, args)) is not None]
    assert not failures, "\n".join(failures)
