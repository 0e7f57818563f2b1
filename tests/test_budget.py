"""One call-budget table: what each route of a call may cost, counted.

A row is a scenario, a factory of fresh zero-argument calls that are counted one at a time. Its cells give each
counter's count per call, exact (an int) or allowed (a range; ``most(n)`` is 0..n), and every counter a row does not
list must read 0. The route a call takes is counted too: ``_closed_form_minimum`` as "pure", "closed-form" or "no
closed form", ``_basin_starts`` as "one plateau" or "several plateaus" of start minima. Numpy's Python-layer entries
from package code are counted in a second pass through ``conftest._numpy_frames`` without the counters, since a
counting wrapper would hide the package frame, and bounded by the row's ``numpy`` Counter.
"""

import linecache
import re
import sys
from collections import Counter
from functools import partial, wraps
from typing import Callable, NamedTuple

import numpy as np
import pytest

from conftest import _ab_crossover_triples, _numpy_frames, random_direction, random_triple
from qdiscord import (BlochTriple, bell_diagonal_state, canonicalize, matrix_from_triple, minimize_conditional_entropy,
                      quantum_discord, quantum_discord_many, random_state, random_unitary, refine_minimum,
                      sample_kernel_class, stationary_scan, theorem1_bounds, triple_from_matrix)
from qdiscord import ab_state, bounds, entropy, measurement, optimize, states
from qdiscord.cli import main
from qdiscord.states import CanonicalForm, PreparedState, prepare_state


def most(n: int) -> range:
    return range(n + 1)


#: the package functions counted, through every module of the package that binds each
FUNCTIONS = {"validate": states.validate, "perp_subspace": bounds.perp_subspace,
             "von_neumann_entropy": entropy.von_neumann_entropy, "_restricted_maximum": bounds._restricted_maximum,
             "branches": measurement.branches, "refine_minimum": optimize.refine_minimum, "_point": optimize._point,
             "_diagnostics": optimize._diagnostics}
BINDINGS = {key: [(module, name) for path, module in sorted(sys.modules.items()) if path.startswith("qdiscord.")
                  for name, value in vars(module).items() if value is func] for key, func in FUNCTIONS.items()}
#: the lazy fields, each counted by the function it runs on first read
LAZY = {name: cls for cls, names in ((BlochTriple, ("_tx",)),
                                     (PreparedState, ("s_a", "s_b", "s_ab", "_svd", "_restricted"))) for name in names}


#: (owner, attribute, counter): a name, or a function of the call's arguments and result
COUNTERS = ([(module, name, key) for key, found in BINDINGS.items() for module, name in found]
            + [(np.linalg, name, name) for name in ("svd", "eigh", "det", "norm", "solve")]
            + [(np.linalg, "eigvalsh", lambda m, w: f"eigvalsh {np.shape(m)[-1]}x{np.shape(m)[-1]}"),
               (BlochTriple, "__post_init__", "BlochTriple.__post_init__"),
               (CanonicalForm, "__init__", "CanonicalForm.__init__"),
               (optimize, "_closed_form_minimum", lambda state, found: "no closed form" if found is None
                else "pure" if state.s_ab <= optimize.PURE_STATE_TOL else "closed-form"),
               (optimize, "_basin_starts", lambda values, nbrs, starts: "several plateaus" if len(starts) > 1
                else "one plateau")]
            + [(vars(cls)[name], "func", name) for name, cls in LAZY.items()])


def _install(monkeypatch) -> Counter:
    counts = Counter()

    def counted(key, func):
        @wraps(func)  # which keeps the name a lazy field is stored under
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            counts[key(*args, result) if callable(key) else key] += 1
            return result
        return wrapper

    for owner, name, key in COUNTERS:
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return counts


#: the closed-form oracles of the verify suites, which keep their own numpy code
ORACLES = {"bell_diagonal_discord", "kernel_class_min_entropy", "shannon_entropy"}
#: a line that makes or calls numpy's Generator, whose C code enters numpy's Python layer
GENERATOR_CALL = re.compile(r"\brng\.|default_rng\(")


def _oracle_or_generator(caller) -> bool:
    """A numpy entry under a closed-form oracle, or from a line that makes or calls numpy's Generator."""
    if GENERATOR_CALL.search(linecache.getline(caller.f_code.co_filename, caller.f_lineno)):
        return True
    while caller is not None and caller.f_code.co_name not in ORACLES:
        caller = caller.f_back
    return caller is not None


class Row(NamedTuple):
    calls: Callable  # () -> a fresh list of zero-argument calls
    cells: dict = {}
    numpy: dict | None = {}  # the Counter bound of numpy's Python-layer entries per call; None: not counted
    exempt: Callable = lambda caller: False  # package frames whose numpy entries are not counted


_rng = np.random.default_rng(2929)
_u = np.kron(random_unitary(2, _rng), random_unitary(2, _rng))
_psi = _rng.standard_normal(4) + 1j * _rng.standard_normal(4)
PURE = np.outer(_psi, _psi.conj()) / np.vdot(_psi, _psi).real
BELL = _u @ bell_diagonal_state(0.8, 0.3, -0.2) @ _u.conj().T
KERNEL = _u @ matrix_from_triple(sample_kernel_class(_rng)) @ _u.conj().T
TIE = bell_diagonal_state(0.5, -0.5, 0.5)  # a tied top eigenvalue at T^t x = y = 0
MIXED = np.eye(4) / 4  # T = 0
GENERIC = random_state(rank=4, rng=_rng)
AB = ab_state(0.3, 0.4)  # two plateaus of lattice minima
RANK_ONE = [random_state(rank=1, rng=_rng) for _ in range(20)]
STACK = [PURE, BELL, KERNEL, GENERIC, AB]  # the routes of a mixed stack


def _discord(*rhos, **settings) -> Callable:
    return lambda: [partial(quantum_discord, rho, **settings) for rho in rhos]


def _search(triples: Callable) -> Callable:
    """One call that searches each of a fresh list of triples."""
    return lambda: [partial(list, map(minimize_conditional_entropy, triples()))]


def _triples(seed: int, ranks: list) -> list:
    rng = np.random.default_rng(seed)
    return [random_triple(rng, rank) for rank in ranks]


def _first_read(*rhos) -> Callable:
    """A report's diagnostics read once and then in full, the report made outside the count."""
    def read(report):
        return lambda: (report.diagnostics.residual, repr(report.diagnostics))
    return lambda: [read(quantum_discord(rho)) for rho in rhos]


def _twice(state) -> Callable:
    """Two calls and two bounds on one prepared state, then every lazy field read."""
    def call():
        for _ in range(2):
            quantum_discord(state), theorem1_bounds(state)
        return [getattr(state.triple if cls is BlochTriple else state, name) for name, cls in LAZY.items()]
    return call


def _refinements() -> list:
    """One call that refines 50 triples of rank 2-4, each from a random start."""
    rng = np.random.default_rng(77)
    triples = [random_triple(rng, rank=2 + k % 3) for k in range(50)]
    return [partial(list, map(refine_minimum, triples, [random_direction(rng) for _ in triples]))]


def _verify(suite: str) -> Callable:
    def run():
        assert main(["verify", "--suite", suite, "--n", "4"]) == 0
    return lambda: [run]


def points(n: int) -> dict:
    return {"branches": most(n), "_point": most(n)}


def searches(n: int, refinements: int, evaluations: int) -> dict:
    """n searches of fresh triples: one SVD of T and one T^t x each."""
    return {"svd": n, "_tx": n, "one plateau": most(n), "several plateaus": most(n),
            "refine_minimum": most(refinements), **points(evaluations)}


#: the front of every call: one validate and its 4x4 spectrum, the report's three entropies, and the bounds'
#: restricted maximum, taken once on T^t x for the route and the bounds
FRONT = {"validate": 1, "eigvalsh 4x4": 1, "s_a": 1, "s_b": 1, "s_ab": 1, "_restricted_maximum": 1, "_restricted": 1,
         "_tx": 1}
#: and the one SVD of T, which the rank-0 bounds and the start axes read as floats
SVD = {**FRONT, "_svd": 1, "svd": 1}
CLOSED = {**SVD, "closed-form": 1}
SEARCH = {**SVD, "one plateau": 1, "refine_minimum": 1, "branches": range(1, 4), "_point": range(1, 4)}
#: the start set's entries: np.where's dispatcher and ndarray.sum's wrapper, once in each entropy sum
START_SET = {"where": 2, "_sum": 2}
CLOSED_NUMPY, SEARCH_NUMPY = {"eigvalsh": 1, "svd": 1}, {"eigvalsh": 1, "svd": 1, **START_SET}
#: the suites make four states each
SUITE = {"validate": 4, "eigvalsh 4x4": 4}
#: a stack: one eigvalsh, one SVD and one start-set pass for all its states, and no validate; per state its
#: entropies and T^t x, and the SVD of each stored without running _svd
MANY = {"eigvalsh 4x4": 1, "svd": 1}
MANY_NUMPY = {"eigvalsh": 1, "svd": 1, **START_SET}
#: the oracle and bounds suites, whose four states are one stack
SUITE_STACK = {**MANY, **dict.fromkeys(("s_a", "s_b", "s_ab", "_tx"), 4)}


def _many_cells(k: int) -> dict:
    """The mixed stack repeated k times: each state's cells of its scalar row, but the stacked front and start set."""
    return {**MANY, **dict.fromkeys(("s_a", "s_b", "s_ab", "_tx", "_restricted_maximum", "_restricted"), 5 * k),
            "pure": k, "closed-form": 2 * k, "no closed form": 2 * k, "one plateau": k, "several plateaus": k,
            "refine_minimum": range(2 * k, 6 * k + 1), "branches": range(2 * k, 13 * k + 1),
            "_point": range(2 * k, 13 * k + 1)}

TABLE = {
    "pure": Row(_discord(PURE), {**FRONT, "pure": 1}, {"eigvalsh": 1}),
    "closed-form: rotated Bell-diagonal, rotated kernel class, tied": Row(_discord(BELL, KERNEL, TIE), CLOSED,
                                                                          CLOSED_NUMPY),
    "closed-form, I/4": Row(_discord(MIXED), {**FRONT, "_svd": 1, "closed-form": 1}, {"eigvalsh": 1}),
    # the mixed stack at 5 and at 20 states: the same cells per state, the same numpy bound
    "quantum_discord_many, 5 states": Row(lambda: [partial(quantum_discord_many, STACK)], _many_cells(1), MANY_NUMPY),
    "quantum_discord_many, 20 states": Row(lambda: [partial(quantum_discord_many, STACK * 4)], _many_cells(4),
                                           MANY_NUMPY),
    "grid+refine, one plateau": Row(_discord(GENERIC), {**SEARCH, "no closed form": 1}, SEARCH_NUMPY),
    "grid+refine, several plateaus": Row(_discord(AB), {**SEARCH, "no closed form": 1, "one plateau": 0,
                                                        "several plateaus": 1, "refine_minimum": most(5), **points(10)},
                                         SEARCH_NUMPY),
    "fast_path=False": Row(_discord(BELL, KERNEL, TIE, GENERIC, fast_path=False), SEARCH, SEARCH_NUMPY),
    "fast_path=False, I/4": Row(_discord(MIXED, fast_path=False), {**SEARCH, "svd": 0, **points(1)}, SEARCH_NUMPY),
    # the rows of many searches or refinements run the counted pass only: a profiled pass would double the table's
    # time, and the grid+refine rows' numpy bounds hold their route, refinements included
    "fast_path=False, with_bounds=False": Row(_discord(BELL, GENERIC, *RANK_ONE, fast_path=False, with_bounds=False), {
        **SEARCH, "_restricted_maximum": 0, "_restricted": 0, "refine_minimum": range(1, 3), **points(7)}, None),
    "search set": Row(_search(partial(_triples, 1234, [2 + k % 3 for k in range(100)])), searches(100, 100, 406), None),
    "ab crossover set": Row(_search(_ab_crossover_triples), searches(273, 1227, 3098), None),
    "flat landscape set": Row(_search(partial(_triples, 2718, [1] * 100)), searches(100, 100, 639), None),
    "refine_minimum": Row(_refinements, points(353), None),
    # the residual kernel's np.where, np.sum and np.errstate, and the lattice minima's ndarray.min
    "stationary_scan": Row(lambda: [partial(stationary_scan, t) for t in _triples(77, [2, 3, 4])], points(40),
                           {"where": 3, "sum": 1, "__init__": 1, "__enter__": 1, "__exit__": 1, "_amin": 1}),
    "triple_from_matrix": Row(lambda: [partial(triple_from_matrix, GENERIC)], {"validate": 1, "eigvalsh 4x4": 1},
                              {"eigvalsh": 1}),
    "start set": Row(lambda: [partial(optimize.conditional_entropy_batch, triple_from_matrix(GENERIC),
                                      optimize._lattice(optimize.DEFAULT_RESOLUTION)[0])], {}, START_SET),
    # the closed-form routes evaluate e0 on first read; refinement hands its last record on
    "first read, closed-form and pure": Row(_first_read(BELL, PURE), {"_diagnostics": 1, "_point": 1, "branches": 1}),
    "first read, grid+refine": Row(_first_read(GENERIC), {"_diagnostics": 1}),
    # each lazy field runs its function once over two calls and two bounds (which search again) per state
    "a prepared state, twice": Row(lambda: [_twice(prepare_state(rho)) for rho in (BELL, GENERIC, PURE)], {
        **dict.fromkeys(LAZY, 1), "_restricted_maximum": 1, "svd": 1, "refine_minimum": most(4), **points(12),
        **dict.fromkeys(("pure", "closed-form", "no closed form", "one plateau"), most(4))},
        {"svd": 1, "where": 4 * 2, "_sum": 4 * 2}),
    "canonicalize": Row(lambda: [partial(canonicalize, triple_from_matrix(GENERIC))],
                        {"CanonicalForm.__init__": 1, "svd": 1}, {"svd": 1}),
    "BlochTriple": Row(lambda: [partial(BlochTriple, (0.1, 0.0, 0.2), (0.0, 0.3, 0.0), np.diag([0.3, -0.2, 0.1]))],
                       {"BlochTriple.__post_init__": 1}),
    "verify --suite identity --n 4": Row(_verify("identity"), {**SUITE, "eigvalsh 2x2": 4, "branches": most(200)},
                                         {"eigvalsh": 8, "where": 4, "_sum": 4}, _oracle_or_generator),
    "verify --suite gradient --n 4": Row(_verify("gradient"), {
        **SUITE, "_diagnostics": 4, "_point": most(4), "branches": most(36)}, {"eigvalsh": 4}, _oracle_or_generator),
    # the oracle and bounds suites take their four states as one stack; kernel_class_min_entropy, an oracle,
    # takes its own norm and SVD
    "verify --suite oracle --n 4": Row(_verify("oracle"), {
        **SUITE_STACK, "BlochTriple.__post_init__": 4, "svd": 1 + 2, "norm": 2, "one plateau": 4,
        "refine_minimum": most(4), **points(4)}, MANY_NUMPY, _oracle_or_generator),
    # one state has two plateaus of start minima, which add no numpy entry
    "verify --suite bounds --n 4": Row(_verify("bounds"), {
        **SUITE_STACK, "_restricted_maximum": 4, "_restricted": 4, "svd": 1, "no closed form": 4, "one plateau": 3,
        "several plateaus": 1, "refine_minimum": most(5), **points(20)}, MANY_NUMPY, _oracle_or_generator),
}


def _allows(cell, count: int) -> bool:
    return count in cell if isinstance(cell, range) else count == cell


@pytest.mark.parametrize("key", list(TABLE))
def test_each_call_keeps_its_budget(key, monkeypatch):
    row = TABLE[key]
    counts = _install(monkeypatch)
    for k, call in enumerate(row.calls()):
        counts.clear()
        call()
        missed = {c: counts[c] for c in counts.keys() | row.cells.keys() if not _allows(row.cells.get(c, 0), counts[c])}
        assert not missed, (k, missed)
    monkeypatch.undo()
    for k, call in enumerate(row.calls() if row.numpy is not None else []):  # first-use work ran in the counted pass
        direct = _numpy_frames(call, row.exempt)
        # a bound, not a pin: a numpy release that drops a wrapper passes, a new entry from the package fails
        assert Counter(direct) <= Counter(row.numpy), (k, direct)


def test_every_counter_installs_and_every_route_has_a_row(monkeypatch):
    # a counter that did not install would read 0, which the cells that must read 0 cannot tell
    assert all(BINDINGS.values()) and len(BINDINGS["von_neumann_entropy"]) == 3  # entropy, optimize, bounds
    originals = [getattr(owner, name) for owner, name, _ in COUNTERS]
    _install(monkeypatch)
    assert [getattr(owner, name).__wrapped__ for owner, name, _ in COUNTERS] == originals
    exact = {key for row in TABLE.values() for key, cell in row.cells.items() if cell and isinstance(cell, int)}
    assert {"pure", "closed-form", "no closed form", "one plateau", "several plateaus"} <= exact
