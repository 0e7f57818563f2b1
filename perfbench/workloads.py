"""The benchmark's seeded workloads: input streams, requests and oracles.

Each workload is an endless stream of requests drawn from one seeded
``numpy.random.Generator``; the same seed yields bitwise-identical
requests.  Inputs are built here, not with the package's samplers, so a
change to the program cannot change what it is given.  A request is either
one state handed to ``optimize.quantum_discord`` or a list of command lines
run in-process through ``cli.main``; each carries what its check needs.

Why these three (each stresses a different layer):

* ``generic``: Ginibre states of rank 1, 2, 3, 4 in turn, default settings.
  The grid scan and refinement (``optimize``) and the batch kernel
  (``measurement``) do almost all the work; rank 1 takes the degenerate
  compass path and has the exact oracle D = S(rho_A).
* ``closed_form``: Bell-diagonal and kernel-class states, alternating,
  conjugated by a random local unitary.  Every state takes the closed-form
  fast path, so the grid is bypassed and per-call overhead (validation,
  entropies, canonicalize, bounds) dominates.
* ``verify``: one round of the four ``qdiscord verify`` suites per seeded
  ``--seed``, run in-process through ``cli.main``; the scalar and
  matrix-route conditional entropies and the CLI are hot.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

import numpy as np

#: acceptance tolerance of the package's closed forms (README / acceptance suite)
CLOSED_FORM_TOL = 1e-6
BOUND_SLACK = 1e-6
#: report invariants: D >= 0 and D <= S(rho_B) up to this, I = J + D up to IDENTITY_TOL
INVARIANT_TOL = 1e-9
IDENTITY_TOL = 1e-12

VERIFY_SUITES = ("identity", "gradient", "oracle", "bounds")
VERIFY_N = 4

_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex))
_I2 = np.eye(2, dtype=complex)


@dataclass
class Request:
    """One closed-loop request and the data its check needs."""

    states: int
    rho: np.ndarray | None = None
    argvs: tuple[tuple[str, ...], ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass
class Command:
    argv: tuple[str, ...]
    code: int | None
    stdout: str
    seconds: float


@dataclass
class Check:
    failed: int
    oracle_err: float | None = None


# ---------------------------------------------------------------------------
# input construction


def _entropy_bits(m: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(m)
    ev = ev[ev > 1e-15]
    return float(-(ev * np.log2(ev)).sum())


def _marginal_entropies(rho: np.ndarray) -> tuple[float, float]:
    r = rho.reshape(2, 2, 2, 2)
    return (_entropy_bits(np.trace(r, axis1=1, axis2=3)),
            _entropy_bits(np.trace(r, axis1=0, axis2=2)))


def ginibre_state(rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def matrix_from_bloch(x, y, T) -> np.ndarray:
    rho = np.kron(_I2, _I2)
    for i, p in enumerate(_PAULIS):
        rho += x[i] * np.kron(p, _I2) + y[i] * np.kron(_I2, p)
        for j, q in enumerate(_PAULIS):
            rho += T[i, j] * np.kron(p, q)
    return rho / 4


def bell_diagonal_params(rng: np.random.Generator) -> tuple[float, float, float]:
    """A point of the Bell-diagonal tetrahedron (Dirichlet weights)."""
    mu = rng.dirichlet(np.ones(4))
    return (float(mu[0] - mu[1] + mu[2] - mu[3]),
            float(mu[0] - mu[1] - mu[2] + mu[3]),
            float(-mu[0] - mu[1] + mu[2] + mu[3]))


def kernel_class_params(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(x, T) with y = 0 and T^t x = 0, rejection-sampled inside the state set."""
    while True:
        if rng.random() < 0.5:
            t1, t2 = sorted(rng.uniform(-0.95, 0.95, size=2), key=abs, reverse=True)
            x3 = float(rng.uniform(-0.95, 0.95))
            if math.hypot(t1 + t2, x3) <= 0.98 and math.hypot(t1 - t2, x3) <= 0.98:
                return np.array([0.0, 0.0, x3]), np.diag([t1, t2, 0.0])
        else:
            t1 = float(rng.uniform(-0.95, 0.95))
            x2, x3 = rng.uniform(-0.95, 0.95, size=2)
            if t1 * t1 + x2 * x2 + x3 * x3 <= 0.98**2:
                return np.array([0.0, x2, x3]), np.diag([t1, 0.0, 0.0])


def _state_request(rho: np.ndarray, **expect) -> Request:
    s_a, s_b = _marginal_entropies(rho)
    return Request(states=1, rho=rho, expect=dict(expect, s_a=s_a, s_b=s_b))


def generic_requests(seed: int) -> Iterator[Request]:
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        rank = 1 + i % 4
        yield _state_request(ginibre_state(rank, rng), rank=rank)
        i += 1


def closed_form_requests(seed: int) -> Iterator[Request]:
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        if i % 2 == 0:
            params = bell_diagonal_params(rng)
            rho = matrix_from_bloch(np.zeros(3), np.zeros(3), np.diag(params))
            expect = {"family": "bell-diagonal", "params": params}
        else:
            x, T = kernel_class_params(rng)
            rho = matrix_from_bloch(x, np.zeros(3), T)
            expect = {"family": "kernel-class", "x": x, "T": T}
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        yield _state_request(u @ rho @ u.conj().T, **expect)
        i += 1


def verify_requests(seed: int) -> Iterator[Request]:
    rng = np.random.default_rng(seed)
    while True:
        k = str(int(rng.integers(0, 2**31 - 1)))
        argvs = tuple(("verify", "--suite", s, "--n", str(VERIFY_N), "--seed", k)
                      for s in VERIFY_SUITES)
        yield Request(states=VERIFY_N * len(VERIFY_SUITES), argvs=argvs)


# ---------------------------------------------------------------------------
# execution and checks


def execute(prog, req: Request):
    """Send one request to the program: a report, or one Command per command line."""
    if req.rho is not None:
        return prog.optimize.quantum_discord(req.rho)
    out = []
    for argv in req.argvs:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = prog.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        out.append(Command(argv, code, buf.getvalue(), perf_counter() - t0))
    return out


def invariants_hold(report, s_b: float) -> bool:
    """D >= 0, D <= S(rho_B), I = J + D, and both correlation bounds hold."""
    d = report.discord
    b = report.bounds
    return bool(
        -INVARIANT_TOL <= d <= s_b + INVARIANT_TOL
        and abs(report.mutual_information - report.classical_correlation - d) <= IDENTITY_TOL
        and d <= b.discord_ub + BOUND_SLACK
        and report.classical_correlation >= b.classical_lb - BOUND_SLACK)


def check_generic(prog, req: Request, report) -> Check:
    ok = invariants_hold(report, req.expect["s_b"])
    if req.expect["rank"] != 1:
        return Check(0 if ok else 1)
    err = abs(report.discord - req.expect["s_a"])  # pure state: D = S(rho_A)
    return Check(0 if ok and err <= CLOSED_FORM_TOL else 1, err)


def check_closed_form(prog, req: Request, report) -> Check:
    e = req.expect
    if e["family"] == "bell-diagonal":
        err = abs(report.discord - prog.closed_forms.bell_diagonal_discord(*e["params"]).discord)
    else:
        err = abs(report.min_conditional_entropy
                  - prog.closed_forms.kernel_class_min_entropy(e["x"], e["T"]))
    ok = invariants_hold(report, e["s_b"]) and err <= CLOSED_FORM_TOL
    return Check(0 if ok else 1, err)


_ORACLE_DETAIL = re.compile(r"max \|closed form - optimizer\| = ([0-9.eE+-]+)\)")


def check_verify(prog, req: Request, commands: list[Command]) -> Check:
    failed = 0
    err = None
    for cmd in commands:
        suite = cmd.argv[2]
        line = next((ln for ln in cmd.stdout.splitlines() if ln.startswith(f"{suite}: ")), "")
        if cmd.code != 0 or not line.startswith(f"{suite}: PASS"):
            failed += VERIFY_N
        match = _ORACLE_DETAIL.search(line)
        if match:
            err = float(match.group(1))
    return Check(failed, err)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: object
    check: object
    oracle: str
    tolerance: float
    #: requests in one timed pass: about a second of work at the seed commit or
    #: less, so each request is timed in 30 or more passes of a run
    pass_requests: int
    #: rounds of the reference computation timed as one slot: a slot should last
    #: about as long as one timed unit (a state; a verify command line), and one
    #: round, about 8 ms, is the least
    reference_rounds: int


WORKLOADS = {w.name: w for w in (
    Workload("generic", generic_requests, check_generic,
             "rank-1 states: D = S(rho_A); all: report invariants", CLOSED_FORM_TOL, 96, 1),
    Workload("closed_form", closed_form_requests, check_closed_form,
             "bell_diagonal_discord / kernel_class_min_entropy", CLOSED_FORM_TOL, 400, 1),
    Workload("verify", verify_requests, check_verify,
             "exit code 0 and a PASS line per suite; oracle suite's worst error", CLOSED_FORM_TOL, 8, 4),
)}
