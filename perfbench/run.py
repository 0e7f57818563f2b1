"""qdiscord benchmark: seeded closed-loop workloads against the package in ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload generic --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Load model: a closed loop with one client; the next request is sent when
the previous reply has been checked.  BLAS/OpenMP threads are pinned to 1
before numpy loads.  Every reply is checked against the workload's oracle
and the report invariants; failures count in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over fresh interpreters that import the package and make one call per
route.  The workload's fixed set of requests is sent in passes for the
whole run and each request is charged its fastest pass, rescaled to the
machine speed measured by ``reference.py`` (see :func:`run_untraced`);
``states_per_s`` is states over the summed charged times, and
``state_ms_p50``/``state_ms_p95`` are percentiles of the charged time per
state.  ``--trace 1`` runs each request of the stream untraced and
then traced with the wrappers of ``spans.py`` and reports the per-layer
metrics, per state.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
#: reference slots in every pass of an untraced run
REFERENCE_SLOTS = 6

_SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import qdiscord, qdiscord.cli
qdiscord.optimize.quantum_discord(qdiscord.random_state(4, np.random.default_rng(0)))
qdiscord.optimize.quantum_discord(qdiscord.bell_diagonal_state(0.3, -0.2, 0.1))
"""

END_TO_END_UNITS = {"setup_s": "s", "states_per_s": "1/s", "state_ms_p50": "ms",
                    "state_ms_p95": "ms", "peak_rss_mb": "MB"}


def load_program():
    """Import qdiscord from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "qdiscord" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qdiscord sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdiscord
    import qdiscord.cli

    if Path(qdiscord.__file__).resolve().parent != SRC / "qdiscord":
        raise SystemExit(f"benchmark: imported qdiscord from {qdiscord.__file__}, not {SRC}")
    return SimpleNamespace(optimize=qdiscord.optimize, cli=qdiscord.cli,
                           closed_forms=qdiscord.closed_forms)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the package and warming each route."""
    t0 = perf_counter()
    # no timeout: waiting with one polls the child at up to 50 ms intervals,
    # which would quantize the measurement
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Tally:
    """Outcome of a run: attempts, failures, oracle error and per-state latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.oracle_err = 0.0
        self.oracle_checked = 0
        self.requests = 0
        self.busy_s = 0.0
        self.state_ms: list[float] = []
        self.suite_s: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.reference_ms = reference.NOMINAL_MS

    def add_check(self, req, check) -> None:
        self.attempted += req.states
        self.failed += check.failed
        if check.oracle_err is not None:
            self.oracle_checked += 1
            self.oracle_err = max(self.oracle_err, check.oracle_err)

    def add_time(self, req, seconds: float, suite_s: dict[str, float]) -> None:
        self.requests += 1
        self.busy_s += seconds
        # every state of a request is charged the request's time per state
        self.state_ms.extend([1e3 * seconds / req.states] * req.states)
        for suite, t in suite_s.items():
            self.suite_s.setdefault(suite, []).append(t)


def _run_checked(prog, workload, req, tally: Tally) -> tuple[float, dict[str, float]]:
    """Send one request and check the reply; returns its seconds and per-suite seconds."""
    t0 = perf_counter()
    try:
        out = workloads.execute(prog, req)
        seconds = perf_counter() - t0
    except Exception as exc:  # a request that raises is a failed request
        seconds = perf_counter() - t0
        print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.add_check(req, workloads.Check(req.states))
        return seconds, {}
    try:
        check = workload.check(prog, req, out)
    except Exception as exc:  # a malformed reply fails its check
        print(f"check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        check = workloads.Check(req.states)
    tally.add_check(req, check)
    suite_s = {cmd.argv[2]: cmd.seconds for cmd in out} if isinstance(out, list) else {}
    return seconds, suite_s


def run_untraced(prog, workload, seed: int, seconds: float) -> Tally:
    """Send the workload's request set in passes until ``seconds`` have elapsed.

    Every pass sends the same ``workload.pass_requests`` requests, in a
    fresh seeded order, and checks every reply; each request is charged its
    fastest pass, and a request of command lines the sum of each line's
    fastest pass.  Other tenants of a shared machine slow it down in
    episodes of seconds, and passes spread over the whole run, each visiting
    the requests at other moments, let each request be timed outside them.
    Episodes can also outlast a run, so every pass also times
    ``REFERENCE_SLOTS`` slots of the fixed reference computation, placed
    among the requests like requests; the median over slots of each slot's
    fastest pass is the reference time of the run, and every charged time
    is multiplied by ``reference.NOMINAL_MS`` over it.
    The ``SETUP_RUNS`` set-up timings are taken between passes at even
    intervals of the run, so they too are spread over it; their time is not
    counted in it.
    """
    modules = spans.program_modules()
    requests = list(itertools.islice(workload.requests(seed), workload.pass_requests))
    tally = Tally()
    spans.assert_pristine(modules)
    workloads.execute(prog, requests[0])  # warm-up: fill lazy caches before timing
    reference.compute()
    order = random.Random(seed)
    start = perf_counter()
    deadline = start + seconds
    best = [(math.inf, {})] * len(requests)
    slots = len(requests) + REFERENCE_SLOTS
    ref_best = [math.inf] * REFERENCE_SLOTS
    while True:
        for i in order.sample(range(slots), slots):
            if i >= len(requests):
                k = i - len(requests)
                ref_best[k] = min(ref_best[k], reference.time_rounds(workload.reference_rounds))
                continue
            t, suite_s = _run_checked(prog, workload, requests[i], tally)
            best_t, best_suite = best[i]
            best[i] = (min(best_t, t), {k: min(v, best_suite.get(k, v)) for k, v in suite_s.items()})
        now = perf_counter()
        if now >= deadline:
            break
        if len(tally.setup_s) < SETUP_RUNS and now >= start + len(tally.setup_s) * seconds / SETUP_RUNS:
            tally.setup_s.append(time_setup())
            start += tally.setup_s[-1]
            deadline += tally.setup_s[-1]
    while len(tally.setup_s) < SETUP_RUNS:
        tally.setup_s.append(time_setup())
    spans.assert_pristine(modules)
    tally.reference_ms = 1e3 * statistics.median(ref_best)
    scale = reference.NOMINAL_MS / tally.reference_ms
    for req, (t, suite_s) in zip(requests, best):
        if suite_s:  # a request of command lines: each line is charged its fastest pass
            t = sum(suite_s.values())
        tally.add_time(req, t * scale, {k: v * scale for k, v in suite_s.items()})
    return tally


def run_traced(prog, workload, seed: int, seconds: float):
    """Each request untraced, then traced; returns the tally and the per-layer metrics."""
    modules = spans.program_modules()
    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    tally, traced = Tally(), Tally()
    untraced_s = traced_s = 0.0
    workloads.execute(prog, next(workload.requests(seed)))  # warm-up
    deadline = perf_counter() + seconds
    for req in workload.requests(seed):
        spans.assert_pristine(modules)
        untraced_s += _run_checked(prog, workload, req, tally)[0]
        with tracer.installed(modules):
            traced_s += _run_checked(prog, workload, req, traced)[0]
        totals.fold(tracer.drain())
        if perf_counter() >= deadline:
            break
    spans.assert_pristine(modules)
    for name in tracer.skipped:
        print(f"trace target {name} not found in the program; not traced", file=sys.stderr)
    tally.failed = max(tally.failed, traced.failed)
    tally.oracle_err = max(tally.oracle_err, traced.oracle_err)
    return tally, totals.per_state(tally.attempted, untraced_s, traced_s)


def end_to_end(tally: Tally) -> dict[str, float]:
    p50, p95 = np.quantile(np.asarray(tally.state_ms), [0.50, 0.95])
    return {
        "setup_s": statistics.median(tally.setup_s),
        "states_per_s": len(tally.state_ms) / tally.busy_s,
        "state_ms_p50": float(p50),
        "state_ms_p95": float(p95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ns_per_dir"):
        return "ns"
    return "count"


def report(workload, args, tally: Tally, metrics: dict[str, float]) -> dict:
    """Print every metric by name with its unit; return the result object."""
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds:g} s closed loop, "
          f"1 client, BLAS threads 1, trace {args.trace}")
    for name, value in metrics.items():
        extra = ""
        if name.startswith("state_ms"):
            extra = f"  (n = {len(tally.state_ms)} states in {tally.requests} requests)"
        print(f"  {name:30s} {value:14.6g} {_unit(name)}{extra}")
    if not args.trace:
        print(f"  reference computation {tally.reference_ms:.6g} ms (nominal "
              f"{reference.NOMINAL_MS:g} ms): times above are measured times "
              f"x {reference.NOMINAL_MS / tally.reference_ms:.6g}; setup_s is not rescaled")
    if "trace.self_sum_ms" in metrics:
        gap = metrics["trace.self_sum_ms"] - metrics["trace.untraced_ms"]
        print(f"  self-times sum minus untraced time: {gap:.6g} ms per state, "
              f"tracing overhead {metrics['trace.overhead_ms']:.6g} ms per state")
    ratio = tally.failed / tally.attempted
    print(f"  {'failed_ratio':30s} {ratio:14.6g} ratio  ({tally.failed}/{tally.attempted})")
    print(f"  {'oracle_err_max':30s} {tally.oracle_err:14.6g} bits   (tolerance "
          f"{workload.tolerance:g}; {workload.oracle}; {tally.oracle_checked} checked)")
    for suite, times in tally.suite_s.items():
        print(f"  {'suite_' + suite + '_s':30s} {statistics.median(times):14.6g} s      "
              f"(median of {len(times)} runs at --n {workloads.VERIFY_N})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def run_workload(prog, name: str, args) -> dict:
    workload = workloads.WORKLOADS[name]
    if args.trace:
        tally, metrics = run_traced(prog, workload, args.seed, args.seconds)
    else:
        tally = run_untraced(prog, workload, args.seed, args.seconds)
        metrics = end_to_end(tally)
    return report(workload, args, tally, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    prog = load_program()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(prog, name, args) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
