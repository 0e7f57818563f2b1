"""Tests of the benchmark itself: seeded inputs, span accounting, wrapper restoration.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
import workloads

PROG = run.load_program()
MODULES = spans.program_modules()


def _fingerprint(req: workloads.Request) -> tuple:
    expect = tuple((k, np.asarray(v).tobytes()) for k, v in sorted(req.expect.items())
                   if k != "family") + (req.expect.get("family"),)
    rho = None if req.rho is None else req.rho.tobytes()
    return req.states, rho, req.argvs, expect


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_bitwise_identical_inputs(name):
    def take(seed):
        gen = workloads.WORKLOADS[name].requests(seed)
        return [_fingerprint(r) for r in itertools.islice(gen, 12)]

    assert take(7) == take(7)
    assert take(7) != take(8)


def _traced(requests):
    tracer = spans.Tracer()
    with tracer.installed(MODULES):
        for req in requests:
            workloads.execute(PROG, req)
    return tracer.drain()


def test_self_times_add_up_to_traced_wall_time():
    reqs = [next(workloads.generic_requests(3)),
            next(workloads.closed_form_requests(3)),
            workloads.Request(states=2, argvs=(("verify", "--suite", "gradient", "--n", "2"),))]
    recorded = _traced(reqs)
    roots = [s for s in recorded if s.parent < 0]
    assert [s.func for s in roots] == ["quantum_discord", "quantum_discord", "main"]
    wall = sum(s.end - s.start for s in roots)
    assert sum(spans.self_times(recorded)) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert min(spans.self_times(recorded)) >= 0.0
    totals = spans.LayerTotals()
    totals.fold(recorded)
    assert sum(totals.self_s.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    # every child lies inside its parent
    for s in recorded:
        if s.parent >= 0:
            p = recorded[s.parent]
            assert p.start <= s.start <= s.end <= p.end


def test_wrappers_are_fully_restored():
    before = {(ns, attr): getattr(MODULES[ns], attr) for ns, attr in spans.TARGETS}
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(MODULES):
            for (ns, attr), fn in before.items():
                assert getattr(MODULES[ns], attr) is not fn
            with pytest.raises(RuntimeError):
                spans.assert_pristine(MODULES)
            1 / 0
    assert all(getattr(MODULES[ns], attr) is fn for (ns, attr), fn in before.items())
    assert tracer.skipped == []
    spans.assert_pristine(MODULES)


def test_tracing_leaves_results_unchanged():
    req = next(workloads.generic_requests(11))
    plain = workloads.execute(PROG, req)
    tracer = spans.Tracer()
    with tracer.installed(MODULES):
        traced = workloads.execute(PROG, req)
    assert traced.discord == plain.discord
    assert np.array_equal(traced.optimal_direction.n, plain.optimal_direction.n)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_a_result_line(trace, capsys):
    assert run.main(["--workload", "closed_form", "--seed", "1", "--seconds", "0.2",
                     "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"]
               for m in spec["per_layer" if trace == "1" else "end_to_end"])


def test_untraced_times_are_rescaled_to_the_nominal_reference_time(monkeypatch):
    monkeypatch.setattr(reference, "time_rounds", lambda rounds: 2e-3 * reference.NOMINAL_MS)
    monkeypatch.setattr(run, "_run_checked", lambda prog, workload, req, tally: (4e-3, {}))
    monkeypatch.setattr(run, "time_setup", lambda: 0.0)
    tally = run.run_untraced(PROG, workloads.WORKLOADS["generic"], 1, 0.05)
    assert tally.reference_ms == pytest.approx(2 * reference.NOMINAL_MS)
    assert tally.state_ms == pytest.approx([2.0] * workloads.WORKLOADS["generic"].pass_requests)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
