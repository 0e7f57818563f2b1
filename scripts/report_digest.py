#!/usr/bin/env python3
"""Print SHA-256 digests of qdiscord's outputs, to check that a change keeps every bit.

Four digests, one line each, of the package in this checkout's ``src``:

* ``reports``: ``repr`` of ``quantum_discord`` over the first N generic and
  M closed_form requests of the benchmark's request streams at seed 11
  (``perfbench/workloads.py``), arrays printed with every digit that tells
  two floats apart;
* ``scan``: the output of ``qdiscord scan ab --a A --b B``;
* ``verify``: the output of ``qdiscord verify --n K`` at seeds 1 and 77;
* ``compute``: the text, json and csv output of ``qdiscord compute`` on
  matrix files of the first 20 generic and 20 closed_form requests (all of
  them where fewer are asked for), written with every digit.

Run it in two checkouts and compare the lines::

    python3 scripts/report_digest.py
    python3 scripts/report_digest.py --generic 20 --closed-form 4 --a 0:0.2:0.1 --b=-0.1:0.1:0.1 --verify-n 2
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from qdiscord import cli, quantum_discord  # noqa: E402

#: requests of each stream whose matrices the compute digest runs through the CLI
COMPUTE_STATES = 20


def _cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"report_digest: {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--generic", type=int, default=2000, help="generic requests (default 2000)")
    parser.add_argument("--closed-form", type=int, default=400, help="closed_form requests (default 400)")
    parser.add_argument("--a", default="0:0.49:0.01", help="scan ab --a range (default 0:0.49:0.01)")
    parser.add_argument("--b", default="-0.5:0.5:0.02", help="scan ab --b range (default -0.5:0.5:0.02)")
    parser.add_argument("--verify-n", type=int, default=20, help="verify --n (default 20)")
    args = parser.parse_args()

    reports, matrices = [], []
    with np.printoptions(floatmode="unique"):
        for stream, count in ((workloads.generic_requests, args.generic),
                              (workloads.closed_form_requests, args.closed_form)):
            requests = list(itertools.islice(stream(11), count))
            reports += [repr(quantum_discord(req.rho)) for req in requests]
            matrices += [req.rho for req in requests[:COMPUTE_STATES]]
    print("reports", _digest("\n".join(reports)))
    print("scan", _digest(_cli_output("scan", "ab", f"--a={args.a}", f"--b={args.b}")))
    print("verify", _digest("".join(_cli_output("verify", "--n", str(args.verify_n), "--seed", seed)
                                    for seed in ("1", "77"))))
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, rho in enumerate(matrices):
            path = Path(tmp) / f"state{i}.json"
            # json writes each float with the digits that read back to the same float
            path.write_text(json.dumps({"matrix": [[[v.real, v.imag] for v in row] for row in rho.tolist()]}))
            outputs += [_cli_output("compute", str(path), "--format", fmt) for fmt in ("text", "json", "csv")]
    print("compute", _digest("".join(outputs)))


if __name__ == "__main__":
    main()
