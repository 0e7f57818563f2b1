"""Command-line interface: per-state reports, family scans, verification suites.

Exit codes: 0 on success, 1 when a verify suite fails, 2 on
parse/configuration problems, 3 when the input is not a valid state.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache

import numpy as np

from .bounds import _csv_cell, fmt9, rows_to_csv
from .closed_forms import (
    ab_state,
    bell_diagonal_discord,
    bell_diagonal_state,
    kernel_class_min_entropy,
    sample_bell_diagonal,
    sample_kernel_class,
)
from .entropy import _as_real
from .errors import NotAStateError, ValidationError
from .measurement import (
    _normalized,
    _polar,
    _unit_from_angles,
    conditional_entropy,
    conditional_entropy_direct,
)
from .optimize import DEFAULT_RESOLUTION, DEFAULT_TOLERANCE, _check_resolution, _check_tolerance, quantum_discord
from .optimize import bound_comparison_scan, quantum_discord_many, stationary_vector
from .states import BlochTriple, matrix_from_triple, random_state, triple_from_matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_A_STATE = 3

#: most values a scan range, and most states a scan, may hold
MAX_SCAN_POINTS = 100_000


class UsageError(Exception):
    """Bad file, flag or range; maps to exit code 2."""


def _search_settings(args) -> dict:
    """``--resolution`` (degrees) and ``--tolerance``, checked, as :func:`quantum_discord`'s keyword arguments."""
    try:
        resolution = _check_resolution(math.radians(args.resolution))
    except ValidationError:
        raise UsageError(f"--resolution must be in [0.5, 22.5] degrees, got {args.resolution}") from None
    try:
        tolerance = _check_tolerance(args.tolerance)
    except ValidationError as exc:
        raise UsageError(f"--{exc}") from None
    return {"resolution": resolution, "tolerance": tolerance}


def load_state(path: str) -> np.ndarray:
    """Read a state file: JSON with exactly one of the keys "matrix" or "triple"."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or ("matrix" in data) == ("triple" in data):
        raise UsageError("state file must contain exactly one of the keys 'matrix' or 'triple'")
    try:
        if "matrix" in data:
            entries = _as_real(data["matrix"], "'matrix'")  # a bool or a string is not a number
            if entries.shape != (4, 4, 2):
                raise UsageError(f"'matrix' must be 4x4 of [re, im] pairs, got shape {entries.shape}")
            return entries[..., 0] + 1j * entries[..., 1]
        triple = data["triple"]
        return matrix_from_triple(BlochTriple(triple["x"], triple["y"], triple["T"]))
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise UsageError(f"malformed state file {path}: {exc}") from exc


def _rounded(value):
    """``value`` with every float in it rounded to 9 significant digits."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return float(fmt9(value)) if isinstance(value, float) else value


def report_to_dict(report) -> dict:
    diag = report.diagnostics
    d = report.optimal_direction
    out = {
        "mutual_information": report.mutual_information,
        "classical_correlation": report.classical_correlation,
        "discord": report.discord,
        "min_conditional_entropy": report.min_conditional_entropy,
        "optimal_direction": {"n": list(d.n), "theta_rad": d.theta, "phi_rad": d.phi,
                              "theta_deg": math.degrees(d.theta), "phi_deg": math.degrees(d.phi)},
        "method": report.method,
        "diagnostics": {k: getattr(diag, k) for k in
                        ("residual", "grad_theta", "grad_phi", "a_scalar", "degenerate")},
    }
    if report.bounds is not None:  # every BoundReport field, in field order
        out["bounds"] = dict(vars(report.bounds), e0=list(report.bounds.e0.n))
    return _rounded(out)


_CSV_HEADER = ("mutual_information,classical_correlation,discord,min_conditional_entropy,"
               "theta_rad,phi_rad,method,residual,"
               "discord_ub,classical_lb,cond_entropy_ub,xi_bound,t0_squared,perp_dim,saturated")


def _emit_report(report, output_format: str) -> str:
    d = report_to_dict(report)
    if output_format == "json":
        return json.dumps(d, indent=2)
    od, diag = d["optimal_direction"], d["diagnostics"]
    if output_format == "csv":  # each column is the report field of the same name
        fields = {**d, **od, **diag, **d.get("bounds", {})}
        return _CSV_HEADER + "\n" + ",".join(_csv_cell(fields[k]) for k in _CSV_HEADER.split(","))
    lines = [
        f"mutual information      {fmt9(d['mutual_information'])} bits",
        f"classical correlation   {fmt9(d['classical_correlation'])} bits",
        f"quantum discord         {fmt9(d['discord'])} bits",
        f"min conditional entropy {fmt9(d['min_conditional_entropy'])} bits",
        (f"optimal direction       theta = {fmt9(od['theta_rad'])} rad ({fmt9(od['theta_deg'])} deg), "
         f"phi = {fmt9(od['phi_rad'])} rad ({fmt9(od['phi_deg'])} deg)"),
        f"method                  {d['method']}",
    ]
    if diag["degenerate"]:
        lines.append("stationarity            degenerate point (branch probability vanishes)")
    else:
        lines.append(f"stationarity residual   {fmt9(diag['residual'])}")
    if "bounds" in d:
        b = d["bounds"]
        lines += [
            f"discord upper bound     {fmt9(b['discord_ub'])} bits"
            + ("  [saturated]" if b["saturated"] else ""),
            f"classical lower bound   {fmt9(b['classical_lb'])} bits",
            f"comparison bound S(B)   {fmt9(b['xi_bound'])} bits",
            f"t0^2 = {fmt9(b['t0_squared'])}, dim of restricted subspace = {b['perp_dim']}",
        ]
    return "\n".join(lines)


def cmd_compute(path: str, output_format: str, search: dict) -> int:
    report = quantum_discord(load_state(path), **search)
    print(_emit_report(report, output_format))
    return EXIT_OK


def _parse_range(text: str, name: str) -> list[float]:
    """A finite float or an inclusive 'start:stop:step' range."""
    parts = text.split(":")
    try:
        numbers = [float(p) for p in parts]
        if not all(map(math.isfinite, numbers)):
            raise UsageError(f"--{name}: values must be finite, got {text!r}")
        if len(parts) == 1:
            return numbers
        if len(parts) == 3:
            lo, hi, step = numbers
            if step <= 0 or hi < lo:
                raise UsageError(f"--{name}: need start <= stop and step > 0, got {text!r}")
            count = (hi - lo) / step + 1  # a float, checked before any value is built
            if not count <= MAX_SCAN_POINTS:
                raise UsageError(f"--{name}: {text!r} holds {count:.3g} values, more than {MAX_SCAN_POINTS}")
            values = [lo + k * step for k in range(round(count))]
            return [v for v in values if v <= hi + step * 1e-9]
    except ValueError as exc:
        raise UsageError(f"--{name}: cannot parse {text!r}") from exc
    raise UsageError(f"--{name}: expected a number or start:stop:step, got {text!r}")


def cmd_scan(args, search: dict) -> int:
    if args.family == "ab":
        if args.a is None or args.b is None:
            raise UsageError("scan ab requires --a and --b (value or start:stop:step)")
        a_values = _parse_range(args.a, "a")
        b_values = _parse_range(args.b, "b")
        if len(a_values) * len(b_values) > MAX_SCAN_POINTS:
            raise UsageError(f"scan ab: --a and --b span more than {MAX_SCAN_POINTS} states")
        try:
            states = [(a, b, ab_state(a, b)) for a in a_values for b in b_values]
        except ValidationError as exc:
            raise UsageError(f"scan range leaves the valid (a, b) region: {exc}") from exc
    elif args.family == "bell-diagonal":
        if args.ray is None or args.s is None:
            raise UsageError("scan bell-diagonal requires --ray t1,t2,t3 and --s (value or range)")
        try:
            ray = np.array([float(p) for p in args.ray.split(",")])
        except ValueError as exc:
            raise UsageError(f"--ray: cannot parse {args.ray!r}") from exc
        if ray.shape != (3,) or not np.isfinite(ray).all():
            raise UsageError(f"--ray must have three finite components, got {args.ray!r}")
        states = []
        for s in _parse_range(args.s, "s"):
            try:
                states.append((s, 0.0, bell_diagonal_state(*(s * ray).tolist())))
            except NotAStateError as exc:
                raise UsageError(f"s = {s} leaves the Bell-diagonal state set: {exc}") from exc
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {args.family!r}")
    sys.stdout.write(rows_to_csv(bound_comparison_scan(states, **search)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def suite_identity(n: int, rng: np.random.Generator, search: dict) -> tuple[bool, str]:
    """h4(w) - h2(p0) against the direct average sum_k p_k S(rho_A_k), n states x 50 directions.

    A state's 50 directions are one draw of 50 x 3 normals, each row a unit float triple; each goes
    through the scalar identity route one at a time, and the matrix route takes all 50 in one call.
    """
    worst = 0.0
    for _ in range(n):
        rho = random_state(rng=rng)
        t = triple_from_matrix(rho)
        units = [_normalized(v) for v in rng.standard_normal((50, 3)).tolist()]
        identity = np.array([conditional_entropy(t, d) for d in units])
        direct = conditional_entropy_direct(t, np.array(units), rho=rho)
        worst = max(worst, float(np.maximum.reduce(np.abs(identity - direct))))
    return worst < 1e-10, f"{n} states x 50 directions, max |h4-h2 vs sum p_k S| = {worst:.3e}"


def suite_gradient(n: int, rng: np.random.Generator, search: dict) -> tuple[bool, str]:
    """Analytic entropy gradients against a Richardson difference at n random points."""
    worst = 0.0
    checked = 0
    while checked < n:
        t = triple_from_matrix(random_state(rng=rng))
        d = _normalized(rng.standard_normal(3).tolist())
        diag = stationary_vector(t, d)
        if diag.degenerate or math.hypot(diag.grad_theta, diag.grad_phi) < 1e-3:
            continue
        th, ph = _polar(d)
        fd_th = _richardson(lambda h: conditional_entropy(t, _unit_from_angles(th + h, ph)))
        fd_ph = _richardson(lambda h: conditional_entropy(t, _unit_from_angles(th, ph + h)))
        for an, fd in ((diag.grad_theta, fd_th), (diag.grad_phi, fd_ph)):
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-12))
        checked += 1
    return worst < 1e-6, f"{n} probe points, max relative gradient error = {worst:.3e}"


def _richardson(f) -> float:
    """f'(0) from central differences at steps h and 2h, extrapolated.

    The combination cancels the h^2 error term, which leaves an O(h^4)
    truncation error and a rounding error near 1e-13 at h = 5e-4; a lone
    central difference with a small step has rounding error near 1e-11,
    too much for a relative check of a gradient component near 1e-6.
    """
    h = 5e-4
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(2 * h) - f(-2 * h)) / (4 * h)
    return (4 * d1 - d2) / 3


def _oracle_error(bell: list, kernel: list, search: dict) -> float:
    """Worst |closed form - optimizer| over Bell-diagonal parameters (the discord) and kernel-class triples (min S).

    The optimizer takes all the states in one :func:`quantum_discord_many` call, with the fast path off.
    """
    rhos = [bell_diagonal_state(*p) for p in bell] + [matrix_from_triple(t) for t in kernel]
    reports = quantum_discord_many(rhos, fast_path=False, with_bounds=False, **search)
    errors = [abs(bell_diagonal_discord(*p).discord - r.discord) for p, r in zip(bell, reports)]
    errors += [abs(kernel_class_min_entropy(t.x, t.T) - r.min_conditional_entropy)
               for t, r in zip(kernel, reports[len(bell):])]
    return max([0.0, *errors])


def suite_oracle(n: int, rng: np.random.Generator, search: dict) -> tuple[bool, str]:
    """The optimizer against the closed forms: n/2 Bell-diagonal, the rest kernel-class states."""
    bell = [sample_bell_diagonal(rng) for _ in range(n // 2)]
    worst = _oracle_error(bell, [sample_kernel_class(rng) for _ in range(n - n // 2)], search)
    return worst < 1e-6, f"{n} in-class states, max |closed form - optimizer| = {worst:.3e}"


def suite_bounds(n: int, rng: np.random.Generator, search: dict) -> tuple[bool, str]:
    """Discord and classical correlation inside their bounds on n random states, in one many-state call."""
    violations = 0
    worst = 0.0
    for report in quantum_discord_many([random_state(rng=rng) for _ in range(n)], **search):
        b = report.bounds
        over = max(report.discord - b.discord_ub, b.classical_lb - report.classical_correlation)
        worst = max(worst, over)
        if over > 1e-6:
            violations += 1
    return violations == 0, f"{n} random states, {violations} bound violations (worst slack {worst:.3e})"


_SUITES = {
    "identity": (suite_identity, 1000),
    "gradient": (suite_gradient, 100),
    "oracle": (suite_oracle, 200),
    "bounds": (suite_bounds, 500),
}


def cmd_verify(suite: str | None, n: int | None, seed: int, search: dict) -> int:
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    if n is not None and n < 1:
        raise UsageError(f"--n must be a positive sample count, got {n}")
    names = [suite] if suite else list(_SUITES)
    failed = False
    for name in names:
        fn, default_n = _SUITES[name]
        ok, detail = fn(default_n if n is None else n, np.random.default_rng(seed), search)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed = failed or not ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)  # argparse keeps no state between parses; the tree is built once per process
def _build_parser() -> argparse.ArgumentParser:
    # the search flags, which compute, scan and the oracle and bounds suites read
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--resolution", type=float, default=math.degrees(DEFAULT_RESOLUTION), metavar="DEG",
                        help="spacing of the start lattice whose local minima seed the refinement, "
                             "in degrees (default %(default)g)")
    search.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="TOL",
                        help="stationarity residual target for refinement (default %(default)g)")

    parser = argparse.ArgumentParser(prog="qdiscord",
                                     description="Quantum discord of two-qubit states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[search],
                               help="full correlation report for one state file")
    p_compute.add_argument("file", help="JSON state file with a 'matrix' or 'triple' key")
    p_compute.add_argument("--format", choices=("text", "json", "csv"), default="text",
                           help="output format (default text)")

    p_scan = sub.add_parser("scan", parents=[search],
                            help="discord vs. bounds over a state family (CSV)")
    p_scan.add_argument("family", choices=("ab", "bell-diagonal"))
    p_scan.add_argument("--a", help="a value or start:stop:step")
    p_scan.add_argument("--b", help="b value or start:stop:step")
    p_scan.add_argument("--ray", help="Bell-diagonal ray t1,t2,t3")
    p_scan.add_argument("--s", help="scale along the ray, value or start:stop:step")

    p_verify = sub.add_parser("verify", parents=[search],
                              help="run the numerical property suites")
    p_verify.add_argument("--suite", choices=tuple(_SUITES), default=None)
    p_verify.add_argument("--n", type=int, default=None, help="sample count override")
    p_verify.add_argument("--seed", type=int, default=0, help="seed of each suite's random draws (default 0)")

    return parser


#: scan flags whose value may start with a minus sign
_SIGNED_FLAGS = ("--a", "--b", "--s", "--ray")
_SIGNED_VALUE = re.compile(r"-\.?\d")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Spell ``--a -0.1:0.1:0.1`` as ``--a=-0.1:0.1:0.1``.

    argparse takes a token that starts with '-' for an option unless it is
    a plain negative number, so a range or ray with a leading minus sign
    would otherwise need the '=' form.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_FLAGS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        search = _search_settings(args)
        if args.command == "compute":
            return cmd_compute(args.file, args.format, search)
        if args.command == "scan":
            return cmd_scan(args, search)
        return cmd_verify(args.suite, args.n, args.seed, search)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAStateError as exc:
        print(f"not a state: {exc}", file=sys.stderr)
        return EXIT_NOT_A_STATE


if __name__ == "__main__":
    sys.exit(main())
