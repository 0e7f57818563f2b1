"""Command-line interface: per-state reports, family scans, verification suites.

Exit codes: 0 on success, 1 when a verify suite fails, 2 on
parse/configuration problems, 3 when the input is not a valid state.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import bound_comparison_scan, fmt9, rows_to_csv
from .closed_forms import (
    ab_state,
    bell_diagonal_discord,
    bell_diagonal_state,
    kernel_class_min_entropy,
    sample_bell_diagonal,
    sample_kernel_class,
)
from .errors import NotAStateError, ValidationError
from .measurement import (
    MeasurementDirection,
    conditional_entropy,
    conditional_entropy_direct,
    direction_from_angles,
)
from .optimize import DEFAULT_RESOLUTION, DEFAULT_TOLERANCE, MIN_RESOLUTION, quantum_discord, stationary_vector
from .states import BlochTriple, matrix_from_triple, random_state, triple_from_matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_A_STATE = 3

#: most values a scan range, and most states a scan, may hold
MAX_SCAN_POINTS = 100_000


class UsageError(Exception):
    """Bad file, flag or range; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    resolution_deg: float = math.degrees(DEFAULT_RESOLUTION)
    tolerance: float = DEFAULT_TOLERANCE
    output_format: str = "text"
    seed: int = 0

    def __post_init__(self):
        if not MIN_RESOLUTION <= self.resolution_rad <= math.pi / 8:
            raise UsageError(f"--resolution must be in [0.5, 22.5] degrees, got {self.resolution_deg}")
        if not 1e-12 <= self.tolerance <= 1e-3:
            raise UsageError(f"--tolerance must be in [1e-12, 1e-3], got {self.tolerance}")
        if self.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {self.seed}")

    @property
    def resolution_rad(self) -> float:
        return math.radians(self.resolution_deg)


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
            entries = np.asarray(data["matrix"], dtype=float)
            if entries.shape != (4, 4, 2):
                raise UsageError(f"'matrix' must be 4x4 of [re, im] pairs, got shape {entries.shape}")
            return entries[..., 0] + 1j * entries[..., 1]
        triple = data["triple"]
        t = BlochTriple(np.asarray(triple["x"], dtype=float),
                        np.asarray(triple["y"], dtype=float),
                        np.asarray(triple["T"], dtype=float))
        return matrix_from_triple(t)
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt9(value) if isinstance(value, float) else str(value)


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


def cmd_compute(path: str, config: RunConfig) -> int:
    rho = load_state(path)
    report = quantum_discord(rho, resolution=config.resolution_rad, tolerance=config.tolerance)
    print(_emit_report(report, config.output_format))
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


def cmd_scan(family: str, args, config: RunConfig) -> int:
    if family == "ab":
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
    elif family == "bell-diagonal":
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
            t1, t2, t3 = (s * ray).tolist()
            try:
                bell_diagonal_discord(t1, t2, t3)  # region check
            except NotAStateError as exc:
                raise UsageError(f"s = {s} leaves the Bell-diagonal state set: {exc}") from exc
            states.append((s, 0.0, bell_diagonal_state(t1, t2, t3)))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {family!r}")
    rows = bound_comparison_scan(states, resolution=config.resolution_rad,
                                 tolerance=config.tolerance)
    sys.stdout.write(rows_to_csv(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def suite_identity(n: int, rng: np.random.Generator, config: RunConfig) -> tuple[bool, str]:
    """h4(w) - h2(p0) against the direct average sum_k p_k S(rho_A_k), n states x 50 directions.

    Each direction goes through the scalar identity route one at a time;
    the matrix route takes a state's 50 directions in one batched call.
    """
    worst = 0.0
    for _ in range(n):
        rho = random_state(rng=rng)
        t = triple_from_matrix(rho)
        dirs = [MeasurementDirection(rng.standard_normal(3)) for _ in range(50)]
        identity = np.array([conditional_entropy(t, d) for d in dirs])
        direct = conditional_entropy_direct(t, np.array([d.n for d in dirs]), rho=rho)
        worst = max(worst, float(np.max(np.abs(identity - direct))))
    return worst < 1e-10, f"{n} states x 50 directions, max |h4-h2 vs sum p_k S| = {worst:.3e}"


def suite_gradient(n: int, rng: np.random.Generator, config: RunConfig) -> tuple[bool, str]:
    """Analytic entropy gradients against a Richardson difference at n random points."""
    worst = 0.0
    checked = 0
    while checked < n:
        t = triple_from_matrix(random_state(rng=rng))
        d = MeasurementDirection(rng.standard_normal(3))
        diag = stationary_vector(t, d)
        if diag.degenerate or math.hypot(diag.grad_theta, diag.grad_phi) < 1e-3:
            continue
        th, ph = d.theta, d.phi
        fd_th = _richardson(lambda h: conditional_entropy(t, direction_from_angles(th + h, ph)))
        fd_ph = _richardson(lambda h: conditional_entropy(t, direction_from_angles(th, ph + h)))
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


def bell_diagonal_oracle_error(n: int, rng: np.random.Generator, config: RunConfig) -> float:
    """Worst |closed form - grid+refine| discord over n sampled Bell-diagonal states."""
    worst = 0.0
    for _ in range(n):
        t1, t2, t3 = sample_bell_diagonal(rng)
        exact = bell_diagonal_discord(t1, t2, t3).discord
        numeric = quantum_discord(bell_diagonal_state(t1, t2, t3), fast_path=False,
                                  resolution=config.resolution_rad,
                                  tolerance=config.tolerance, with_bounds=False).discord
        worst = max(worst, abs(exact - numeric))
    return worst


def suite_oracle(n: int, rng: np.random.Generator, config: RunConfig) -> tuple[bool, str]:
    """The optimizer against the closed forms: n/2 Bell-diagonal, the rest kernel-class states."""
    worst = bell_diagonal_oracle_error(n // 2, rng, config)
    for _ in range(n - n // 2):
        t = sample_kernel_class(rng)
        exact = kernel_class_min_entropy(t.x, t.T)
        numeric = quantum_discord(matrix_from_triple(t), fast_path=False,
                                  resolution=config.resolution_rad,
                                  tolerance=config.tolerance, with_bounds=False)
        worst = max(worst, abs(exact - numeric.min_conditional_entropy))
    return worst < 1e-6, f"{n} in-class states, max |closed form - optimizer| = {worst:.3e}"


def suite_bounds(n: int, rng: np.random.Generator, config: RunConfig) -> tuple[bool, str]:
    """Discord and classical correlation inside their bounds on n random states."""
    violations = 0
    worst = 0.0
    for _ in range(n):
        rho = random_state(rng=rng)
        report = quantum_discord(rho, resolution=config.resolution_rad,
                                 tolerance=config.tolerance)
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


def cmd_verify(config: RunConfig, suite: str | None, n: int | None) -> int:
    if n is not None and n < 1:
        raise UsageError(f"--n must be a positive sample count, got {n}")
    names = [suite] if suite else list(_SUITES)
    failed = False
    for name in names:
        fn, default_n = _SUITES[name]
        rng = np.random.default_rng(config.seed)
        ok, detail = fn(default_n if n is None else n, rng, config)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed = failed or not ok
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--resolution", type=float, default=RunConfig.resolution_deg, metavar="DEG",
                        help="spacing of the start lattice whose local minima seed the refinement, "
                             f"in degrees (default {RunConfig.resolution_deg:g})")
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="TOL",
                        help=f"stationarity residual target for refinement (default {DEFAULT_TOLERANCE:g})")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format for compute (default text)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for random-state commands (default 0)")

    parser = argparse.ArgumentParser(prog="qdiscord",
                                     description="Quantum discord of two-qubit states")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common],
                               help="full correlation report for one state file")
    p_compute.add_argument("file", help="JSON state file with a 'matrix' or 'triple' key")

    p_scan = sub.add_parser("scan", parents=[common],
                            help="discord vs. bounds over a state family (CSV)")
    p_scan.add_argument("family", choices=("ab", "bell-diagonal"))
    p_scan.add_argument("--a", help="a value or start:stop:step")
    p_scan.add_argument("--b", help="b value or start:stop:step")
    p_scan.add_argument("--ray", help="Bell-diagonal ray t1,t2,t3")
    p_scan.add_argument("--s", help="scale along the ray, value or start:stop:step")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the numerical property suites")
    p_verify.add_argument("--suite", choices=tuple(_SUITES), default=None)
    p_verify.add_argument("--n", type=int, default=None, help="sample count override")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(resolution_deg=args.resolution, tolerance=args.tolerance,
                           output_format=args.format, seed=args.seed)
        if args.command == "compute":
            return cmd_compute(args.file, config)
        if args.command == "scan":
            return cmd_scan(args.family, args, config)
        return cmd_verify(config, args.suite, args.n)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAStateError as exc:
        print(f"not a state: {exc}", file=sys.stderr)
        return EXIT_NOT_A_STATE


if __name__ == "__main__":
    sys.exit(main())
