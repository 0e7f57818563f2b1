import json
import linecache
import math
import re
from collections import Counter

import numpy as np
import pytest

from conftest import _numpy_frames
from qdiscord import (
    ab_discord,
    conditional_entropy,
    matrix_from_triple,
    quantum_discord,
    random_state,
    triple_from_matrix,
    validate,
)
from qdiscord.cli import _SUITES, main


def _write_matrix_file(path, rho):
    entries = [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(rho, complex)]
    path.write_text(json.dumps({"matrix": entries}))
    return str(path)


def _write_triple_file(path, x, y, T):
    path.write_text(json.dumps({"triple": {"x": list(x), "y": list(y),
                                           "T": [list(row) for row in T]}}))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return _write_matrix_file(tmp_path / "bell.json", np.outer(psi, psi))


def test_compute_bell_state_json(bell_file, capsys):
    assert main(["compute", bell_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["discord"] - 1.0) <= 1e-9
    assert abs(report["classical_correlation"] - 1.0) <= 1e-9
    assert report["method"] == "closed-form"
    assert report["bounds"]["saturated"] is True


def test_compute_maximally_mixed_triple_file(tmp_path, capsys):
    path = _write_triple_file(tmp_path / "mixed.json", [0, 0, 0], [0, 0, 0],
                              np.zeros((3, 3)))
    assert main(["compute", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["discord"] == 0.0
    assert report["classical_correlation"] == 0.0
    assert report["mutual_information"] == 0.0


def test_compute_ab_state(tmp_path, capsys):
    from qdiscord import ab_state
    path = _write_matrix_file(tmp_path / "ab.json", ab_state(0.5, 0.1))
    assert main(["compute", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    expected, _ = ab_discord(0.5, 0.1)
    assert abs(report["discord"] - expected) <= 1e-6


def test_compute_text_and_csv_formats(bell_file, capsys):
    assert main(["compute", bell_file]) == 0
    text = capsys.readouterr().out
    assert "quantum discord" in text and "1" in text
    assert main(["compute", bell_file, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("mutual_information,")


def test_compute_is_deterministic(bell_file, capsys):
    main(["compute", bell_file, "--format", "json"])
    first = capsys.readouterr().out
    main(["compute", bell_file, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_compute_report_round_trip(tmp_path, capsys):
    from qdiscord import ab_state
    rho = ab_state(0.45, 0.2)
    path = _write_matrix_file(tmp_path / "s.json", rho)
    main(["compute", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    n = np.array(report["optimal_direction"]["n"])
    s = conditional_entropy(triple_from_matrix(rho), n)
    assert abs(s - report["min_conditional_entropy"]) <= 1e-9


def _slightly_non_hermitian():
    rho = random_state(rng=3)
    rho[0, 1] += 5e-9  # within validate's 1e-8, above the 1e-10 of the entropy routines
    return rho


def _slightly_negative():
    # smallest eigenvalue -9e-10, within validate's 1e-9; |x|^2 + t0^2 exceeds 1
    rho = random_state(rank=1, rng=0) - 9e-10 * np.eye(4)
    return rho / np.trace(rho).real


def _overlong_marginals(delta):
    # eigenvalues down to -delta, within validate's 1e-9; pure marginals with
    # |x| = 1 + 4 delta and |y| = 1 + 2 delta, past BlochTriple's 1 + 1e-9
    return lambda: np.diag([1 + 2 * delta, 0.0, -delta, -delta])


def _negative_product_eigenvalue(diagonal):
    # an eigenvalue down to -9e-10 on a product vector |ab>, within validate's 1e-9: measuring
    # B along z gives a joint probability w = -9e-10, a deficit |x +- T n| - 2 p_k of 3.6e-9
    return lambda: np.diag(diagonal).astype(complex)


@pytest.mark.parametrize("make", [_slightly_non_hermitian, _slightly_negative,
                                  _overlong_marginals(9e-10), _overlong_marginals(4.5e-10),
                                  _negative_product_eigenvalue([0.5, -9e-10, 0.0, 0.5 + 9e-10]),
                                  _negative_product_eigenvalue([0.6, 0.1 + 9e-10, -9e-10, 0.3]),
                                  # J exceeded I here by rounding the slack allows, and D was -1.6e-9 and -7.9e-10
                                  _negative_product_eigenvalue([0.4 + 9e-10, 0.3, 0.3, -9e-10]),
                                  _negative_product_eigenvalue([0.7, -9e-10, 0.1 + 9e-10, 0.2])])
def test_states_that_validate_accepts_give_a_report(tmp_path, capsys, make):
    rho = make()
    assert validate(rho).ok
    report = quantum_discord(rho)
    assert 0.0 <= report.discord <= report.bounds.xi_bound + 1e-8
    assert report.discord <= report.bounds.discord_ub + 1e-8
    path = _write_matrix_file(tmp_path / "edge.json", rho)
    assert main(["compute", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["discord"] == float(f"{report.discord:.9g}")


def test_compute_missing_file_exits_2(capsys):
    assert main(["compute", "/no/such/file.json"]) == 2


def test_compute_garbage_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["compute", str(path)]) == 2


def test_compute_wrong_keys_exits_2(tmp_path, capsys):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"matrix": [], "triple": {}}))
    assert main(["compute", str(path)]) == 2
    path.write_text(json.dumps({"something": 1}))
    assert main(["compute", str(path)]) == 2


def test_compute_not_a_state_exits_3(tmp_path, capsys):
    path = _write_matrix_file(tmp_path / "neg.json", np.diag([0.5, 0.6, -0.1, 0.0]))
    assert main(["compute", str(path)]) == 3


def test_compute_accepts_a_spectrum_that_dividing_by_the_trace_pushes_below_minus_psd_tol(tmp_path, capsys):
    # validate accepts the matrix (|tr - 1| = 9e-9, min eig = -PSD_TOL); divided by its
    # trace, the eigenvalue -1e-9 becomes -1.000000009e-9, past the spectrum entropy's check
    rho = np.diag([0.5, 0.3, 0.2 - 8e-9, -1e-9])
    assert validate(rho).ok
    assert np.linalg.eigvalsh(rho / np.trace(rho))[0] < -1e-9
    report = quantum_discord(rho)
    b = report.bounds
    assert report.discord == report.mutual_information - report.classical_correlation
    assert 0.0 <= report.discord <= b.xi_bound + 1e-8 and report.discord <= b.discord_ub + 1e-8
    assert report.classical_correlation >= b.classical_lb - 1e-8
    path = _write_matrix_file(tmp_path / "deficit.json", rho)
    assert main(["compute", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["discord"] == report.discord


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_compute_non_finite_matrix_exits_3(tmp_path, capsys, value):
    rho = np.full((4, 4), value)
    path = _write_matrix_file(tmp_path / "inf.json", rho)
    assert main(["compute", path]) == 3
    assert "non-finite entries" in capsys.readouterr().err


def test_resolution_default_is_the_library_default():
    from qdiscord.cli import _build_parser, _search_settings
    from qdiscord.optimize import DEFAULT_RESOLUTION, DEFAULT_TOLERANCE

    for argv in (["compute", "state.json"], ["scan", "ab"], ["verify"]):
        search = _search_settings(_build_parser().parse_args(argv))
        assert search == {"resolution": DEFAULT_RESOLUTION, "tolerance": DEFAULT_TOLERANCE}


def test_each_subcommand_takes_only_the_flags_it_reads(bell_file, capsys):
    import argparse

    from qdiscord.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(f for a in p._actions for f in a.option_strings if f not in ("-h", "--help"))
             for name, p in sub.choices.items()}
    assert flags == {
        "compute": ["--format", "--resolution", "--tolerance"],
        "scan": ["--a", "--b", "--ray", "--resolution", "--s", "--tolerance"],
        "verify": ["--n", "--resolution", "--seed", "--suite", "--tolerance"],
    }
    for argv in (["scan", "ab", "--a", "0.2", "--b", "0", "--format", "json"],
                 ["scan", "ab", "--a", "0.2", "--b", "0", "--seed", "1"],
                 ["compute", bell_file, "--seed", "3"],
                 ["verify", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["scan", "ab", "--a", "0.2", "--b", "0", "--resolution", "5", "--tolerance", "1e-10"]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert main(["verify", "--suite", "oracle", "--n", "2", "--resolution", "5", "--tolerance", "1e-10"]) == 0
    assert capsys.readouterr().out.startswith("oracle: PASS")


def test_bad_config_exits_2(bell_file, capsys):
    assert main(["compute", bell_file, "--resolution", "45"]) == 2
    assert main(["compute", bell_file, "--tolerance", "0.5"]) == 2
    assert main(["verify", "--suite", "identity", "--seed", "-1", "--n", "1"]) == 2
    for n in ("-3", "0"):  # no vacuous PASS, no silent default count
        assert main(["verify", "--suite", "identity", "--n", n]) == 2
    assert "PASS" not in capsys.readouterr().out


def _refuse(*args, **kwargs):
    raise AssertionError("a check let an oversized input through")


def test_resolution_below_the_floor_exits_2_before_any_direction_is_built(bell_file, capsys, monkeypatch):
    from qdiscord import optimize
    from qdiscord.errors import ValidationError

    monkeypatch.setattr(optimize, "_grid", _refuse)
    monkeypatch.setattr(optimize, "_lattice", _refuse)
    # 0.001 degrees would ask for about 2e10 lattice points (and 3e10 grid directions)
    assert 2 * math.pi / math.radians(0.001) ** 2 > 2e10
    assert main(["compute", bell_file, "--resolution", "0.001"]) == 2
    assert main(["compute", bell_file, "--resolution", "0.4"]) == 2
    assert "--resolution must be in [0.5, 22.5] degrees" in capsys.readouterr().err
    t = triple_from_matrix(random_state(rng=np.random.default_rng(0)))
    for search in (lambda: quantum_discord(matrix_from_triple(t), resolution=math.radians(0.001)),
                   lambda: optimize.grid_minimize(t, resolution=math.radians(0.001)),
                   lambda: optimize.stationary_scan(t, resolution=math.radians(0.4))):
        with pytest.raises(ValidationError):
            search()


def test_scan_range_over_the_point_cap_exits_2_before_it_is_built(capsys, monkeypatch):
    from qdiscord import cli

    # --a 0:1e9:1e-9 would ask for about 1e18 values and is never run; the
    # cap is checked on the value count, a float, and is tested at its edge
    assert (1e9 - 0) / 1e-9 > 1e17
    assert cli.MAX_SCAN_POINTS == 100_000
    monkeypatch.setattr(cli, "ab_state", _refuse)
    monkeypatch.setattr(cli, "bell_diagonal_state", _refuse)
    assert main(["scan", "ab", "--b", "0", "--a", "0:1:1e-5"]) == 2  # 100,001 values
    assert main(["scan", "bell-diagonal", "--ray", "1,-1,1", "--s", "0:1:1e-6"]) == 2
    assert main(["scan", "bell-diagonal", "--ray", "1,-1,1", "--s", "0:1e300:1e-300"]) == 2
    assert main(["scan", "ab", "--b", "0", "--a=-1e308:1e308:1"]) == 2  # the span overflows to inf
    assert main(["scan", "ab", "--b", "0:0.4:0.001", "--a", "0:0.4:0.001"]) == 2  # 401 x 401 states
    assert capsys.readouterr().err.count("more than 100000") == 5
    scanned = []
    monkeypatch.setattr(cli, "ab_state", lambda a, b: None)
    monkeypatch.setattr(cli, "bound_comparison_scan", lambda states, **kw: scanned.append(len(states)) or [])
    assert main(["scan", "ab", "--b", "0", "--a", "0:0.99999:1e-5"]) == 0
    assert scanned == [100_000]


def test_scan_ab_panel(capsys):
    assert main(["scan", "ab", "--b", "0.1", "--a", "0:0.9:0.01"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "param1,param2,discord,discord_ub,xi_bound,saturated"
    assert len(lines) == 92  # header + 91 rows
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[2]) <= float(fields[3]) + 1e-6


def test_scan_ab_out_of_region_exits_2(capsys):
    assert main(["scan", "ab", "--b", "0.5", "--a", "0:0.9:0.1"]) == 2


def test_scan_requires_ranges(capsys):
    assert main(["scan", "ab", "--a", "0.5"]) == 2


def test_scan_bell_diagonal_ray(capsys):
    assert main(["scan", "bell-diagonal", "--ray", "1,-1,1", "--s", "0:1:0.05"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 22
    assert all(line.endswith("true") for line in lines[1:])


def test_scan_bell_diagonal_invalid_ray_exits_2(capsys):
    assert main(["scan", "bell-diagonal", "--ray", "1,1,1", "--s", "1"]) == 2
    assert main(["scan", "bell-diagonal", "--ray", "1,nan,0", "--s", "0.5"]) == 2
    assert main(["scan", "bell-diagonal", "--ray", "1,0,0", "--s", "nan"]) == 2
    assert main(["scan", "bell-diagonal", "--ray", "1,0,0", "--s", "0:inf:0.1"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["scan", "ab", "--a", "0.2", "--b", "-0.1:0.1:0.1"], 0),
    (["scan", "bell-diagonal", "--ray", "-1,0,0", "--s", "0.5"], 0),
    (["scan", "bell-diagonal", "--ray", "-1,0,0", "--s", "-0.5:0.5:0.25"], 0),
    (["scan", "ab", "--a", "-0.2:0.2:0.2", "--b", "0"], 2),  # a < 0 leaves the (a, b) region
])
def test_scan_takes_a_leading_minus_in_the_spaced_form(capsys, argv, code):
    equals = [f"{flag}={value}" for flag, value in zip(argv[2::2], argv[3::2])]
    assert main(argv[:2] + equals) == code
    expected = capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == expected
    assert expected.out.count("\n") > 1 if code == 0 else "outside the valid region" in expected.err


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "identity", "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "identity: PASS" in out


@pytest.mark.parametrize("seed, worst", [("1", "6.661e-16"), ("77", "7.772e-16")])
def test_verify_identity_output_is_pinned(capsys, seed, worst):
    # pinned: a moved draw order or normalization of the directions changes the worst gap
    assert main(["verify", "--suite", "identity", "--n", "20", "--seed", seed]) == 0
    assert capsys.readouterr().out == f"identity: PASS (20 states x 50 directions, max |h4-h2 vs sum p_k S| = {worst})\n"


def test_verify_gradient_suite(capsys):
    assert main(["verify", "--suite", "gradient", "--n", "20"]) == 0
    assert "gradient: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["979858944", "1030304400"])
def test_verify_gradient_suite_small_component(capsys, seed):
    # small gradient components here need a reference far better than a
    # plain central difference to be checked at relative error 1e-6
    assert main(["verify", "--suite", "gradient", "--n", "4", "--seed", seed]) == 0
    assert "gradient: PASS" in capsys.readouterr().out


def test_verify_oracle_suite(capsys):
    assert main(["verify", "--suite", "oracle", "--n", "10"]) == 0
    assert "oracle: PASS" in capsys.readouterr().out


def test_verify_bounds_suite(capsys):
    assert main(["verify", "--suite", "bounds", "--n", "25"]) == 0
    assert "bounds: PASS" in capsys.readouterr().out


#: the closed-form oracles, which keep their own numpy code
ORACLES = {"bell_diagonal_discord", "kernel_class_min_entropy", "shannon_entropy"}
#: a line that makes or calls numpy's Generator, whose C code enters numpy's Python layer
GENERATOR_CALL = re.compile(r"\brng\.|default_rng\(")
#: numpy's Python-layer entries of one verify suite at --n 4 (seed 0) from the rest of the package: validate's
#: eigvalsh, the direct route's eigvalsh and its entropy sum, T's SVD, the start set's np.where/ndarray.sum pair
#: per entropy sum, and in the bounds suite two np.where of the search's plateau spread (one state has two minima)
SUITE_NUMPY_FRAMES = {
    "identity": {"eigvalsh": 8, "where": 4, "_sum": 4},
    "gradient": {"eigvalsh": 4},
    "oracle": {"eigvalsh": 4, "svd": 4, "where": 8, "_sum": 8},
    "bounds": {"eigvalsh": 4, "svd": 4, "where": 8 + 2, "_sum": 8},
}


def _oracle_or_generator(caller) -> bool:
    """A numpy entry under a closed-form oracle, or from a line that makes or calls numpy's Generator."""
    if GENERATOR_CALL.search(linecache.getline(caller.f_code.co_filename, caller.f_lineno)):
        return True
    while caller is not None and caller.f_code.co_name not in ORACLES:
        caller = caller.f_back
    return caller is not None


@pytest.mark.parametrize("suite", list(_SUITES))
def test_each_verify_suite_enters_numpy_python_layer_only_for_eigvalsh_svd_and_entropy_sums(capsys, suite):
    argv = ["verify", "--suite", suite, "--n", "4"]
    assert main(argv) == 0  # any first-use work happens outside the count
    _, direct = _numpy_frames(lambda: main(argv), _oracle_or_generator)
    assert capsys.readouterr().out.count(f"{suite}: PASS") == 2
    # a bound, not a pin: a numpy release that drops a wrapper passes, a new entry from the package fails
    assert Counter(direct) <= Counter(SUITE_NUMPY_FRAMES[suite]), direct


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_compute_triple_file_with_non_finite_x_exits_2(tmp_path, capsys, bad):
    path = _write_triple_file(tmp_path / "bad.json", [bad, 0, 0], [0, 0, 0], np.zeros((3, 3)))
    assert main(["compute", path]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_successive_calls_parse_their_own_flags(capsys):
    # the parser is built once per process and shared by every call
    from qdiscord.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["verify", "--suite", "identity", "--n", "2", "--seed", "7"]) == 0
    seeded = capsys.readouterr().out
    assert main(["verify", "--suite", "oracle", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("oracle: PASS")
    assert _build_parser().parse_args(["verify"]).seed == 0  # no --seed left over from the first call
    assert main(["verify", "--suite", "identity", "--n", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == seeded
    # a signed --a, then one without a sign: each scan has its own rows
    assert main(["scan", "ab", "--a", "0.2", "--b", "-0.1:0.1:0.1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4  # header and three b values
    assert main(["scan", "ab", "--a", "0.3", "--b", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "identity", "--n", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == seeded
