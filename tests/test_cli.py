import json
import math

import numpy as np
import pytest

from qdiscord import (
    ab_discord,
    conditional_entropy,
    matrix_from_triple,
    quantum_discord,
    random_state,
    triple_from_matrix,
    validate,
)
from qdiscord.cli import main


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


@pytest.mark.parametrize("make", [_slightly_non_hermitian, _slightly_negative])
def test_states_that_validate_accepts_give_a_report(tmp_path, capsys, make):
    rho = make()
    assert validate(rho).ok
    report = quantum_discord(rho)
    assert -1e-8 <= report.discord <= report.bounds.xi_bound + 1e-8
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


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_compute_non_finite_matrix_exits_3(tmp_path, capsys, value):
    rho = np.full((4, 4), value)
    path = _write_matrix_file(tmp_path / "inf.json", rho)
    assert main(["compute", path]) == 3
    assert "non-finite entries" in capsys.readouterr().err


def test_resolution_default_is_the_library_default():
    from qdiscord.cli import RunConfig, _build_parser
    from qdiscord.optimize import DEFAULT_RESOLUTION

    args = _build_parser().parse_args(["compute", "state.json"])
    assert RunConfig(resolution_deg=args.resolution).resolution_rad == DEFAULT_RESOLUTION


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


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "identity", "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "identity: PASS" in out


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_compute_triple_file_with_non_finite_x_exits_2(tmp_path, capsys, bad):
    path = _write_triple_file(tmp_path / "bad.json", [bad, 0, 0], [0, 0, 0], np.zeros((3, 3)))
    assert main(["compute", path]) == 2
    assert "non-finite" in capsys.readouterr().err
