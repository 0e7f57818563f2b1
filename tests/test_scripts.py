"""End-to-end runs of the scripts under scripts/ on small fixed inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, check=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300, check=check)


def test_figure_data_writes_every_panel(tmp_path):
    out = _run("figure_data.py", "--outdir", str(tmp_path), "--step", "0.25")
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted([f"fig1_b{b:.2f}.csv" for b in (0.1, 0.3, 0.5, 0.9)]
                           + [f"fig2_a{a:.2f}.csv" for a in (0.1, 0.3, 0.5, 0.9)])
    assert out.stdout.count("wrote ") == 8
    rows = (tmp_path / "fig2_a0.50.csv").read_text().splitlines()
    assert rows[0] == "param1,param2,discord,discord_ub,xi_bound,saturated"
    assert len(rows) == 1 + 5  # b from -0.5 to 0.5 in steps of 0.25
    assert all(row.endswith("true") for row in rows[1:])  # the a = 0.5 panel saturates


def test_stationary_landscape_writes_the_grid_and_the_points(tmp_path):
    path = tmp_path / "landscape.csv"
    out = _run("stationary_landscape.py", "--seed", "5", "--step-deg", "15", "--out", str(path))
    rows = path.read_text().splitlines()
    assert rows[0] == "theta,phi,entropy,residual"
    assert len(rows) == 1 + 7 * 24  # theta 0..90 and phi 0..345 degrees in 15-degree steps
    assert rows[1].startswith("0,0,")
    points = [line for line in out.stderr.splitlines() if "theta=" in line]
    assert points and all("residual=" in line for line in points)


@pytest.mark.parametrize("step", ["0.4", "30"])
def test_stationary_landscape_rejects_a_step_out_of_range(step, tmp_path):
    # 0.4 degrees is just below the floor: an unchecked grid would still be small (about 200k rows)
    out = _run("stationary_landscape.py", "--step-deg", step, "--out", str(tmp_path / "x.csv"), check=False)
    assert out.returncode == 2
    assert "resolution" in out.stderr
    assert not (tmp_path / "x.csv").exists()
