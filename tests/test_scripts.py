"""Smoke tests of the experiment scripts and configs: each script runs end to end on a
small input, and each config loads."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from halfspace_qed.config import load_config, spec_from_config

ROOT = Path(__file__).resolve().parent.parent


def test_perfect_reflector_scaling_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perfect_reflector_scaling.py"), "--n", "3", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "n,deviation,predicted" and len(lines) == 4
    assert lines[-1].startswith("# log-log slope: ")


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.cfg")), ids=lambda p: p.name)
def test_script_configs_load(path):
    spec_from_config(load_config(str(path)))
