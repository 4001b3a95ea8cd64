"""Every experiment script runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# one or more argument lists per script
SMALL_ARGS = {
    "benford_table.py": [["--kmax", "3"]],
    "de_chain.py": [["--pmax", "7", "--rmax", "1e4", "--points", "5"],
                    # the harmonic-weight estimate is not computed at pmax 73
                    ["--pmax", "73", "--rmax", "1e4", "--points", "5"]],
    "omega_decay.py": [["--k", "2", "--pmax", "7"],
                       # primorial above 10^6: no direct residue count
                       ["--k", "2", "--pmax", "19"]],
    "squarefree_triple.py": [["--rmax", "1e5", "--cutoff", "1e3"]],
}


def test_every_script_has_small_arguments():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(SMALL_ARGS)


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for args in SMALL_ARGS[name]:
        proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout.strip(), args
