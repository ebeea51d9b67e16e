"""Every demo runs as its own process and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellspec

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's standard output.
STDOUT_SHA256 = {
    "certificate_search.py": "daeef2df98ffe4e7311710c96413e0834fec0ec6e778aed2be46b076e99a67ec",
    "character_lattice.py": "cb152740023d23235909c883052f0c259fbc0cc7f68546f53e8fc3d4eeaa9ac5",
    "hecke_patterns.py": "2b19522fa2f7f81a891e9cee9ae85041c1e3530d60613a40949695fdaa0922be",
    "lattice_tour.py": "cb0d41de9109efc5754060b51621ab9ee064fdce10b7e853603134477a46f1b6",
    "spectral_characters.py": "177a3a43b25a822410f96450419268bdf7dcb4ad94047e91c1346a134490da07",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output(demo, tmp_path):
    # An absolute import root: a relative PYTHONPATH breaks once cwd moves.
    env = dict(os.environ, PYTHONPATH=str(Path(ellspec.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo], proc.stdout.decode()
