import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]

# sha256 of each demo's stdout; a change to any printed byte fails here
DEMO_DIGESTS = {
    "01_brackets_and_leibniz.py": "ae55a53e5a4c7a1a47584994fa5ca1f4f586750082cfce282ccc80225ee1c48a",
    "02_axiom_reports.py": "496f5ace7372762a0660c21f0928caa74a42cbc0dd3f961bd44b111987d631a9",
    "03_classification_tables.py": "90fbf7bb5f28d512de75144581c6dcb14cd6a4818de6eaca06b2015b209a0bbe",
    "04_laurent_localisation.py": "3e1308a20c57fc229c1ccb9785749c9141a6113e78c94b7db1dbf7c31b8ffa7f",
    "05_representation_traces.py": "15bc1a1559489480d2cb36edb0f340bbe6d2f9a65d27e37d5f08563c8e604bbe",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    """Each demo exits 0 and prints the bytes its digest pins."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
