"""The package's import contract."""

import os
import subprocess
import sys
from pathlib import Path

import edrep


def test_cli_import_loads_no_numerical_library():
    """``--threads`` caps the BLAS pools before they start, which works
    only while importing the command line leaves numpy and scipy unloaded."""
    probe = (
        "import sys, edrep.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(edrep.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_every_export_resolves():
    """A removed function or class must not leave a dangling lazy export."""
    missing = [name for name in edrep._EXPORTS if not hasattr(edrep, name)]
    assert missing == []
