"""What importing the package costs every process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_numpy():
    # The package depends on the standard library only; a module that
    # imported numpy would add its load time and memory to every process,
    # pool workers included.  The execution engine is for calibration
    # only: the verification gate, which every query passes, must not
    # load it either.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.parallel, repro.robustness.verify\n"
        "print('numpy' in sys.modules)\n"
        "print(any(m.startswith('repro.engine') for m in sys.modules))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    numpy_loaded, engine_loaded = completed.stdout.split()
    assert numpy_loaded == "False"
    assert engine_loaded == "False"
