import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    """Importing the package and its CLI pulls in no scipy module: importing
    scipy.sparse alone costs about 0.2 s per interpreter, which every CLI
    run would pay. Nor does it load ``mmap``, which the row store imports
    when it maps its first rows, so a run that keeps no rows never pays
    for it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, coarselab, coarselab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mmap')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
