"""Pin BLAS to one thread for the whole test session, as ``bench/run.py`` does,
and put ``src`` on the path of every process the tests start.

This root conftest is imported before any test module, so the variables are
set before numpy loads its BLAS.  Timing and coverage floors in the tests
(``bench/tests`` included) then do not depend on a second BLAS thread
stalling untraced code on a small host.  ``pyproject.toml`` puts ``src`` on
pytest's own path; ``PYTHONPATH`` carries it to the CLI subprocesses, so a
bare ``pytest`` runs from a checkout without an install.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
