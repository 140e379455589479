"""Pin BLAS to one thread for the whole test session, as ``bench/run.py`` does.

This root conftest is imported before any test module, so the variables are
set before numpy loads its BLAS.  Timing and coverage floors in the tests
(``bench/tests`` included) then do not depend on a second BLAS thread
stalling untraced code on a small host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
