"""Import dissolve from this checkout's `src`, with single-threaded BLAS.

Import this module before numpy.  BLAS threads are pinned to one: the box the
benchmark was written on has two cores shared with other work, and the
thread count changes the floating-point path (fpca seed 0 takes 219
iterations with two OpenBLAS threads and 232 with one), which would make
the committed reference depend on the machine.
"""

import os
import pathlib
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import dissolve
except ImportError as exc:
    raise SystemExit(f"error: cannot import dissolve from {SRC}: {exc}")
if not pathlib.Path(dissolve.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: dissolve was imported from {dissolve.__file__}, "
                     f"not from {SRC}")
