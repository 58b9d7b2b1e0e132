"""The `gravshift` process entry, for `python -m gravshift` and the installed
`gravshift` command alike. It ends through Python's normal exit with
`cli.main`'s code, so the streams are flushed and atexit handlers run.

A run is one short process, so `run` spends nothing on the interpreter that
the command does not need:

- The cyclic garbage collector is off while `gravshift.cli` imports (scipy
  and numpy are most of that import), and the imported objects are then
  frozen, so that later collections, the one at exit too, do not walk
  them. Collection is on again while the command runs: each ray solve
  leaves a reference cycle.
- BLAS threads: unless the environment already sets it,
  ``OPENBLAS_NUM_THREADS`` is set to 1 before numpy and scipy load, so
  neither of their OpenBLAS libraries starts a worker-thread pool that no
  command uses (the largest arrays are a ray's 5-component state). The
  variable is inherited by any child process, and `gravshift` starts none.
  A program that imports `gravshift.cli` as a library keeps its own
  environment. The default works only while nothing that `python -m
  gravshift` imports before `run` loads numpy.
"""

import gc
import os
import sys
from typing import NoReturn


def run() -> NoReturn:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from gravshift import cli
    gc.freeze()
    gc.enable()
    sys.exit(cli.main())


if __name__ == "__main__":
    run()
