"""The `gravshift` process entry, for `python -m gravshift` and the installed
`gravshift` command alike.

A run is one short process, so `run` spends nothing on the interpreter that
the command does not need:

- The cyclic garbage collector is off while `gravshift.cli` imports (scipy
  and numpy are most of that import), and the imported objects are then
  frozen, so that later collections do not walk them. Collection is on
  again while the command runs: each ray solve leaves a reference cycle.
- Exit contract: once `cli.main` returns, stdout and stderr are flushed and
  the process ends with `os._exit`. atexit handlers and interpreter
  teardown do not run, so anything that must happen at exit (closing a log,
  say) belongs inside `cli.main`. A `SystemExit` or another exception
  raised out of `cli.main` takes the normal exit path.
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
    code = cli.main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
