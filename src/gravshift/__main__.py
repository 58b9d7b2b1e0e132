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
"""

import gc
import os
import sys
from typing import NoReturn


def run() -> NoReturn:
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
