"""One benchmark job in a fresh interpreter: ``python3 child.py '<job json>'``.

run.py starts this script with ``src/`` on ``PYTHONPATH``. Set-up ends
when ``import loopcs`` returns; the CLOCK_MONOTONIC reading taken then is
compared with run.py's reading taken just before it started the process.
Everything else lives in ``sample.py``, imported afterwards.
"""
import sys
import time

import loopcs  # noqa: F401  (set-up ends here)

IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import sample  # noqa: E402

if __name__ == "__main__":
    sys.exit(sample.main(sys.argv[1:], IMPORT_DONE))
