"""Keep a test run from writing bytecode caches into the checkout.

A stale ``src/radford/__pycache__`` changes what later runs of the
program cost, so the tests, and the ``python -m radford`` subprocesses
they start (which inherit the environment), compile from source.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
