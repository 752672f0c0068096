"""The repository's benchmark: four seeded workloads, one traced run each.

Everything here drives the *public* API of ``repro`` and lives outside
``src/`` so that a change claiming a gain cannot edit its own yardstick.
See ``bench/README.md`` for how to run it and what each number means.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The driver runs ``python3 bench/run.py`` with no PYTHONPATH; the server
# subprocess gets the same directory through its environment.
if SRC not in sys.path:
    sys.path.insert(0, SRC)
