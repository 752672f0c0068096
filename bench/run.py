"""Contract entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as the last line of standard output; see
``bench/README.md``.
"""

import os
import sys

# Run as a script, sys.path[0] is bench/ itself; the package needs its parent.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
