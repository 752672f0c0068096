"""``python -m bench run ...`` / ``python -m bench agree A B``."""

import sys

from bench.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
