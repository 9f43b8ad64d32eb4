"""`python -m twocubes ARGS` runs the command-line interface, from a checkout
(with `src` on the path) as from an install."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
