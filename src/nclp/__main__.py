"""``python -m nclp``: the command-line runner of :mod:`nclp.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
