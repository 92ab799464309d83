"""``python -m ffreach``: the command-line interface of :mod:`ffreach.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
