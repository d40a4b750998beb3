"""`python -m zipfold`: the command line front end of zipfold.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
