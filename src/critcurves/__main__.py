"""`python -m critcurves …` runs the command line, as the installed
`critcurves` script does; with PYTHONPATH=src it needs no install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
