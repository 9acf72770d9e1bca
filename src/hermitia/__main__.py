"""``python -m hermitia``: the command-line front end of ``hermitia.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
