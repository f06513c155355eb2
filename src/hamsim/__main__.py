"""``python -m hamsim``: the command-line interface of hamsim.cli."""

import sys

from .cli import main

sys.exit(main())
