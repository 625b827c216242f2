"""``python -m planarflow``: the same entry point as the ``planarflow`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
