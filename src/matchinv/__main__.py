"""Entry point for ``python -m matchinv``; same as the ``matchinv`` command."""

import sys

from .cli import main

sys.exit(main())
