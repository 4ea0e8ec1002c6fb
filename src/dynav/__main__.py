"""Run as ``python -m dynav``: the ``dynav`` command."""
from .cli import main

raise SystemExit(main())
