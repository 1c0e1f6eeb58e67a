"""``python -m openpoint``: the same command line as the ``openpoint`` script."""

from .cli import main

main()
