"""``python -m harmbohr``: the command line, as the ``harmbohr`` script runs it."""

from .cli import entrypoint

entrypoint()
