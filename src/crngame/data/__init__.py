"""Shipped CRN files and experiment configs.

Reference these from configs or the command line with the ``pkg:`` prefix,
e.g. ``crngame sweep pkg:default_sweep.ini``.
"""

from importlib import resources


def path(name: str) -> str:
    """Filesystem path of a shipped data file."""
    return str(resources.files(__name__).joinpath(name))
