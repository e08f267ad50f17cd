"""`python -m lieball`: the process entry `cli.run`, as the `lieball` console
script and `python -m lieball.cli` run it."""

from .cli import run

run()
