"""The argparse parser of ``cli.COMMANDS``, which ``cli.cli`` gives: built for ``--help`` and for every command line
that ``cli._read`` leaves to argparse, so that no canonical line runs this module or loads argparse."""

import argparse

from . import cli

__all__ = ["build"]


class Parser(argparse.ArgumentParser):
    def error(self, message: str):  # in place of argparse's usage message and exit 2
        raise cli.UsageError(message)


def build() -> Parser:
    """The parser of ``cli.COMMANDS``, kept as its ``commands``: each command's options, and its docstring as help."""
    parser = Parser(prog="petring", description="Exact structure constants for the Peterson cohomology basis.",
                    allow_abbrev=False)
    parser.commands = cli.COMMANDS  # the registry that main runs, so a callback wrapped through it is the one called
    subparsers = parser.add_subparsers(dest="command", required=True)
    for key, entry in cli.COMMANDS.items():
        doc = entry.callback.__doc__
        sub = subparsers.add_parser(key, help=doc.split(".")[0] + ".", description=doc, allow_abbrev=False)
        for flags, kwargs in entry.options:
            sub.add_argument(*flags, **kwargs)
    return parser
