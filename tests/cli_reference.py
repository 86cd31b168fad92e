"""The reference for ostro.cli.main's argument parsing: parse_args on the
full parser, which parses argv with the top-level parser and hands the
rest to the subcommand's parser.  main parses argv[1:] with the named
subcommand's parser alone; the tests require the same namespace apart
from `command`, and on bad argv the same stdout, stderr and exit code.
"""

from __future__ import annotations

from ostro.cli import build_parser


def parse_args_reference(argv: list[str]):
    """The namespace, or the SystemExit, of the full parser's parse_args."""
    return build_parser().parse_args(argv)
