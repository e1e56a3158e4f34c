"""The subcommand table and the argument parser of the ``dualq`` command.

This module imports only the standard library, so :mod:`dualq.__main__`
parses the command line, and ends ``--help`` and every usage error, before
:mod:`dualq.cli` loads numpy and the layers.  Each subcommand is one entry
of :data:`COMMANDS`, declared with :func:`_command`: its help and its flags
as (type, default, help).  :mod:`dualq.cli` binds each name to its runner.
"""

import argparse
from typing import NamedTuple

__all__ = ["DEFAULT_ALPHA", "COMMANDS", "parse"]

DEFAULT_ALPHA = 0.01  # significance level of every experiment and its --alpha flag


class Command(NamedTuple):
    help: str
    flags: dict  # key -> (type, default, help), the shared --config/--output first


_IO_FLAGS = {"config": (str, None, "JSON file supplying the same keys; flags override"),
             "output": (str, None, None)}
_REPORT_FLAGS = {**_IO_FLAGS, "format": (str, "json", "json or csv")}
_ALPHA = (float, DEFAULT_ALPHA, "")


def _command(help: str, io_flags: dict = _REPORT_FLAGS, **flags) -> Command:
    return Command(help, {**io_flags, **flags})


# subcommand -> Command; --help keeps this order
COMMANDS = {
    "verify-identities": _command(
        "six-way tableau/path/tandem identity on random matrices",
        n=(int, 6, "max customers"), k=(int, 4, "max stages"),
        max_entry=(int, 5, "entries drawn from {0..max}"),
        cases=(int, 10000, "random matrices"), seed=(int, 0, "")),
    "burke": _command(
        "joint output law of the equilibrium queue",
        model=(str, "geom", "geom (geomgeom1) or exp (mm1)"),
        p=(float, 0.3, "arrival parameter (p or lambda)"),
        q=(float, 0.6, "mark parameter (q or mu)"),
        horizon=(int, 100000, "customers, in equilibrium from the first"),
        seed=(int, 0, ""), alpha=_ALPHA,
        dump_samples=(str, None, "write raw (d, r) pairs to this CSV path")),
    "zigzag-law": _command(
        "busy-period trajectory law",
        p=(float, 0.3, "gap parameter"), q=(float, 0.7, "mark parameter, 0 < p < q < 1"),
        periods=(int, 100000, "busy periods"),
        seed=(int, 0, ""), alpha=_ALPHA),
    "noncolliding": _command(
        "walks conditioned never to collide (exact h-transform) vs max/min functionals",
        model=(str, "geom", "geom (geomgeom1) or exp (mm1)"),
        p=(float, 0.3, "gap parameter"), q=(float, 0.7, "mark parameter"),
        n=(int, 3, "steps per conditioned walk"),
        reps=(int, 100000, "conditioned walks"),
        seed=(int, 0, ""), alpha=_ALPHA),
    "interchange": _command(
        "stage reordering leaves (D, R) unchanged",
        q=(str, "0.3,0.6", "comma-separated stage weights"),
        sigma=(str, "1,0", "0-based permutation"),
        n=(int, 4, "customers"), reps=(int, 100000, ""),
        seed=(int, 0, ""), alpha=_ALPHA),
    "shape-law": _command(
        "insertion-shape law and growth transitions",
        q=(str, "0.3,0.5", "comma-separated stage weights"),
        n=(int, 4, "rows"), reps=(int, 100000, ""),
        seed=(int, 0, ""), alpha=_ALPHA),
    "laguerre": _command(
        "exponentiality of R in the square exponential case",
        k=(int, 3, "stages (square case)"), reps=(int, 1000000, ""),
        reference_mean=(float, None, "positive and finite; default the exact 1/K"),
        seed=(int, 0, ""), alpha=_ALPHA),
    "particles": _command(
        "particle-system equivalences on random instances",
        cases=(int, 1000, ""), max_n=(int, 5, ""), max_k=(int, 5, ""),
        max_entry=(int, 5, ""), seed=(int, 0, "")),
    "trace": _command(
        "per-customer trace table as CSV", io_flags=_IO_FLAGS,
        a=(str, "0,3", "comma-separated arrival epochs"),
        s=(str, "5,1", "comma-separated marks"),
        w1=(float, 0.0, "initial wait")),
}


def parse(argv=None) -> dict:
    """The flags given on ``argv`` (default ``sys.argv[1:]``) by key, and the
    ``subcommand``; flags not given are absent.  ``--help`` exits here with
    status 0, a usage error with status 2."""
    parser = argparse.ArgumentParser(prog="dualq",
                                     description="queue/store duality toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key, (typ, _, hlp) in cmd.flags.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, help=hlp,
                           default=argparse.SUPPRESS)
    return vars(parser.parse_args(argv))
