"""``python -m dualq`` and the ``dualq`` console script.

:func:`main` parses the command line before it imports :mod:`dualq.cli`,
so ``--help`` and usage errors load only argparse and the command table,
not numpy or the layers.
"""

from ._commands import parse


def main() -> int:
    flags = parse()
    from .cli import dispatch  # numpy and every layer: only a run needs them

    return dispatch(flags)


if __name__ == "__main__":
    raise SystemExit(main())
