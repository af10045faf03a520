"""The ``qhist`` command: ``python -m qhist`` and the console script both
call :func:`main`."""

import os

# qhist's matrices are 2x2 and 4x4 (and N x N overlaps of such kets), where
# OpenBLAS's thread start-up costs far more than the product itself
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    """Run the CLI on one BLAS thread unless the user set the thread count.

    The variables are read once, when numpy loads, so they are set before
    the CLI (and through it numpy) is imported.
    """
    for var in _THREAD_VARIABLES:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
