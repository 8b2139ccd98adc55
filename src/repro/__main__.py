"""Command-line demo: ``python -m repro [N] [m] [k]``.

Runs the paper's algorithm suite on one synthetic query and prints the
cost comparison -- a 10-second tour of what the library does.
"""

from __future__ import annotations

import os
import sys

from . import datagen
from .aggregation import AVERAGE
from .analysis import format_table, minimal_certificate, run_algorithms
from .analysis.runner import RunRecord
from .core import (
    CombinedAlgorithm,
    FaginAlgorithm,
    NaiveAlgorithm,
    NoRandomAccessAlgorithm,
    ThresholdAlgorithm,
)
from .middleware import CostModel


USAGE = "usage: python -m repro [N >= 1] [m >= 1] [k, 1 <= k <= N]"


def _parse(argv: list[str]) -> tuple[int, int, int] | None:
    """``(N, m, k)`` from the command line, or None when any is not an
    integer or is out of range."""
    if len(argv) > 4:
        return None
    defaults = [10_000, 3, 10]
    try:
        n, m, k = [int(a) for a in argv[1:]] + defaults[len(argv) - 1 :]
    except ValueError:
        return None
    if n < 1 or m < 1 or not 1 <= k <= n:
        return None
    return n, m, k


def main(argv: list[str]) -> int:
    parsed = _parse(argv)
    if parsed is None:
        print(USAGE, file=sys.stderr)
        return 2
    n, m, k = parsed
    cost_model = CostModel(sorted_cost=1.0, random_cost=5.0)

    db = datagen.uniform(n, m, seed=7)
    print(
        f"top-{k} by average grade over N={n}, m={m} "
        f"(cS={cost_model.cs:g}, cR={cost_model.cr:g})\n"
    )
    records = run_algorithms(
        [
            NaiveAlgorithm(),
            FaginAlgorithm(),
            ThresholdAlgorithm(),
            NoRandomAccessAlgorithm(),
            CombinedAlgorithm(),
        ],
        db,
        AVERAGE,
        k,
        cost_model=cost_model,
        label=f"uniform-{n}",
    )
    print(format_table(RunRecord.HEADERS, [r.row() for r in records]))

    cert = minimal_certificate(db, AVERAGE, k, cost_model, depth_step=5)
    print(f"\nshortest-proof certificate: {cert}")
    print("measured optimality ratios vs the certificate:")
    for rec in records:
        print(f"  {rec.algorithm:<8} {rec.middleware_cost / cert.cost:8.2f}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): point stdout at
        # devnull so the interpreter's final flush cannot fail again,
        # and exit without a traceback (the Python docs' SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
