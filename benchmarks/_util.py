"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table/figure of the paper: it
computes the series, renders it as an aligned text table, asserts the
qualitative *shape* the paper claims (who wins, what grows, where the
crossover is), and feeds one representative workload to pytest-benchmark
for timing.

Rendered tables are buffered by :func:`emit` and flushed by the
``pytest_terminal_summary`` hook in ``benchmarks/conftest.py`` -- pytest
captures ordinary stdout even for passing tests, but terminal-summary
output always reaches the console (and any tee'd log).  Each run's
tables are also written to ``benchmarks/results/latest.txt``.

The ``BENCH_<name>.json`` scripts share one command line and one
report writer: :func:`report_main` (or, for a script with
extra options, :func:`report_parser` plus :func:`write_report`) owns
``--smoke``/``--output``, the ``.smoke.json`` default and the JSON
dump, and stamps the script's ``GATE`` -- the bars
``check_bench_regression.py`` holds the committed report to -- into
every report it writes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable

_EMITTED: list[str] = []


def emit(text: str) -> None:
    """Buffer a rendered table for the end-of-run summary."""
    _EMITTED.append(text)


def drain() -> list[str]:
    """Hand the buffered tables to the summary hook (clears the buffer)."""
    out = list(_EMITTED)
    _EMITTED.clear()
    return out


def fit_power_law(xs, ys) -> float:
    """Least-squares slope of log(y) on log(x): the growth exponent."""
    import math

    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    var = sum((a - mean_x) ** 2 for a in lx)
    return cov / var


def report_parser(doc: str | None, output: Path) -> argparse.ArgumentParser:
    """The ``--smoke``/``--output`` command line of a BENCH script."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid for CI: exercises the script, not the hardware",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            f"where to write the JSON report (default: {output}; a smoke "
            f"run defaults to {output.with_suffix('.smoke.json').name} so "
            "it never clobbers the committed full-run numbers)"
        ),
    )
    return parser


def write_report(
    report: dict, args: argparse.Namespace, output: Path, gate: dict | None
) -> int:
    """Write ``report``, with ``gate`` stamped first, to ``--output`` or
    by default to ``output`` (``.smoke.json`` beside it for a smoke
    run)."""
    path = args.output
    if path is None:
        path = output.with_suffix(".smoke.json") if args.smoke else output
    path.write_text(json.dumps({"gate": gate, **report}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def report_main(
    doc: str | None,
    output: Path,
    gate: dict | None,
    run: Callable[[bool], dict],
) -> int:
    """Parse ``--smoke``/``--output``, run the bench, write its report."""
    args = report_parser(doc, output).parse_args()
    return write_report(run(args.smoke), args, output, gate)
