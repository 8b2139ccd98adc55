"""Bench regression gate: every committed ``BENCH_<name>.json`` in the
repository root, and the ``BENCH_<name>.smoke.json`` beside it, held to
the bars the committed report declares in its own ``gate`` block.

The bench scripts stamp their ``GATE`` constant into every report they
write (``benchmarks/_util.py``), but the bars are read from the
committed baseline only, never from the smoke report.  A ``gate`` block
holds these rules; none is specific to one bench:

``key``
    the run fields that identify a run (required);
``min`` / ``max``
    per-field floors / ceilings every committed run must hold;
``smoke_min`` / ``smoke_max``
    the same for every smoke run.  A bound is a number or the name of
    another field of the same run (``"rss_budget_bytes"``);
``within``
    per higher-is-better field, the largest allowed baseline / smoke
    ratio on the keys both reports share (at least 1.0);
``overlap``
    when true, the smoke grid must share at least one key with the
    committed grid (a miswired grid fails, not passes vacuously);
``any_min``
    at least one committed run must meet all of these floors.

``"gate": null`` leaves a report ungated.  The gate also fails a
committed report whose ``"smoke"`` is not false, a smoke report whose
``"smoke"`` is not true, a gated report without its smoke report, a
malformed ``gate`` block (an unknown rule, a ``within`` below 1.0) and
a run that lacks a field its gate names.  Run it, after the
``--smoke`` runs of the bench scripts, with no arguments::

    python benchmarks/check_bench_regression.py
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BOUNDS = ("min", "max", "smoke_min", "smoke_max", "within", "any_min")
RULES = ("key", "overlap") + BOUNDS


def malformed(gate) -> list[str]:
    """What is wrong with a ``gate`` block (empty when it is sound)."""
    if not isinstance(gate, dict):
        return [f"must be an object or null, not {gate!r}"]
    problems = [f"unknown rule {rule!r}" for rule in gate if rule not in RULES]
    key = gate.get("key")
    if not (
        isinstance(key, list)
        and key
        and all(isinstance(field, str) for field in key)
    ):
        problems.append(f"key must list run fields, not {key!r}")
    if not isinstance(gate.get("overlap", False), bool):
        problems.append(f"overlap must be true or false: {gate['overlap']!r}")
    for rule in BOUNDS:
        bars = gate.get(rule, {})
        if not isinstance(bars, dict):
            problems.append(f"{rule} must map fields to bounds: {bars!r}")
            continue
        for field, bound in bars.items():
            if isinstance(bound, str) and rule != "within":
                continue
            if not isinstance(bound, (int, float)):
                problems.append(f"{rule}.{field} bound {bound!r} is no number")
            elif rule == "within" and bound < 1.0:
                problems.append(f"within.{field} = {bound:g} is below 1.0")
    return problems


def named_fields(gate: dict) -> set[str]:
    """Every run field a gate reads: its key, bar fields, field bounds."""
    fields = set(gate["key"])
    for rule in BOUNDS:
        for field, bound in gate.get(rule, {}).items():
            fields.add(field)
            if isinstance(bound, str):
                fields.add(bound)
    return fields


def missed(run: dict, lows: dict, highs: dict) -> list[str]:
    """The floors (``lows``) and ceilings (``highs``) one run breaks."""
    broken = []
    for bars, holds, sign in ((lows, operator.ge, ">="), (highs, operator.le, "<=")):
        for field, bound in bars.items():
            limit = run[bound] if isinstance(bound, str) else bound
            if not holds(run[field], limit):
                named = f" ({bound})" if isinstance(bound, str) else ""
                broken.append(f"{field} = {run[field]}, not {sign} {limit}{named}")
    return broken


def check_report(path: Path) -> list[str]:
    """The failures of one committed report and the smoke report beside it."""
    name = path.name
    baseline = json.loads(path.read_text())
    failures = []
    if baseline.get("smoke") is not False:
        failures.append(f"{name}: committed, so \"smoke\" must be false")
    if "gate" not in baseline:
        return failures + [f"{name}: no gate block (null leaves it ungated)"]
    gate = baseline["gate"]
    if gate is None:
        print(f"{name}: ungated")
        return failures
    failures += [f"{name}: gate {problem}" for problem in malformed(gate)]
    smoke_path = path.with_suffix(".smoke.json")
    if not smoke_path.exists():
        failures.append(f"{name}: no smoke report {smoke_path.name}")
    if failures:
        return failures
    smoke = json.loads(smoke_path.read_text())
    if smoke.get("smoke") is not True:
        failures.append(f"{smoke_path.name}: a smoke report, so \"smoke\" must be true")
    arms = {"baseline": baseline.get("runs") or [], "smoke": smoke.get("runs") or []}
    for arm, runs in arms.items():
        if not runs:
            failures.append(f"{name}: the {arm} report has no runs")
        for run in runs:
            for field in sorted(named_fields(gate) - set(run)):
                failures.append(f"{name}: a {arm} run lacks field {field!r}")
    if failures:
        return failures

    def key(run: dict) -> tuple:
        return tuple(run[field] for field in gate["key"])

    def label(run: dict) -> str:
        return "/".join(map(str, key(run)))

    for arm, prefix in (("baseline", ""), ("smoke", "smoke_")):
        lows, highs = gate.get(prefix + "min", {}), gate.get(prefix + "max", {})
        for run in arms[arm] if lows or highs else ():
            broken = missed(run, lows, highs)
            failures += [f"{name} {arm} {label(run)}: {b}" for b in broken]
            values = ", ".join(f"{f}={run[f]}" for f in {**lows, **highs})
            print(f"{name} {arm} {label(run)}: {values}  {'FAIL' if broken else 'ok'}")
    any_min = gate.get("any_min", {})
    if any_min and all(missed(run, any_min, {}) for run in arms["baseline"]):
        failures.append(f"{name}: no baseline run meets all of any_min {any_min}")
    baseline_runs = {key(run): run for run in arms["baseline"]}
    shared = [run for run in arms["smoke"] if key(run) in baseline_runs]
    if gate.get("overlap") and not shared:
        failures.append(f"{name}: the smoke grid shares no {gate['key']} with it")
    for run in shared:
        for field, bound in gate.get("within", {}).items():
            base, fresh = baseline_runs[key(run)][field], run[field]
            ratio = base / fresh if fresh > 0 else float("inf")
            print(f"{name} within {label(run)}: {field} {base}/{fresh} = {ratio:.2f}")
            if ratio > bound:
                failures.append(
                    f"{name} smoke {label(run)}: {field} baseline/smoke = "
                    f"{ratio:.2f}, not within {bound}"
                )
    return failures


def gate(root: Path = REPO_ROOT) -> int:
    """Check every committed report under ``root``; 0 when all bars hold."""
    reports = sorted(
        path
        for path in root.glob("BENCH_*.json")
        if not path.name.endswith(".smoke.json")
    )
    failures = [] if reports else [f"no BENCH_<name>.json in {root}"]
    for path in reports:
        failures += check_report(path)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"bench gate: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"bench gate: every bar of {len(reports)} reports held")
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python benchmarks/check_bench_regression.py")
    raise SystemExit(gate())
