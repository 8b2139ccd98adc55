"""Bench regression gate: compare a smoke run's speedups against the
committed full-run baselines.

Backend gate: the smoke run (``bench_backend_speedup.py --smoke``)
times the scalar and columnar backends on (algorithm, N, m)
configurations that also appear in the committed
``BENCH_backend.json``.  Speedup (scalar seconds / columnar seconds)
is a within-machine ratio, so it is comparable across hardware where
absolute seconds are not.  For every configuration present in both
files the gate requires::

    baseline_speedup / smoke_speedup <= tolerance

i.e. the columnar engine may not have lost more than ``tolerance``x of
its relative advantage (default 2.0).  Exits non-zero, listing the
offending configurations, when any check fails -- or when the files
share no configurations at all (a miswired grid should fail loudly,
not pass silently).

Async gate (``--async-smoke``): the committed ``BENCH_async.json``
must show >= ``--async-min-speedup`` (default 2.0) overlap speedup on
every run -- the subsystem's acceptance bar -- and the smoke run
(``bench_async.py --smoke``) is held to the same ratio rule against
the committed speedups on shared (part, config) keys, with an absolute
floor of ``--async-floor`` (default 1.2; CI runners are noisy but
overlap must still visibly win).

Resilience gate (``--resilience-baseline``): same schema and rules
again for ``BENCH_resilience.json`` (``bench_resilience.py``) with its
own acceptance bar of >= ``--resilience-min-speedup`` (default 1.5):
hedging must beat the injected tail latency at p99 and transparent
failover must beat the naive restart-from-scratch client.

Server gate (``--server-baseline``): same schema and rules once more
for ``BENCH_server.json`` (``bench_server.py``) with an acceptance bar
of >= ``--server-min-speedup`` (default 1.5): the query service's
shared scan cache must beat per-query private sessions by at least
1.5x throughput on every committed overlapping-workload
configuration.

Observability gate (``--obs-baseline``): different semantics -- the
``BENCH_obs.json`` runs (``bench_obs.py``) report *overhead ratios*
(instrumented seconds / uninstrumented seconds), not speedups.  The
committed baseline must hold ``disabled_overhead`` <=
``--obs-max-disabled-overhead`` (default 1.02: the switched-off plane
may cost at most 2%) and ``enabled_overhead`` <=
``--obs-max-enabled-overhead`` (default 1.10: a live probe plus
per-query metric emission may cost at most 10%) on every run; a smoke
run is held to the same bounds times ``--obs-smoke-slack`` (default
3.0), because CI boxes make sub-millisecond ratios noisy.

Store gate (``--store-baseline``): ceiling semantics for
``BENCH_store.json`` (``bench_store.py``).  Every run must have kept
its query phase's resident-set growth within its own recorded
``rss_budget_bytes`` and its query time within its own recorded
``query_budget_seconds`` (the bench also asserts both in-process),
with results bit-identical to the in-RAM reference; the committed
baseline must additionally prove genuine out-of-core scale: >=
``--store-min-rows`` rows (default 10M) and ``headroom`` (store bytes
/ resident delta) >= ``--store-min-headroom`` (default 2.0) on at
least one run.  A smoke run (``--store-smoke``) is held only to its
own recorded budgets -- CI cannot rebuild a ~1 GiB dataset, so there
is deliberately no overlap requirement with the committed grid.

Run::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_backend.json \
        --smoke BENCH_backend.smoke.json \
        --async-baseline BENCH_async.json \
        --async-smoke BENCH_async.smoke.json \
        --resilience-baseline BENCH_resilience.json \
        --resilience-smoke BENCH_resilience.smoke.json \
        --server-baseline BENCH_server.json \
        --server-smoke BENCH_server.smoke.json \
        --tolerance 2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _runs_by_config(report: dict) -> dict[tuple, dict]:
    return {
        (run["algorithm"], run["N"], run["m"]): run
        for run in report["runs"]
    }


def check(baseline_path: Path, smoke_path: Path, tolerance: float) -> int:
    baseline = _runs_by_config(json.loads(baseline_path.read_text()))
    smoke = _runs_by_config(json.loads(smoke_path.read_text()))
    shared = sorted(set(baseline) & set(smoke))
    if not shared:
        print(
            "bench regression gate: no (algorithm, N, m) configuration is "
            f"shared between {baseline_path} and {smoke_path}; the smoke "
            "grid must overlap the committed grid",
            file=sys.stderr,
        )
        return 2
    failures = []
    for key in shared:
        algorithm, n, m = key
        base_speedup = baseline[key]["speedup"]
        smoke_speedup = smoke[key]["speedup"]
        ratio = (
            base_speedup / smoke_speedup
            if smoke_speedup > 0
            else float("inf")
        )
        verdict = "ok" if ratio <= tolerance else "FAIL"
        print(
            f"{algorithm:13s} N={n:>7d} m={m}: baseline {base_speedup:6.2f}x "
            f"smoke {smoke_speedup:6.2f}x  ratio={ratio:5.2f} "
            f"(tolerance {tolerance:g})  {verdict}"
        )
        if ratio > tolerance:
            failures.append(key)
    if failures:
        print(
            f"bench regression gate: {len(failures)} configuration(s) lost "
            f"more than {tolerance:g}x of their columnar speedup: "
            + ", ".join(
                f"{a} (N={n}, m={m})" for a, n, m in failures
            ),
            file=sys.stderr,
        )
        return 1
    print(
        f"bench regression gate: all {len(shared)} shared configurations "
        f"within {tolerance:g}x of the committed baseline"
    )
    return 0


def _async_runs_by_key(report: dict) -> dict[tuple, dict]:
    return {
        (run["part"], run["config"]): run for run in report["runs"]
    }


def check_async(
    baseline_path: Path,
    smoke_path: Path | None,
    tolerance: float,
    min_speedup: float,
    floor: float,
    label: str = "async",
) -> int:
    """Gate overlap speedups (shared by the async and transport
    benchmarks -- same report schema): the committed baseline must
    meet the subsystem's >= ``min_speedup`` acceptance bar, and a smoke
    run (when given) must stay within ``tolerance`` of the committed
    speedups on shared keys and above the absolute ``floor``."""
    baseline = _async_runs_by_key(json.loads(baseline_path.read_text()))
    failures = []
    for (part, config), run in sorted(baseline.items()):
        verdict = "ok" if run["speedup"] >= min_speedup else "FAIL"
        print(
            f"{label} baseline {part:8s} {config:30s} "
            f"speedup={run['speedup']:6.2f}x (>= {min_speedup:g} "
            f"required)  {verdict}"
        )
        if verdict == "FAIL":
            failures.append((part, config, "baseline below acceptance bar"))
    if smoke_path is not None:
        smoke = _async_runs_by_key(json.loads(smoke_path.read_text()))
        shared = sorted(set(baseline) & set(smoke))
        if not shared:
            print(
                f"{label} bench gate: no (part, config) shared between "
                f"{baseline_path} and {smoke_path}; the smoke grid must "
                "overlap the committed grid",
                file=sys.stderr,
            )
            return 2
        for key in shared:
            part, config = key
            base_speedup = baseline[key]["speedup"]
            smoke_speedup = smoke[key]["speedup"]
            ratio = (
                base_speedup / smoke_speedup
                if smoke_speedup > 0
                else float("inf")
            )
            ok = ratio <= tolerance and smoke_speedup >= floor
            print(
                f"{label} smoke    {part:8s} {config:30s} "
                f"baseline {base_speedup:6.2f}x smoke {smoke_speedup:6.2f}x "
                f"ratio={ratio:5.2f} floor={floor:g}  "
                f"{'ok' if ok else 'FAIL'}"
            )
            if not ok:
                failures.append((part, config, "smoke overlap regressed"))
    if failures:
        print(
            f"{label} bench gate: {len(failures)} failure(s): "
            + ", ".join(f"{p}/{c} ({why})" for p, c, why in failures),
            file=sys.stderr,
        )
        return 1
    print(f"{label} bench gate: all checks passed")
    return 0


def check_obs(
    baseline_path: Path,
    smoke_path: Path | None,
    max_disabled: float,
    max_enabled: float,
    smoke_slack: float,
) -> int:
    """Gate observability overhead ratios (``bench_obs.py``): every
    run -- committed baseline at full bounds, smoke run at the bounds
    times ``smoke_slack`` -- must keep the disabled plane's overhead
    under ``max_disabled`` and the enabled plane's under
    ``max_enabled``.  Lower is better; there is no speedup here, only
    a cost ceiling."""
    failures = []

    def _check_report(path: Path, arm_label: str, slack: float) -> dict:
        report = _async_runs_by_key(json.loads(path.read_text()))
        for (part, config), run in sorted(report.items()):
            disabled = run["disabled_overhead"]
            enabled = run["enabled_overhead"]
            disabled_ok = disabled <= max_disabled * slack
            enabled_ok = enabled <= max_enabled * slack
            print(
                f"obs {arm_label:8s} {part:8s} {config:22s} "
                f"disabled={disabled:6.3f}x "
                f"(<= {max_disabled * slack:.3f})  "
                f"enabled={enabled:6.3f}x "
                f"(<= {max_enabled * slack:.3f})  "
                f"{'ok' if disabled_ok and enabled_ok else 'FAIL'}"
            )
            if not disabled_ok:
                failures.append(
                    (part, config, f"{arm_label} disabled overhead")
                )
            if not enabled_ok:
                failures.append(
                    (part, config, f"{arm_label} enabled overhead")
                )
        return report

    baseline = _check_report(baseline_path, "baseline", 1.0)
    if smoke_path is not None:
        smoke = _async_runs_by_key(json.loads(smoke_path.read_text()))
        if not set(baseline) & set(smoke):
            print(
                "obs bench gate: no (part, config) shared between "
                f"{baseline_path} and {smoke_path}; the smoke grid must "
                "overlap the committed grid",
                file=sys.stderr,
            )
            return 2
        _check_report(smoke_path, "smoke", smoke_slack)
    if failures:
        print(
            f"obs bench gate: {len(failures)} failure(s): "
            + ", ".join(f"{p}/{c} ({why})" for p, c, why in failures),
            file=sys.stderr,
        )
        return 1
    print("obs bench gate: all overhead ceilings held")
    return 0


def check_store(
    baseline_path: Path,
    smoke_path: Path | None,
    min_rows: int,
    min_headroom: float,
) -> int:
    """Gate the out-of-core store reports (``bench_store.py``):
    residency and query-time ceilings, not speedups.  Every run
    (baseline and smoke) must have honoured its own recorded
    ``rss_budget_bytes`` and ``query_budget_seconds`` with
    bit-identical results; the committed baseline must additionally
    contain at least one genuinely out-of-core run (>= ``min_rows``
    rows with ``headroom`` >= ``min_headroom``)."""
    failures = []
    at_scale = False

    def _check_report(path: Path, arm_label: str):
        nonlocal at_scale
        report = json.loads(path.read_text())
        for run in report["runs"]:
            config = run["config"]
            delta = run["resident_delta_bytes"]
            budget = run["rss_budget_bytes"]
            seconds = run["query_seconds"]
            query_budget = run["query_budget_seconds"]
            ok = (
                run["ok"]
                and run["results_match"]
                and delta <= budget
                and seconds <= query_budget
            )
            print(
                f"store {arm_label:8s} {config:22s} "
                f"disk={run['store_bytes'] / 2**20:8.1f}MiB "
                f"resident-delta={delta / 2**20:7.1f}MiB "
                f"(<= {budget / 2**20:.0f}MiB)  "
                f"headroom={run['headroom']:8.2f}x  "
                f"queries={seconds:7.2f}s (<= {query_budget:g}s)  "
                f"{'ok' if ok else 'FAIL'}"
            )
            if not ok:
                failures.append(
                    (arm_label, config, "residency/time budget or results")
                )
            if (
                arm_label == "baseline"
                and run["rows"] >= min_rows
                and run["headroom"] >= min_headroom
            ):
                at_scale = True

    _check_report(baseline_path, "baseline")
    if smoke_path is not None:
        _check_report(smoke_path, "smoke")
    if not at_scale:
        failures.append(
            (
                "baseline",
                "-",
                f"no committed run with >= {min_rows:,} rows and "
                f"headroom >= {min_headroom:g}x (the out-of-core "
                "acceptance bar)",
            )
        )
    if failures:
        print(
            f"store bench gate: {len(failures)} failure(s): "
            + ", ".join(f"{a}/{c} ({why})" for a, c, why in failures),
            file=sys.stderr,
        )
        return 1
    print("store bench gate: all residency and query-time ceilings held")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_backend.json",
        help="committed full-run report (the reference speedups)",
    )
    parser.add_argument(
        "--smoke",
        type=Path,
        default=REPO_ROOT / "BENCH_backend.smoke.json",
        help="fresh smoke-run report to gate",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="maximum allowed baseline/smoke speedup ratio (default 2.0)",
    )
    parser.add_argument(
        "--async-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_async.json to gate (pass to enable the "
            "async checks)"
        ),
    )
    parser.add_argument(
        "--async-smoke",
        type=Path,
        default=None,
        help="fresh bench_async.py --smoke report to gate",
    )
    parser.add_argument(
        "--async-min-speedup",
        type=float,
        default=2.0,
        help=(
            "minimum overlap speedup every committed async run must "
            "show (default 2.0, the subsystem's acceptance bar)"
        ),
    )
    parser.add_argument(
        "--async-floor",
        type=float,
        default=1.2,
        help="absolute minimum smoke overlap speedup (default 1.2)",
    )
    parser.add_argument(
        "--transport-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_transport.json to gate (pass to enable "
            "the real-transport checks; same schema and rules as the "
            "async gate)"
        ),
    )
    parser.add_argument(
        "--transport-smoke",
        type=Path,
        default=None,
        help="fresh bench_transport.py --smoke report to gate",
    )
    parser.add_argument(
        "--transport-min-speedup",
        type=float,
        default=2.0,
        help=(
            "minimum overlap speedup every committed transport run "
            "must show (default 2.0: the overlapped network session "
            "must hold >= 2x vs sequential round-robin at loopback)"
        ),
    )
    parser.add_argument(
        "--transport-floor",
        type=float,
        default=1.2,
        help=(
            "absolute minimum transport smoke overlap speedup "
            "(default 1.2)"
        ),
    )
    parser.add_argument(
        "--resilience-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_resilience.json to gate (pass to enable "
            "the resilience checks; same schema and rules as the "
            "async gate)"
        ),
    )
    parser.add_argument(
        "--resilience-smoke",
        type=Path,
        default=None,
        help="fresh bench_resilience.py --smoke report to gate",
    )
    parser.add_argument(
        "--resilience-min-speedup",
        type=float,
        default=1.5,
        help=(
            "minimum speedup every committed resilience run must show "
            "(default 1.5: hedging must improve p99 sorted-access "
            "latency and failover must beat the naive restart by at "
            "least 1.5x)"
        ),
    )
    parser.add_argument(
        "--resilience-floor",
        type=float,
        default=1.2,
        help=(
            "absolute minimum resilience smoke speedup (default 1.2)"
        ),
    )
    parser.add_argument(
        "--server-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_server.json to gate (pass to enable the "
            "query-service scan-sharing checks; same schema and rules "
            "as the async gate)"
        ),
    )
    parser.add_argument(
        "--server-smoke",
        type=Path,
        default=None,
        help="fresh bench_server.py --smoke report to gate",
    )
    parser.add_argument(
        "--server-min-speedup",
        type=float,
        default=1.5,
        help=(
            "minimum scan-sharing speedup every committed server run "
            "must show (default 1.5: the shared scan cache must beat "
            "per-query private sessions by at least 1.5x throughput on "
            "overlapping workloads)"
        ),
    )
    parser.add_argument(
        "--server-floor",
        type=float,
        default=1.2,
        help="absolute minimum server smoke speedup (default 1.2)",
    )
    parser.add_argument(
        "--views-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_views.json to gate (pass to enable the "
            "live-view maintenance checks; same schema and rules as "
            "the async gate)"
        ),
    )
    parser.add_argument(
        "--views-smoke",
        type=Path,
        default=None,
        help="fresh bench_views.py --smoke report to gate",
    )
    parser.add_argument(
        "--views-min-speedup",
        type=float,
        default=5.0,
        help=(
            "minimum incremental-maintenance speedup every committed "
            "views run must show (default 5.0: certificate-screened "
            "live views must beat recompute-per-mutation by at least "
            "5x on the mostly-below-window stream)"
        ),
    )
    parser.add_argument(
        "--views-floor",
        type=float,
        default=5.0,
        help="absolute minimum views smoke speedup (default 5.0)",
    )
    parser.add_argument(
        "--store-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_store.json to gate (pass to enable the "
            "out-of-core store checks; residency-ceiling semantics, "
            "not speedups)"
        ),
    )
    parser.add_argument(
        "--store-smoke",
        type=Path,
        default=None,
        help="fresh bench_store.py --smoke report to gate",
    )
    parser.add_argument(
        "--store-min-rows",
        type=int,
        default=10_000_000,
        help=(
            "minimum row count the committed store baseline must have "
            "queried out-of-core (default 10M, the subsystem's "
            "acceptance bar)"
        ),
    )
    parser.add_argument(
        "--store-min-headroom",
        type=float,
        default=2.0,
        help=(
            "minimum store-bytes / resident-delta ratio the committed "
            "at-scale run must show (default 2.0: the dataset must be "
            "at least twice what querying it kept resident)"
        ),
    )
    parser.add_argument(
        "--obs-baseline",
        type=Path,
        default=None,
        help=(
            "committed BENCH_obs.json to gate (pass to enable the "
            "observability overhead checks; overhead-ceiling "
            "semantics, not speedups)"
        ),
    )
    parser.add_argument(
        "--obs-smoke",
        type=Path,
        default=None,
        help="fresh bench_obs.py --smoke report to gate",
    )
    parser.add_argument(
        "--obs-max-disabled-overhead",
        type=float,
        default=1.02,
        help=(
            "maximum seconds ratio for the disabled observability "
            "plane vs the uninstrumented baseline (default 1.02: off "
            "must cost <= 2%%)"
        ),
    )
    parser.add_argument(
        "--obs-max-enabled-overhead",
        type=float,
        default=1.10,
        help=(
            "maximum seconds ratio for the enabled observability "
            "plane vs the uninstrumented baseline (default 1.10: a "
            "live probe plus metric emission must cost <= 10%%)"
        ),
    )
    parser.add_argument(
        "--obs-smoke-slack",
        type=float,
        default=3.0,
        help=(
            "multiplier applied to both obs overhead ceilings for the "
            "smoke run (default 3.0: CI timing of sub-millisecond "
            "runs is noisy; the committed baseline holds the real bar)"
        ),
    )
    args = parser.parse_args()
    if args.tolerance < 1.0:
        parser.error(f"tolerance must be >= 1.0, got {args.tolerance}")
    if args.async_smoke is not None and args.async_baseline is None:
        # fail loudly: a smoke file without a baseline would otherwise
        # skip the async gate silently
        parser.error("--async-smoke requires --async-baseline")
    if args.transport_smoke is not None and args.transport_baseline is None:
        parser.error("--transport-smoke requires --transport-baseline")
    if args.resilience_smoke is not None and args.resilience_baseline is None:
        parser.error("--resilience-smoke requires --resilience-baseline")
    if args.server_smoke is not None and args.server_baseline is None:
        parser.error("--server-smoke requires --server-baseline")
    if args.views_smoke is not None and args.views_baseline is None:
        parser.error("--views-smoke requires --views-baseline")
    if args.store_smoke is not None and args.store_baseline is None:
        parser.error("--store-smoke requires --store-baseline")
    if args.obs_smoke is not None and args.obs_baseline is None:
        parser.error("--obs-smoke requires --obs-baseline")
    status = check(args.baseline, args.smoke, args.tolerance)
    if args.async_baseline is not None:
        async_status = check_async(
            args.async_baseline,
            args.async_smoke,
            args.tolerance,
            args.async_min_speedup,
            args.async_floor,
        )
        status = status or async_status
    if args.transport_baseline is not None:
        transport_status = check_async(
            args.transport_baseline,
            args.transport_smoke,
            args.tolerance,
            args.transport_min_speedup,
            args.transport_floor,
            label="transport",
        )
        status = status or transport_status
    if args.resilience_baseline is not None:
        resilience_status = check_async(
            args.resilience_baseline,
            args.resilience_smoke,
            args.tolerance,
            args.resilience_min_speedup,
            args.resilience_floor,
            label="resilience",
        )
        status = status or resilience_status
    if args.server_baseline is not None:
        server_status = check_async(
            args.server_baseline,
            args.server_smoke,
            args.tolerance,
            args.server_min_speedup,
            args.server_floor,
            label="server",
        )
        status = status or server_status
    if args.views_baseline is not None:
        views_status = check_async(
            args.views_baseline,
            args.views_smoke,
            args.tolerance,
            args.views_min_speedup,
            args.views_floor,
            label="views",
        )
        status = status or views_status
    if args.store_baseline is not None:
        store_status = check_store(
            args.store_baseline,
            args.store_smoke,
            args.store_min_rows,
            args.store_min_headroom,
        )
        status = status or store_status
    if args.obs_baseline is not None:
        obs_status = check_obs(
            args.obs_baseline,
            args.obs_smoke,
            args.obs_max_disabled_overhead,
            args.obs_max_enabled_overhead,
            args.obs_smoke_slack,
        )
        status = status or obs_status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
