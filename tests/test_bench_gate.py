"""The bench regression gate (``benchmarks/check_bench_regression.py``).

Each case copies the committed ``BENCH_<name>.json`` reports into a
scratch root, derives a passing smoke report from each gated report's
own runs, then breaks one thing and calls ``gate(root)``.  The bar
cases pin every committed bar's value from both sides: a run exactly
at the bar passes, a run just past it fails with a message naming its
report and field.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
COMMITTED = sorted(
    path
    for path in ROOT.glob("BENCH_*.json")
    if not path.name.endswith(".smoke.json")
)
SCRIPTS = {
    "async": "bench_async",
    "backend": "bench_backend_speedup",
    "obs": "bench_obs",
    "resilience": "bench_resilience",
    "server": "bench_server",
    "sharded": "bench_sharded",
    "store": "bench_store",
    "transport": "bench_transport",
    "views": "bench_views",
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


checker = _load("check_bench_regression", BENCHMARKS / "check_bench_regression.py")


def _read(root: Path, name: str) -> dict:
    return json.loads((root / name).read_text())


def _write(root: Path, name: str, report: dict) -> None:
    (root / name).write_text(json.dumps(report, indent=2) + "\n")


def _edit(root: Path, name: str, change) -> None:
    report = _read(root, name)
    change(report)
    _write(root, name, report)


@pytest.fixture
def root(tmp_path):
    """The committed reports, each gated one with a smoke report made of
    its own runs."""
    for path in COMMITTED:
        report = json.loads(path.read_text())
        _write(tmp_path, path.name, report)
        if report["gate"] is not None:
            _write(
                tmp_path,
                path.name.replace(".json", ".smoke.json"),
                {**report, "smoke": True},
            )
    return tmp_path


def _fails(root: Path, capsys, *names: str) -> str:
    assert checker.gate(root) == 1
    err = capsys.readouterr().err
    for name in names:
        assert name in err
    return err


def _passes(root: Path, capsys) -> None:
    status = checker.gate(root)
    assert status == 0, capsys.readouterr().err


def test_committed_baselines_with_derived_smoke_reports_pass(root, capsys):
    _passes(root, capsys)
    assert "BENCH_sharded.json: ungated" in capsys.readouterr().out


def test_every_committed_report_round_trips_and_carries_a_gate():
    for path in COMMITTED:
        text = path.read_text()
        report = json.loads(text)
        assert json.dumps(report, indent=2) + "\n" == text
        assert "gate" in report and report["smoke"] is False


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_gate_matches_the_committed_block(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    script = _load(SCRIPTS[name], BENCHMARKS / f"{SCRIPTS[name]}.py")
    assert script.OUTPUT.name == f"BENCH_{name}.json"
    committed = json.loads(script.OUTPUT.read_text())["gate"]
    assert json.loads(json.dumps(script.GATE)) == committed


def _probe_run(root: Path, report: str, arm: str, field: str, value) -> None:
    """Add one run with a key no other run has, so only the per-run
    bars (not ``within``) see it."""
    name = f"BENCH_{report}.json"
    if arm == "smoke":
        name = name.replace(".json", ".smoke.json")

    def change(doc):
        run = dict(doc["runs"][0])
        run[_read(root, f"BENCH_{report}.json")["gate"]["key"][-1]] = "probe"
        run[field] = value
        doc["runs"].append(run)

    _edit(root, name, change)


# (report, arm, field, bar, kind): a "min" bar holds value >= bar, a
# "max" bar value <= bar
PER_RUN_BARS = [
    ("async", "baseline", "speedup", 2.0, "min"),
    ("async", "smoke", "speedup", 1.2, "min"),
    ("transport", "baseline", "speedup", 2.0, "min"),
    ("transport", "smoke", "speedup", 1.2, "min"),
    ("resilience", "baseline", "speedup", 1.5, "min"),
    ("resilience", "smoke", "speedup", 1.2, "min"),
    ("server", "baseline", "speedup", 1.5, "min"),
    ("server", "smoke", "speedup", 1.2, "min"),
    ("views", "baseline", "speedup", 5.0, "min"),
    ("views", "smoke", "speedup", 5.0, "min"),
    ("obs", "baseline", "disabled_overhead", 1.02, "max"),
    ("obs", "baseline", "enabled_overhead", 1.10, "max"),
    ("obs", "smoke", "disabled_overhead", 1.02 * 3.0, "max"),
    ("obs", "smoke", "enabled_overhead", 1.10 * 3.0, "max"),
]
BAR_IDS = [f"{r}-{a}-{f}" for r, a, f, _, _ in PER_RUN_BARS]


@pytest.mark.parametrize("report,arm,field,bar,kind", PER_RUN_BARS, ids=BAR_IDS)
def test_a_run_at_the_bar_passes(root, capsys, report, arm, field, bar, kind):
    _probe_run(root, report, arm, field, round(bar, 4))
    _passes(root, capsys)


@pytest.mark.parametrize("report,arm,field,bar,kind", PER_RUN_BARS, ids=BAR_IDS)
def test_a_run_past_the_bar_fails(root, capsys, report, arm, field, bar, kind):
    past = bar - 0.01 if kind == "min" else bar + 0.01
    _probe_run(root, report, arm, field, past)
    err = _fails(root, capsys, f"BENCH_{report}.json {arm}", field)
    assert "probe" in err


WITHIN = ["backend", "async", "transport", "resilience", "server", "views"]


def _smoke_at_ratio(root: Path, report: str, ratio: float) -> None:
    """Give the first shared run a baseline speedup of 10 and a smoke
    speedup ``ratio`` times lower."""
    name = f"BENCH_{report}.json"
    smoke = name.replace(".json", ".smoke.json")
    for path, value in ((name, 10.0), (smoke, 10.0 / ratio)):
        _edit(root, path, lambda doc: doc["runs"][0].update(speedup=value))


@pytest.mark.parametrize("report", WITHIN)
def test_smoke_within_two_x_of_the_baseline_passes(root, capsys, report):
    _smoke_at_ratio(root, report, 1.99)
    _passes(root, capsys)


@pytest.mark.parametrize("report", WITHIN)
def test_smoke_losing_more_than_two_x_fails(root, capsys, report):
    _smoke_at_ratio(root, report, 2.01)
    err = _fails(root, capsys, f"BENCH_{report}.json smoke", "speedup")
    assert "not within 2.0" in err


@pytest.mark.parametrize("report", WITHIN + ["obs"])
def test_a_smoke_grid_sharing_no_key_fails(root, capsys, report):
    smoke = f"BENCH_{report}.smoke.json"
    field = _read(root, f"BENCH_{report}.json")["gate"]["key"][0]

    def change(doc):
        for run in doc["runs"]:
            run[field] = "elsewhere"

    _edit(root, smoke, change)
    _fails(root, capsys, f"BENCH_{report}.json", "shares no")


def test_store_smoke_needs_no_overlap(root, capsys):
    def change(doc):
        for run in doc["runs"]:
            run["config"] = "elsewhere"

    _edit(root, "BENCH_store.smoke.json", change)
    _passes(root, capsys)


STORE_ARMS = {"baseline": "BENCH_store.json", "smoke": "BENCH_store.smoke.json"}


@pytest.mark.parametrize("arm", sorted(STORE_ARMS))
@pytest.mark.parametrize("field", ["ok", "results_match"])
def test_store_run_must_be_ok_and_exact(root, capsys, arm, field):
    _edit(root, STORE_ARMS[arm], lambda doc: doc["runs"][0].update({field: False}))
    _fails(root, capsys, f"BENCH_store.json {arm}", field)


@pytest.mark.parametrize("arm", sorted(STORE_ARMS))
@pytest.mark.parametrize(
    "field,budget,over",
    [
        ("resident_delta_bytes", "rss_budget_bytes", 1),
        ("query_seconds", "query_budget_seconds", 0.01),
    ],
)
def test_store_run_within_its_own_budgets(root, capsys, arm, field, budget, over):
    def at(extra):
        def change(doc):
            doc["runs"][0][field] = doc["runs"][0][budget] + extra

        return change

    _edit(root, STORE_ARMS[arm], at(0))
    _passes(root, capsys)
    _edit(root, STORE_ARMS[arm], at(over))
    _fails(root, capsys, f"BENCH_store.json {arm}", field, budget)


@pytest.mark.parametrize(
    "rows,headroom,held",
    [
        (10_000_000, 2.0, True),
        (9_999_999, 5.0, False),
        (10_000_000, 1.99, False),
    ],
)
def test_store_baseline_must_be_out_of_core_at_scale(
    root, capsys, rows, headroom, held
):
    _edit(
        root,
        "BENCH_store.json",
        lambda doc: doc["runs"][0].update(rows=rows, headroom=headroom),
    )
    if held:
        _passes(root, capsys)
    else:
        _fails(root, capsys, "BENCH_store.json", "any_min")


def test_a_missing_smoke_report_fails(root, capsys):
    (root / "BENCH_transport.smoke.json").unlink()
    _fails(root, capsys, "BENCH_transport.json", "no smoke report")


def test_the_baseline_copied_in_as_the_smoke_fails(root, capsys):
    _write(root, "BENCH_backend.smoke.json", _read(root, "BENCH_backend.json"))
    _fails(root, capsys, "BENCH_backend.smoke.json", '"smoke" must be true')


def test_a_committed_baseline_marked_smoke_fails(root, capsys):
    _edit(root, "BENCH_sharded.json", lambda doc: doc.update(smoke=True))
    _fails(root, capsys, "BENCH_sharded.json", '"smoke" must be false')


def test_a_report_without_a_gate_block_fails(root, capsys):
    _edit(root, "BENCH_sharded.json", lambda doc: doc.pop("gate"))
    _fails(root, capsys, "BENCH_sharded.json", "no gate block")


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda gate: gate.update(smoke_mn={"speedup": 1.2}), "rule 'smoke_mn'"),
        (lambda gate: gate.update(within={"speedup": 0.9}), "below 1.0"),
        (lambda gate: gate.update(min={"speedup": "fast"}), "lacks field 'fast'"),
        (lambda gate: gate.update(min={"speeed": 2.0}), "lacks field 'speeed'"),
        (lambda gate: gate.update(min={"speedup": [2.0]}), "is no number"),
        (lambda gate: gate.update(overlap="yes"), "overlap must be"),
        (lambda gate: gate.update(key=[]), "key must list"),
    ],
    ids=[
        "unknown-rule",
        "within-below-1",
        "bound-field-absent",
        "bar-field-absent",
        "bound-not-number",
        "overlap-not-bool",
        "empty-key",
    ],
)
def test_a_malformed_gate_block_fails(root, capsys, change, message):
    _edit(root, "BENCH_async.json", lambda doc: change(doc["gate"]))
    _fails(root, capsys, "BENCH_async.json", message)


def test_a_smoke_run_lacking_a_gated_field_fails(root, capsys):
    field = "enabled_overhead"
    _edit(root, "BENCH_obs.smoke.json", lambda doc: doc["runs"][0].pop(field))
    _fails(root, capsys, "BENCH_obs.json", f"smoke run lacks field {field!r}")


def test_bars_come_from_the_committed_report_not_the_smoke(root, capsys):
    def loosen(doc):
        doc["gate"]["smoke_min"] = {"speedup": 0.0}
        doc["gate"]["within"] = {"speedup": 100.0}
        doc["runs"][0]["speedup"] = 1.0

    _edit(root, "BENCH_server.smoke.json", loosen)
    err = _fails(root, capsys, "BENCH_server.json smoke", "speedup")
    assert "not >= 1.2" in err and "not within 2.0" in err


def test_write_report_stamps_the_gate_first(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    util = _load("_util", BENCHMARKS / "_util.py")
    output = tmp_path / "BENCH_x.json"
    gate = {"key": ["config"], "min": {"speedup": 2.0}}
    args = argparse.Namespace(smoke=True, output=None)
    assert util.write_report({"smoke": True, "runs": []}, args, output, gate) == 0
    written = (tmp_path / "BENCH_x.smoke.json").read_text()
    assert list(json.loads(written)) == ["gate", "smoke", "runs"]
    assert json.loads(written)["gate"] == gate
    assert not output.exists()
