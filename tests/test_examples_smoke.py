"""Smoke tests: every example script runs to completion and prints what
it promises.  Examples are executed in-process with a trimmed __main__
environment so failures give real tracebacks."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs(name, capsys):
    out = run_example(name, capsys)
    assert out.strip(), f"{name} printed nothing"


def test_expected_example_set_present():
    assert {
        "quickstart.py",
        "multimedia_search.py",
        "restaurant_search.py",
        "web_metasearch.py",
        "broadcast_scheduler.py",
        "approximate_search.py",
    } <= set(ALL_EXAMPLES)


def test_quickstart_mentions_costs(capsys):
    out = run_example("quickstart.py", capsys)
    assert "TA paid" in out
    assert "cost" in out


def test_restaurant_example_shows_pathology(capsys):
    out = run_example("restaurant_search.py", capsys)
    assert "Example 7.3" in out
    assert "exhausted" in out


def test_metasearch_reports_bounds_contract(capsys):
    out = run_example("web_metasearch.py", capsys)
    assert "0 random accesses" in out


def test_cli_module_runs(capsys):
    from repro.__main__ import main

    assert main(["repro", "500", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in out
    assert "TA" in out


@pytest.mark.parametrize(
    "args", [["foo"], ["0"], ["10", "2", "50"]], ids=["not-int", "N0", "k>N"]
)
def test_cli_module_rejects_bad_arguments(capsys, args):
    from repro.__main__ import main

    assert main(["repro", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: python -m repro")


def test_cli_module_survives_a_closed_pipe():
    """``python -m repro ... | head -1``: the reader closes after one
    line and the CLI exits without a traceback."""
    env = dict(
        os.environ,
        PYTHONPATH=str(EXAMPLES.parent / "src"),
        PYTHONUNBUFFERED="1",  # each print reaches the pipe at once
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "2000", "2", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline().startswith(b"top-3")
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    child.wait(timeout=60)
    assert "Traceback" not in stderr
