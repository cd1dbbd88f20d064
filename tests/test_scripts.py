"""Smoke runs of the experiment scripts at one seed and one restart."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, summary",
    [
        ("run_synthetic_comparison", "median MAPE over seeds:"),
        ("run_granularity_study", "finer twin has lower average variance in"),
    ],
)
def test_script_runs_and_prints_its_summary(capsys, name, summary):
    assert load_script(name).main(["--seeds", "1", "--restarts", "1"]) == 0
    assert summary in capsys.readouterr().out


def test_search_threads_prints_its_table_and_puts_the_constant_back(capsys):
    # two sizes: every kind of fit at 120 regions, and a dense auxiliary at 12
    from finescale import numerics

    least = numerics.THREAD_MIN_FLOPS
    assert load_script("search_threads").main(["--regions", "12", "120", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith(("dense ", "lattice "))]
    assert len(rows) == 5 and "of 5 fits" in out.splitlines()[-1]
    assert numerics.THREAD_MIN_FLOPS == least
