"""Smoke test of the benchmark harness on a tiny bundle (6x5 fine regions)."""

import dataclasses
import json

import bench
import pytest

TINY = bench.Workload("tiny", fine=(6, 5), coarse=(3, 5), aux=((3, 5), (6, 5)),
                      weights=(1.0, -0.5), restarts=1)


def assert_metrics(result, expected):
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("fits", [True, False])
def test_untraced_run_prints_every_end_to_end_metric(tmp_path, capsys, fits):
    wl = dataclasses.replace(TINY, fits=fits)
    result = bench.run(wl, seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, bench.END_TO_END)
    out = capsys.readouterr().out
    for name, unit in bench.END_TO_END.items():
        assert f"{name}: median " in out and f" {unit}, " in out


def test_traced_run_prints_every_per_layer_metric(tmp_path, capsys):
    result = bench.run(TINY, seed=0, seconds=0, trace=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, bench.PER_LAYER)
    out = capsys.readouterr().out
    for name, unit in {**bench.PER_LAYER, **bench.FIT_ONLY_LAYER}.items():
        assert f"{name}: " in out and out.split(f"{name}: ")[1].split("\n")[0].endswith(unit)


def test_corrupted_refinement_counts_as_failure(tmp_path, monkeypatch):
    real_run_child = bench.run_child

    def corrupting_run_child(argv, log):
        result = real_run_child(argv, log)
        if "refine" in argv:
            csv_path = tmp_path / "run_cli" / "refinement.csv"
            lines = csv_path.read_text().splitlines()
            csv_path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last region
        return result

    monkeypatch.setattr(bench, "run_child", corrupting_run_child)
    result = bench.run(TINY, seed=0, seconds=0, trace=True, workdir=tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
