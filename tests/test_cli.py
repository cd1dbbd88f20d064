import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import finescale
from conftest import BLAS_THREAD_VARS, save_aggregation_csv
from test_downscale import dense_predict_fine
from finescale import downscale, evaluate, gp_aux, lattice
from finescale.baselines import gpr_baseline
from finescale.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from finescale.downscale import DownscaleParams, build_design
from finescale.evaluate import grid_partition
from finescale.geo import Region, build_aggregation, load_dataset, load_partition
from finescale.gp_aux import AuxGPModel, fit_aux_gp, predict_aux
from finescale.kernel import SEKernelParams
from finescale.render import N_RAMP_STEPS, choropleth_svg


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing any scipy module costs start-up time: numerics opens scipy's LAPACK
    # through ctypes, only eval's t-test needs scipy.special, and fit and refine use
    # none of the comparison layer; a search's threads are plain threading.Threads,
    # so nothing loads concurrent.futures or its logging, and the SVG is written
    # without ElementTree; the lattice paths are compiled by the commands that run them
    src = str(Path(finescale.__file__).parents[1])
    unloaded = (
        "finescale.evaluate", "finescale.baselines", "finescale.lattice",
        "concurrent.futures", "logging", "xml.etree.ElementTree",
    )
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import finescale.cli; "
        f"print([m for m in sys.modules if m in {unloaded!r} or m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fit_and_refine_load_only_what_they_run(synth_dir, tmp_path):
    # relative to what `import numpy` loads: refine loads no OpenSSL (hashlib's
    # _hashlib) and neither command numpy.ma (np.median, np.unique); fit loads
    # no concurrent.futures and its logging. fit still loads OpenSSL through
    # numpy.random's secrets. Both load finescale.lattice: the second step
    # detects a fine lattice in both.
    src = str(Path(finescale.__file__).parents[1])
    out = tmp_path / "out"
    for command, unloaded in (
        ("fit", {"numpy.ma", "concurrent.futures", "logging"}),
        ("refine", {"_hashlib", "numpy.ma"}),
    ):
        argv = [command, *common_args(synth_dir, out)]
        if command == "refine":
            argv += ["--models", str(out / "models.json")]
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import numpy; before = set(sys.modules); "
            f"from finescale.cli import main; assert main({argv!r}) == 0; "
            "print(sorted(set(sys.modules) - before))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        added = set(ast.literal_eval(run.stdout.splitlines()[-1]))
        assert "finescale.cli" in added and not added & unloaded, added & unloaded


def test_ramp_endpoints_distinct():
    svg = choropleth_svg(grid_partition(3, 1, "g"), np.array([0.0, 0.5, 1.0]))
    fills = [e.get("fill") for e in ET.fromstring(svg).iter() if e.tag.endswith("path")]
    assert len(set(fills)) == 3
    assert fills == [ramp_color(0.0), ramp_color(0.5), ramp_color(1.0)]


def test_svg_well_formed_one_path_per_region():
    part = grid_partition(3, 2, "g")
    svg = choropleth_svg(part, np.arange(6, dtype=float))
    root = ET.fromstring(svg)  # raises on malformed XML
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) == 6
    assert sorted(p.get("id") for p in paths) == sorted(part.ids)


def test_svg_constant_values_identical_fills():
    part = grid_partition(2, 2, "g")
    svg = choropleth_svg(part, np.full(4, 1.5))
    root = ET.fromstring(svg)
    fills = {e.get("fill") for e in root.iter() if e.tag.endswith("path")}
    assert len(fills) == 1


def test_svg_binary_values_hit_ramp_endpoints():
    part = grid_partition(2, 1, "g")
    svg = choropleth_svg(part, np.array([0.0, 1.0]))
    root = ET.fromstring(svg)
    fills = [e.get("fill") for e in root.iter() if e.tag.endswith("path")]
    assert set(fills) == {ramp_color(0.0), ramp_color(1.0)}


# The renderer that made one ramp_color call and one transform per region and
# ring, kept as the oracle for the array passes of choropleth_svg.
def ramp_color(t: float) -> str:
    """Hex color at normalized position t in [0, 1], quantized to 256 steps."""
    step = min(int(np.clip(t, 0.0, 1.0) * N_RAMP_STEPS), N_RAMP_STEPS - 1)
    u = step / (N_RAMP_STEPS - 1)
    light, dark = np.array([239, 243, 255]), np.array([8, 48, 107])
    rgb = np.round(light + u * (dark - light)).astype(int)
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def loop_choropleth_svg(partition, values, width: int = 640) -> str:
    values = np.asarray(values, dtype=float)
    lo, hi = float(values.min()), float(values.max())
    norm = np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)
    vertices = np.concatenate(
        [ring for r in partition.regions for rings in r.geometry for ring in rings]
    )
    (x0, y0), (x1, y1) = vertices.min(axis=0).tolist(), vertices.max(axis=0).tolist()
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    height = int(round(width * span_y / span_x))
    sx = width / span_x
    sy = -height / span_y
    scale, shift = np.array([sx, sy]), np.array([-x0 * sx, height - y0 * sy])

    def path_d(geometry) -> str:
        parts = []
        for rings in geometry:
            for ring in rings:
                pts = [f"{x:.4f},{y:.4f}" for x, y in (ring * scale + shift).tolist()]
                parts.append("M" + " L".join(pts) + " Z")
        return " ".join(parts)

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg", "version": "1.1", "width": str(width),
        "height": str(height), "viewBox": f"0 0 {width} {height}",
    })
    for region, t in zip(partition.regions, norm):
        ET.SubElement(svg, "path", {
            "id": region.id, "d": path_d(region.geometry), "fill": ramp_color(float(t)),
            "stroke": "#ffffff", "stroke-width": "0.5",
        })
    return ET.tostring(svg, encoding="unicode", xml_declaration=True)


def holes_and_multipolygons() -> finescale.Partition:
    hole = [[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]
    square = [[0, 0], [2, 0], [2, 2], [0, 2]]
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": "H"},
         "geometry": {"type": "Polygon", "coordinates": [square, hole]}},
        {"type": "Feature", "properties": {"id": "M"},
         "geometry": {"type": "MultiPolygon", "coordinates": [
             [[[4, 0], [5, 0], [5, 1], [4, 0]]],
             [[[6, 0], [8, 0], [8, 2], [6, 2]], [[x + 6, y] for x, y in hole]]]}},
        {"type": "Feature", "properties": {"id": "S"},
         "geometry": {"type": "Polygon", "coordinates": [[[0, 3], [3, 3], [3, 4.5], [0, 4]]]}},
    ]}
    return load_partition(doc)


def test_svg_is_the_per_region_renderer_byte_for_byte():
    rng = np.random.default_rng(0)
    grid = grid_partition(40, 30, "g")
    cases = [
        (grid, rng.normal(size=1200)),
        (grid, np.round(rng.normal(size=1200), 1)),  # repeated values
        (holes_and_multipolygons(), np.array([2.0, -1.0, 0.25])),
        (holes_and_multipolygons(), np.full(3, 7.0)),
    ]
    for part, values in cases:
        assert choropleth_svg(part, values) == loop_choropleth_svg(part, values)
    # every step of the ramp, each color made in one array pass
    ramp = np.arange(256.0)
    assert choropleth_svg(grid, np.resize(ramp, 1200)) == loop_choropleth_svg(
        grid, np.resize(ramp, 1200)
    )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            choropleth_svg(grid, np.where(np.arange(1200) == 7, bad, 0.0))


def test_svg_escapes_region_ids_as_elementtree_does():
    grid = grid_partition(3, 3, "g")
    ids = ["a&b", "<x>", 'say "hi"', "cr\rlf\n", "tab\tend", "é漢字", "&amp;", "it's", "]]>"]
    regions = tuple(Region(rid, r.geometry) for rid, r in zip(ids, grid.regions))
    part = finescale.Partition("odd", regions, grid.centroids)
    svg = choropleth_svg(part, np.arange(9, dtype=float))
    assert svg == loop_choropleth_svg(part, np.arange(9, dtype=float))
    paths = [e for e in ET.fromstring(svg).iter() if e.tag.endswith("path")]
    assert [p.get("id") for p in paths] == ids


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            "3",
            "--fine-grid",
            "6",
            "5",
            "--coarse-grid",
            "3",
            "5",
            "--aux-grid",
            "3",
            "5",
            "--aux-grid",
            "6",
            "5",
            "--weights",
            "1.0",
            "-0.5",
        ]
    )
    assert code == EXIT_OK
    return out


def common_args(synth_dir, out):
    return [
        "--target",
        f"{synth_dir / 'coarse.geojson'},{synth_dir / 'target.csv'}",
        "--fine",
        str(synth_dir / "fine.geojson"),
        "--aux-manifest",
        str(synth_dir / "aux_manifest.json"),
        "--out",
        str(out),
        "--restarts",
        "2",
    ]


def copy_bundle(synth_dir, dest):
    dest.mkdir()
    for src in synth_dir.iterdir():
        (dest / src.name).write_bytes(src.read_bytes())
    return dest


def write_hmatrix(synth_dir, path):
    amap = build_aggregation(
        load_partition(synth_dir / "coarse.geojson"), load_partition(synth_dir / "fine.geojson")
    )
    save_aggregation_csv(amap, path)
    return path


def test_synth_bundle_contents(synth_dir):
    for name in (
        "coarse.geojson",
        "fine.geojson",
        "target.csv",
        "truth.csv",
        "aux_manifest.json",
        "generating_params.json",
    ):
        assert (synth_dir / name).exists(), name
    manifest = json.loads((synth_dir / "aux_manifest.json").read_text())
    assert len(manifest) == 2
    assert all(set(e) == {"id", "geojson", "csv"} for e in manifest)


def test_fit_then_refine_round_trip(synth_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
    models = json.loads((out / "models.json").read_text())
    assert len(models["aux_models"]) == 2
    assert "downscale" in models and "w" in models["downscale"]
    assert (out / "manifest.json").exists()

    assert main(["refine", *common_args(synth_dir, out), "--covariance"]) == EXIT_OK
    csv_text = (out / "refinement.csv").read_text()
    assert csv_text.splitlines()[0] == "region_id,mean,variance"
    assert len(csv_text.splitlines()) == 31  # header + 30 fine regions
    assert (out / "refinement_cov.csv").exists()
    ET.fromstring((out / "refinement.svg").read_text())


@pytest.mark.parametrize(
    "aux_grids, grams",
    [
        ((), [None, [8, 5], [12, 10]]),
        (((8, 5), (5, 1)), [[8, 5], None]),
    ],
    ids=["default-auxiliaries", "one-row-auxiliary"],
)
def test_models_json_records_the_gram_each_auxiliary_fit_searched(tmp_path, aux_grids, grams):
    # grids loaded from GeoJSON sit off their lattice by rounding, within the
    # snap tolerance: they take the lattice path, and a 1-row grid and the 4 x 3
    # one, below lattice.MIN_POINTS, the dense one
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    argv = ["synth", "--out", str(bundle), "--seed", "1", "--fine-grid", "6", "5",
            "--coarse-grid", "3", "5"]
    for shape in aux_grids:
        argv += ["--aux-grid", *map(str, shape)]
    if aux_grids:
        argv += ["--weights", "1.0", "-0.5"]
    assert main(argv) == EXIT_OK
    assert main(["fit", *common_args(bundle, out)]) == EXIT_OK
    models = json.loads((out / "models.json").read_text())["aux_models"]
    for model, shape in zip(models, grams, strict=True):
        gram = model["diagnostics"]["gram"]
        if shape is None:
            assert gram == {"path": "dense"}
            continue
        assert gram["path"] == "lattice" and gram["shape"] == shape
        assert 0.0 <= gram["max_snap"] <= lattice.SNAP_REL / min(shape)


def jitter_fine_regions(bundle, seed: int = 0) -> None:
    """Move each fine region of the bundle by its own offset of up to 1e-3, a
    hundredth of a cell or less: the fine centroids then form no lattice."""
    path = bundle / "fine.geojson"
    doc = json.loads(path.read_text())
    rng = np.random.default_rng(seed)
    for feature in doc["features"]:
        shift = rng.uniform(-1e-3, 1e-3, size=2)
        rings = feature["geometry"]["coordinates"]
        feature["geometry"]["coordinates"] = [(np.array(r) + shift).tolist() for r in rings]
    path.write_text(json.dumps(doc))


def test_models_json_records_the_fine_kernel_the_second_step_searched(tmp_path):
    # an 8 x 5 fine grid loaded from GeoJSON is a lattice within the snap
    # tolerance; its regions moved one by one are none, and take the dense path
    bundle = tmp_path / "bundle"
    argv = ["synth", "--out", str(bundle), "--seed", "1", "--fine-grid", "8", "5",
            "--coarse-grid", "4", "5"]
    assert main(argv) == EXIT_OK
    jitter_fine_regions(copy_bundle(bundle, tmp_path / "jittered"))
    grams = []
    for name in ("bundle", "jittered"):
        out = tmp_path / f"out-{name}"
        assert main(["fit", *common_args(tmp_path / name, out)]) == EXIT_OK
        models = json.loads((out / "models.json").read_text())
        grams.append(models["downscale"]["diagnostics"]["gram"])
        assert main(["refine", *common_args(tmp_path / name, out)]) == EXIT_OK
    on_lattice, dense = grams
    assert on_lattice["path"] == "lattice" and on_lattice["shape"] == [8, 5]
    assert 0.0 <= on_lattice["max_snap"] <= lattice.SNAP_REL / 8
    assert dense == {"path": "dense"}


def test_fit_determinism_byte_identical(synth_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["fit", *common_args(synth_dir, out1), "--seed", "5"]) == EXIT_OK
    assert main(["fit", *common_args(synth_dir, out2), "--seed", "5"]) == EXIT_OK
    assert (out1 / "models.json").read_bytes() == (out2 / "models.json").read_bytes()


def test_baseline_csv_schemas(synth_dir, tmp_path):
    out = tmp_path / "base"
    for method, has_variance in (("gpr", True), ("lr", False), ("sd2", False)):
        assert (
            main(["baseline", *common_args(synth_dir, out), "--method", method])
            == EXIT_OK
        )
        header = (out / f"{method}.csv").read_text().splitlines()[0]
        expected = "region_id,mean,variance" if has_variance else "region_id,mean"
        assert header == expected


def test_baseline_gpr_variance_is_the_gpr_posterior_variance(synth_dir, tmp_path):
    out = tmp_path / "base"
    assert main(["baseline", *common_args(synth_dir, out), "--method", "gpr"]) == EXIT_OK
    rows = [line.split(",") for line in (out / "gpr.csv").read_text().splitlines()[1:]]
    coarse = load_partition(synth_dir / "coarse.geojson")
    a = load_dataset(coarse, synth_dir / "target.csv")
    want = gpr_baseline(a, load_partition(synth_dir / "fine.geojson"), restarts=2, seed=0)
    assert [float(v) for _, _, v in rows] == want.variance.tolist()
    assert [float(m) for _, m, _ in rows] == want.prediction.tolist()


def test_baseline_unknown_method_exit_2(synth_dir, tmp_path, capsys):
    code = main(
        ["baseline", *common_args(synth_dir, tmp_path / "x"), "--method", "magic"]
    )
    assert code == EXIT_CONFIG
    assert "magic" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # rejected before any input is read


def test_eval_writes_comparison_table(synth_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            *common_args(synth_dir, out),
            "--truth",
            str(synth_dir / "truth.csv"),
            "--method",
            "lr,gpr",
        ]
    )
    assert code == EXIT_OK
    table = (out / "comparison.csv").read_text()
    assert table.splitlines()[0].startswith("method,mape")
    assert len(table.splitlines()) == 3
    assert "MAPE" in capsys.readouterr().out


def test_eval_passes_gtol_to_the_second_step_fit(synth_dir, tmp_path, monkeypatch):
    seen = []
    real = evaluate.fit_downscale

    def recording_fit(*args, **kwargs):
        seen.append(kwargs.get("gtol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "fit_downscale", recording_fit)
    args = [*common_args(synth_dir, tmp_path / "eval"), "--truth", str(synth_dir / "truth.csv")]
    assert main(["eval", *args, "--method", "proposed,lr", "--gtol", "1e-3"]) == EXIT_OK
    assert seen == [1e-3]


def test_eval_unknown_method_exit_2(synth_dir, tmp_path, capsys):
    args = [*common_args(synth_dir, tmp_path / "eval"), "--truth", str(synth_dir / "truth.csv")]
    assert main(["eval", *args, "--method", "lr,magic"]) == EXIT_CONFIG
    assert "magic" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()  # rejected before any method runs


def test_eval_zero_truth_exit_2_before_any_fit(synth_dir, tmp_path, capsys, monkeypatch):
    # MAPE divides by the truth: a 0 is refused before the fits, without a traceback
    with open(synth_dir / "truth.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = "0"
    truth = tmp_path / "truth.csv"
    with open(truth, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(evaluate, "run_methods", no_fit)
    args = [*common_args(synth_dir, tmp_path / "eval"), "--truth", str(truth)]
    assert main(["eval", *args]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(truth) in err[0] and repr(rows[3][0]) in err[0]
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "grids",
    [
        ["--aux-grid", "3", "5", "--aux-grid", "6", "5"],  # two auxiliaries, three default weights
        ["--fine-grid", "7", "5", "--coarse-grid", "3", "5"],  # 7 does not subdivide 3
    ],
)
def test_synth_bad_spec_exit_2(tmp_path, capsys, grids):
    out = tmp_path / "bundle"
    assert main(["synth", "--out", str(out), *grids]) == EXIT_CONFIG
    assert "invalid synthetic spec" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "synth, command, dataset",
    [
        (["--aux-grid", "1", "1", "--aux-grid", "4", "3", "--weights", "1.0", "0.5"],
         ["fit"], "aux0"),
        (["--coarse-grid", "1", "1"], ["baseline", "--method", "gpr"], "gpr_target"),
        (["--coarse-grid", "1", "1"], ["baseline", "--method", "sd2"], "sd2_residual"),
    ],
    ids=["fit-one-region-auxiliary", "gpr-one-region-target", "sd2-one-region-residuals"],
)
def test_a_gp_fit_on_one_region_exit_2_naming_the_dataset(tmp_path, capsys, synth, command, dataset):
    # an input error, found before any search
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    argv = ["synth", "--out", str(bundle), "--fine-grid", "6", "5", "--coarse-grid", "3", "5"]
    assert main([*argv, *synth]) == EXIT_OK
    capsys.readouterr()
    assert main([*command, *common_args(bundle, out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset {dataset!r}: 1 region") and err.count("\n") == 1
    assert not out.exists()


def test_missing_aux_csv_exit_2(synth_dir, tmp_path, capsys):
    manifest = tmp_path / "broken_manifest.json"
    manifest.write_text(json.dumps([{"id": "aux0", "geojson": "aux0.geojson", "csv": "missing.csv"}]))
    (tmp_path / "aux0.geojson").write_text((synth_dir / "aux0.geojson").read_text())
    args = common_args(synth_dir, tmp_path / "out")
    args[args.index("--aux-manifest") + 1] = str(manifest)
    assert main(["fit", *args]) == EXIT_CONFIG
    assert "missing.csv" in capsys.readouterr().err


def test_mismatched_target_pair_exit_2(synth_dir, tmp_path, capsys):
    args = common_args(synth_dir, tmp_path / "out")
    args[args.index("--target") + 1] = str(synth_dir / "coarse.geojson")  # no CSV
    assert main(["fit", *args]) == EXIT_CONFIG
    assert "GEOJSON,CSV" in capsys.readouterr().err


def test_refine_with_wrong_models_exit_2(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
    fitted = json.loads((out / "models.json").read_text())

    # (key named on stderr, how models.json breaks)
    cases = [
        ("column_ids", lambda m: m.update(aux_models=[], downscale={})),
        ("column_ids", lambda m: m["downscale"].pop("column_ids")),
        ("aux0", lambda m: m["downscale"]["w"].update(aux0=float("nan"))),
        ("aux0", lambda m: m["downscale"]["w"].update(aux0=10**400)),  # no float holds it
        ("log_alpha", lambda m: m["aux_models"][0].pop("log_alpha")),
        ("log_gamma", lambda m: m["aux_models"][1].update(log_gamma="x")),
        ("log_gamma", lambda m: m["aux_models"][0].update(log_gamma=800)),
        ("dataset_id", lambda m: m["aux_models"][0].update(dataset_id=5)),
        ("diagnostics", lambda m: m["aux_models"][0].update(diagnostics=5)),
    ]
    for key, corrupt in cases:
        models = json.loads(json.dumps(fitted))
        corrupt(models)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(models))
        capsys.readouterr()
        assert main(["refine", *common_args(synth_dir, out), "--models", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and repr(key) in err, err


def test_refine_refuses_a_repeated_aux_model_or_a_weight_of_no_column_exit_2(
    synth_dir, tmp_path, capsys
):
    # both were once taken silently: the last aux0 entry won, and the stray
    # weight was ignored
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
    fitted = json.loads((out / "models.json").read_text())
    aux0 = next(m for m in fitted["aux_models"] if m["dataset_id"] == "aux0")
    cases = [
        ("aux0", lambda m: m["aux_models"].append({**aux0, "log_gamma": aux0["log_gamma"] + 0.5})),
        ("aux9", lambda m: m["downscale"]["w"].update(aux9=5.0)),
    ]
    for key, corrupt in cases:
        models = json.loads(json.dumps(fitted))
        corrupt(models)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(models))
        capsys.readouterr()
        assert main(["refine", *common_args(synth_dir, out), "--models", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err and repr(key) in err, err


def scale_target(bundle: Path, factor: float) -> None:
    lines = (bundle / "target.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    scaled = [f"{rid},{float(value) * factor!r}" for rid, value in rows]
    (bundle / "target.csv").write_text("\n".join([lines[0], *scaled]) + "\n")


def scale_coordinates(path: Path, factor: float) -> None:
    doc = json.loads(path.read_text())
    for feature in doc["features"]:
        geometry = feature["geometry"]
        geometry["coordinates"] = (np.asarray(geometry["coordinates"]) * factor).tolist()
    path.write_text(json.dumps(doc))


def test_second_step_fit_failure_exit_1(synth_dir, tmp_path, capsys):
    # the least-squares residuals of a target this large overflow in their spread,
    # so the second step has no finite warm start
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    scale_target(bundle, 1e160)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", *common_args(bundle, out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: non-finite warm start") and err.count("\n") == 1
    assert not (out / "models.json").exists()


@pytest.mark.parametrize(
    "scale, message",
    [
        (lambda b: scale_target(b, 1e10),
         r"error: second step: the warm start's log alpha is 2\d\.\d+, outside the search box "
         r"of \+-20: rescale the target's values$"),
        (lambda b: scale_coordinates(b / "aux1.geojson", 1e10),
         r"error: dataset 'aux1': the warm start's log gamma is 2\d\.\d+, outside the search "
         r"box of \+-20: rescale its centroids' coordinates$"),
    ],
    ids=["target-values", "auxiliary-coordinates"],
)
def test_a_warm_start_outside_the_search_box_exit_2_naming_it(
    synth_dir, tmp_path, capsys, scale, message
):
    # every search from such a start fails at its first point: an input
    # error, found before any search, not "all restarts failed"
    bundle, out = copy_bundle(synth_dir, tmp_path / "bundle"), tmp_path / "out"
    scale(bundle)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", *common_args(bundle, out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.match(message, err) and err.count("\n") == 1, err
    assert not (out / "models.json").exists()


def test_the_search_box_check_moves_no_byte_of_a_fit_inside_it(synth_dir, tmp_path, monkeypatch):
    # the check only reads the warm starts: without it, the same files
    written = []
    for checked in (True, False):
        if not checked:
            monkeypatch.setattr(gp_aux, "in_search_box", lambda *args: None)
            monkeypatch.setattr(downscale, "in_search_box", lambda *args: None)
        out = tmp_path / f"out{checked}"
        assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
        assert main(["refine", *common_args(synth_dir, out)]) == EXIT_OK
        names = ("models.json", "refinement.csv", "refinement.svg")
        written.append([(out / name).read_bytes() for name in names])
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "command, extra",
    [
        ("baseline", ["--gtol", "1e-3", "--ridge", "7"]),
        ("refine", ["--ridge", "5", "--gtol", "3"]),
        ("synth", ["--restarts", "9", "--ridge", "3", "--gtol", "2"]),
    ],
    ids=["baseline", "refine", "synth"],
)
def test_flags_of_another_command_exit_2(synth_dir, tmp_path, capsys, command, extra):
    # only fit and eval run the second-step fit; synth runs no fit at all
    out = tmp_path / "out"
    args = {
        "baseline": [*common_args(synth_dir, out), "--method", "lr"],
        "refine": common_args(synth_dir, out),
        "synth": ["--out", str(out)],
    }[command]
    assert main([command, *args, *extra]) == EXIT_CONFIG
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_bundle_refine_determinism(synth_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
        assert main(["refine", *common_args(synth_dir, out)]) == EXIT_OK
    assert (out1 / "refinement.csv").read_bytes() == (out2 / "refinement.csv").read_bytes()
    assert (out1 / "refinement.svg").read_bytes() == (out2 / "refinement.svg").read_bytes()


def test_refine_binds_weights_to_column_ids_not_manifest_order(tmp_path):
    bundle, fit_out = tmp_path / "bundle", tmp_path / "fit"
    assert main(["synth", "--out", str(bundle), "--seed", "0"]) == EXIT_OK
    manifest = json.loads((bundle / "aux_manifest.json").read_text())
    (bundle / "reversed_manifest.json").write_text(json.dumps(manifest[::-1]))

    def args(manifest_name, out):
        return [
            "--target", f"{bundle / 'coarse.geojson'},{bundle / 'target.csv'}",
            "--fine", str(bundle / "fine.geojson"),
            "--aux-manifest", str(bundle / manifest_name),
            "--out", str(out), "--restarts", "2",
        ]

    assert main(["fit", *args("aux_manifest.json", fit_out)]) == EXIT_OK
    models = str(fit_out / "models.json")
    for name, out in (("aux_manifest.json", "same"), ("reversed_manifest.json", "reversed")):
        assert main(["refine", *args(name, tmp_path / out), "--models", models]) == EXIT_OK
    same = (tmp_path / "same" / "refinement.csv").read_text()
    assert (tmp_path / "reversed" / "refinement.csv").read_text() == same


def test_refine_rejects_auxiliary_data_changed_since_fit(synth_dir, tmp_path, capsys):
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    out = tmp_path / "out"
    assert main(["fit", *common_args(bundle, out)]) == EXIT_OK
    models_path = out / "models.json"
    models = json.loads(models_path.read_text())
    assert all(len(m["diagnostics"]["data_sha256"]) == 64 for m in models["aux_models"])

    lines = (bundle / "aux1.csv").read_text().splitlines()
    rid, value = lines[1].split(",")
    lines[1] = f"{rid},{float(value) + 1.0!r}"
    (bundle / "aux1.csv").write_text("\n".join(lines) + "\n")
    assert main(["refine", *common_args(bundle, out)]) == EXIT_CONFIG
    assert "'aux1'" in capsys.readouterr().err

    # a model without the hash cannot be bound to its data
    for m in models["aux_models"]:
        del m["diagnostics"]["data_sha256"]
    models_path.write_text(json.dumps(models))
    assert main(["refine", *common_args(bundle, out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'aux0'" in err and "data_sha256" in err


def read_refinement(out):
    rows = [line.split(",") for line in (out / "refinement.csv").read_text().splitlines()[1:]]
    return {rid: (float(mean), float(var)) for rid, mean, var in rows}


def test_refine_binds_by_region_id_under_shuffled_partitions(synth_dir, tmp_path):
    # refine runs no optimizer, so a fixed models.json isolates the binding of
    # the target, H and the fine field to region ids from the feature order
    fitted = tmp_path / "fitted"
    assert main(["fit", *common_args(synth_dir, fitted)]) == EXIT_OK
    shuffled = copy_bundle(synth_dir, tmp_path / "bundle")
    rng = np.random.default_rng(3)
    for name in ("fine.geojson", "coarse.geojson"):
        doc = json.loads((shuffled / name).read_text())
        doc["features"] = [doc["features"][k] for k in rng.permutation(len(doc["features"]))]
        (shuffled / name).write_text(json.dumps(doc))
    models = ["--models", str(fitted / "models.json")]
    for bundle, out in ((synth_dir, tmp_path / "plain"), (shuffled, tmp_path / "perm")):
        assert main(["refine", *common_args(bundle, out), *models]) == EXIT_OK
    plain, perm = read_refinement(tmp_path / "plain"), read_refinement(tmp_path / "perm")
    assert list(perm) != list(plain) and sorted(perm) == sorted(plain)
    ids = list(plain)
    np.testing.assert_allclose(
        [perm[i] for i in ids], [plain[i] for i in ids], rtol=1e-10, atol=0.0
    )


def shuffle_regions(bundle: Path, aid: str, rng) -> None:
    """Put the features of the auxiliary's GeoJSON and the rows of its CSV in new orders."""
    doc = json.loads((bundle / f"{aid}.geojson").read_text())
    doc["features"] = [doc["features"][k] for k in rng.permutation(len(doc["features"]))]
    (bundle / f"{aid}.geojson").write_text(json.dumps(doc))
    header, *rows = (bundle / f"{aid}.csv").read_text().splitlines()
    rows = [rows[k] for k in rng.permutation(len(rows))]
    (bundle / f"{aid}.csv").write_text("\n".join([header, *rows]) + "\n")


def test_a_lattice_auxiliarys_region_order_moves_nothing(tmp_path):
    # aux1 (8 x 5) and aux2 (12 x 10) take the lattice fit and the lattice
    # posterior, which read their values in row-major order: the order of their
    # regions moves no bit of models.json but their data_sha256, and no bit of
    # the second step or of refinement.csv
    bundle = tmp_path / "bundle"
    argv = ["synth", "--out", str(bundle), "--seed", "3", "--fine-grid", "24", "20",
            "--coarse-grid", "8", "5"]
    assert main(argv) == EXIT_OK
    shuffled = copy_bundle(bundle, tmp_path / "shuffled")
    rng = np.random.default_rng(0)
    for aid in ("aux1", "aux2"):
        shuffle_regions(shuffled, aid, rng)
    runs = []
    for name in ("bundle", "shuffled"):
        out = tmp_path / f"out-{name}"
        args = common_args(tmp_path / name, out)
        assert main(["fit", *args]) == EXIT_OK
        assert main(["refine", *args]) == EXIT_OK
        runs.append(((out / "models.json").read_text(), (out / "refinement.csv").read_bytes()))
    (text, plain), (moved_text, moved) = runs
    models, moved_models = json.loads(text), json.loads(moved_text)
    for model, moved_model in zip(models["aux_models"], moved_models["aux_models"], strict=True):
        sha, moved_sha = (m["diagnostics"]["data_sha256"] for m in (model, moved_model))
        assert (sha != moved_sha) == (model["dataset_id"] != "aux0")
        moved_text = moved_text.replace(moved_sha, sha)
    assert [m["diagnostics"]["gram"]["path"] for m in models["aux_models"]] == [
        "dense", "lattice", "lattice"
    ]
    step, moved_step = models["downscale"]["diagnostics"], moved_models["downscale"]["diagnostics"]
    assert moved_step["iterations"] == step["iterations"]
    assert moved_step["log_marginal"] == step["log_marginal"]
    assert moved_text == text
    assert moved == plain


def test_refine_covariance_matches_the_dense_oracle(synth_dir, tmp_path):
    # refinement_cov.csv comes from Refinement.cov, formed when read, and the
    # variance column of refinement.csv from predict_fine's diagonal
    out = tmp_path / "run"
    assert main(["fit", *common_args(synth_dir, out)]) == EXIT_OK
    assert main(["refine", *common_args(synth_dir, out), "--covariance"]) == EXIT_OK
    coarse = load_partition(synth_dir / "coarse.geojson")
    fine = load_partition(synth_dir / "fine.geojson")
    with open(out / "refinement_cov.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["", *fine.ids] and [r[0] for r in rows[1:]] == list(fine.ids)
    cov = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    variance = np.array([var for _, var in read_refinement(out).values()])

    models = json.loads((out / "models.json").read_text())
    by_id = {m["dataset_id"]: m for m in models["aux_models"]}
    entries = {e["id"]: e for e in json.loads((synth_dir / "aux_manifest.json").read_text())}
    posteriors = []
    for aid in models["downscale"]["column_ids"][:-1]:
        part = load_partition(synth_dir / entries[aid]["geojson"], name=aid)
        ds = load_dataset(part, synth_dir / entries[aid]["csv"])
        model = AuxGPModel.from_dict(by_id[aid], part.centroids, ds.values)
        posteriors.append(predict_aux(model, fine.centroids))
    _, want = dense_predict_fine(
        DownscaleParams.from_dict(models["downscale"]),
        load_dataset(coarse, synth_dir / "target.csv"),
        build_design(posteriors, n_fine=len(fine)),
        posteriors,
        build_aggregation(coarse, fine),
    )
    assert np.max(np.abs(cov - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.array_equal(cov, cov.T)
    assert np.all(np.abs(np.diag(cov) - variance) <= 1e-12 * variance)


def test_hmatrix_of_centroid_membership_gives_the_same_outputs(synth_dir, tmp_path):
    hmatrix = write_hmatrix(synth_dir, tmp_path / "H.csv")
    built, given = tmp_path / "built", tmp_path / "given"
    for out, extra in ((built, []), (given, ["--hmatrix", str(hmatrix)])):
        assert main(["fit", *common_args(synth_dir, out), *extra]) == EXIT_OK
        assert main(["refine", *common_args(synth_dir, out), *extra]) == EXIT_OK
    for name in ("models.json", "refinement.csv"):
        assert (given / name).read_bytes() == (built / name).read_bytes(), name


def test_hmatrix_with_two_nonzeros_in_a_column_exit_2(synth_dir, tmp_path, capsys):
    amap = build_aggregation(
        load_partition(synth_dir / "coarse.geojson"), load_partition(synth_dir / "fine.geojson")
    )
    H = amap.H.copy()
    H[:, 0] = 0.0
    H[:2, 0] = 0.5  # the first fine region split between two coarse regions
    lines = ["," + ",".join(amap.fine.ids)]
    lines += [",".join([cid] + [repr(float(v)) for v in row]) for cid, row in zip(amap.coarse.ids, H)]
    hmatrix = tmp_path / "H.csv"
    hmatrix.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out), "--hmatrix", str(hmatrix)]) == EXIT_CONFIG
    assert amap.fine.ids[0] in capsys.readouterr().err
    assert not (out / "models.json").exists()


def test_hmatrix_blank_lines_are_skipped_and_a_short_row_exit_2(synth_dir, tmp_path, capsys):
    hmatrix = write_hmatrix(synth_dir, tmp_path / "H.csv")
    with open(hmatrix, "a") as fh:
        fh.write("\n")
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out), "--hmatrix", str(hmatrix)]) == EXIT_OK
    lines = hmatrix.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]  # one field short
    hmatrix.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fit", *common_args(synth_dir, out), "--hmatrix", str(hmatrix)]) == EXIT_CONFIG
    assert "H.csv: row 2 has" in capsys.readouterr().err


def test_hmatrix_with_a_nan_entry_exit_2(synth_dir, tmp_path, capsys):
    hmatrix = write_hmatrix(synth_dir, tmp_path / "H.csv")
    lines = hmatrix.read_text().splitlines()
    fields = lines[1].split(",")
    fields[fields.index("0.0")] = "nan"
    lines[1] = ",".join(fields)
    hmatrix.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out), "--hmatrix", str(hmatrix)]) == EXIT_CONFIG
    assert "H.csv: H has non-finite entries" in capsys.readouterr().err
    assert not (out / "models.json").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_fine_vertex_not_finite_exit_2_naming_the_region(synth_dir, tmp_path, capsys, literal):
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    doc = json.loads((bundle / "fine.geojson").read_text())
    feature = doc["features"][2]
    feature["geometry"]["coordinates"][0][1][0] = float(literal)
    (bundle / "fine.geojson").write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", *common_args(bundle, out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    rid = feature["properties"]["id"]
    assert f"fine.geojson: region {rid!r}: ring has a non-finite coordinate" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("0.5", "'0.5' is a str"), (True, "True is a bool")])
def test_fine_coordinate_string_or_boolean_exit_2_naming_the_region(
    synth_dir, tmp_path, capsys, value, shown
):
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    doc = json.loads((bundle / "fine.geojson").read_text())
    feature = doc["features"][2]
    feature["geometry"]["coordinates"][0][1][0] = value
    (bundle / "fine.geojson").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["fit", *common_args(bundle, out)]) == EXIT_CONFIG
    rid = feature["properties"]["id"]
    message = f"region {rid!r}: ring is not an array of numeric positions: coordinate {shown}"
    assert f"fine.geojson: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fine_coordinate_too_large_for_a_float_exit_2_naming_the_region(
    synth_dir, tmp_path, capsys
):
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    doc = json.loads((bundle / "fine.geojson").read_text())
    feature = doc["features"][2]
    feature["geometry"]["coordinates"][0][1][0] = 10**400
    (bundle / "fine.geojson").write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command in ("fit", "refine"):
        assert main([command, *common_args(bundle, out)]) == EXIT_CONFIG
        rid = feature["properties"]["id"]
        message = f"region {rid!r}: ring is not an array of numeric positions: int too large"
        assert f"fine.geojson: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("weights", "message"),
    [
        (["nan", "1", "2"], "argument --weights: must be a finite number, got nan"),
        (["inf", "1", "2"], "argument --weights: must be a finite number, got inf"),
        (["1e308", "1", "2"], "invalid synthetic spec: weights [1e+308, 1.0, 2.0] and offset inf"),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_synth_weights_not_finite_exit_2(tmp_path, capsys, weights, message):
    # the third case is finite, but the offset derived from it overflows
    out = tmp_path / "bundle"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--out", str(out), "--weights", *weights]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--restarts", "0", "must be a positive integer"),
        ("--restarts", "-3", "must be a positive integer"),
        ("--restarts", "1.5", "invalid positive_int value"),
        ("--ridge", "-1", "must be a finite number >= 0"),
        ("--ridge", "nan", "must be a finite number >= 0"),
        ("--ridge", "inf", "must be a finite number >= 0"),
        ("--gtol", "-1", "must be a finite number > 0"),
        ("--gtol", "0", "must be a finite number > 0"),
        ("--gtol", "nan", "must be a finite number > 0"),
    ],
)
def test_numeric_flag_out_of_range_exit_2(synth_dir, tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["fit", *common_args(synth_dir, out), f"{flag}={value}"]) == EXIT_CONFIG
    assert f"{flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "synth"])
def test_negative_seed_exit_2(synth_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    args = common_args(synth_dir, out) if command == "fit" else ["--out", str(out)]
    assert main([command, *args, "--seed", "-1"]) == EXIT_CONFIG
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def cli_in_fresh_interpreter(argv: list[str], threads: str | None) -> None:
    """Run the CLI in a new interpreter, so that BLAS starts with the three thread
    variables at ``threads``, or with none of them set when it is None."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(finescale.__file__).parents[1])
    if threads:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    subprocess.run(
        [sys.executable, "-m", "finescale.cli", *argv], env=env, capture_output=True, check=True
    )


def test_fit_and_refine_with_blas_unpinned_write_the_bytes_of_a_pinned_run(synth_dir, tmp_path):
    # each search runs on one BLAS thread, and fit_downscale and refine's
    # predict_aux and predict_fine pin themselves: the fit has as many threads
    # at 1, unset (every core) and 2, and every output the same bits
    written = []
    for threads in ("1", None, "2"):
        out = tmp_path / str(len(written))
        for command in ("fit", "refine"):
            cli_in_fresh_interpreter([command, *common_args(synth_dir, out)], threads)
        names = ("models.json", "refinement.csv", "refinement.svg")
        written.append([(out / name).read_bytes() for name in names])
    assert written[0] == written[1] == written[2]


def write_generating_models(bundle: Path) -> None:
    """models.json as the benchmark writes it for refine: the auxiliary fits and
    the parameters that generated the bundle, with no second-step fit."""
    gen = json.loads((bundle / "generating_params.json").read_text())
    aux = [
        (e["id"], load_dataset(load_partition(bundle / e["geojson"], e["id"]), bundle / e["csv"]))
        for e in json.loads((bundle / "aux_manifest.json").read_text())
    ]
    spec = gen["spec"]
    params = DownscaleParams(
        w=gen["true_w"],
        kernel=SEKernelParams(alpha=spec["alpha"], gamma=spec["gamma"]),
        sigma=spec["sigma"],
    )
    models = {
        "aux_models": [fit_aux_gp(ds, restarts=1, dataset_id=aid).to_dict() for aid, ds in aux],
        "downscale": params.to_dict(column_ids=[aid for aid, _ in aux] + ["bias"]),
        "coord_transform": {"kind": "identity"},
    }
    (bundle / "models.json").write_text(json.dumps(models, indent=2, sort_keys=True) + "\n")


def test_refine_and_lr_at_1200_fine_regions_write_the_same_bytes_at_any_blas_threads(tmp_path):
    # at 40 x 30 fine regions the bits of refine's products follow BLAS's thread
    # count (at 24 x 20 they do not), so only predict_fine and predict_aux
    # pinning themselves keep refinement.csv and the covariance the same
    bundle = tmp_path / "bundle"
    grids = ["--fine-grid", "40", "30", "--coarse-grid", "8", "6"]
    assert main(["synth", "--out", str(bundle), "--seed", "3", *grids]) == EXIT_OK
    write_generating_models(bundle)
    names = ("refinement.csv", "refinement_cov.csv", "refinement.svg", "lr.csv")
    written = []
    for threads in ("1", None, "2"):
        out = tmp_path / str(len(written))
        args = [*common_args(bundle, out), "--restarts", "1"]
        cli_in_fresh_interpreter(["refine", *args, "--models", str(bundle / "models.json"),
                                  "--covariance"], threads)
        cli_in_fresh_interpreter(["baseline", *args, "--method", "lr"], threads)
        written.append([hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names])
        (out / "refinement_cov.csv").unlink()  # 32 MB
    assert written[0] == written[1] == written[2]


def truncate(path):
    path.write_text(path.read_text()[:40])


def drop_first_feature_id(path):
    doc = json.loads(path.read_text())
    del doc["features"][0]["properties"]["id"]
    path.write_text(json.dumps(doc))


def manifest_geojson_not_a_string(path):
    entries = json.loads(path.read_text())
    entries[0]["geojson"] = 5
    path.write_text(json.dumps(entries))


def corrupt_first_value(path, cell):
    lines = path.read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + "," + cell
    path.write_text("\n".join(lines) + "\n")


def not_text(path):
    path.write_bytes(b"\xff" + path.read_bytes())  # 0xff begins no UTF-8 character


def directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize(
    "command, name, corrupt",
    [
        ("fit", "coarse.geojson", truncate),
        ("fit", "aux_manifest.json", truncate),
        ("refine", "models.json", truncate),
        ("fit", "target.csv", lambda path: corrupt_first_value(path, "notanumber")),
        ("fit", "H.csv", lambda path: corrupt_first_value(path, "abc")),
        ("fit", "coarse.geojson", drop_first_feature_id),
        ("fit", "aux1.geojson", drop_first_feature_id),
        ("refine", "models.json", lambda path: path.write_text("[1, 2]")),
        ("refine", "models.json",
         lambda path: path.write_text(json.dumps({"aux_models": 3, "downscale": {}}))),
        ("fit", "aux_manifest.json", manifest_geojson_not_a_string),
        ("fit", "coarse.geojson", not_text),
        ("fit", "target.csv", not_text),
        ("fit", "H.csv", not_text),
        ("fit", "aux_manifest.json", not_text),
        ("fit", "coarse.geojson", directory),
        ("refine", "models.json", directory),
    ],
    ids=["coarse-geojson", "aux-manifest", "models", "target-csv", "hmatrix",
         "coarse-feature-id", "aux-feature-id", "models-list", "models-aux-not-a-list",
         "aux-manifest-value-type", "coarse-geojson-not-text", "target-csv-not-text",
         "hmatrix-not-text", "aux-manifest-not-text", "coarse-geojson-a-directory",
         "models-a-directory"],
)
def test_malformed_input_file_exit_2_naming_it(synth_dir, tmp_path, capsys, command, name, corrupt):
    bundle = copy_bundle(synth_dir, tmp_path / "bundle")
    out = tmp_path / "out"
    args = [*common_args(bundle, out), "--hmatrix", str(write_hmatrix(bundle, bundle / "H.csv"))]
    if command == "refine":
        assert main(["fit", *args]) == EXIT_OK
        capsys.readouterr()
        (bundle / name).write_text((out / name).read_text())
        args += ["--models", str(bundle / name)]
    corrupt(bundle / name)
    assert main([command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


def test_synth_out_a_file_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("a file")
    assert main(["synth", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err


@pytest.mark.parametrize("ids", [["aux0", "aux0"], ["", "aux1"], ["aux0", "bias"]])
def test_manifest_ids_must_be_unique_nonempty_and_not_bias(synth_dir, tmp_path, capsys, ids):
    # two entries named aux0 once gave one weight for the columns [aux0, aux0, bias]
    manifest = json.loads((synth_dir / "aux_manifest.json").read_text())
    for entry, aid in zip(manifest, ids):
        entry["id"] = aid
        for key in ("geojson", "csv"):
            entry[key] = str(synth_dir / entry[key])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    args = common_args(synth_dir, tmp_path / "out")
    args[args.index("--aux-manifest") + 1] = str(path)
    assert main(["fit", *args]) == EXIT_CONFIG
    assert "manifest id" in capsys.readouterr().err
    assert not (tmp_path / "out" / "models.json").exists()


def test_run_manifest_records_the_parsed_argv_and_every_input(synth_dir, tmp_path):
    out = tmp_path / "out"
    hmatrix = write_hmatrix(synth_dir, tmp_path / "H.csv")
    argv = ["fit", *common_args(synth_dir, out), "--hmatrix", str(hmatrix)]
    assert main(argv) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv
    entries = json.loads((synth_dir / "aux_manifest.json").read_text())
    read = [synth_dir / "coarse.geojson", synth_dir / "target.csv", synth_dir / "fine.geojson",
            hmatrix, *(synth_dir / e[key] for e in entries for key in ("geojson", "csv"))]
    assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}


def test_ridge_shrinks_the_auxiliary_weights_and_is_recorded(synth_dir, tmp_path):
    norms = {}
    for ridge in ("0", "1e3"):
        out = tmp_path / ridge
        assert main(["fit", *common_args(synth_dir, out), "--ridge", ridge]) == EXIT_OK
        models = json.loads((out / "models.json").read_text())
        w = models["downscale"]["w"]
        norms[ridge] = np.linalg.norm([v for cid, v in w.items() if cid != "bias"])
        assert models["downscale"]["diagnostics"]["ridge"] == float(ridge)
        assert json.loads((out / "manifest.json").read_text())["ridge"] == float(ridge)
    assert norms["1e3"] < norms["0"]
