"""Command-line pipeline: ingest -> fit -> refine/baseline/eval -> export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import finescale
from finescale import render
from finescale.downscale import (
    DownscaleParams,
    build_design,
    fit_downscale,
    predict_fine,
)
from finescale.geo import (
    InputError,
    build_aggregation,
    json_value,
    load_aggregation_csv,
    load_dataset,
    load_partition,
    partition_to_geojson,
    save_dataset,
    write_csv,
)
from finescale.gp_aux import AuxGPModel, data_sha256, fit_all_aux, predict_aux, sha256
from finescale.numerics import NumericalError

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2


def _split_pair(arg: str, flag: str) -> tuple[Path, Path]:
    parts = arg.split(",")
    if len(parts) != 2:
        raise InputError(f"{flag} expects GEOJSON,CSV (comma-separated pair), got {arg!r}")
    return Path(parts[0]), Path(parts[1])


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} {path}: not valid JSON: {exc}") from exc


def _load_manifest(path: Path) -> list[tuple[str, Path, Path]]:
    """(id, geojson, csv) per entry; ids are unique, non-empty and not the reserved "bias"."""
    entries = _read_json(path, "aux manifest")
    if not isinstance(entries, list):
        raise InputError(f"{path}: manifest must be a JSON array of {{id, geojson, csv}}")
    out = []
    for e in entries:
        if not (isinstance(e, dict) and {"id", "geojson", "csv"} <= e.keys()
                and isinstance(e["geojson"], str) and isinstance(e["csv"], str)):
            raise InputError(f"{path}: manifest entry needs an id and geojson and csv paths: {e}")
        aid = str(e["id"])
        if aid in ("", "bias") or aid in (o[0] for o in out):
            raise InputError(f"{path}: manifest id {aid!r} is empty, reserved or repeated")
        out.append((aid, path.parent / e["geojson"], path.parent / e["csv"]))
    return out


def _load_inputs(args):
    """The target, the aggregation map, the auxiliaries (each named by its
    manifest id) and every file read."""
    coarse_path, target_path = _split_pair(args.target, "--target")
    paths = [coarse_path, target_path, Path(args.fine)]
    coarse = load_partition(coarse_path)
    a = load_dataset(coarse, target_path)
    fine = load_partition(paths[2])
    if args.hmatrix:
        paths.append(Path(args.hmatrix))
        amap = load_aggregation_csv(coarse, fine, paths[-1])
    else:
        amap = build_aggregation(coarse, fine)
    aux = []
    for aid, geojson, data in _load_manifest(Path(args.aux_manifest)) if args.aux_manifest else []:
        aux.append(load_dataset(load_partition(geojson, name=aid), data))
        paths += [geojson, data]
    return a, amap, aux, paths


def _write_json(path: Path, obj, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")


def _write_manifest(args, out: Path, paths: list[Path]) -> None:
    manifest = {
        "version": finescale.__version__,
        "seed": args.seed,
        "restarts": args.restarts,
        "ridge": args.ridge,
        "gtol": args.gtol,
        "inputs": {str(p): sha256(p.read_bytes()).hexdigest() for p in paths},
        "command": args.argv,
    }
    _write_json(out / "manifest.json", manifest, sort_keys=True)


def cmd_fit(args) -> int:
    a, amap, aux, paths = _load_inputs(args)
    fitted = fit_all_aux(aux, amap.fine, restarts=args.restarts, seed=args.seed)
    posteriors = [post for _, post in fitted]
    params = fit_downscale(
        a, posteriors, amap.fine, amap,
        restarts=args.restarts, seed=args.seed, ridge=args.ridge, gtol=args.gtol,
    )
    design = build_design(posteriors, n_fine=len(amap.fine))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    models = {
        "aux_models": [m.to_dict() for m, _ in fitted],
        "downscale": params.to_dict(column_ids=design.column_ids),
        "coord_transform": {"kind": "identity"},
    }
    _write_json(out / "models.json", models, sort_keys=True)
    _write_manifest(args, out, paths)
    print(f"wrote {out / 'models.json'}")
    return EXIT_OK


def cmd_refine(args) -> int:
    a, amap, aux, _ = _load_inputs(args)
    fine = amap.fine
    models_path = Path(args.models or (Path(args.out) / "models.json"))
    models = _read_json(models_path, "models file")
    try:
        entries = json_value(models, "aux_models", list, "models")
        model_ids = [json_value(m, "dataset_id", str, "aux_models entry") for m in entries]
        by_id = dict(zip(model_ids, entries))
        downscale = json_value(models, "downscale", dict, "models")
        params = DownscaleParams.from_dict(downscale)
        datasets = {ds.partition.name: ds for ds in aux}
        # The fitted weights are ordered by the fit-time columns, not by this
        # manifest; from_dict has checked that the column ids are distinct, so
        # a repeated model id fails this comparison.
        column_ids = downscale["column_ids"]
        if not sorted(model_ids) == sorted(column_ids[:-1]) == sorted(datasets):
            raise InputError(
                f"model/manifest mismatch: models for {sorted(model_ids)}, weights for "
                f"{column_ids[:-1]}, manifest has {sorted(datasets)}"
            )
        posteriors = []
        for aid in column_ids[:-1]:
            ds = datasets[aid]
            model = AuxGPModel.from_dict(by_id[aid], ds.partition.centroids, ds.values)
            fitted_sha = json_value(model.diagnostics, "data_sha256", str, f"aux model {aid!r}")
            if fitted_sha != data_sha256(ds.partition.centroids, ds.values):
                raise InputError(f"auxiliary {aid!r}: data differ from those it was fitted to")
            posteriors.append(predict_aux(model, fine.centroids))
    except InputError as exc:
        raise InputError(f"{models_path}: {exc}") from exc
    design = build_design(posteriors, n_fine=len(fine))
    refinement = predict_fine(params, a, design, posteriors, amap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "refinement.csv", ["region_id", "mean", "variance"], fine.ids,
              zip(refinement.mean, refinement.var))
    if args.covariance:
        write_csv(out / "refinement_cov.csv", ["", *fine.ids], fine.ids, refinement.cov)
    (out / "refinement.svg").write_text(render.choropleth_svg(fine, refinement.mean))
    print(f"wrote {out / 'refinement.csv'} and {out / 'refinement.svg'}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    from finescale import evaluate

    a, amap, aux, _ = _load_inputs(args)
    res = evaluate.run_methods(
        a, aux, amap, methods=(args.method,), seed=args.seed, restarts=args.restarts
    )[args.method]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.method}.csv"
    columns = [res.prediction] if res.variance is None else [res.prediction, res.variance]
    write_csv(path, ["region_id", "mean", "variance"][: len(columns) + 1], amap.fine.ids,
              zip(*columns))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from finescale import evaluate

    a, amap, aux, _ = _load_inputs(args)
    truth = load_dataset(amap.fine, Path(args.truth)).values
    # MAPE divides by the truth: refuse a zero before any fit runs
    zero = next((rid for rid, v in zip(amap.fine.ids, truth) if v == 0), None)
    if zero is not None:
        raise InputError(f"{args.truth}: truth is 0 at region {zero!r}, and MAPE divides by it")
    methods = tuple(args.method.split(",")) if args.method else evaluate.METHODS
    table = evaluate.run_comparison(
        a, aux, amap, truth, methods=methods,
        seed=args.seed, restarts=args.restarts, ridge=args.ridge, gtol=args.gtol,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(table.to_csv())
    print(table.to_text())
    return EXIT_OK


def cmd_synth(args) -> int:
    from finescale import evaluate

    flags = {
        "fine_shape": args.fine_grid,
        "coarse_shape": args.coarse_grid,
        "aux_shapes": args.aux_grid and [tuple(shape) for shape in args.aux_grid],
        "w": args.weights,
    }
    # flags not given keep SyntheticSpec's defaults
    spec = evaluate.SyntheticSpec(**{k: tuple(v) for k, v in flags.items() if v is not None})
    inst = evaluate.generate_synthetic(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "coarse.geojson").write_text(json.dumps(partition_to_geojson(inst.coarse)))
    (out / "fine.geojson").write_text(json.dumps(partition_to_geojson(inst.fine)))
    save_dataset(inst.a, out / "target.csv")
    save_dataset(
        finescale.ArealDataset(inst.fine, inst.z_true), out / "truth.csv"
    )
    manifest = []
    for ds, aid in zip(inst.aux_datasets, inst.aux_ids):
        (out / f"{aid}.geojson").write_text(json.dumps(partition_to_geojson(ds.partition)))
        save_dataset(ds, out / f"{aid}.csv")
        manifest.append({"id": aid, "geojson": f"{aid}.geojson", "csv": f"{aid}.csv"})
    _write_json(out / "aux_manifest.json", manifest)
    _write_json(
        out / "generating_params.json",
        {"seed": args.seed, "true_w": inst.true_w.tolist(), "spec": dataclasses.asdict(spec)},
    )
    print(f"wrote synthetic bundle to {out}")
    return EXIT_OK


def _checked(convert, ok, requirement: str, name: str):
    """The argparse type ``name``: ``convert(text)``, refused unless ``ok`` of it holds."""

    def checked(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    checked.__name__ = name  # argparse names it when convert fails
    return checked


# --seed (numpy's generators take no negative seed) and --restarts (a fit runs a start)
non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer", "non_negative_int")
positive_int = _checked(int, lambda v: v >= 1, "a positive integer", "positive_int")
finite_float = _checked(float, math.isfinite, "a finite number", "finite_float")
non_negative_float = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0", "non_negative_float"
)
positive_float = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0", "positive_float"
)


def _add_inputs(p: argparse.ArgumentParser, fits: bool = True) -> None:
    """The flags of the commands that read a target, a fine partition and
    auxiliaries; a command that ``fits`` nothing accepts --seed and --restarts."""
    p.add_argument("--target", required=True, help="coarse target as GEOJSON,CSV pair")
    p.add_argument("--fine", required=True, help="fine partition GeoJSON")
    p.add_argument("--aux-manifest", default=None, help="JSON array of {id, geojson, csv}")
    p.add_argument("--hmatrix", default=None, help="optional user-supplied H matrix CSV")
    p.add_argument("--out", required=True, help="output directory")
    unread = "accepted and not read"
    p.add_argument("--seed", type=non_negative_int, default=0,
                   help="seed of the fits' random starts" if fits else unread)
    p.add_argument("--restarts", type=positive_int, default=5, metavar="N", help=(
        "N + 1 starts per GP fit on one dataset, N in the second step" if fits else unread))


def _add_second_step(p: argparse.ArgumentParser) -> None:
    """The flags of the second-step fit, on the commands that run it."""
    p.add_argument(
        "--ridge", type=non_negative_float, default=0.0, help="L2 penalty on the auxiliary weights"
    )
    p.add_argument(
        "--gtol", type=positive_float, default=1e-6, help="gradient tolerance of the fit"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finescale", description="Downscale coarse areal data onto a finer partition."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit auxiliary GPs and the downscaling model")
    _add_inputs(p_fit)
    _add_second_step(p_fit)

    p_ref = sub.add_parser("refine", help="predict the fine field from fitted models")
    _add_inputs(p_ref, fits=False)
    p_ref.add_argument("--models", default=None, help="models.json (default: OUT/models.json)")
    p_ref.add_argument("--covariance", action="store_true", help="also write full covariance CSV")

    p_base = sub.add_parser("baseline", help="run one comparison method")
    _add_inputs(p_base)
    p_base.add_argument("--method", required=True, choices=("gpr", "lr", "sd2"))

    p_eval = sub.add_parser("eval", help="full method comparison against a truth file")
    _add_inputs(p_eval)
    _add_second_step(p_eval)
    p_eval.add_argument("--truth", required=True, help="fine-partition truth CSV")
    p_eval.add_argument("--method", default=None, help="comma-separated subset of methods")

    p_synth = sub.add_parser("synth", help="write a synthetic instance directory")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=non_negative_int, default=0, help="seed of the instance")
    p_synth.add_argument("--fine-grid", type=int, nargs=2)
    p_synth.add_argument("--coarse-grid", type=int, nargs=2)
    p_synth.add_argument(
        "--aux-grid", type=int, nargs=2, action="append",
        help="repeatable: one aux grid shape per use",
    )
    p_synth.add_argument("--weights", type=finite_float, nargs="+", default=None)
    return parser


COMMANDS = {
    "fit": cmd_fit,
    "refine": cmd_refine,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage or help; 2 on a bad argument
        return exc.code
    args.argv = argv
    try:
        return COMMANDS[args.command](args)
    except (InputError, OSError) as exc:  # an OSError names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
