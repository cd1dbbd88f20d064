"""Child-process stages of the finescale benchmark.

Each stage runs in a fresh interpreter started by ``bench.py``, with BLAS
pinned to one thread and ``src`` on ``PYTHONPATH``:

    python3 perfbench/stages.py synth WORKLOAD_JSON OUT_ROOT SEED...
    python3 perfbench/stages.py setup BUNDLE_DIR
    python3 perfbench/stages.py calibrate
    python3 perfbench/stages.py trace BUNDLE_DIR WORKLOAD_JSON OUT_DIR

``finescale`` is imported inside the stage functions, never at module top,
so that ``trace`` times a cold ``import finescale.cli`` and ``setup`` pays
the same import a command does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Repetitions of the single-kernel probes in the traced run; their median
# is reported.
PROBE_REPS = 5


def load_aux(bundle: Path) -> list:
    """(id, dataset) for each auxiliary, in manifest order."""
    from finescale.geo import load_dataset, load_partition

    aux = []
    for e in json.loads((bundle / "aux_manifest.json").read_text()):
        part = load_partition(bundle / e["geojson"], name=e["id"])
        aux.append((e["id"], load_dataset(part, bundle / e["csv"])))
    return aux


def bundle_sha256(bundle: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in bundle.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _getconf(name: str) -> str:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DOWNSCALE_THREADS")
        },
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def write_generating_models(bundle: Path, restarts: int) -> None:
    """models.json from fitted auxiliary GPs and the generating downscale parameters.

    Fitting the second step at this size would take minutes per run, and
    ``refine`` only needs a valid model to exercise the read path.
    """
    from finescale.downscale import DownscaleParams
    from finescale.gp_aux import fit_aux_gp
    from finescale.kernel import SEKernelParams

    gen = json.loads((bundle / "generating_params.json").read_text())
    spec = gen["spec"]
    aux = load_aux(bundle)
    aux_models = [fit_aux_gp(ds, restarts=restarts, seed=0, dataset_id=aid) for aid, ds in aux]
    params = DownscaleParams(
        w=gen["true_w"],
        kernel=SEKernelParams(alpha=spec["alpha"], gamma=spec["gamma"]),
        sigma=spec["sigma"],
    )
    models = {
        "aux_models": [m.to_dict() for m in aux_models],
        "downscale": params.to_dict(column_ids=[aid for aid, _ in aux] + ["bias"]),
        "coord_transform": {"kind": "identity"},
    }
    (bundle / "models.json").write_text(json.dumps(models, indent=2, sort_keys=True) + "\n")


def stage_synth(workload: dict, out_root: Path, seeds: list[int]) -> None:
    """Write one bundle per seed with ``finescale synth``; print hashes and the environment."""
    from finescale.cli import main

    for seed in seeds:
        out = out_root / f"bundle{seed}"
        argv = ["synth", "--out", str(out), "--seed", str(seed)]
        argv += ["--fine-grid", *map(str, workload["fine"])]
        argv += ["--coarse-grid", *map(str, workload["coarse"])]
        for shape in workload["aux"]:
            argv += ["--aux-grid", *map(str, shape)]
        if workload["weights"]:
            argv += ["--weights", *map(str, workload["weights"])]
        code = main(argv)
        if code != 0:
            raise SystemExit(code)
        if not workload["fits"]:
            write_generating_models(out, workload["restarts"])
        print(json.dumps({"bundle": out.name, "seed": seed, "sha256": bundle_sha256(out)}))
    print(json.dumps({"environment": environment()}))


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written out at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.run = "main"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def load_bundle(tr: Tracer, bundle: Path):
    """Load the inputs and build H as every command does, with a span per layer call."""
    from finescale.geo import build_aggregation, load_dataset, load_partition

    def partition(path, **kw):
        with tr.span("geo.load_partition"):
            part = load_partition(path, **kw)
        tr.counts["geo.regions_loaded"] += len(part)
        return part

    def dataset(part, path):
        with tr.span("geo.load_dataset"):
            return load_dataset(part, path)

    tr.counts["geo.regions_loaded"] = 0
    coarse = partition(bundle / "coarse.geojson")
    a = dataset(coarse, bundle / "target.csv")
    fine = partition(bundle / "fine.geojson")
    with tr.span("geo.build_aggregation"):
        amap = build_aggregation(coarse, fine)
    aux = []
    for e in json.loads((bundle / "aux_manifest.json").read_text()):
        part = partition(bundle / e["geojson"], name=e["id"])
        aux.append((e["id"], dataset(part, bundle / e["csv"])))
    return a, fine, amap, aux


def stage_setup(bundle: Path) -> None:
    """What every command pays before model work: import, load, build H."""
    import finescale.cli  # noqa: F401

    load_bundle(Tracer(), bundle)


def stage_calibrate() -> None:
    """Fixed work that uses no finescale code: an import, Python loops, JSON
    and BLAS calls, the kinds of work a command does. Its time tracks the
    speed of the host, not of the program."""
    import numpy as np

    acc = 0.0
    for i in range(400_000):
        x, y = (i % 97) / 97.0, (i % 89) / 89.0
        if (x > 0.5) != (y > 0.5):
            acc += x * y
    rng = np.random.default_rng(0)
    json.loads(json.dumps(rng.random((3000, 10)).tolist()))
    a = rng.standard_normal((300, 300))
    s = a @ a.T + 300 * np.eye(300)
    for _ in range(20):
        np.linalg.cholesky(s)
        np.exp(-s)


def _median_ms(tr: Tracer, name: str, fn) -> float:
    times = []
    for _ in range(PROBE_REPS):
        with tr.span(name):
            fn()
        times.append(tr.spans[-1]["end"] - tr.spans[-1]["start"])
    return 1e3 * statistics.median(times)


def stage_trace(bundle: Path, workload: dict, out: Path) -> None:
    """Run the layers of ``cmd_fit`` and ``cmd_refine`` in process, in the same order."""
    tr = Tracer()
    tr.run = "import"
    with tr.span("cli.import"):
        import finescale.cli  # noqa: F401
    import numpy as np

    from finescale import render
    from finescale.downscale import (
        DownscaleParams, assemble_lambda, build_design, fit_downscale, grad_log_marginal,
        log_marginal, predict_fine,
    )
    from finescale.gp_aux import AuxGPModel, fit_all_aux, predict_aux
    from finescale.kernel import cov_matrix, sq_dists

    restarts = workload["restarts"]
    out.mkdir(parents=True, exist_ok=True)
    models_path = out / "models.json"
    result = {}

    if workload["fits"]:
        tr.run = "fit"
        with tr.span("cli.fit"):
            a, fine, amap, aux = load_bundle(tr, bundle)
            with tr.span("gp_aux.fit_all_aux"):
                fitted = fit_all_aux([ds for _, ds in aux], fine, restarts=restarts, seed=0,
                                     dataset_ids=[aid for aid, _ in aux])
            posteriors = [post for _, post in fitted]
            with tr.span("downscale.fit_downscale"):
                params = fit_downscale(a, posteriors, fine, amap, restarts=restarts, seed=0,
                                       ridge=0.0, gtol=1e-6)
            design = build_design(posteriors, n_fine=len(fine))
            models = {
                "aux_models": [m.to_dict() for m, _ in fitted],
                "downscale": params.to_dict(column_ids=design.column_ids),
                "coord_transform": {"kind": "identity"},
            }
            with tr.span("io.write_models"):
                models_path.write_text(json.dumps(models, indent=2, sort_keys=True) + "\n")
        result["log_marginal"] = params.diagnostics["log_marginal"]
        result["iterations"] = params.diagnostics["iterations"]
    else:
        # The models this workload refines with were made in set-up; time the
        # auxiliary fits that set-up ran, as ``fit_all_aux`` runs them.
        from finescale.geo import load_partition

        tr.run = "models"
        fine = load_partition(bundle / "fine.geojson")
        aux = load_aux(bundle)
        with tr.span("gp_aux.fit_all_aux"):
            fit_all_aux([ds for _, ds in aux], fine, restarts=restarts, seed=0,
                        dataset_ids=[aid for aid, _ in aux])
        models_path.write_text((bundle / "models.json").read_text())

    tr.run = "refine"
    with tr.span("cli.refine"):
        a, fine, amap, aux = load_bundle(tr, bundle)
        models = json.loads(models_path.read_text())
        by_id = {d["dataset_id"]: d for d in models["aux_models"]}
        posteriors = []
        for aid, ds in aux:
            model = AuxGPModel.from_dict(by_id[aid], ds.partition.centroids, ds.values)
            with tr.span("gp_aux.predict_aux"):
                posteriors.append(predict_aux(model, fine.centroids))
        params = DownscaleParams.from_dict(models["downscale"])
        design = build_design(posteriors, n_fine=len(fine))
        with tr.span("downscale.predict_fine"):
            refinement = predict_fine(params, a, design, posteriors, amap, fine=fine)
        with tr.span("io.write_refinement"):
            with open(out / "refinement.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["region_id", "mean", "variance"])
                for rid, m, v in zip(fine.ids, refinement.mean, np.diag(refinement.cov)):
                    writer.writerow([rid, repr(float(m)), repr(float(v))])
        with tr.span("render.choropleth_svg"):
            svg = render.choropleth_svg(fine, refinement.mean)
        with tr.span("io.write_svg"):
            (out / "refinement.svg").write_text(svg)

    # Single-layer probes outside the command spans.
    tr.run = "probe"
    Xf = fine.centroids
    H = amap.H
    result["kernel.sq_dists_ms"] = _median_ms(tr, "kernel.sq_dists", lambda: sq_dists(Xf, Xf))
    result["kernel.cov_matrix_ms"] = _median_ms(
        tr, "kernel.cov_matrix", lambda: cov_matrix(params.kernel, Xf, Xf))

    def objective_eval():
        assembly = assemble_lambda(params, posteriors, Xf, H)
        log_marginal(params, a.values, design, assembly, H)
        grad_log_marginal(params, a.values, design, posteriors, H, Xf, assembly)

    result["downscale.objective_eval_ms"] = _median_ms(tr, "downscale.objective_eval", objective_eval)

    nf, nc = len(fine), len(a.values)
    tr.counts.update({
        "geo.pip_pairs": nf * nc,
        "gp_aux.aux_regions": sum(len(ds.partition) for _, ds in aux),
        "gp_aux.posterior_cov_bytes": len(aux) * nf * nf * 8,
        "downscale.predict_fine_bytes": 2 * nf * nf * 8,
        "render.svg_bytes": len(svg.encode()),
    })
    (out / "trace.json").write_text(
        json.dumps({"spans": tr.spans, "counts": tr.counts, "result": result}, indent=1) + "\n"
    )


def main(argv: list[str]) -> None:
    stage = argv[0]
    if stage == "synth":
        stage_synth(json.loads(argv[1]), Path(argv[2]), [int(s) for s in argv[3:]])
    elif stage == "setup":
        stage_setup(Path(argv[1]))
    elif stage == "calibrate":
        stage_calibrate()
    elif stage == "trace":
        stage_trace(Path(argv[1]), json.loads(argv[2]), Path(argv[3]))
    else:
        raise SystemExit(f"unknown stage {stage!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
