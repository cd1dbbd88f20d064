"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each criterion is also enforced with asserts.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.stats

from conftest import CRITERION_6_SPEC, grad_check, random_instance
from finescale.baselines import gpr_baseline, lr_baseline, sd2_baseline
from finescale.cli import EXIT_OK, main
from finescale.downscale import (
    DownscaleParams,
    assemble_lambda,
    build_design,
    fit_downscale,
    log_marginal,
    predict_fine,
)
from finescale.evaluate import SyntheticSpec, generate_synthetic, mape
from finescale.geo import ArealDataset
from finescale.gp_aux import AuxGPModel, fit_all_aux, predict_aux
from finescale.kernel import SEKernelParams
from test_downscale import (
    composition_log_marginal,
    entrywise_lambda,
    pack,
    prepared_objective,
)


def verdict(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="session")
def recovery_runs():
    """20 seeded instances at 30 coarse / 120 fine regions with 3 auxiliaries,
    all four methods fitted; shared by the recovery and ordering criteria."""
    spec = SyntheticSpec()  # (6,5) coarse, (12,10) fine, 3 auxiliaries
    runs = []
    for seed in range(20):
        inst = generate_synthetic(spec, seed=seed)
        posteriors = [p for _, p in fit_all_aux(inst.aux_datasets, inst.fine, restarts=5, seed=0)]
        params = fit_downscale(inst.a.values, posteriors, inst.fine, inst.amap, restarts=5, seed=0)
        design = build_design(posteriors, n_fine=len(inst.fine))
        proposed = predict_fine(params, inst.a.values, design, posteriors, inst.amap).mean
        runs.append(
            {
                "mape": {
                    "proposed": mape(inst.z_true, proposed).mape,
                    "gpr": mape(
                        inst.z_true, gpr_baseline(inst.a, inst.fine, restarts=5, seed=0).prediction
                    ).mape,
                    "lr": mape(
                        inst.z_true, lr_baseline(inst.a, posteriors, inst.amap).prediction
                    ).mape,
                    "sd2": mape(
                        inst.z_true,
                        sd2_baseline(inst.a, posteriors, inst.amap, restarts=5, seed=0).prediction,
                    ).mape,
                },
                "w_corr": float(scipy.stats.pearsonr(inst.true_w, params.w)[0]),
            }
        )
    return runs


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10):
        nc = int(rng.integers(2, 6))
        nf = int(rng.integers(max(nc, 4), 13))
        S = int(rng.integers(0, 4))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        f = prepared_objective(a, design, posteriors, H, Xf)
        worst = max(worst, grad_check(f, pack(params)))
    elapsed = time.monotonic() - start
    verdict(1, "gradient correctness", worst <= 1e-5 and elapsed < 10.0)


def test_criterion_2_marginalization_oracle():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for _ in range(8):
        nc = int(rng.integers(1, 5))
        nf = int(rng.integers(max(nc, 2), 7))  # |fine| <= 6
        S = int(rng.integers(0, 3))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        assembly = assemble_lambda(params, posteriors, Xf, H)
        closed = log_marginal(params, a, design, assembly, H)
        oracle = composition_log_marginal(params, a, design, posteriors, H, Xf)
        worst = max(worst, abs(closed - oracle))
    elapsed = time.monotonic() - start
    verdict(2, "marginalization oracle", worst <= 1e-10 and elapsed < 1.0)


def test_criterion_3_lambda_entrywise():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        nc = int(rng.integers(2, 5))
        nf = int(rng.integers(nc, 10))
        S = int(rng.integers(0, 3))
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        got = assemble_lambda(params, posteriors, Xf, H).Lambda
        oracle = entrywise_lambda(params, posteriors, Xf, H)
        rel = np.abs(got - oracle) / np.maximum(np.abs(oracle), 1e-300)
        worst = max(worst, float(rel.max()))
    verdict(3, "covariance entrywise agreement", worst <= 1e-12)


def test_criterion_4_aggregation_consistency():
    rng = np.random.default_rng(13)
    ok = True
    # aggregated prediction reproduces the observations as sigma -> 0
    for _ in range(5):
        nc, nf, S = 4, 12, 2
        params, a, design, posteriors, H, Xf = random_instance(rng, nc, nf, S)
        params = DownscaleParams(w=params.w, kernel=params.kernel, sigma=1e-6)
        ref = predict_fine(params, a, design, posteriors, H, fine=Xf)
        ok &= float(np.max(np.abs(H @ ref.mean - a))) <= 1e-3
    # identity aggregation with near-zero noise reproduces a pointwise
    for _ in range(5):
        nf, S = 9, 1
        params, a, design, posteriors, H, Xf = random_instance(rng, nf, nf, S)
        params = DownscaleParams(w=params.w, kernel=params.kernel, sigma=1e-8)
        ref = predict_fine(params, a, design, posteriors, np.eye(nf), fine=Xf)
        ok &= float(np.max(np.abs(ref.mean - a))) <= 1e-4
    verdict(4, "aggregation-consistency limit", ok)


def test_criterion_5_synthetic_recovery(recovery_runs):
    start_known = len(recovery_runs) == 20
    wins = sum(r["mape"]["proposed"] < r["mape"]["gpr"] for r in recovery_runs)
    med_corr = float(np.median([r["w_corr"] for r in recovery_runs]))
    print(f"\n  proposed beats gpr in {wins}/20 seeds; median weight correlation {med_corr:.5f}")
    verdict(5, "synthetic recovery", start_known and wins >= 15 and med_corr >= 0.8)


def test_criterion_6_granularity_uncertainty():
    spec = CRITERION_6_SPEC  # 5 vs 100 regions of one shared field
    var_wins = 0
    w_coarse, w_fine = [], []
    for seed in range(20):
        inst = generate_synthetic(spec, seed=seed)
        fits = fit_all_aux(inst.aux_datasets, inst.fine, restarts=5, seed=0)
        posteriors = [p for _, p in fits]
        var_wins += posteriors[1].avg_variance < posteriors[0].avg_variance
        params = fit_downscale(inst.a.values, posteriors, inst.fine, inst.amap, restarts=5, seed=0)
        w_coarse.append(abs(params.w[0]))
        w_fine.append(abs(params.w[1]))
    med_c, med_f = float(np.median(w_coarse)), float(np.median(w_fine))
    print(
        f"\n  finer twin lower avg variance in {var_wins}/20 seeds; "
        f"median |w| fine {med_f:.3f} vs coarse {med_c:.3f}"
    )
    verdict(6, "granularity-uncertainty property", var_wins == 20 and med_f > med_c)


def test_criterion_7_end_to_end_comparison(recovery_runs, tmp_path, capsys):
    # full comparison pipeline runs end-to-end on a user-suppliable bundle
    bundle = tmp_path / "bundle"
    out = tmp_path / "out"
    assert main(["synth", "--out", str(bundle), "--seed", "0"]) == EXIT_OK
    code = main(
        [
            "eval",
            "--target",
            f"{bundle / 'coarse.geojson'},{bundle / 'target.csv'}",
            "--fine",
            str(bundle / "fine.geojson"),
            "--aux-manifest",
            str(bundle / "aux_manifest.json"),
            "--truth",
            str(bundle / "truth.csv"),
            "--out",
            str(out),
            "--restarts",
            "3",
        ]
    )
    captured = capsys.readouterr().out
    table = (out / "comparison.csv").read_text().splitlines()
    pipeline_ok = (
        code == EXIT_OK
        and len(table) == 5  # header + 4 methods
        and table[0].split(",")[:2] == ["method", "mape"]
        and "stars" in table[0]
        and "MAPE" in captured
    )
    med = {
        m: float(np.median([r["mape"][m] for r in recovery_runs]))
        for m in ("proposed", "gpr", "lr", "sd2")
    }
    ordering_ok = med["proposed"] < med["sd2"] <= med["lr"] < med["gpr"]
    print(
        f"\n  median MAPE: proposed {med['proposed']:.5f} < sd2 {med['sd2']:.5f} "
        f"<= lr {med['lr']:.5f} < gpr {med['gpr']:.5f}: {ordering_ok}"
    )
    verdict(7, "end-to-end comparison and method ordering", pipeline_ok and ordering_ok)


def test_criterion_8_baseline_identities():
    spec = SyntheticSpec()
    inst = generate_synthetic(spec, seed=4)
    posteriors = [p for _, p in fit_all_aux(inst.aux_datasets, inst.fine, restarts=3, seed=0)]

    # sd2 minus lr equals the kriged residual field
    lr = lr_baseline(inst.a, posteriors, inst.amap)
    kernel, sigma = SEKernelParams(0.5, 0.3), 0.05
    sd2 = sd2_baseline(inst.a, posteriors, inst.amap, residual_params=(kernel, sigma))
    residuals = inst.a.values - inst.amap.H @ lr.prediction
    model = AuxGPModel(
        dataset_id="check",
        params=kernel,
        noise_sigma=sigma,
        train_centroids=inst.coarse.centroids,
        train_values=residuals,
        offset=0.0,
        scale=1.0,
        log_marginal=0.0,
    )
    kriged = predict_aux(model, inst.fine.centroids).mean
    identity_ok = float(np.max(np.abs((sd2.prediction - lr.prediction) - kriged))) <= 1e-10

    # lr with a perfectly explanatory auxiliary reproduces it
    perfect = posteriors[0]
    a_exact = ArealDataset(inst.coarse, inst.amap.H @ perfect.mean)
    lr2 = lr_baseline(a_exact, [perfect], inst.amap)
    reproduce_ok = float(np.max(np.abs(lr2.prediction - perfect.mean))) <= 1e-8

    verdict(8, "baseline structural identities", identity_ok and reproduce_ok)


def test_criterion_9_determinism(tmp_path):
    bundle = tmp_path / "bundle"
    assert main(["synth", "--out", str(bundle), "--seed", "1"]) == EXIT_OK
    args = [
        "--target",
        f"{bundle / 'coarse.geojson'},{bundle / 'target.csv'}",
        "--fine",
        str(bundle / "fine.geojson"),
        "--aux-manifest",
        str(bundle / "aux_manifest.json"),
        "--restarts",
        "2",
        "--seed",
        "9",
    ]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["fit", *args, "--out", str(out)]) == EXIT_OK
        assert main(["refine", *args, "--out", str(out)]) == EXIT_OK
        assert main(["baseline", *args, "--out", str(out), "--method", "gpr"]) == EXIT_OK
        outs.append(out)
    ok = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("models.json", "refinement.csv", "refinement.svg", "gpr.csv")
    )
    verdict(9, "seeded determinism", ok)
