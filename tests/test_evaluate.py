import hashlib
import os

import numpy as np
import pytest

from conftest import BLAS_THREAD_VARS, in_fresh_interpreter, polygon_area_centroid
from finescale import evaluate
from finescale.baselines import BaselineResult
from finescale.downscale import DownscaleParams, assemble_lambda, build_design
from finescale.evaluate import (
    METHODS,
    SyntheticSpec,
    default_offset,
    generate_synthetic,
    grid_partition,
    mape,
    paired_ttest,
    run_comparison,
)
from finescale.gp_aux import AuxGPModel, predict_aux
from finescale.kernel import SEKernelParams


def test_mape_hand_cases():
    r = mape([1.0, 2.0], [1.0, 1.0])
    assert r.mape == pytest.approx(0.25)
    r = mape([2.0], [1.0])
    assert r.mape == pytest.approx(0.5)
    assert r.mae == pytest.approx(1.0)
    assert r.rmse == pytest.approx(1.0)


def test_mape_perfect_prediction():
    r = mape([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
    assert r.mape == r.mae == r.rmse == r.rmspe == 0.0


def test_mape_zero_truth_errors():
    with pytest.raises(ValueError, match="1"):
        mape([1.0, 0.0], [1.0, 1.0])


def test_metric_relations(rng):
    truth = rng.uniform(1.0, 5.0, size=30)
    pred = truth + rng.normal(0, 0.5, size=30)
    r = mape(truth, pred)
    assert r.rmse >= r.mae
    assert r.rmspe >= r.mape
    assert r.mape == pytest.approx(np.mean(r.ape_per_region))
    assert r.std_error_ape == pytest.approx(np.std(r.ape_per_region) / np.sqrt(30))


def test_ttest_identical_vectors():
    r = paired_ttest([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert (r.t, r.p, r.stars) == (0.0, 1.0, "")


def test_ttest_strong_effect():
    rng = np.random.default_rng(0)
    x = np.ones(20) + rng.normal(0, 1e-3, 20)
    r = paired_ttest(x, np.zeros(20))
    assert r.p < 0.01
    assert r.stars == "**"


def test_ttest_hand_case():
    # differences [1, 2, 3]: t = 2 / (1/sqrt(3)) = 2*sqrt(3), df 2
    r = paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert r.t == pytest.approx(2 * np.sqrt(3), abs=1e-12)
    assert r.p == pytest.approx(0.07417990022744858, abs=1e-8)


def test_ttest_symmetry_under_swap(rng):
    x = rng.uniform(0, 1, size=10)
    y = rng.uniform(0, 1, size=10)
    r1 = paired_ttest(x, y)
    r2 = paired_ttest(y, x)
    assert r1.t == pytest.approx(-r2.t, abs=1e-14)
    assert r1.p == pytest.approx(r2.p, abs=1e-14)


def test_ttest_degenerate_nonzero_mean():
    r = paired_ttest([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert (r.t, r.p, r.stars) == (np.inf, 0.0, "**")


def test_grid_partition_shape_and_ids():
    p = grid_partition(3, 2, "g")
    assert len(p) == 6
    assert p.ids[0] == "g_000_000"
    assert p.ids[-1] == "g_001_002"
    areas = [polygon_area_centroid(r.geometry)[0] for r in p.regions]
    assert np.allclose(areas, 1.0 / 6.0, atol=1e-14)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(w=(1.0,))  # length mismatch with aux_shapes
    with pytest.raises(ValueError):
        SyntheticSpec(fine_shape=(7, 10))  # does not subdivide the coarse grid
    with pytest.raises(ValueError, match="positive"):
        SyntheticSpec(coarse_shape=(0, 5))


def test_identical_seed_bit_identical():
    spec = SyntheticSpec()
    i1 = generate_synthetic(spec, seed=11)
    i2 = generate_synthetic(spec, seed=11)
    assert np.array_equal(i1.z_true, i2.z_true)
    assert np.array_equal(i1.a.values, i2.a.values)
    for d1, d2 in zip(i1.aux_datasets, i2.aux_datasets):
        assert np.array_equal(d1.values, d2.values)


def synthetic_instance_sha256() -> str:
    """sha256 of the arrays of the default spec's seed-0 instance."""
    inst = generate_synthetic(SyntheticSpec(), seed=0)
    h = hashlib.sha256()
    for arr in (inst.z_true, inst.a.values, *(d.values for d in inst.aux_datasets)):
        h.update(arr.tobytes())
    return h.hexdigest()


def test_a_seed_gives_one_instance_at_every_blas_thread_count():
    # fresh interpreters, so that BLAS starts with 1 thread, 2, and every core
    unpinned = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    envs = [{**unpinned, **dict.fromkeys(BLAS_THREAD_VARS, n)} for n in ("1", "2")] + [unpinned]
    runs = [in_fresh_interpreter("test_evaluate", "synthetic_instance_sha256", env) for env in envs]
    assert runs[0] == runs[1] == runs[2]


def test_coarse_equals_fine_gives_identity_H():
    spec = SyntheticSpec(fine_shape=(4, 4), coarse_shape=(4, 4))
    inst = generate_synthetic(spec, seed=0)
    assert np.allclose(inst.amap.H, np.eye(16), atol=1e-14)


def test_mean_of_a_matches_bias_plus_offset():
    # no auxiliaries, zero-ish noise: a averages to the constant mean level
    spec = SyntheticSpec(
        aux_shapes=(), w=(), bias=2.0, sigma=1e-8, alpha=0.3, offset=1.0,
        fine_shape=(4, 4), coarse_shape=(2, 2),
    )
    means = [np.mean(generate_synthetic(spec, seed=s).a.values) for s in range(200)]
    # per-seed mean of a is 3.0 plus a correlated GP average; MC error ~ alpha/sqrt(n)
    assert np.mean(means) == pytest.approx(3.0, abs=0.05)


def test_true_w_records_weights_then_bias_with_offset():
    spec = SyntheticSpec()
    inst = generate_synthetic(spec, seed=0)
    assert np.array_equal(inst.true_w[:3], np.array(spec.w))
    assert inst.true_w[3] == pytest.approx(spec.bias + default_offset(spec))


def test_generator_covariance_matches_closed_form():
    # 2-coarse/4-fine instance with the auxiliary observations held fixed:
    # the empirical covariance of a must match the marginal covariance
    spec = SyntheticSpec(
        fine_shape=(2, 2), coarse_shape=(2, 1), aux_shapes=((2, 2),), w=(1.5,),
        alpha=0.5, gamma=0.3, sigma=0.2, aux_alpha=1.0, aux_gamma=0.3, aux_noise=0.1,
    )
    n_rep = 10_000
    samples = np.zeros((n_rep, 2))
    inst0 = generate_synthetic(spec, seed=0, aux_seed=123)
    for rep in range(n_rep):
        inst = generate_synthetic(spec, seed=rep + 1, aux_seed=123)
        samples[rep] = inst.a.values
    emp = np.cov(samples.T)
    # closed form needs the true-parameter auxiliary posterior at fine points
    Xs = inst0.aux_datasets[0].partition.centroids
    Xf = inst0.fine.centroids
    true_model = AuxGPModel(
        dataset_id="aux0",
        params=SEKernelParams(spec.aux_alpha, spec.aux_gamma),
        noise_sigma=spec.aux_noise,
        train_centroids=Xs,
        train_values=np.zeros(len(Xs)),
        offset=0.0,
        scale=1.0,
        log_marginal=float("nan"),
    )
    post = predict_aux(true_model, Xf)
    params = DownscaleParams(
        w=np.array([spec.w[0], 0.0]),
        kernel=SEKernelParams(spec.alpha, spec.gamma),
        sigma=spec.sigma,
    )
    Lam = assemble_lambda(params, [post], Xf, inst0.amap.H).Lambda
    rel = np.abs(emp - Lam) / np.abs(Lam)
    assert rel.max() <= 0.05, f"max relative covariance error {rel.max()}"


def test_run_comparison_single_method():
    spec = SyntheticSpec(
        fine_shape=(4, 4), coarse_shape=(2, 2), aux_shapes=((4, 4),), w=(1.0,)
    )
    inst = generate_synthetic(spec, seed=0)
    table = run_comparison(
        inst.a, inst.aux_datasets, inst.amap, inst.z_true, methods=("gpr",), restarts=2
    )
    assert len(table.rows) == 1
    assert table.rows[0].method == "gpr"
    assert table.rows[0].report.mape >= 0
    assert "gpr" in table.to_csv()


def test_run_comparison_empty_methods():
    spec = SyntheticSpec(
        fine_shape=(4, 4), coarse_shape=(2, 2), aux_shapes=((4, 4),), w=(1.0,)
    )
    inst = generate_synthetic(spec, seed=0)
    table = run_comparison(inst.a, inst.aux_datasets, inst.amap, inst.z_true, methods=())
    assert table.rows == ()


def test_run_comparison_unknown_method():
    spec = SyntheticSpec(
        fine_shape=(4, 4), coarse_shape=(2, 2), aux_shapes=((4, 4),), w=(1.0,)
    )
    inst = generate_synthetic(spec, seed=0)
    with pytest.raises(evaluate.UnknownMethodError, match="nope"):
        run_comparison(inst.a, inst.aux_datasets, inst.amap, inst.z_true, methods=("nope",))


def test_run_comparison_full_table_structure():
    spec = SyntheticSpec(
        fine_shape=(6, 4), coarse_shape=(3, 2), aux_shapes=((6, 4),), w=(1.5,)
    )
    inst = generate_synthetic(spec, seed=2)
    table = run_comparison(
        inst.a, inst.aux_datasets, inst.amap, inst.z_true, methods=METHODS, restarts=2
    )
    assert [r.method for r in table.rows] == list(METHODS)
    assert len(table.pairwise) == 6  # all unordered pairs
    text = table.to_text()
    assert "MAPE" in text and "proposed" in text


@pytest.mark.parametrize(
    "t_values, stars",
    [((5.0, 5.0, 5.0), "**"), ((5.0, 2.5, 5.0), "*"), ((5.0, 5.0, 1.0), "")],
)
def test_run_comparison_stars_follow_the_weakest_pair(monkeypatch, t_values, stars):
    # APE differences c + s*e against the first method have t = c sqrt(n) / (s sd(e)), df 19
    n, s = 20, 0.01
    e = np.tile([1.0, -1.0], n // 2)
    truth = np.ones(n)
    ape = {"proposed": np.full(n, 0.5)}
    for m, t in zip(("gpr", "lr", "sd2"), t_values):
        c = t * s * np.std(e, ddof=1) / np.sqrt(n)
        ape[m] = 0.5 + c + s * e
    monkeypatch.setattr(
        evaluate, "run_methods",
        lambda a, aux, amap, methods, **kw: {m: BaselineResult(truth + ape[m]) for m in methods},
    )
    table = run_comparison(None, [], None, truth, methods=METHODS)
    ps = [table.pairwise[("proposed", m)].p for m in ("gpr", "lr", "sd2")]
    bands = [0 if p < 0.01 else 1 if p < 0.05 else 2 for p in ps]
    assert bands == [{5.0: 0, 2.5: 1, 1.0: 2}[t] for t in t_values]
    assert [r.stars for r in table.rows] == [stars, "", "", ""]
