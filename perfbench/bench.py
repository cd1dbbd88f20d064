"""End-to-end and per-layer benchmark of the finescale CLI.

    python3 perfbench/bench.py --workload fit_medium --seed 0 --seconds 20 --trace 0

Run from the repository root. One client runs one command at a time in a
closed loop: every ``finescale fit`` / ``finescale refine`` is a child
process, timed from spawn to exit, with its own peak RSS from ``os.wait4``.
Input bundles are made from ``--seed`` with ``finescale synth`` before any
timing starts. ``--trace 1`` instead runs the same commands once untraced,
then once in process with a span around every layer call, and reports the
per-layer metrics. See README.md in this directory for the workloads and
the metric map.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = HERE / "stages.py"

# Fewest set-up probes per run; their median is setup_s.
MIN_SETUPS = 3
# Wall time of ``stages.py calibrate`` on a reference host. End-to-end times
# are scaled by this over the run's calibration median, which cancels the
# host speed drift of a shared machine (see README.md).
CALIBRATION_REF_S = 0.4
# Bundle seeds of one run are seed * BUNDLE_STRIDE + k, so runs never share inputs.
BUNDLE_STRIDE = 1000
# No new pipeline starts after this many seconds and no child may run longer
# than CHILD_TIMEOUT_S, so a run ends well within 180 s.
HARD_STOP_S = 60.0
CHILD_TIMEOUT_S = 100.0
# BLAS threads are pinned in every child: at the default two threads on a
# 2-core box, fit_downscale took more than twice as long (see README.md).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    fine: tuple[int, int]
    coarse: tuple[int, int]
    aux: tuple[tuple[int, int], ...] = ()  # () keeps the synth default auxiliaries
    weights: tuple[float, ...] = ()
    restarts: int = 3
    bundles: int = 1  # distinct inputs per run; a median over them damps seed-to-seed spread
    fits: bool = True  # fit then refine; False: refine a model made in set-up


WORKLOADS = {
    w.name: w
    for w in (
        # fit_downscale dominates the fit.
        Workload("fit_medium", fine=(24, 20), coarse=(8, 5), bundles=3),
        # Auxiliary GP fits dominate; bypasses the second-step optimizer.
        Workload(
            "aux_heavy", fine=(20, 12), coarse=(5, 4),
            aux=((16, 12), (20, 15), (24, 16), (24, 20)), weights=(0.3, -0.8, 2.0, 0.5),
        ),
        # Read path only: H, nf-point auxiliary posteriors and predict_fine.
        Workload("refine_large", fine=(40, 30), coarse=(8, 6), fits=False),
    )
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "refine_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.refine_self_s": "s",
    "geo.load_partition_s": "s",
    "geo.regions_loaded": "count",
    "geo.build_aggregation_s": "s",
    "geo.pip_pairs": "count",
    "gp_aux.fit_all_aux_s": "s",
    "gp_aux.aux_regions": "count",
    "gp_aux.predict_aux_s": "s",
    "gp_aux.posterior_cov_bytes": "bytes",
    "kernel.sq_dists_ms": "ms",
    "kernel.cov_matrix_ms": "ms",
    "downscale.objective_eval_ms": "ms",
    "downscale.predict_fine_s": "s",
    "downscale.predict_fine_bytes": "bytes",
    "render.choropleth_svg_s": "s",
    "render.svg_bytes": "bytes",
    "trace.overhead_pct": "%",
}
# Printed for fit workloads only; refine_large never runs the second-step fit,
# so these cannot be part of the result line every workload prints.
FIT_ONLY_LAYER = {
    "downscale.fit_downscale_s": "s",
    "downscale.iterations": "count",
    "numerics.evals_est": "count",
    "cli.fit_self_s": "s",
}


class CheckFailed(Exception):
    """A command's output failed a correctness check."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("DOWNSCALE_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    ``os.wait4`` gives the child's own ``ru_maxrss``; ``RUSAGE_CHILDREN``
    would keep the maximum over every child so far.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, e.g. by SIGTERM: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli(command: str, bundle: Path, out: Path, wl: Workload) -> list[str]:
    argv = ["-m", "finescale.cli", command,
            "--target", f"{bundle / 'coarse.geojson'},{bundle / 'target.csv'}",
            "--fine", str(bundle / "fine.geojson"),
            "--aux-manifest", str(bundle / "aux_manifest.json"),
            "--out", str(out), "--restarts", str(wl.restarts)]
    if command == "refine" and not wl.fits:
        argv += ["--models", str(bundle / "models.json")]
    return argv


def fine_ids(bundle: Path) -> list[str]:
    doc = json.loads((bundle / "fine.geojson").read_text())
    return [str(f["properties"]["id"]) for f in doc["features"]]


def check_models(path: Path) -> tuple[float, int]:
    """(log_marginal, iterations) of a fitted models.json; raises CheckFailed."""
    try:
        diag = json.loads(path.read_text())["downscale"]["diagnostics"]
        lm, iters = float(diag["log_marginal"]), int(diag["iterations"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{path}: unreadable diagnostics ({exc})") from exc
    if not math.isfinite(lm):
        raise CheckFailed(f"{path}: log_marginal {lm} is not finite")
    return lm, iters


def check_refinement(path: Path, ids: list[str]) -> list[float]:
    """Means of a refinement.csv with exactly the fine ids, finite means, variances >= 0."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [r["region_id"] for r in rows]
        means = [float(r["mean"]) for r in rows]
        variances = [float(r["variance"]) for r in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{path}: unreadable ({exc})") from exc
    if got != ids:
        raise CheckFailed(f"{path}: region ids differ from the fine partition")
    if not all(math.isfinite(m) for m in means):
        raise CheckFailed(f"{path}: non-finite mean")
    if not all(math.isfinite(v) and v >= 0 for v in variances):
        raise CheckFailed(f"{path}: variance negative or non-finite")
    return means


def mape(bundle: Path, ids: list[str], means: list[float]) -> float:
    with open(bundle / "truth.csv", newline="") as fh:
        truth = {row["region_id"]: float(row["value"]) for row in csv.DictReader(fh)}
    return statistics.fmean(abs((truth[i] - m) / truth[i]) for i, m in zip(ids, means))


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def self_time(span: dict, spans: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered, cursor = 0.0, span["start"]
    for c in sorted((s for s in spans if s["parent"] == span["id"]), key=lambda s: s["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end"] - span["start"] - covered


class Run:
    """One benchmark run: its work directory, counters and report lines."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.work = wl, seed, workdir
        self.attempted = self.failed = 0
        self.lines: list[str] = []
        self.started = time.perf_counter()
        self.seen: dict[str, tuple] = {}  # bundle -> first (log_marginal, iterations, means)

    def note(self, line: str) -> None:
        self.lines.append(line)

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.note(f"FAILED {what}: {detail}")

    def command(self, argv: list[str], log: Path) -> tuple[float, float] | None:
        """Run one child; (wall s, peak RSS MB), or None when it exits non-zero."""
        self.attempted += 1
        code, wall, rss = run_child(argv, log)
        if code != 0:
            tail_lines = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(" ".join(argv[:3]), f"exit {code}: {' | '.join(tail_lines)}")
            return None
        return wall, rss

    def make_bundles(self, count: int) -> list[Path]:
        seeds = [self.seed * BUNDLE_STRIDE + k for k in range(count)]
        log = self.work / "synth.log"
        code, _, _ = run_child([str(STAGES), "synth", json.dumps(asdict(self.wl)),
                                str(self.work), *map(str, seeds)], log)
        if code != 0:
            raise SystemExit(f"bundle generation failed (exit {code}); see {log}")
        for line in log.read_text().splitlines():
            if line.startswith("{"):
                rec = json.loads(line)
                if "environment" in rec:
                    self.note(f"environment: {json.dumps(rec['environment'], sort_keys=True)}")
                else:
                    self.note(f"bundle {rec['bundle']}: seed {rec['seed']} sha256 {rec['sha256']}")
        return [self.work / f"bundle{s}" for s in seeds]

    def pipeline(self, bundle: Path, out: Path) -> dict | None:
        """fit (fit workloads) then refine on one bundle, every output checked."""
        shutil.rmtree(out, ignore_errors=True)
        sample = {}
        try:
            if self.wl.fits:
                res = self.command(cli("fit", bundle, out, self.wl), out.with_suffix(".fit.log"))
                if res is None:
                    return None
                sample["fit_s"], sample["fit_peak_rss_mb"] = res
                lm, iters = check_models(out / "models.json")
                sample["log_marginal"], sample["iterations"] = lm, iters
            res = self.command(cli("refine", bundle, out, self.wl), out.with_suffix(".refine.log"))
            if res is None:
                return None
            sample["refine_s"], sample["refine_peak_rss_mb"] = res
            ids = fine_ids(bundle)
            means = check_refinement(out / "refinement.csv", ids)
            answer = (sample.get("log_marginal"), sample.get("iterations"), means)
            first = self.seen.setdefault(bundle.name, answer)
            if answer != first:
                raise CheckFailed(f"{bundle.name}: log_marginal, iterations or mean differ from "
                                  "an earlier run of the same code on the same bundle")
        except CheckFailed as exc:
            self.fail(f"{bundle.name} outputs", str(exc))
            return None
        sample["refine_mape"] = mape(bundle, ids, means)
        sample["pipeline_s"] = sample.get("fit_s", 0.0) + sample["refine_s"]
        sample["peak_rss_mb"] = max(sample.get("fit_peak_rss_mb", 0.0), sample["refine_peak_rss_mb"])
        sample["means"] = means
        return sample

    def report(self, name: str, unit: str, values: list[float]) -> float:
        med = statistics.median(values)
        label, hi = tail(values)
        self.note(f"{name}: median {med:.6g} {unit}, {label} {hi:.6g} {unit}, n={len(values)}")
        return med

    def untraced(self, seconds: float) -> dict:
        bundles = self.make_bundles(self.wl.bundles)
        setup, calibration, samples, k = [], [], [], 0

        def probe() -> None:
            res = self.command([str(STAGES), "setup", str(bundles[0])],
                               self.work / f"setup{len(setup)}.log")
            if res is not None:
                setup.append(res[0])
            code, wall, _ = run_child([str(STAGES), "calibrate"], self.work / "calibrate.log")
            if code != 0:
                raise SystemExit(f"calibration failed (exit {code})")
            calibration.append(wall)

        # Set-up and calibration probes are interleaved with the pipelines, so
        # that host speed drift over the run reaches every median alike.
        t0 = time.perf_counter()
        while k < len(bundles) or (time.perf_counter() - t0 < seconds
                                   and time.perf_counter() - self.started < HARD_STOP_S):
            probe()
            bundle = bundles[k % len(bundles)]
            sample = self.pipeline(bundle, self.work / f"run_{bundle.name}")
            if sample is not None:
                samples.append(sample)
            k += 1
        for _ in range(MIN_SETUPS - k):
            probe()
        self.note(f"closed loop, 1 client: {k} pipelines over {len(bundles)} bundles "
                  f"in {time.perf_counter() - t0:.1f} s")
        scale = CALIBRATION_REF_S / self.report("calibration_s", "s", calibration)
        self.note(f"times in the result line are scaled by {scale:.6g}, to a host where "
                  f"the calibration takes {CALIBRATION_REF_S} s")
        metrics = {}
        if setup:
            metrics["setup_s"] = self.report("setup_s", "s", setup)
        if samples:
            for name, unit in (("pipeline_s", "s"), ("fit_s", "s"), ("refine_s", "s"),
                               ("peak_rss_mb", "MB"), ("fit_peak_rss_mb", "MB"),
                               ("refine_peak_rss_mb", "MB"), ("log_marginal", "nats"),
                               ("refine_mape", "1")):
                values = [s[name] for s in samples if name in s]
                if values:
                    med = self.report(name, unit, values)
                    if name in END_TO_END:
                        metrics[name] = med
                else:
                    self.note(f"{name}: n/a on {self.wl.name}")
        self.note(f"failure_rate: {self.failed}/{self.attempted} = "
                  f"{self.failed / max(self.attempted, 1):.4g}")
        return {name: {"value": metrics[name] * (scale if unit == "s" else 1.0), "unit": unit}
                for name, unit in END_TO_END.items() if name in metrics}

    def traced(self) -> dict:
        (bundle,) = self.make_bundles(1)
        sample = self.pipeline(bundle, self.work / "run_cli")
        out = self.work / "run_traced"
        res = self.command([str(STAGES), "trace", str(bundle), json.dumps(asdict(self.wl)),
                            str(out)], self.work / "trace.log")
        if sample is None or res is None:
            return {}
        trace = json.loads((out / "trace.json").read_text())
        spans, result = trace["spans"], trace["result"]
        try:
            means = check_refinement(out / "refinement.csv", fine_ids(bundle))
            if means != sample["means"] or any(
                result.get(k) != sample.get(k) for k in ("log_marginal", "iterations")
            ):
                raise CheckFailed("traced run's answers differ from the CLI's on the same bundle")
        except CheckFailed as exc:
            self.fail("traced run", str(exc))
            return {}

        def total(name: str, run: str | None = None) -> float:
            return sum(s["end"] - s["start"] for s in spans
                       if s["name"] == name and run in (None, s["run"]))

        def command_span(name: str) -> dict:
            return next(s for s in spans if s["name"] == name)

        metrics = dict(trace["counts"])
        metrics.update({k: v for k, v in result.items() if k.startswith(("kernel.", "downscale."))})
        metrics.update({
            "cli.import_s": total("cli.import"),
            "cli.refine_self_s": self_time(command_span("cli.refine"), spans),
            "geo.load_partition_s": total("geo.load_partition", "refine"),
            "geo.build_aggregation_s": total("geo.build_aggregation", "refine"),
            "gp_aux.fit_all_aux_s": total("gp_aux.fit_all_aux"),
            "gp_aux.predict_aux_s": total("gp_aux.predict_aux", "refine"),
            "downscale.predict_fine_s": total("downscale.predict_fine"),
            "render.choropleth_svg_s": total("render.choropleth_svg"),
        })
        commands = 2 if self.wl.fits else 1
        traced_s = commands * metrics["cli.import_s"] + total("cli.fit") + total("cli.refine")
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / sample["pipeline_s"] - 1.0)
        self.note(f"tracing overhead: traced {traced_s:.4f} s against untraced CLI "
                  f"{sample['pipeline_s']:.4f} s on the same bundle")
        if self.wl.fits:
            fit_down = total("downscale.fit_downscale")
            metrics.update({
                "downscale.fit_downscale_s": fit_down,
                "downscale.iterations": result["iterations"],
                "numerics.evals_est": fit_down / (result["downscale.objective_eval_ms"] / 1e3),
                "cli.fit_self_s": self_time(command_span("cli.fit"), spans),
            })
            self.note(f"share of fit_s: fit_downscale {fit_down / sample['fit_s']:.1%}, "
                      f"fit_all_aux {metrics['gp_aux.fit_all_aux_s'] / sample['fit_s']:.1%}")
        read_path = sum(metrics[k] for k in ("geo.build_aggregation_s", "gp_aux.predict_aux_s",
                                             "downscale.predict_fine_s"))
        self.note(f"share of refine_s: build_aggregation + predict_aux + predict_fine "
                  f"{read_path / sample['refine_s']:.1%}")
        for name, unit in {**PER_LAYER, **FIT_ONLY_LAYER}.items():
            if name in metrics:
                self.note(f"{name}: {metrics[name]:.6g} {unit}")
            else:
                self.note(f"{name}: n/a on {self.wl.name}")
        return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload and return the result object of the last output line."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    r = Run(wl, seed, workdir)
    r.note(f"workload {wl.name}, seed {seed}, trace {int(trace)}: {json.dumps(asdict(wl))}")
    metrics = r.traced() if trace else r.untraced(seconds)
    expected = PER_LAYER if trace else END_TO_END
    correct = r.failed == 0 and set(metrics) == set(expected)
    for line in r.lines:
        print(line)
    return {"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "finescale" / "cli.py").is_file():
        print(f"error: no finescale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
