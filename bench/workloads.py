"""The benchmark's workloads, driven through selpred's public API and CLI.

- ``train_cls``: ``train()`` on the criterion-4 task, then the light
  calibrate / evaluate / checkpoint work a training job ends with.
- ``serve_cls``: load a calibrated checkpoint and serve predict-or-abstain
  calls, calibration, softmax-response and MC-dropout scoring.
- ``compare_reg``: ``selpred compare`` on a synthetic regression CSV shaped
  like UCI Concrete (1030 x 8), written to the run's temporary directory.

Every workload derives its inputs from the run seed, checks its outputs and
counts each operation in a ``Tally``. Functions are always looked up on the
selpred module at call time, so the span recorder sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
import traceback
from dataclasses import dataclass

import numpy as np
import yaml

from spans import perf_counter


@dataclass(frozen=True)
class Scale:
    """Sizes of one run. FULL is what the benchmark measures; SMOKE only
    proves that every workload runs and reports."""

    train_epochs: int = 10          # epochs per train_cls job
    serve_epochs: int = 3           # epochs of each model trained in set-up
    compare_epochs: int = 8         # epochs of each of the 7 compare models
    predict1_per_cycle: int = 200
    predict64_per_cycle: int = 50
    bulk_rows: int = 100_000


FULL = Scale()
SMOKE = Scale(train_epochs=2, serve_epochs=2, compare_epochs=1,
              predict1_per_cycle=20, predict64_per_cycle=5,
              bulk_rows=5_000)

TARGET_COVERAGE = 0.8
MC_PASSES, MC_RATE = 100, 0.5
COMPARE_COVERAGES = "1.0,0.9,0.8,0.7,0.6,0.5"
CLS_ARCH = dict(input_dim=8, body_widths=[32], task="classification",
                n_classes=4, selection_hidden=16, dropout_rate=0.0)
REG_ARCH = dict(input_dim=8, body_widths=[64], task="regression",
                selection_hidden=16, dropout_rate=0.0)


class Tally:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {what}", file=sys.stderr)

    def error(self):
        self.attempted += 1
        self.failed += 1
        if self.failed <= 5:
            traceback.print_exc(file=sys.stderr)


def tail(samples):
    """(percentile, value): the highest of p99/p95/p90/p75/p50 with at least
    ten samples beyond it, or the maximum when there are fewer than 20.

    Capped at p99 so that a faster program, which fits more samples into the
    same run, is not then measured at a higher percentile.
    """
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(samples, p))
    return 100, float(max(samples))


def latency(name, samples, unit, scale, what):
    """Median and tail entries for one latency sample list (seconds)."""
    p, value = tail(samples)
    return {
        f"{name}_p50_{unit}": (statistics.median(samples) * scale, unit,
                               f"median of {len(samples)} {what}"),
        f"{name}_tail_{unit}": (value * scale, unit,
                                f"p{p} of {len(samples)} {what}"),
    }


def median_entry(samples, scale, unit, what):
    return (statistics.median(samples) * scale, unit,
            f"median of {len(samples)} {what}")


def gated(ops, what):
    """The end-to-end metric every workload reports besides set-up and
    memory: its fastest unit operation (``ops`` are (start, end) windows of
    operations that all do the same work).

    On a shared 2-vCPU host whose contention slows whole runs by up to 1.8x
    for minutes, medians and the fastest of jobs lasting 0.2 s or more
    spread 16-70% over ten runs. The floor of thousands of millisecond-long
    operations spreads least (see README.md).
    """
    return {"op_min_ms": (min(b - a for a, b in ops) * 1e3, "ms",
                          f"fastest of {len(ops)} {what}")}


def loss_ok(history):
    losses = history.total_loss
    return (len(losses) > 0 and all(math.isfinite(v) for v in losses)
            and losses[-1] < losses[0])


def predict_ok(out, n):
    preds, accepted = out
    return (np.shape(preds) == (n,) and np.shape(accepted) == (n,)
            and np.asarray(accepted).dtype == np.bool_)


def calibration_ok(M, result, n):
    return (result.n_validation == n
            and result.achieved_coverage >= result.target_coverage
            and result.epsilon == M.calibrate.hoeffding_epsilon(
                result.n_validation, result.delta))


def classification_splits(M, seed):
    ds = M.data.synth_classification(seed, 6000, 4, 8, 0.2)
    tr, ca, te = M.data.split(ds, M.data.SplitSpec(seed=seed, stratified=True))
    tr, stats = M.data.standardize(tr)
    ca, _ = M.data.standardize(ca, stats=stats)
    te, _ = M.data.standardize(te, stats=stats)
    return tr, ca, te, stats


def cls_train_config(M, epochs, seed, coverage):
    return M.optim.TrainConfig(
        epochs=epochs, batch_size=256, learning_rate=2e-3, seed=seed,
        loss=M.losses.LossConfig(target_coverage=coverage,
                                 task_loss=M.losses.CROSS_ENTROPY))


class Workload:
    """Set-up, one repeatable job, and the metrics of the jobs run so far.

    ``op_windows()`` gives (start, end) of each unit operation and
    ``job_times`` the duration of each job, both since the last
    ``reset()``. The reference outputs that jobs are checked against are
    taken once per run and outlive repeated set-ups, so a set-up that does
    not reproduce the first one fails the checks.
    """

    def __init__(self, M, clock, scale, seed, tmp):
        self.M, self.clock, self.scale, self.seed, self.tmp = (
            M, clock, scale, seed, tmp)
        self.params = 0
        self.ckpt_bytes = 0
        self.jobs = 0
        self.cursor = 0
        self.reference = None
        self.reset()

    def reset(self):
        self.job_times = []
        self.clock.reset()

    def op_windows(self):
        return self.clock.step_windows()


class TrainCls(Workload):
    name = "train_cls"

    def setup(self, tally):
        M = self.M
        self.tr, self.ca, self.te, _ = classification_splits(M, self.seed)
        self.arch = M.model.ArchitectureConfig(**CLS_ARCH)

    def job(self, tally):
        M, tr = self.M, self.tr
        seed = self.seed * 1000 + self.jobs
        self.jobs += 1
        t0 = perf_counter()
        model = M.model.build_model(self.arch, seed)
        history = M.optim.train(
            model, tr.features, tr.labels,
            cls_train_config(M, self.scale.train_epochs, seed,
                             TARGET_COVERAGE))
        result = M.calibrate.calibrate(model, self.ca.features,
                                       TARGET_COVERAGE)
        out = model.predict(self.te.features, tau=result.tau)
        report = M.evaluate.selective_metrics(out[0], self.te.labels, out[1],
                                              "classification")
        path = self.tmp / "train_cls.ckpt"
        M.persist.save_model(model, result, path)
        self.job_times.append(perf_counter() - t0)
        self.params = model.num_parameters()
        self.ckpt_bytes = path.stat().st_size
        tally.op(loss_ok(history), "train_cls: training loss")
        tally.op(calibration_ok(M, result, self.ca.n_samples),
                 "train_cls: calibration")
        tally.op(predict_ok(out, self.te.n_samples)
                 and report.n_covered + report.n_rejected == self.te.n_samples,
                 "train_cls: predict")

    def metrics(self):
        steps = [b - a for a, b in self.op_windows()]
        named = latency("train_step", steps, "ms", 1e3, "steps")
        named["train_samples_per_s"] = self.clock.rows_per_s()
        return named, gated(self.op_windows(), "steps")


class ServeCls(Workload):
    name = "serve_cls"

    def setup(self, tally):
        M, scale, seed = self.M, self.scale, self.seed
        tr, self.ca, te, stats = classification_splits(M, seed)
        arch = M.model.ArchitectureConfig(**CLS_ARCH)
        model = M.model.build_model(arch, seed)
        tally.op(loss_ok(M.optim.train(
            model, tr.features, tr.labels,
            cls_train_config(M, scale.serve_epochs, seed, TARGET_COVERAGE))),
            "serve_cls: set-up training loss")
        result = M.calibrate.calibrate(model, self.ca.features,
                                       TARGET_COVERAGE)
        self.selnet_path = self.tmp / "selnet.ckpt"
        M.persist.save_model(model, result, self.selnet_path)
        twin = M.model.build_baseline(arch, seed)
        tally.op(loss_ok(M.optim.train(
            twin, tr.features, tr.labels,
            cls_train_config(M, scale.serve_epochs, seed, 1.0))),
            "serve_cls: set-up twin training loss")
        self.twin_path = self.tmp / "twin.ckpt"
        M.persist.save_model(twin, None, self.twin_path)
        bulk = M.data.synth_classification(seed + 1, scale.bulk_rows, 4, 8, 0.2)
        self.bulk = M.data.standardize(bulk, stats=stats)[0].features
        self.queries = te.features
        self.params = model.num_parameters()
        self.ckpt_bytes = self.selnet_path.stat().st_size

    def reset(self):
        super().reset()
        self.cold, self.p1, self.p64 = [], [], []
        self.bulk_w, self.calibrate_s, self.mc_s = [], [], []
        self.ops = []

    def op_windows(self):
        return self.ops

    def _reference(self, model, tau, twin):
        """Outputs of the first cycle's freshly loaded models, which every
        later call must reproduce."""
        M = self.M
        self.reference = {
            "tau": tau,
            "preds": model.predict(self.queries, tau=tau)[0],
            "g": model.selection_scores(self.queries),
            "bulk": model.predict(self.bulk, tau=tau),
            "mc": M.evaluate.mc_dropout_confidence(
                twin, self.ca.features, MC_PASSES, MC_RATE, self.seed,
                "classification"),
        }

    def _query_ok(self, out, i, n):
        ref = self.reference
        g = ref["g"][i:i + n]
        settled = np.abs(g - ref["tau"]) > 1e-9
        return (predict_ok(out, n)
                and np.array_equal(out[0], ref["preds"][i:i + n])
                and np.array_equal(out[1][settled],
                                   (g >= ref["tau"])[settled]))

    def job(self, tally):
        M, q = self.M, self.queries
        n_q = q.shape[0]
        i = self.cursor
        self.cursor = (self.cursor + 1) % n_q
        t_job = perf_counter()
        model, calib = M.persist.load_model(self.selnet_path)
        out = model.predict(q[i:i + 1], tau=calib.tau)
        t1 = perf_counter()
        self.cold.append(t1 - t_job)
        twin, _ = M.persist.load_model(self.twin_path)
        if self.reference is None:
            self._reference(model, calib.tau, twin)
        tally.op(calib.tau == self.reference["tau"]
                 and self._query_ok(out, i, 1), "serve_cls: cold start")

        tau = calib.tau
        for _ in range(self.scale.predict1_per_cycle):
            i = self.cursor
            self.cursor = (self.cursor + 1) % n_q
            x = q[i:i + 1]
            t0 = perf_counter()
            out = model.predict(x, tau=tau)
            t1 = perf_counter()
            self.p1.append(t1 - t0)
            self.ops.append((t0, t1))
            tally.op(self._query_ok(out, i, 1), "serve_cls: predict n=1")
        for k in range(self.scale.predict64_per_cycle):
            i = (64 * k) % (n_q - 64)
            x = q[i:i + 64]
            t0 = perf_counter()
            out = model.predict(x, tau=tau)
            self.p64.append(perf_counter() - t0)
            tally.op(self._query_ok(out, i, 64), "serve_cls: predict n=64")

        t0 = perf_counter()
        out = model.predict(self.bulk, tau=tau)
        self.bulk_w.append((t0, perf_counter()))
        ref = self.reference["bulk"]
        tally.op(predict_ok(out, self.bulk.shape[0])
                 and np.array_equal(out[0], ref[0]), "serve_cls: bulk predict")

        t0 = perf_counter()
        result = M.calibrate.calibrate(model, self.ca.features,
                                       TARGET_COVERAGE)
        self.calibrate_s.append(perf_counter() - t0)
        tally.op(calibration_ok(M, result, self.ca.n_samples),
                 "serve_cls: calibrate")

        with M.autograd.no_grad():
            probs = twin.forward(self.ca.features)[0].data
        sr = M.evaluate.sr_confidence(probs)
        tally.op(sr.shape == (self.ca.n_samples,)
                 and np.all((sr >= 0.25 - 1e-12) & (sr <= 1.0 + 1e-12)),
                 "serve_cls: softmax response")

        t0 = perf_counter()
        mc = M.evaluate.mc_dropout_confidence(
            twin, self.ca.features, MC_PASSES, MC_RATE, self.seed,
            "classification")
        t1 = perf_counter()
        self.mc_s.append(t1 - t0)
        self.job_times.append(t1 - t_job)
        tally.op(np.array_equal(mc, self.reference["mc"]) and np.all(mc <= 0.0),
                 "serve_cls: MC-dropout")

    def metrics(self):
        named = latency("predict1", self.p1, "us", 1e6, "n=1 calls")
        named["predict64_p50_us"] = median_entry(self.p64, 1e6, "us",
                                                 "n=64 calls")
        bulk_s = [b - a for a, b in self.bulk_w]
        rows = self.bulk.shape[0] * len(bulk_s)
        named["predict_bulk_rows_per_s"] = (
            rows / sum(bulk_s), "1/s",
            f"{rows} rows in {len(bulk_s)} calls of {self.bulk.shape[0]}")
        named["calibrate_ms"] = median_entry(self.calibrate_s, 1e3, "ms",
                                             "calls")
        named["mc_dropout_ms"] = median_entry(
            self.mc_s, 1e3, "ms", f"calls of {MC_PASSES} passes")
        named["cold_start_ms"] = median_entry(self.cold, 1e3, "ms",
                                              "load_model + first predict")
        return named, gated(self.ops, "n=1 calls")


def write_concrete_standin(path, seed, rows=1030):
    """Synthetic regression data shaped like UCI Concrete: eight features in
    the real columns' ranges, a strength target in MPa whose noise grows with
    the water content, and a header row."""
    rng = np.random.default_rng(seed)
    lo = np.array([102.0, 0.0, 0.0, 121.8, 0.0, 801.0, 594.0, 1.0])
    hi = np.array([540.0, 359.4, 200.1, 247.0, 32.2, 1145.0, 992.6, 365.0])
    x = lo + (hi - lo) * rng.random((rows, 8))
    water = (x[:, 3] - lo[3]) / (hi[3] - lo[3])
    strength = (0.07 * x[:, 0] + 0.05 * x[:, 1] + 0.03 * x[:, 2]
                - 0.12 * x[:, 3] + 0.4 * x[:, 4] + 7.0 * np.log(x[:, 7])
                + (2.0 + 8.0 * water) * rng.normal(size=rows))
    with open(path, "w") as fh:
        fh.write("cement,slag,fly_ash,water,superplasticizer,coarse_agg,"
                 "fine_agg,age,strength\n")
        for row, y in zip(x, strength):
            fh.write(",".join(f"{v:.3f}" for v in (*row, y)) + "\n")


class CompareReg(Workload):
    name = "compare_reg"

    def setup(self, tally):
        M = self.M
        csv_path = self.tmp / "concrete_standin.csv"
        write_concrete_standin(csv_path, self.seed)
        cfg = {
            "dataset": {"kind": "csv", "path": str(csv_path),
                        "feature_columns": list(range(8)), "target_column": 8,
                        "header": True, "task": "regression",
                        "standardize_target": True},
            "split": {"train": 0.6, "calibration": 0.2, "test": 0.2},
            "architecture": {"body_widths": REG_ARCH["body_widths"],
                             "selection_hidden": REG_ARCH["selection_hidden"],
                             "dropout_rate": REG_ARCH["dropout_rate"]},
            "loss": {"task_loss": "squared"},
            "train": {"epochs": self.scale.compare_epochs, "batch_size": 256},
        }
        self.config_path = self.tmp / "compare.yaml"
        self.config_path.write_text(yaml.safe_dump(cfg))
        self.out = self.tmp / "compare_out"
        self.params = M.model.build_model(
            M.model.ArchitectureConfig(**REG_ARCH), 0).num_parameters()

    def job(self, tally):
        argv = ["compare", "--config", str(self.config_path),
                "--coverages", COMPARE_COVERAGES, "--seeds", str(self.seed),
                "--out", str(self.out)]
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.M.cli.main(argv)
        self.job_times.append(perf_counter() - t0)
        blob = (self.out / "compare.csv").read_bytes() if rc == 0 else None
        if self.reference is None and blob is not None:
            rows = [l for l in blob.decode().splitlines()
                    if not l.startswith("#")]
            if len(rows) == 1 + len(COMPARE_COVERAGES.split(",")):
                self.reference = blob
        tally.op(blob is not None and blob == self.reference,
                 f"compare_reg: exit code {rc}, compare.csv identical to "
                 "the run's first")

    def metrics(self):
        named = {"compare_s": median_entry(self.job_times, 1.0, "s",
                                           "compare runs")}
        return named, gated(self.op_windows(), "steps")


WORKLOADS = {w.name: w for w in (TrainCls, ServeCls, CompareReg)}
