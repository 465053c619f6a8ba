"""selpred benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train_cls --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the repository root. ``--workload all`` runs the three workloads in
turn in one process and prints each one's report; its result line prefixes
every metric with the workload's name. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs every other job with every public
selpred function wrapped in a span, and reports the per-layer metrics
derived from the spans. The last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full report (every named metric with its unit and
sample count, and the environment), and the table above is the same report
for people. Spans of a traced run are written to ``.bench_out/``.

The program under test is always ``src/selpred`` of this checkout; without
it the benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("autograd", "layers", "model", "losses", "optim", "calibrate",
          "evaluate", "data", "persist", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_BURSTS = 6      # timed set-up bursts per end-to-end run
SETUP_SHARE = 1 / 40  # of --seconds, for each burst
SETUP_SPANS = ("data.", "persist.save")  # spans that track setup_s


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc():
            os.environ[var] = str(nproc())


def load_selpred():
    """Import selpred from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "selpred" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'selpred'} not found; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(src))
    mods = types.SimpleNamespace(**{
        name: importlib.import_module(f"selpred.{name}") for name in LAYERS})
    if src.resolve() not in Path(mods.cli.__file__).resolve().parents:
        raise SystemExit(f"error: selpred imported from {mods.cli.__file__}, "
                         f"not from {src}")
    return mods


def blas_info():
    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for lib in sorted(libs):
        cdll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(cdll, sym):
                info["threads"] = int(getattr(cdll, sym)())
                return info
    return info


def git_commit():
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def environment():
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": nproc(), "git_commit": git_commit(),
            "src_lines": src_lines()}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(wl, tally):
    try:
        wl.job(tally)
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        tally.error()


def run_phase(wl, seconds, tally):
    end = spans.perf_counter() + seconds
    while spans.perf_counter() < end:
        attempt(wl, tally)


def warm_up(wl, tally):
    """One untimed job: fills caches and records reference outputs."""
    attempt(wl, tally)
    wl.reset()


def time_setups(wl, tally, seconds):
    """Set the workload up back-to-back for ``seconds``, and at least once;
    returns each set-up's duration."""
    times = []
    end = spans.perf_counter() + seconds
    while not times or spans.perf_counter() < end:
        t0 = spans.perf_counter()
        wl.setup(tally)
        times.append(spans.perf_counter() - t0)
    return times


def end_to_end(wl, tally, seconds):
    """Set-up is timed in ``SETUP_BURSTS`` bursts of back-to-back set-ups:
    one before the jobs, one after them and the rest between stretches of
    jobs. The jobs run for the rest of ``seconds``. ``setup_s`` is the
    fastest set-up: the host's speed swings for seconds at a time, and
    bursts spread over the run rarely all miss its fast phase."""
    burst = seconds * SETUP_SHARE
    stretch = (seconds - SETUP_BURSTS * burst) / (SETUP_BURSTS - 1)
    setup = time_setups(wl, tally, burst)
    wl.reset()
    warm_up(wl, tally)
    for _ in range(SETUP_BURSTS - 2):
        run_phase(wl, stretch, tally)
        setup += time_setups(wl, tally, burst)
    run_phase(wl, stretch, tally)
    named, gated = wl.metrics()
    rss = peak_rss_mib()
    setup += time_setups(wl, tally, burst)
    common = {
        "setup_s": (min(setup), "s",
                    f"fastest of {len(setup)} set-ups; median "
                    f"{statistics.median(setup):.6g} s"),
        "peak_rss_mb": (rss, "MiB", "ru_maxrss of set-up and jobs"),
    }
    named = {**common, **named,
             "error_rate": (tally.failed / max(tally.attempted, 1), "ratio",
                            f"{tally.failed} of {tally.attempted} operations")}
    return named, {**common, **gated}


def merged_stats(setup_rec, rec):
    """Span statistics of the traced jobs. The spans that track ``setup_s``
    (``SETUP_SPANS``) also take in the set-up's spans; every other span
    counts only the traced jobs."""
    st = spans.span_stats(rec.spans)
    for name, s in spans.span_stats(setup_rec.spans).items():
        if name.startswith(SETUP_SPANS):
            for key in ("calls", "errors", "durations", "self"):
                st[name][key] += s[key]
    return st


def per_layer(wl, setup_rec, rec, untraced, traced):
    """Per-layer metrics of a traced run; see README.md for the map from
    each one to the end-to-end metric it should move."""
    st = merged_stats(setup_rec, rec)

    def med(name, scale):
        d = st[name]["durations"]
        return statistics.median(d) * scale if d else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_op(windows):
        return ratio(sum(b - a for a, b in windows), len(windows)) * 1e3

    windows = traced["ops"]
    op_traced = mean_op(windows)
    op_spans = ratio(spans.span_time_in_windows(rec.spans, windows),
                     len(windows)) * 1e3
    cli_self = sum(s["self"] for n, s in st.items() if n.startswith("cli."))
    train_self = st["optim.train"]["self"] - rec.probe_s
    m = {
        "autograd.backward_ms": (med("autograd.backward", 1e3), "ms"),
        "autograd.tape_nodes": (statistics.median(rec.tape_nodes)
                                if rec.tape_nodes else 0, "count"),
        "layers.dense_us": (med("layers.dense", 1e6), "us"),
        "layers.batchnorm_us": (med("layers.batchnorm", 1e6), "us"),
        "layers.softmax_us": (med("layers.softmax", 1e6), "us"),
        "model.forward_train_ms": (med("model.forward_train", 1e3), "ms"),
        "model.forward_eval_us": (med("model.forward_eval", 1e6), "us"),
        "model.params": (wl.params, "count"),
        "losses.task_loss_us": (med("losses.task_loss", 1e6), "us"),
        "losses.selective_loss_us": (med("losses.selective_loss", 1e6), "us"),
        "losses.auxiliary_loss_us": (med("losses.auxiliary_loss", 1e6), "us"),
        "optim.step_us": (med("optim.step", 1e6), "us"),
        "optim.train_self_ms": (ratio(train_self,
                                      st["optim.lr_schedule"]["calls"]) * 1e3,
                                "ms"),
        "optim.steps": (ratio(st["optim.step"]["calls"],
                              st["optim.train"]["calls"]), "count"),
        "calibrate.selection_scores_ms": (
            med("calibrate.selection_scores", 1e3), "ms"),
        "calibrate.select_threshold_us": (
            med("calibrate.select_threshold", 1e6), "us"),
        "evaluate.mc_dropout_ms": (med("evaluate.mc_dropout", 1e3), "ms"),
        "evaluate.selective_metrics_us": (
            med("evaluate.selective_metrics", 1e6), "us"),
        "evaluate.write_csv_ms": (med("evaluate.write_csv", 1e3), "ms"),
        "data.synth_ms": (med("data.synth", 1e3), "ms"),
        "data.load_csv_ms": (med("data.load_csv", 1e3), "ms"),
        "data.split_ms": (med("data.split", 1e3), "ms"),
        "data.standardize_ms": (med("data.standardize", 1e3), "ms"),
        "persist.save_ms": (med("persist.save", 1e3), "ms"),
        "persist.load_ms": (med("persist.load", 1e3), "ms"),
        "persist.ckpt_bytes": (wl.ckpt_bytes, "bytes"),
        "cli.self_ms": (ratio(cli_self, st["cli.main"]["calls"]) * 1e3, "ms"),
        "cli.prepare_splits_ms": (med("cli.prepare_splits", 1e3), "ms"),
        "src.lines": (src_lines(), "count"),
        "trace.op_untraced_ms": (mean_op(untraced["ops"]), "ms"),
        "trace.op_traced_ms": (op_traced, "ms"),
        "trace.op_span_sum_ms": (op_spans, "ms"),
        "trace.op_unspanned_ms": (op_traced - op_spans, "ms"),
        "trace.overhead_ms": (op_traced - mean_op(untraced["ops"]), "ms"),
        "trace.job_overhead_ms": (
            (statistics.median(traced["jobs"])
             - statistics.median(untraced["jobs"])) * 1e3, "ms"),
    }
    for name, s in st.items():
        m[f"{name}.calls"] = (s["calls"], "count")
        m[f"{name}.errors"] = (s["errors"], "count")
    return m


def record(rec, fn, *args):
    rec.install()
    try:
        fn(*args)
    finally:
        rec.uninstall()


def traced_run(wl, tally, seconds, seed, M):
    """Set-up, then jobs for ``seconds``, every other one traced. Jobs
    alternate so that both halves see the same swings of the host's speed.
    Set-up and the traced jobs go to separate recorders."""
    setup_rec, rec = spans.Recorder(M), spans.Recorder(M)
    record(setup_rec, wl.setup, tally)
    wl.reset()
    warm_up(wl, tally)
    phases = {name: {"ops": [], "jobs": []} for name in ("untraced", "traced")}
    end = spans.perf_counter() + seconds
    traced = False
    while spans.perf_counter() < end:
        if traced:
            record(rec, attempt, wl, tally)
        else:
            attempt(wl, tally)
        phase = phases["traced" if traced else "untraced"]
        phase["ops"] += wl.op_windows()
        phase["jobs"] += wl.job_times
        wl.reset()
        traced = not traced
    metrics = per_layer(wl, setup_rec, rec, phases["untraced"],
                        phases["traced"])
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    paths = []
    for part, r in (("setup", setup_rec), ("traced", rec)):
        paths.append(out / f"spans-{wl.name}-{seed}-{part}.json")
        r.write(paths[-1])
    return metrics, paths


def print_report(report):
    print(f"selpred benchmark: workload {report['workload']}, seed "
          f"{report['seed']}, {report['seconds']} s, trace {report['trace']}")
    for key, value in report["env"].items():
        print(f"  {key}: {value}")
    for name, entry in report["metrics"].items():
        detail = f"  ({entry['detail']})" if "detail" in entry else ""
        print(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']}{detail}")
    print(json.dumps(report))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train_cls", "serve_cls", "compare_reg", "all"],
                   help="one workload, or all three in turn in this process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def run_workload(M, workloads, name, args, clock, tmp_root):
    """One workload's full report, its result metrics and its tally."""
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    clock.reset()
    try:
        wl = workloads.WORKLOADS[name](M, clock, scale, args.seed, tmp)
        tally = workloads.Tally()
        report = {"workload": name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": environment()}
        if args.trace:
            metrics, paths = traced_run(wl, tally, args.seconds, args.seed,
                                        M)
            report["spans_files"] = [str(p.relative_to(ROOT)) for p in paths]
            report["metrics"] = {k: {"value": v, "unit": u}
                                 for k, (v, u) in metrics.items()}
            result = report["metrics"]
        else:
            named, gated = end_to_end(wl, tally, args.seconds)
            report["metrics"] = {k: {"value": v, "unit": u, "detail": d}
                                 for k, (v, u, d) in {**named,
                                                      **gated}.items()}
            result = {k: {"value": v, "unit": u}
                      for k, (v, u, _) in gated.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report, result, tally


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    M = load_selpred()
    import workloads  # imports numpy, so only after cap_blas_threads()

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    clock = spans.StepClock(M)
    clock.install()
    try:
        runs = [run_workload(M, workloads, name, args, clock, tmp_root)
                for name in names]
    finally:
        clock.uninstall()
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    for report, _, _ in runs:
        print_report(report)
    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        metrics = {f"{report['workload']}.{k}": v
                   for report, result, _ in runs for k, v in result.items()}
    attempted = sum(tally.attempted for *_, tally in runs)
    failed = sum(tally.failed for *_, tally in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
