"""Timing probes and the span recorder used by the benchmark.

Both work from outside ``selpred``: they replace public functions at the
module attribute where the calling code looks them up (``selpred.optim.
task_loss``, ``selpred.model.softmax``, ``selpred.cli.train``,
``SelectiveNet.forward`` ...) and put the original back afterwards. Nothing
under ``src/`` is edited.

``StepClock`` stays installed in every run. It stamps one ``perf_counter``
reading per optimizer step and brackets each ``train()`` call, which is how
an untraced run times single training steps inside ``train()``.

``Recorder`` is the traced run. Each wrapped call becomes a span
``[name, start, end, parent, error]`` kept in memory and written out once
when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import json
import time

perf_counter = time.perf_counter


def _resolve(module, path):
    """(owner, attribute) for ``path`` = "func" or "Class.method" in module."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _Patches:
    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepClock:
    """Per-step timestamps of ``train()``, taken at each ``zero_grads`` call.

    ``train()`` calls ``zero_grads`` once per batch, right before backward,
    so the time between two consecutive stamps of one ``train()`` call is one
    full optimizer step: backward, the update, then slicing, forward and the
    losses of the next batch. Epoch boundaries add the reshuffle to the step
    that spans them. The cost is one clock read per step.
    """

    def __init__(self, modules):
        self._mods = modules
        self._patches = _Patches()
        self._stamps = None
        # (start, end, rows trained, [step stamps], [(start, end) of steps
        # whose own and next batch are full batches of one epoch of a
        # SelectiveNet])
        self.calls = []

    def install(self):
        def zero_grads(original):
            def probe(params):
                if self._stamps is not None:
                    self._stamps.append(perf_counter())
                return original(params)
            return probe

        def bracket(original):
            def probe(model, features, labels, config):
                stamps = self._stamps = []
                t0 = perf_counter()
                try:
                    return original(model, features, labels, config)
                finally:
                    t1 = perf_counter()
                    self._stamps = None
                    m, size = len(features), config.batch_size
                    per_epoch = -(-m // size)
                    full = [(a, b) for k, (a, b) in enumerate(
                        zip(stamps, stamps[1:]))
                        if model.selective
                        and (k % per_epoch + 2) * size <= m]
                    self.calls.append(
                        (t0, t1, m * config.epochs, stamps, full))
            return probe

        self._patches.replace(self._mods.optim, "zero_grads", zero_grads)
        # train() is looked up in selpred.optim by the benchmark and in
        # selpred.cli by `selpred compare`.
        for mod in (self._mods.optim, self._mods.cli):
            self._patches.replace(mod, "train", bracket)

    def uninstall(self):
        self._patches.restore()

    def reset(self):
        self.calls = []

    def step_windows(self):
        """(start, end) of every training step between two full batches.

        Only these steps do the same work, so their fastest one is a fair
        floor. The rest are the ragged last batch of an epoch, the reshuffle
        at an epoch's end and the cheaper baseline twin (``compare``).
        """
        return [w for *_, full in self.calls for w in full]

    def rows_per_s(self):
        """Rows trained per second of train() time, as a metric entry."""
        rows = sum(r for _, _, r, *_ in self.calls)
        seconds = sum(t1 - t0 for t0, t1, *_ in self.calls)
        return (rows / seconds, "1/s",
                f"{rows} rows in {len(self.calls)} train() calls")


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return {"train": "model.forward_train",
            "forced_active": "model.forward_mc"}.get(mode, "model.forward_eval")


# (selpred module, attribute where callers look the function up, span name).
# A function imported into several modules is wrapped at each of them.
SITES = [
    ("autograd", "Tensor.backward", "autograd.backward"),
    ("optim", "zero_grads", "autograd.zero_grads"),
    ("layers", "DenseLayer.__call__", "layers.dense"),
    ("layers", "BatchNormLayer.__call__", "layers.batchnorm"),
    ("layers", "DropoutLayer.__call__", "layers.dropout"),
    ("model", "relu", "layers.relu"),
    ("model", "sigmoid", "layers.sigmoid"),
    ("model", "softmax", "layers.softmax"),
    ("model", "SelectiveNet.forward", _forward_name),
    ("model", "SelectiveNet.predict", "model.predict"),
    ("model", "SelectiveNet.selection_scores", "calibrate.selection_scores"),
    ("model", "build_model", "model.build"),
    ("model", "build_baseline", "model.build"),
    ("cli", "build_model", "model.build"),
    ("cli", "build_baseline", "model.build"),
    ("optim", "task_loss", "losses.task_loss"),
    ("optim", "selective_loss", "losses.selective_loss"),
    ("optim", "auxiliary_loss", "losses.auxiliary_loss"),
    ("optim", "total_loss", "losses.total_loss"),
    ("optim", "Adam.step", "optim.step"),
    ("optim", "SGD.step", "optim.step"),
    ("optim", "lr_schedule", "optim.lr_schedule"),
    ("optim", "train", "optim.train"),
    ("cli", "train", "optim.train"),
    ("calibrate", "calibrate", "calibrate.calibrate"),
    ("cli", "calibrate", "calibrate.calibrate"),
    ("calibrate", "select_threshold", "calibrate.select_threshold"),
    ("evaluate", "select_threshold", "calibrate.select_threshold"),
    ("evaluate", "mc_dropout_confidence", "evaluate.mc_dropout"),
    ("cli", "mc_dropout_confidence", "evaluate.mc_dropout"),
    ("evaluate", "sr_confidence", "evaluate.sr_confidence"),
    ("cli", "sr_confidence", "evaluate.sr_confidence"),
    ("evaluate", "selective_metrics", "evaluate.selective_metrics"),
    ("cli", "selective_metrics", "evaluate.selective_metrics"),
    ("cli", "threshold_for_coverage", "evaluate.threshold_for_coverage"),
    ("cli", "write_csv", "evaluate.write_csv"),
    ("data", "synth_classification", "data.synth"),
    ("cli", "synth_classification", "data.synth"),
    ("cli", "load_csv", "data.load_csv"),
    ("data", "split", "data.split"),
    ("cli", "split", "data.split"),
    ("data", "standardize", "data.standardize"),
    ("cli", "standardize", "data.standardize"),
    ("persist", "save_model", "persist.save"),
    ("cli", "save_model", "persist.save"),
    ("persist", "load_model", "persist.load"),
    ("cli", "load_model", "persist.load"),
    ("cli", "main", "cli.main"),
    ("cli", "run_comparison", "cli.run_comparison"),
    ("cli", "prepare_splits", "cli.prepare_splits"),
]

SPAN_NAMES = sorted({n for _, _, n in SITES if isinstance(n, str)}
                    | {"model.forward_train", "model.forward_eval",
                       "model.forward_mc"})


def tape_size(root):
    """Distinct tensors reachable from ``root`` through the tape, leaves
    (parameters and constant inputs) included."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class Recorder:
    """In-memory span recorder over the public functions listed in SITES.

    On the first ``backward()`` of each ``train()`` call it also counts the
    tape (``tape_nodes``). Every batch of one call builds a graph of the
    same shape, so one walk per call is enough. The walk runs inside the
    ``optim.train`` span; its time is kept in ``probe_s`` so that
    ``train()``'s self time can leave it out.
    """

    def __init__(self, modules):
        self._mods = modules
        self._patches = _Patches()
        self._stack = []
        self._walk_due = False
        self.spans = []
        self.tape_nodes = []  # one count per train() call
        self.probe_s = 0.0    # time spent walking tapes

    def install(self):
        hooks = {"optim.train": self._walk_next_tape,
                 "autograd.backward": self._count_tape}
        for mod, path, name in SITES:
            owner, attr = _resolve(getattr(self._mods, mod), path)
            self._patches.replace(
                owner, attr,
                functools.partial(self._span, name, hooks.get(name)))

    def uninstall(self):
        self._patches.restore()

    def _walk_next_tape(self, args):
        self._walk_due = True

    def _count_tape(self, args):
        if self._walk_due:
            self._walk_due = False
            t0 = perf_counter()
            self.tape_nodes.append(tape_size(args[0]))
            self.probe_s += perf_counter() - t0

    def _span(self, name, before, original):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = [name if isinstance(name, str) else name(args, kwargs),
                    0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent",
                                   "error"],
                       "spans": [[index[n], int(a * 1e9), int(b * 1e9), p,
                                  int(e)] for n, a, b, p, e in self.spans]},
                      fh, separators=(",", ":"))


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def span_time_in_windows(spans, windows):
    """Time inside the given windows that spans account for, left apart the
    spans that enclose a whole window (the ``train()`` call or the CLI run
    around a training step).

    It sums the self time of every other span, clipped to each window. The
    rest of a window is time its enclosing code spends outside any span.
    ``windows`` must be sorted and non-overlapping.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    starts = [a for a, _ in windows]
    total = 0.0
    for i, (_, start, end, _, _) in enumerate(spans):
        cursor = start
        pieces = []
        for c in children[i]:
            pieces.append((cursor, spans[c][1]))
            cursor = spans[c][2]
        pieces.append((cursor, end))
        for a, b in pieces:
            k = max(bisect.bisect_right(starts, a) - 1, 0)
            while k < len(windows) and windows[k][0] < b:
                lo, hi = windows[k]
                if not (start <= lo and hi <= end):
                    total += max(min(b, hi) - max(a, lo), 0.0)
                k += 1
    return total


def span_stats(spans):
    """name -> {"calls", "errors", "durations" (s), "self" (s, total)}."""
    own = self_times(spans)
    out = {n: {"calls": 0, "errors": 0, "durations": [], "self": 0.0}
           for n in SPAN_NAMES}
    for s, t in zip(spans, own):
        st = out[s[0]]
        st["calls"] += 1
        st["errors"] += int(s[4])
        st["durations"].append(s[2] - s[1])
        st["self"] += t
    return out
