"""Property tests of the field checks in ``selpred.checks``: which values
each accepts, what it returns, and that every rejection names the field;
then the table of every bounded setting, each checked by those rules."""

import hashlib
import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from selpred import cli
from selpred.autograd import Tensor, finite_difference_check
from selpred.calibrate import (CalibrationResult, calibrate,
                               hoeffding_epsilon, select_threshold)
from selpred.checks import (CLASSIFICATION, MAX_SIZE, REGRESSION,
                            ConfigurationError, boolean, drop_rate, fraction,
                            integer, open_fraction, real, size, within)
from selpred.data import SplitSpec, load_csv, synth_classification
from selpred.evaluate import mc_dropout_confidence, risk_coverage_curve
from selpred.layers import DenseLayer, DropoutLayer
from selpred.losses import LossConfig, total_loss
from selpred.model import ArchitectureConfig, build_model
from selpred.optim import TrainConfig, lr_schedule
from selpred.persist import IntegrityError, load_model, save_model

FIELDS = st.from_regex(r"[a-z][a-z_]{0,15}", fullmatch=True)

NUMPY_INTEGERS = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64,
     np.uint8, np.uint16, np.uint32, np.uint64]).flatmap(
    lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t))

NUMPY_FLOATS = st.one_of(st.floats().map(np.float64),
                         st.floats(width=32).map(np.float32))

BOOLS = st.one_of(st.booleans(), st.booleans().map(np.bool_))

VALUES = st.one_of(
    st.integers(), NUMPY_INTEGERS, BOOLS, st.floats(), NUMPY_FLOATS,
    st.text(max_size=4), st.none(), st.lists(st.integers(), max_size=2),
    st.complex_numbers(), st.sampled_from([10**400, -10**400]))


def _message(check, *args, **kwargs):
    """The message of the ConfigurationError ``check`` raises."""
    with pytest.raises(ConfigurationError) as exc:
        check(*args, **kwargs)
    return str(exc.value)


@given(VALUES, FIELDS)
def test_integer_accepts_exactly_ints_and_numpy_integers(value, field):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        got = integer(value, field)
        assert type(got) is int and got == value
    else:
        assert (_message(integer, value, field)
                == f"{field}: {value!r} is not an integer")


@given(st.one_of(st.integers(-4, 4), st.integers(), NUMPY_INTEGERS),
       st.integers(-3, 3), FIELDS)
def test_integer_raises_below_least_only(value, least, field):
    if value < least:
        assert (_message(integer, value, field, least=least)
                == f"{field} must be >= {least}, got {value}")
    else:
        got = integer(value, field, least=least)
        assert type(got) is int and got == value


@given(st.one_of(st.integers(-2, 2), st.integers(MAX_SIZE - 2, MAX_SIZE + 2),
                 st.integers(), NUMPY_INTEGERS), st.integers(-3, 3), FIELDS)
def test_size_is_an_integer_at_most_max_size(value, least, field):
    if value < least:
        assert (_message(size, value, field, least=least)
                == f"{field} must be >= {least}, got {value}")
    elif value > MAX_SIZE:
        assert (_message(size, value, field, least=least)
                == f"{field} must be <= {MAX_SIZE}, got {value}")
    else:
        got = size(value, field, least=least)
        assert type(got) is int and got == value


def test_max_size_squared_is_an_addressable_float64_count():
    """Two sizes multiplied, in float64 bytes, fit numpy's index type;
    one more would not."""
    top = np.iinfo(np.intp).max
    assert 8 * MAX_SIZE ** 2 <= top < 8 * (MAX_SIZE + 1) ** 2


@given(st.one_of(BOOLS, st.text(max_size=4),
                 st.sampled_from([math.nan, math.inf, -math.inf, np.nan,
                                  np.float32("inf"), -np.float64("inf"),
                                  10**400, -10**400])),
       FIELDS)
def test_real_rejects_bools_strings_and_non_finite_numbers(value, field):
    assert _message(real, value, field) in (
        f"{field}: {value!r} is not a real number",
        f"{field}: {value!r} is not finite")


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 NUMPY_FLOATS.filter(np.isfinite), NUMPY_INTEGERS,
                 st.integers(-2**1000, 2**1000)),
       FIELDS)
def test_real_accepts_finite_numbers(value, field):
    got = real(value, field)
    assert type(got) is float and got == float(value)


@given(st.one_of(st.floats(), st.integers(-2, 3), NUMPY_FLOATS,
                 st.sampled_from([0.0, 1.0, 5e-324, 1.0000000000000002])),
       FIELDS)
def test_fraction_accepts_exactly_zero_to_one(value, field):
    if 0 < value <= 1:
        got = fraction(value, field)
        assert type(got) is float and got == float(value)
    else:
        assert _message(fraction, value, field) in (
            f"{field} must lie in (0, 1], got {value}",
            f"{field}: {value!r} is not finite")


@pytest.mark.parametrize("check, inside, interval", [
    (open_fraction, lambda x: 0 < x < 1, "(0, 1)"),
    (drop_rate, lambda x: 0 <= x < 1, "[0, 1)"),
], ids=["open_fraction", "drop_rate"])
@given(st.one_of(st.floats(), st.integers(-2, 3), NUMPY_FLOATS,
                 st.sampled_from([0.0, -0.0, 1.0, 5e-324,
                                  0.9999999999999999])),
       FIELDS)
def test_unit_interval_checks_accept_exactly_their_interval(
        check, inside, interval, value, field):
    if inside(value):
        got = check(value, field)
        assert type(got) is float and got == float(value)
    else:
        assert _message(check, value, field) in (
            f"{field} must lie in {interval}, got {value}",
            f"{field}: {value!r} is not finite")


@given(VALUES, FIELDS)
def test_boolean_accepts_only_bools(value, field):
    if isinstance(value, (bool, np.bool_)):
        assert boolean(value, field) is bool(value)  # a plain bool
    else:
        assert (_message(boolean, value, field)
                == f"{field}: {value!r} is not a boolean")


ENDS = st.sampled_from(["[]", "[)", "(]", "()"])
EDGES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, -np.inf])


@given(st.data(), EDGES, EDGES, ENDS, FIELDS)
def test_within_raises_exactly_outside_its_interval(data, low, high, ends,
                                                    field):
    """The bound rule itself: a finite real passes exactly when it lies in
    the interval (inside it, or on an end that ``ends`` closes), and comes
    back as a plain ``float``; outside, the message names the field, the
    interval and the value given."""
    near = st.sampled_from([low, high]).filter(math.isfinite).flatmap(
        lambda e: st.sampled_from([e, math.nextafter(e, -math.inf),
                                   math.nextafter(e, math.inf)]))
    value = data.draw(st.one_of(
        near, near.map(np.float64), st.floats(-3, 3),
        st.floats(-3, 3, width=32).map(np.float32), st.integers(-3, 3),
        NUMPY_INTEGERS.filter(lambda v: abs(int(v)) < 2**53)))
    x = float(value)
    inside = ((low < x or x == low and ends[0] == "[")
              and (x < high or x == high and ends[1] == "]"))
    if inside:
        got = within(value, field, low, high, ends)
        assert type(got) is float and got == x
    else:
        assert (_message(within, value, field, low, high, ends)
                == f"{field} must lie in {ends[0]}{low}, {high}{ends[1]}, "
                   f"got {value}")


@given(st.one_of(st.integers(-4, 4), NUMPY_INTEGERS), st.integers(-3, 3),
       st.integers(-3, 3), FIELDS)
def test_integer_raises_exactly_outside_least_and_most(value, least, most,
                                                       field):
    if least <= value <= most:
        got = integer(value, field, least, most)
        assert type(got) is int and got == value
    else:
        assert _message(integer, value, field, least, most) == (
            f"{field} must be >= {least}, got {value}" if value < least
            else f"{field} must be <= {most}, got {value}")


# -- every bounded setting ----------------------------------------------------
#
# One row per setting that has a bound: each config field, library argument,
# CLI flag and checkpoint header field. A value just inside each bound
# passes; one just outside raises ConfigurationError (a checkpoint's, the
# cause of its IntegrityError) whose message starts with the setting's name.


def _real(low, high, ends):
    """``(inside, outside)``: the floats just inside and just outside each
    finite end of the interval."""
    inside, outside = [], []
    for end, edge, away in ((ends[0], low, -math.inf),
                            (ends[1], high, math.inf)):
        if math.isfinite(edge):
            beyond, within_ = math.nextafter(edge, away), math.nextafter(
                edge, -away)
            inside.append(edge if end in "[]" else within_)
            outside.append(beyond if end in "[]" else edge)
    return inside, outside


def _int(least, most=None):
    """``(inside, outside)`` of an integer from ``least`` to ``most``."""
    if most is None:
        return [least], [least - 1]
    return [least, most], [least - 1, most + 1]


def _extent(least):
    """An array extent whose largest value would be allocated: only its
    upper bound's outside value is tried."""
    return [least], [least - 1, MAX_SIZE + 1]


class _Reached(Exception):
    """Raised where a command goes on past its flag checks."""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A CSV, a synthetic config and a calibrated regression checkpoint."""
    root = tmp_path_factory.mktemp("bounds")
    (root / "data.csv").write_text("a,b,c\n1,2,3\n4,5,6\n")
    (root / "config.yaml").write_text(yaml.safe_dump({"dataset": {
        "kind": "synthetic", "m": 40, "n_classes": 2, "n_features": 3}}))
    model = build_model(ArchitectureConfig(input_dim=3, body_widths=[4],
                                           selection_hidden=2), 0)
    calibration = CalibrationResult(tau=0.5, target_coverage=0.8,
                                    n_validation=10, delta=0.05,
                                    epsilon=0.3, achieved_coverage=0.8)
    save_model(model, calibration, root / "model.ckpt")
    return SimpleNamespace(root=root, model=model,
                           ckpt=(root / "model.ckpt").read_bytes())


@pytest.fixture
def env(files, tmp_path, monkeypatch):
    for name in ("load_model", "prepare_splits", "run_comparison"):
        monkeypatch.setattr(cli, name, _raise_reached)
    return SimpleNamespace(**vars(files), out=tmp_path)


def _raise_reached(*args, **kwargs):
    raise _Reached


def _command(*argv):
    """A call running the CLI command ``argv`` + the flag's value up to
    the step after its checks."""
    def call(value, env):
        args = [a.format(cfg=env.root / "config.yaml", out=env.out)
                for a in argv] + [repr(value)]
        parsed = cli.build_parser().parse_args(args)
        with pytest.raises(_Reached):
            parsed.func(parsed)
    return call


def _header(edit):
    """A call loading the checkpoint with ``edit(header, value)`` applied,
    re-framed with a valid length and checksum."""
    def call(value, env):
        blob = env.ckpt
        (hlen,) = struct.unpack_from("<Q", blob, 7)
        header = json.loads(blob[15:15 + hlen])
        edit(header, value)
        raw = json.dumps(header).encode()
        body = (blob[:7] + struct.pack("<Q", len(raw)) + raw
                + blob[15 + hlen:-8])
        path = env.out / "edited.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])
        load_model(path)
    return call


def _split(name):
    """``SplitSpec`` with ``name`` at the value and the other two parts
    sharing the rest (a quarter each when the value is not a share)."""
    def call(value, env):
        rest = (1 - value) / 2 if 0 < value < 1 else 0.25
        SplitSpec(**{"train": rest, "calibration": rest, "test": rest,
                     name: value}).validate()
    return call


def _x(env):
    return np.random.default_rng(0).normal(size=(10, 3))


SHARE = ([5e-324, 0.5], [0.0, math.nextafter(1.0, 2.0)])
COVERAGE = _real(0, 1, "(]")
DELTA = _real(0, 1, "()")
DROP = _real(0, 1, "[)")
NON_NEGATIVE = _real(0, math.inf, "[)")
POSITIVE = _real(0, math.inf, "()")
SCORES = np.linspace(0.0, 1.0, 10)

BOUNDS = [
    # config fields
    ("train", "learning_rate", POSITIVE,
     lambda v, e: TrainConfig(learning_rate=v).validate()),
    ("train", "weight_decay", NON_NEGATIVE,
     lambda v, e: TrainConfig(weight_decay=v).validate()),
    ("train", "momentum", DROP,
     lambda v, e: TrainConfig(momentum=v).validate()),
    ("train", "epochs", _int(1, MAX_SIZE),
     lambda v, e: TrainConfig(epochs=v).validate()),
    ("train", "batch_size", _int(2, MAX_SIZE),
     lambda v, e: TrainConfig(batch_size=v).validate()),
    ("train", "lr_halving_period", _int(0),
     lambda v, e: TrainConfig(lr_halving_period=v).validate()),
    ("train", "seed", _int(0), lambda v, e: TrainConfig(seed=v).validate()),
    ("loss", "target_coverage", COVERAGE,
     lambda v, e: LossConfig(target_coverage=v).validate()),
    ("loss", "penalty_weight", NON_NEGATIVE,
     lambda v, e: LossConfig(penalty_weight=v).validate()),
    ("loss", "alpha", _real(0, 1, "[]"),
     lambda v, e: LossConfig(alpha=v).validate()),
    ("split", "train", SHARE, _split("train")),
    ("split", "calibration", SHARE, _split("calibration")),
    ("split", "test", SHARE, _split("test")),
    ("split", "seed", _int(0), lambda v, e: SplitSpec(seed=v).validate()),
    ("architecture", "input_dim", _int(1, MAX_SIZE),
     lambda v, e: ArchitectureConfig(input_dim=v).validate()),
    ("architecture", "body_widths", _int(1, MAX_SIZE),
     lambda v, e: ArchitectureConfig(1, body_widths=[4, v]).validate()),
    ("architecture", "selection_hidden", _int(1, MAX_SIZE),
     lambda v, e: ArchitectureConfig(1, selection_hidden=v).validate()),
    ("architecture", "dropout_rate", DROP,
     lambda v, e: ArchitectureConfig(1, dropout_rate=v).validate()),
    ("architecture-classification", "n_classes", _int(2, MAX_SIZE),
     lambda v, e: ArchitectureConfig(1, task=CLASSIFICATION,
                                     n_classes=v).validate()),
    ("architecture-regression", "n_classes", _int(0, 0),
     lambda v, e: ArchitectureConfig(1, n_classes=v).validate()),
    # library arguments (the synthetic dataset section's keys among them)
    ("synth_classification", "seed", _int(0),
     lambda v, e: synth_classification(v, 10, 2, 2, 0.0)),
    ("synth_classification", "m", _extent(1),
     lambda v, e: synth_classification(0, v, 2, 2, 0.0)),
    ("synth_classification", "n_classes", _extent(2),
     lambda v, e: synth_classification(0, 10, v, 2, 0.0)),
    ("synth_classification", "n_features", _extent(1),
     lambda v, e: synth_classification(0, 10, 2, v, 0.0)),
    ("synth_classification", "noise_fraction", _real(0, 0.5, "[)"),
     lambda v, e: synth_classification(0, 10, 2, 2, v)),
    ("load_csv", "target_column", _int(0),
     lambda v, e: load_csv(e.root / "data.csv", [1], v)),
    ("load_csv", "feature_columns", _int(0),
     lambda v, e: load_csv(e.root / "data.csv", [v], 2)),
    ("calibrate", "target_coverage", COVERAGE,
     lambda v, e: calibrate(e.model, _x(e), v)),
    ("calibrate", "delta", DELTA,
     lambda v, e: calibrate(e.model, _x(e), 0.8, delta=v)),
    ("select_threshold", "target_coverage", COVERAGE,
     lambda v, e: select_threshold(SCORES, v)),
    ("hoeffding_epsilon", "n", _int(1),
     lambda v, e: hoeffding_epsilon(v, 0.05)),
    ("hoeffding_epsilon", "delta", DELTA,
     lambda v, e: hoeffding_epsilon(100, v)),
    ("risk_coverage_curve", "coverage", COVERAGE,
     lambda v, e: risk_coverage_curve(SCORES, SCORES, SCORES, SCORES, [v],
                                      REGRESSION)),
    ("mc_dropout_confidence", "rate", DROP,
     lambda v, e: mc_dropout_confidence(e.model, _x(e), 2, v, 0, REGRESSION)),
    ("mc_dropout_confidence", "passes", ([2], [MAX_SIZE + 1]),
     lambda v, e: mc_dropout_confidence(e.model, _x(e), v, 0.5, 0,
                                        REGRESSION)),
    ("mc_dropout_confidence", "seed", _int(0),
     lambda v, e: mc_dropout_confidence(e.model, _x(e), 2, 0.5, v,
                                        REGRESSION)),
    ("DropoutLayer", "rate", DROP, lambda v, e: DropoutLayer(v)),
    ("DenseLayer", "in_dim", _extent(1),
     lambda v, e: DenseLayer(v, 2, np.random.default_rng(0))),
    ("DenseLayer", "out_dim", _extent(1),
     lambda v, e: DenseLayer(2, v, np.random.default_rng(0))),
    ("finite_difference_check", "h", POSITIVE,
     lambda v, e: finite_difference_check(
         lambda: (e.model.f_head.bias * 2.0).sum(), [e.model.f_head.bias],
         h=v)),
    ("total_loss", "alpha", _real(0, 1, "[]"),
     lambda v, e: total_loss(Tensor(1.0), Tensor(2.0), v)),
    ("lr_schedule", "epoch", _int(0),
     lambda v, e: lr_schedule(v, TrainConfig())),
    ("build_model", "seed", _int(0),
     lambda v, e: build_model(e.model.config, v)),
    # command-line flags
    ("train", "--coverage", COVERAGE,
     _command("train", "--config", "{cfg}", "--out", "{out}", "--coverage")),
    ("train", "--seed", _int(0),
     _command("train", "--config", "{cfg}", "--out", "{out}", "--seed")),
    ("calibrate", "--coverage", COVERAGE,
     _command("calibrate", "--model", "m", "--config", "{cfg}", "--out",
              "{out}", "--coverage")),
    ("calibrate", "--delta", DELTA,
     _command("calibrate", "--model", "m", "--config", "{cfg}", "--out",
              "{out}", "--coverage", "0.8", "--delta")),
    ("curve", "--coverages", COVERAGE,
     _command("curve", "--model", "m", "--config", "{cfg}", "--out", "{out}",
              "--coverages")),
    ("grid", "--coverages", COVERAGE,
     _command("grid", "--models", "m", "--config", "{cfg}", "--out", "{out}",
              "--coverages")),
    ("compare", "--coverages", COVERAGE,
     _command("compare", "--config", "{cfg}", "--out", "{out}",
              "--coverages")),
    ("compare", "--seeds", _int(0),
     _command("compare", "--config", "{cfg}", "--out", "{out}", "--coverages",
              "0.8", "--seeds")),
    # checkpoint header fields
    ("header", "seed", _int(0),
     _header(lambda h, v: h.update(seed=v))),
    ("header", "trained_coverage", COVERAGE,
     _header(lambda h, v: h.update(trained_coverage=v))),
    ("header-architecture", "dropout_rate", DROP,
     _header(lambda h, v: h["architecture"].update(dropout_rate=v))),
    ("header-architecture", "n_classes", _int(0, 0),
     _header(lambda h, v: h["architecture"].update(n_classes=v))),
    ("header-calibration", "target_coverage", COVERAGE,
     _header(lambda h, v: h["calibration"].update(target_coverage=v))),
    ("header-calibration", "n_validation", _int(1),
     _header(lambda h, v: h["calibration"].update(n_validation=v))),
    ("header-calibration", "delta", DELTA,
     _header(lambda h, v: h["calibration"].update(delta=v))),
    ("header-calibration", "epsilon", POSITIVE,
     _header(lambda h, v: h["calibration"].update(epsilon=v))),
    ("header-calibration", "achieved_coverage", _real(0, 1, "[]"),
     _header(lambda h, v: h["calibration"].update(achieved_coverage=v))),
]


@pytest.mark.parametrize("name, bounds, call", [
    pytest.param(name, bounds, call, id=f"{where}-{name}")
    for where, name, bounds, call in BOUNDS])
def test_every_bounded_setting(env, name, bounds, call):
    inside, outside = bounds
    for value in inside:
        call(value, env)
    for value in outside:
        with pytest.raises((ConfigurationError, IntegrityError)) as exc:
            call(value, env)
        error = exc.value
        if isinstance(error, IntegrityError):  # a checkpoint header field
            error = error.__cause__
        assert isinstance(error, ConfigurationError)
        assert str(error).startswith(f"{name} must "), str(error)
