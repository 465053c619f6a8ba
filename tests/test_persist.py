"""Checkpoint round trips, integrity checking, and the inference-only variant."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selpred.calibrate import CalibrationResult
from selpred.model import (
    CLASSIFICATION,
    REGRESSION,
    ArchitectureConfig,
    SelectiveNet,
    build_model,
)
from selpred.optim import TrainConfig, train
from selpred.persist import FORMAT_VERSION, IntegrityError, VersionError, load_model, save_model
from selpred.losses import CROSS_ENTROPY, LossConfig


@pytest.fixture(scope="module")
def trained_model():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    cfg = ArchitectureConfig(input_dim=4, body_widths=[8],
                             task=CLASSIFICATION, n_classes=2,
                             selection_hidden=8)
    model = build_model(cfg, seed=0)
    train(model, x, y, TrainConfig(epochs=3, batch_size=32, seed=0,
                                   loss=LossConfig(task_loss=CROSS_ENTROPY)))
    return model, x


def test_round_trip_is_bit_exact(trained_model, tmp_path):
    model, x = trained_model
    calib = CalibrationResult(tau=0.4, target_coverage=0.8, n_validation=100,
                              delta=0.05, epsilon=0.1, achieved_coverage=0.81)
    path = tmp_path / "ckpt.bin"
    save_model(model, calib, path)
    loaded, calib2 = load_model(path)
    assert calib2 == calib
    assert loaded.target_coverage == model.target_coverage
    for a, b in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    for a, b in zip(model.running_stats(), loaded.running_stats()):
        np.testing.assert_array_equal(a, b)
    # identical forward outputs, bit for bit
    np.testing.assert_array_equal(model.forward(x)[0].data,
                                  loaded.forward(x)[0].data)
    np.testing.assert_array_equal(model.selection_scores(x),
                                  loaded.selection_scores(x))


@settings(max_examples=40)
@given(task=st.sampled_from([CLASSIFICATION, REGRESSION]),
       body=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       selection_hidden=st.integers(1, 8), batchnorm=st.booleans(),
       dropout_rate=st.sampled_from([None, 0.0, 0.3]),
       auxiliary_head=st.booleans(), selective=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(task, body, selection_hidden, batchnorm,
                             dropout_rate, auxiliary_head, selective, seed):
    """Any architecture with any parameter and running-statistic values
    loads back bit for bit, and so do its frozen outputs."""
    cfg = ArchitectureConfig(
        input_dim=3, body_widths=body, task=task,
        n_classes=3 if task == CLASSIFICATION else 0,
        selection_hidden=selection_hidden, batchnorm=batchnorm,
        dropout_rate=dropout_rate, auxiliary_head=auxiliary_head)
    model = SelectiveNet(cfg, seed % 1000, selective=selective)
    rng = np.random.default_rng(seed)
    model.parameters().data[...] = rng.normal(size=model.num_parameters())
    for a in model.running_stats():
        a[...] = rng.uniform(0.1, 2.0, a.shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.bin"
        save_model(model, None, path)
        loaded, _ = load_model(path)
    np.testing.assert_array_equal(loaded.parameters().data,
                                  model.parameters().data)
    for a, b in zip(model.running_stats(), loaded.running_stats(),
                    strict=True):
        np.testing.assert_array_equal(a, b)
    x = rng.normal(size=(5, 3))
    for a, b in zip(model.freeze().heads(x), loaded.freeze().heads(x)):
        np.testing.assert_array_equal(a, b)


def test_save_without_calibration(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    _, calib = load_model(path)
    assert calib is None


def test_corrupted_byte_detected(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        load_model(path)


def test_truncation_detected(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(IntegrityError):
        load_model(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"hello world, definitely not a checkpoint")
    with pytest.raises(IntegrityError):
        load_model(path)


def test_unsupported_version(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    blob = path.read_bytes()
    old = f'"format_version": {FORMAT_VERSION}'.encode()
    new = f'"format_version": {FORMAT_VERSION + 9}'.encode()
    # header JSON is sorted, so the key appears once; re-checksum the body
    import hashlib
    import struct
    body = blob[:-8].replace(old, new)
    hlen_old = struct.unpack_from("<Q", blob, 7)[0]
    body = body[:7] + struct.pack("<Q", hlen_old + len(new) - len(old)) + body[15:]
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(VersionError):
        load_model(path)


def test_failed_save_leaves_previous_checkpoint(trained_model, tmp_path,
                                                monkeypatch):
    import selpred.persist as persist
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    before = path.read_bytes()

    class DiskFull:
        """A file that takes half of the first write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    real_open = open
    monkeypatch.setattr(persist, "open",
                        lambda *a, **kw: DiskFull(real_open(*a, **kw)),
                        raising=False)
    calib = CalibrationResult(tau=0.4, target_coverage=0.8, n_validation=100,
                              delta=0.05, epsilon=0.1, achieved_coverage=0.81)
    with pytest.raises(OSError):
        save_model(model, calib, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin"]


def _reframe(blob, edit):
    """The checkpoint ``blob`` with its header passed through ``edit``,
    re-framed with a valid length and checksum."""
    import hashlib
    import json
    import struct
    (hlen,) = struct.unpack_from("<Q", blob, 7)
    header = json.loads(blob[15:15 + hlen])
    raw = json.dumps(edit(header), sort_keys=True).encode()
    body = blob[:7] + struct.pack("<Q", len(raw)) + raw + blob[15 + hlen:-8]
    return body + hashlib.sha256(body).digest()[:8]


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize("edit, error", [
    (_without("seed"), IntegrityError),
    (_without("array_sizes"), IntegrityError),
    (lambda h: {**h, "extra": 1}, IntegrityError),
    (lambda h: {**h, "architecture": {**h["architecture"], "depth": 3}},
     IntegrityError),
    (lambda h: {**h, "architecture": {"input_dim": 4}}, IntegrityError),
    (lambda h: {**h, "calibration": {"tau": 0.5}}, IntegrityError),
    (lambda h: {**h, "seed": "zero"}, IntegrityError),
    (lambda h: [h], IntegrityError),
    (_without("format_version"), VersionError),
], ids=["no-seed", "no-sizes", "unknown-key", "unknown-arch-key",
        "short-arch", "short-calibration", "bad-seed", "not-an-object",
        "no-version"])
def test_malformed_header_with_valid_checksum(trained_model, tmp_path, edit,
                                              error):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    path.write_bytes(_reframe(path.read_bytes(), edit))
    with pytest.raises(error):
        load_model(path)


def test_unchanged_header_reframes_to_a_loadable_file(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    blob = path.read_bytes()
    assert _reframe(blob, lambda h: h) == blob
