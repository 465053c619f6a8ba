"""Checkpoint round trips, integrity checking, and the inference-only variant."""

import json
import os
import re
import stat
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selpred.autograd import Parameter
from selpred.calibrate import CalibrationResult
from selpred.checks import CLASSIFICATION, REGRESSION
from selpred.model import (
    ArchitectureConfig,
    SelectiveNet,
    build_baseline,
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


CALIBRATION = CalibrationResult(tau=0.4, target_coverage=0.8,
                                n_validation=100, delta=0.05, epsilon=0.1,
                                achieved_coverage=0.81)


def test_round_trip_is_bit_exact(trained_model, tmp_path):
    model, x = trained_model
    calib = CALIBRATION
    path = tmp_path / "ckpt.bin"
    save_model(model, calib, path)
    loaded, calib2 = load_model(path)
    assert calib2 == calib
    assert loaded.trained_coverage == model.trained_coverage
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


def test_header_is_the_expected_json(trained_model, tmp_path):
    """The header pins every architecture and calibration field; its
    bytes are the sorted-key JSON of this literal."""
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, CALIBRATION, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 7)
    expected = {
        "format_version": 2,
        "architecture": {"input_dim": 4, "body_widths": [8],
                         "task": "classification", "n_classes": 2,
                         "selection_hidden": 8, "batchnorm": True,
                         "dropout_rate": None, "auxiliary_head": True},
        "selective": True,
        "seed": 0,
        "trained_coverage": 0.8,
        "calibration": {"tau": 0.4, "target_coverage": 0.8,
                        "n_validation": 100, "delta": 0.05, "epsilon": 0.1,
                        "achieved_coverage": 0.81},
        "array_sizes": [32, 8, 8, 16, 2, 64, 8, 8, 8, 1, 16, 2, 8, 8, 8, 8],
    }
    assert blob[15:15 + hlen] == json.dumps(expected, sort_keys=True).encode()


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


def test_save_syncs_the_file_before_the_rename_and_the_directory_after(
        trained_model, tmp_path, monkeypatch):
    """The checkpoint's bytes reach the disk before the rename makes them
    the target, and the rename itself is synced through the directory."""
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino,
                      st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_model(model, CALIBRATION, path)
    file_ino, size = path.stat().st_ino, path.stat().st_size
    assert calls == [("fsync", False, file_ino, size),
                     ("replace", file_ino, path),
                     ("fsync", True, tmp_path.stat().st_ino,
                      tmp_path.stat().st_size)]
    assert load_model(path)[1] == CALIBRATION


def _reframe(blob, edit):
    """The checkpoint ``blob`` with its header passed through ``edit``,
    re-framed with a valid length and checksum."""
    import hashlib
    (hlen,) = struct.unpack_from("<Q", blob, 7)
    header = json.loads(blob[15:15 + hlen])
    raw = json.dumps(edit(header), sort_keys=True).encode()
    body = blob[:7] + struct.pack("<Q", len(raw)) + raw + blob[15 + hlen:-8]
    return body + hashlib.sha256(body).digest()[:8]


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def test_build_and_load_run_no_parameter_hook(tmp_path, monkeypatch):
    """Building a criterion-4 model and its twin, loading a checkpoint and
    an epoch of ``train()`` store every ``Parameter`` attribute past
    ``Parameter.__setattr__``; an assignment to a loaded leaf's ``data``
    still runs it."""
    cfg = ArchitectureConfig(input_dim=8, body_widths=[32],
                             task=CLASSIFICATION, n_classes=4,
                             selection_hidden=16)
    path = tmp_path / "ckpt.bin"
    save_model(build_model(cfg, seed=0), None, path)
    calls = []
    hook = Parameter.__setattr__

    def counted(self, name, value):
        calls.append(name)
        hook(self, name, value)

    monkeypatch.setattr(Parameter, "__setattr__", counted)
    model = build_model(cfg, seed=1)
    build_baseline(cfg, seed=1)
    loaded, _ = load_model(path)
    rng = np.random.default_rng(0)
    train(model, rng.normal(size=(96, 8)), rng.integers(0, 4, size=96),
          TrainConfig(epochs=1, batch_size=32, seed=0,
                      loss=LossConfig(task_loss=CROSS_ENTROPY)))
    assert calls == []
    loaded.f_head.bias.data = np.ones(4)
    assert calls == ["data"]
    np.testing.assert_array_equal(loaded.f_head.bias.data, np.ones(4))


@pytest.mark.parametrize("edit, error", [
    (_without("seed"), IntegrityError),
    (_without("array_sizes"), IntegrityError),
    (lambda h: {**h, "extra": 1}, IntegrityError),
    (lambda h: {**h, "architecture": {**h["architecture"], "depth": 3}},
     IntegrityError),
    (lambda h: {**h, "architecture": {"input_dim": 4}}, IntegrityError),
    (lambda h: {**h, "calibration": {"tau": 0.5}}, IntegrityError),
    (lambda h: {**h, "calibration": {**asdict(CALIBRATION), "tau_hat": 0.5}},
     IntegrityError),
    (lambda h: {**h, "seed": "zero"}, IntegrityError),
    (lambda h: [h], IntegrityError),
    (_without("format_version"), VersionError),
    (lambda h: {**h, "seed": True}, IntegrityError),
    (lambda h: {**h, "seed": -1}, IntegrityError),
    (lambda h: {**h, "selective": "yes"}, IntegrityError),
    (lambda h: {**h, "trained_coverage": "abc"}, IntegrityError),
    (lambda h: {**h, "trained_coverage": 7.0}, IntegrityError),
    (lambda h: {**h, "trained_coverage": 0.0}, IntegrityError),
    (lambda h: {**h, "calibration": {**asdict(CALIBRATION), "tau": "x"}},
     IntegrityError),
    (lambda h: {**h, "calibration": {**asdict(CALIBRATION),
                                     "target_coverage": 1.5}},
     IntegrityError),
    (lambda h: {**h, "calibration": {**asdict(CALIBRATION),
                                     "n_validation": 0}}, IntegrityError),
    (lambda h: {**h, "calibration": {**asdict(CALIBRATION),
                                     "epsilon": float("nan")}},
     IntegrityError),
], ids=["no-seed", "no-sizes", "unknown-key", "unknown-arch-key",
        "short-arch", "short-calibration", "unknown-calibration-key",
        "bad-seed", "not-an-object",
        "no-version", "bool-seed", "negative-seed", "string-selective",
        "string-coverage", "coverage-above-one", "zero-coverage",
        "string-tau", "calibration-coverage-above-one", "no-validation-rows",
        "nan-epsilon"])
def test_malformed_header_with_valid_checksum(trained_model, tmp_path, edit,
                                              error):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    path.write_bytes(_reframe(path.read_bytes(), edit))
    with pytest.raises(error):
        load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda body: body[:15] + b"\xff" + body[16:], "header is not UTF-8 JSON"),
    (lambda body: body[:15] + b"[" + body[16:], "header is not UTF-8 JSON"),
    (lambda body: body[:-8], "payload truncated"),
], ids=["header-not-utf8", "header-not-json", "payload-truncated"])
def test_malformed_body_with_valid_checksum(trained_model, tmp_path, edit,
                                            message):
    """The body after magic and header length (bytes 0-14) is edited and
    the 8-byte SHA-256 trailer rewritten, so the checksum passes."""
    import hashlib
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    body = edit(path.read_bytes()[:-8])
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])
    with pytest.raises(IntegrityError,
                       match=f"^{re.escape(str(path))}: {message}$"):
        load_model(path)


def test_unchanged_header_reframes_to_a_loadable_file(trained_model, tmp_path):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, None, path)
    blob = path.read_bytes()
    assert _reframe(blob, lambda h: h) == blob


def _array_by_array_checkpoint(model, calibration, arrays=None,
                               version=FORMAT_VERSION):
    """The checkpoint bytes of ``model`` written one array at a time,
    ``arrays`` or else every parameter's ``data`` and then
    ``running_stats()``: the payload that the model's two state buffers
    must reproduce."""
    import hashlib
    if arrays is None:
        arrays = [p.data for p in model.parameters()] + model.running_stats()
    header = json.dumps({
        "format_version": version,
        "architecture": asdict(model.config),
        "selective": model.selective,
        "seed": model.seed,
        "trained_coverage": model.trained_coverage,
        "calibration": asdict(calibration) if calibration else None,
        "array_sizes": [int(a.size) for a in arrays],
    }, sort_keys=True).encode("utf-8")
    body = (b"SPCKPT\x00" + struct.pack("<Q", len(header)) + header
            + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in arrays))
    return body + hashlib.sha256(body).digest()[:8]


@pytest.mark.parametrize("calibration", [None, CALIBRATION],
                         ids=["uncalibrated", "calibrated"])
def test_payload_is_every_array_in_order(trained_model, tmp_path,
                                         calibration):
    model, _ = trained_model
    path = tmp_path / "ckpt.bin"
    save_model(model, calibration, path)
    assert path.read_bytes() == _array_by_array_checkpoint(model, calibration)


def test_version_1_checkpoint_is_refused_by_its_version(tmp_path):
    """Format version 1 held a zero dense bias after the weights of every
    batchnorm block. Such a file, here the exact bytes version 1 wrote for
    an untrained model, is refused as a version mismatch naming both
    versions, before its layout is read."""
    import hashlib
    model = build_model(ArchitectureConfig(
        **PINNED_ARCHITECTURES["cls-32-dropout"]), seed=7)
    widths = {id(block.dense.weights): block.dense.out_dim
              for block in (*model.body, model.g_block)}
    arrays = []
    for p in model.parameters():
        arrays.append(p.data)
        if id(p) in widths:
            arrays.append(np.zeros(widths[id(p)]))
    blob = _array_by_array_checkpoint(
        model, None, arrays + model.running_stats(), version=1)
    assert hashlib.sha256(blob).hexdigest() == (
        "08491289f6a8cc92321d3aeb7f056ae4f4fe862b373104d39440d3a4c4e3bbc7")
    path = tmp_path / "v1.bin"
    path.write_bytes(blob)
    with pytest.raises(VersionError, match=re.escape(
            "format version 1 not supported (reader supports 2)")):
        load_model(path)


# sha256 of ``save_model(build(config, seed=7), None, path)``, recorded at
# format version 2, when batchnorm blocks lost their dense bias; the
# no-batchnorm files differ from version 1's only in the header's version.
# Untrained models keep the digests free of BLAS rounding, so they pin the
# initialization draw order, the parameter order and the checkpoint layout.
PINNED_ARCHITECTURES = {
    "cls-32-dropout": dict(input_dim=8, body_widths=[32], task=CLASSIFICATION,
                           n_classes=4, dropout_rate=0.5),
    "reg-64-16-plain": dict(input_dim=8, body_widths=[64, 16],
                            task=REGRESSION, batchnorm=False,
                            auxiliary_head=False),
    "defaults": dict(input_dim=5, task=CLASSIFICATION, n_classes=3),
}
PINNED_DIGESTS = {
    ("cls-32-dropout", "model"):
        "9a14ee99a722bf1010ef82a67c05276507534691b80b0e8ec0bbd6c40c46f0e4",
    ("cls-32-dropout", "baseline"):
        "dc41c71944584ddc594a07aff417eb966b701ab78626a223c41a0c516cf54dd3",
    ("reg-64-16-plain", "model"):
        "3ce9d6e21f43298526836814812ea986ae4101ec42fa97accf5da4b973eb30a1",
    ("reg-64-16-plain", "baseline"):
        "d8cee3844264dec898568a32148bbee91d4dd32984bcb736ca5f27df45ad9880",
    ("defaults", "model"):
        "70a493c2679870fd2042e78e9ded1ac76d2bb31dfafcf17e247d4833debc63c1",
    ("defaults", "baseline"):
        "db5392167b703599a5456f30672d34a7931b738767442ecaa8174ec952da99e0",
}


PLAIN_ARCHITECTURE = dict(input_dim=4, body_widths=[8], task=CLASSIFICATION,
                          n_classes=3, selection_hidden=8, dropout_rate=0.25,
                          batchnorm=True)


NUMPY_SETTINGS = {
    "seed": {"seed": np.int64(7)},
    "input_dim": {"input_dim": np.int64(4)},
    "body_widths": {"body_widths": [np.int64(8)]},
    "selection_hidden": {"selection_hidden": np.int64(8)},
    "n_classes": {"n_classes": np.int64(3)},
    "regression-n_classes": {"task": REGRESSION, "n_classes": np.int64(0)},
    "dropout_rate": {"dropout_rate": np.float32(0.25)},
    "batchnorm": {"batchnorm": np.bool_(True)},
    "auxiliary_head": {"auxiliary_head": np.bool_(True)},
    "target_coverage": {"target_coverage": np.float32(0.5)},
}


@pytest.mark.parametrize("changes", NUMPY_SETTINGS.values(),
                         ids=NUMPY_SETTINGS)
def test_numpy_scalar_settings_save_as_their_plain_values(changes, tmp_path):
    """A setting given as a numpy scalar saves the same bytes as its plain
    Python value (0.25 and 0.5 are exact in float32). The target coverage
    reaches the checkpoint through one epoch of training."""
    def saved(seed=7, target_coverage=None, **changed):
        arch = ArchitectureConfig(**{**PLAIN_ARCHITECTURE, **changed})
        model = build_model(arch, seed)
        if target_coverage is not None:
            x = np.random.default_rng(0).normal(size=(32, 4))
            train(model, x, np.arange(32) % 3, TrainConfig(
                epochs=1, batch_size=16, seed=0, loss=LossConfig(
                    task_loss=CROSS_ENTROPY, target_coverage=target_coverage)))
        save_model(model, None, tmp_path / "ckpt.bin")
        return (tmp_path / "ckpt.bin").read_bytes()

    plain = {key: np.asarray(value).tolist() for key, value in changes.items()}
    assert saved(**changes) == saved(**plain)


@pytest.mark.parametrize("arch, kind", sorted(PINNED_DIGESTS),
                         ids=lambda v: v)
def test_untrained_checkpoint_bytes_are_pinned(arch, kind, tmp_path):
    import hashlib
    build = build_model if kind == "model" else build_baseline
    path = tmp_path / "ckpt.bin"
    save_model(build(ArchitectureConfig(**PINNED_ARCHITECTURES[arch]), seed=7),
               None, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_DIGESTS[arch, kind]
