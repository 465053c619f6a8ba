"""Checkpoint persistence: framed binary with a text header.

Layout: magic, 8-byte little-endian header length, UTF-8 JSON header
(format version, architecture, task, trained coverage, optional calibration
result), float64 little-endian payload and an 8-byte checksum trailer
(leading bytes of SHA-256 over everything before it). The payload is the
model's two state buffers (``SelectiveNet.state``): every parameter in
declaration order, then every batchnorm running statistic, written and
read whole. A file of any other format version is refused with a
``VersionError`` naming both versions. The binary payload makes
round-trips bit-exact; the text header keeps files inspectable.

A save writes a temporary file in the target's directory, fsyncs it,
renames it over the target and fsyncs the directory, so an interrupted
save, or a crash after it, leaves either the previous checkpoint or the
new one whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult
from .checks import SelpredError, boolean, fraction, integer, real
from .model import ArchitectureConfig, SelectiveNet

__all__ = ["save_model", "load_model", "IntegrityError", "VersionError"]

_MAGIC = b"SPCKPT\x00"
FORMAT_VERSION = 3
_HEADER_KEYS = frozenset({"format_version", "architecture", "selective", "seed",
                          "trained_coverage", "calibration", "array_sizes"})


class IntegrityError(SelpredError, IOError):
    """Checksum mismatch or truncated checkpoint file."""


class VersionError(SelpredError, IOError):
    """Checkpoint format version is not supported by this reader."""


def _state(model):
    """``(buffers, sizes)``: the model's two state buffers and the size of
    every array they hold, in payload order."""
    sizes = [p.data.size for p in model.parameters()] + [
        a.size for a in model.running_stats()]
    return model.state(), sizes


def save_model(model, calibration, path):
    """Write a checkpoint of ``model`` and its calibration (or None),
    durably: the file and then its directory entry are fsynced."""
    buffers, sizes = _state(model)
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": asdict(model.config),
        "selective": model.selective,
        "seed": model.seed,
        "trained_coverage": model.trained_coverage,
        "calibration": asdict(calibration) if calibration else None,
        "array_sizes": sizes,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(b.astype("<f8", copy=False).tobytes() for b in buffers)
    body = _MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest()[:8])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(path, raw):
    """Decode and check the header: a version mismatch (or no version)
    raises ``VersionError``, anything else malformed ``IntegrityError``."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise IntegrityError(f"{path}: header is not UTF-8 JSON") from exc
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {header.get('format_version')} not "
            f"supported (reader supports {FORMAT_VERSION})")
    if set(header) != _HEADER_KEYS:
        raise IntegrityError(
            f"{path}: header keys missing {sorted(_HEADER_KEYS - set(header))}"
            f", unknown {sorted(set(header) - _HEADER_KEYS)}")
    return header


def _calibration(fields):
    """``CalibrationResult(**fields)``; ConfigurationError unless
    ``n_validation`` is an int >= 1, ``target_coverage`` lies in (0, 1]
    and every other field is a finite real."""
    calib = CalibrationResult(**fields)
    fraction(calib.target_coverage, "target_coverage")
    integer(calib.n_validation, "n_validation", least=1)
    for name in ("tau", "delta", "epsilon", "achieved_coverage"):
        real(getattr(calib, name), name)
    return calib


def load_model(path):
    """Read a checkpoint; returns ``(model, calibration_or_None)``.

    Fails loudly, before any model state is read: a wrong version raises
    VersionError; wrong magic, any corrupted byte, missing or unknown
    header keys, or a header field of the wrong type or range (a seed that
    is not an int >= 0, a ``selective`` that is not a bool, a coverage
    outside (0, 1], a non-finite calibration value) raise IntegrityError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 16 or not blob.startswith(_MAGIC):
        raise IntegrityError(f"{path}: not a checkpoint file")
    body, trailer = blob[:-8], blob[-8:]
    if hashlib.sha256(body).digest()[:8] != trailer:
        raise IntegrityError(f"{path}: checksum mismatch")
    off = len(_MAGIC)
    (hlen,) = struct.unpack_from("<Q", body, off)
    off += 8
    header = _read_header(path, body[off:off + hlen])
    off += hlen
    try:
        config = ArchitectureConfig(**header["architecture"])
        model = SelectiveNet(config, header["seed"], selective=boolean(
            header["selective"], "selective"))
        coverage = header["trained_coverage"]
        if coverage is not None:
            fraction(coverage, "trained_coverage")
        calib = (_calibration(header["calibration"])
                 if header["calibration"] else None)
    except (TypeError, ValueError, KeyError) as exc:
        raise IntegrityError(f"{path}: invalid header: {exc!r}") from exc
    model.trained_coverage = coverage
    buffers, sizes = _state(model)
    if header["array_sizes"] != sizes:
        raise IntegrityError(f"{path}: payload layout does not match architecture")
    if len(body) - off != 8 * sum(sizes):
        raise IntegrityError(f"{path}: payload truncated")
    for b in buffers:
        n = b.size * 8
        b[...] = np.frombuffer(body[off:off + n], dtype="<f8")
        off += n
    return model, calib
