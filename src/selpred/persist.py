"""Checkpoint persistence: framed binary with a text header.

Layout: magic, 8-byte little-endian header length, UTF-8 JSON header
(format version, architecture, task, trained coverage, optional calibration
result), float64 little-endian parameter payload in declaration order
followed by batchnorm running statistics, and an 8-byte checksum trailer
(leading bytes of SHA-256 over everything before it). The binary payload
makes round-trips bit-exact; the text header keeps files inspectable.

A save writes a temporary file in the target's directory and then renames
it over the target, so an interrupted save leaves any previous checkpoint
intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .calibrate import CalibrationResult
from .model import ArchitectureConfig, SelectiveNet

__all__ = ["save_model", "load_model", "IntegrityError", "VersionError"]

_MAGIC = b"SPCKPT\x00"
FORMAT_VERSION = 1
_HEADER_KEYS = frozenset({"format_version", "architecture", "selective", "seed",
                          "trained_coverage", "calibration", "array_sizes"})


class IntegrityError(IOError):
    """Checksum mismatch or truncated checkpoint file."""


class VersionError(IOError):
    """Checkpoint format version is not supported by this reader."""


def _model_arrays(model):
    return [p.data for p in model.parameters()] + model.running_stats()


def save_model(model, calibration, path):
    """Write a checkpoint of ``model`` and its calibration (or None)."""
    arrays = _model_arrays(model)
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": model.config.to_dict(),
        "selective": model.selective,
        "seed": model.seed,
        "trained_coverage": model.target_coverage,
        "calibration": calibration.to_dict() if calibration else None,
        "array_sizes": [int(a.size) for a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in arrays)
    body = _MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest()[:8])
        os.replace(tmp, path)
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


def load_model(path):
    """Read a checkpoint; returns ``(model, calibration_or_None)``.

    Fails loudly: wrong magic or version, or any corrupted byte, raises
    before any model state is built.
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
        config = ArchitectureConfig.from_dict(header["architecture"])
        model = SelectiveNet(config, header["seed"],
                             selective=header["selective"])
        calib = (CalibrationResult.from_dict(header["calibration"])
                 if header["calibration"] else None)
    except (TypeError, ValueError, KeyError) as exc:
        raise IntegrityError(f"{path}: invalid header: {exc!r}") from exc
    model.target_coverage = header["trained_coverage"]
    arrays = _model_arrays(model)
    sizes = header["array_sizes"]
    if sizes != [int(a.size) for a in arrays]:
        raise IntegrityError(f"{path}: payload layout does not match architecture")
    expected = 8 * sum(sizes)
    if len(body) - off != expected:
        raise IntegrityError(f"{path}: payload truncated")
    for a in arrays:
        n = a.size * 8
        a[...] = np.frombuffer(body[off:off + n], dtype="<f8").reshape(a.shape)
        off += n
    return model, calib
