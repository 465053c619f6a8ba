"""The errors several modules share, the checks of a settings field, and
the task names.

Nothing here imports from ``selpred``, so every module can import it. An
error class lives here when more than one module raises or catches it; one
that a single module raises stays next to its raiser (``ParseError`` in
``data``, ``IntegrityError`` and ``VersionError`` in ``persist``, ...).
Each derives from ``SelpredError`` and keeps its builtin base
(``ValueError``, ``IOError`` or ``RuntimeError``). ``SelpredError`` is the
boundary ``cli.main`` catches: bad input prints one ``error:`` line, while
a bug propagates with its traceback.

Config sections, checkpoint headers, CLI flags and library arguments go
through the field checks below; each returns the value or raises a
``ConfigurationError`` naming the field.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CLASSIFICATION", "REGRESSION", "SelpredError",
           "ConfigurationError", "ContractError", "DegenerateCoverageError",
           "DomainError", "ShapeError", "MAX_SIZE", "integer", "size",
           "real", "boolean", "fraction", "open_fraction", "drop_rate"]

CLASSIFICATION = "classification"
REGRESSION = "regression"


class SelpredError(Exception):
    """The base of every error ``selpred`` raises on purpose."""


class ConfigurationError(SelpredError, ValueError):
    """An invalid setting: a config file field, a checkpoint header field,
    a command-line flag or a library argument."""


class ContractError(SelpredError, ValueError):
    """A call violates a layer's usage contract."""


class ShapeError(SelpredError, ValueError):
    """Operand shapes violate an operation's contract."""


class DomainError(SelpredError, ValueError):
    """Operand values lie outside an operation's domain."""


class DegenerateCoverageError(SelpredError, ValueError):
    """Nothing is selected: the selective risk is undefined."""


def integer(value, field, least=None):
    """``value`` as an ``int``; ConfigurationError naming ``field`` unless
    it is an ``int`` or numpy integer of at least ``least`` (when given).
    A bool is rejected, though Python counts it as an int, since ``true``
    would read as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{field}: {value!r} is not an integer")
    if least is not None and value < least:
        raise ConfigurationError(f"{field} must be >= {least}, got {value}")
    return int(value)


# The largest array extent a setting may ask for: two multiplied, in float64
# bytes, fit numpy's index type, so too large an array is a MemoryError.
MAX_SIZE = math.isqrt(np.iinfo(np.intp).max // 8)


def size(value, field, least=1):
    """``integer(value, field, least)``, and at most ``MAX_SIZE``."""
    if integer(value, field, least) > MAX_SIZE:
        raise ConfigurationError(f"{field} must be <= {MAX_SIZE}, got {value}")
    return int(value)


def real(value, field):
    """``value`` as a ``float``; ConfigurationError naming ``field`` unless
    it is a finite int or float (numpy's included). A bool, a string, an
    infinity, a NaN or an int too large for a float is rejected."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{field}: {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(f"{field}: {value!r} is not finite")
    return x


def boolean(value, field):
    """``value`` as a ``bool``; ConfigurationError naming ``field`` unless it
    is a bool or numpy bool, since any non-empty string, ``"false"``
    included, would read as true."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{field}: {value!r} is not a boolean")
    return bool(value)


def fraction(value, field):
    """``value`` as a ``float``; ConfigurationError naming ``field`` unless
    it is a real in (0, 1]."""
    x = real(value, field)
    if not 0 < x <= 1:
        raise ConfigurationError(f"{field} must lie in (0, 1], got {value}")
    return x


def open_fraction(value, field):
    """``value`` as a ``float``; ConfigurationError naming ``field`` unless
    it is a real in (0, 1)."""
    x = real(value, field)
    if not 0 < x < 1:
        raise ConfigurationError(f"{field} must lie in (0, 1), got {value}")
    return x


def drop_rate(value, field):
    """``value`` as a ``float``; ConfigurationError naming ``field`` unless
    it is a real in [0, 1), a dropout rate (at 1 every unit drops)."""
    x = real(value, field)
    if not 0 <= x < 1:
        raise ConfigurationError(f"{field} must lie in [0, 1), got {value}")
    return x
