"""Exception types raised across the package, and the one way each input is checked.

Every error carries a human-readable message; callers that need to branch
should catch the specific class, not parse the text. ``check_fields`` checks
config dataclasses and ``decode_config`` builds them from JSON: InvalidConfig
for a config file, CorruptCheckpoint for a checkpoint's. ``check_json`` checks
JSON objects with the value tests below: MalformedFile for graph JSON, a
manifest or a label map, CorruptCheckpoint for a checkpoint header.
"""

import json
import math
import operator
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import fields
from numbers import Real
from pathlib import Path

import numpy as np


class SurgraphError(Exception):
    """Base class for all package-specific errors."""


# --- configuration -----------------------------------------------------------

class InvalidConfig(SurgraphError, ValueError):
    """A config field or command-line flag has a bad value; the message names
    the field or flag. The command line exits 1 for it."""


def config_value(name: str, value, kind: type):
    """``value`` of the config field ``name`` as a plain ``kind``: int, float, bool or str.

    An int is whatever ``operator.index`` takes, numpy ints included; a float
    is a finite real number. A bool is neither. Anything else raises
    InvalidConfig naming ``name``.
    """
    is_bool = isinstance(value, (bool, np.bool_))
    if kind is bool and is_bool:
        return bool(value)
    if kind is str and isinstance(value, str):
        return value
    if kind is int and not is_bool:
        with suppress(TypeError):
            return operator.index(value)
    if kind is float and not is_bool and isinstance(value, Real):
        with suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    expected = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}
    raise InvalidConfig(f"{name} must be {expected[kind]}, not {value!r}")


_FIELD_KINDS = {"int": int, "float": float, "bool": bool, "str": str}


def check_fields(config) -> None:
    """Check and store, by ``config_value``, each field of the frozen dataclass
    ``config`` annotated ``int``, ``float``, ``bool`` or ``str``, and each item
    of one annotated ``tuple[int, ...]``, which is stored as a tuple.

    The annotations are read as strings, as ``from __future__ import
    annotations`` leaves them; other fields are left to the caller.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_KINDS:
            value = config_value(f.name, value, _FIELD_KINDS[f.type])
        elif f.type == "tuple[int, ...]":
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise InvalidConfig(f"{f.name} must be a list of integers, not {value!r}")
            value = tuple(config_value(f"{f.name} item", v, int) for v in value)
        else:
            continue
        object.__setattr__(config, f.name, value)


# --- mask / label / embedding loading ---------------------------------------

class BadMagic(SurgraphError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(SurgraphError):
    """File payload is shorter than its header declares."""


class TrailingBytes(SurgraphError):
    """File has bytes after the payload its header declares."""


class OversizeDimension(SurgraphError):
    """Mask width or height exceeds the sanity limit."""


class MalformedFile(SurgraphError):
    """A text file (phase CSV, manifest) does not follow its format; the
    message names the file and the line, video or key."""


class MissingPath(SurgraphError, FileNotFoundError):
    """A folder or file that a manifest names does not exist; the message
    names the manifest, the video and the key."""


class DuplicateId(SurgraphError):
    """Label map contains the same class id twice."""


class NonContiguousIds(SurgraphError):
    """Label map ids are not 0..n-1."""


class UnknownPhaseId(SurgraphError):
    """Phase annotation references an id outside the vocabulary."""


class NonMonotonicFrames(SurgraphError):
    """Phase annotation frames are not strictly increasing."""


class MixedDimensions(SurgraphError):
    """Embedding vectors in one table have different lengths."""


class NonFiniteEmbedding(SurgraphError):
    """An embedding vector holds NaN or infinity; the message names the
    file, the frame and the segment key."""


class MissingFrameKey(SurgraphError):
    """A non-empty embedding table has no entry for a requested frame."""


class MissingLabel(SurgraphError, KeyError):
    """A frame has no phase annotation; the message names video and frame."""

    def __str__(self) -> str:
        # KeyError's own __str__ would quote the message.
        return Exception.__str__(self)


# --- graph construction ------------------------------------------------------

class EmptyMask(SurgraphError):
    """No segment survived the pixel-count threshold; skip the frame."""


class OutOfRange(SurgraphError):
    """A coordinate or ordinal lies outside its valid interval."""


class EmptyWindow(SurgraphError):
    """A dynamic graph was requested over zero frames."""


# --- numerics / model --------------------------------------------------------

class ShapeMismatch(SurgraphError):
    """Operand shapes are incompatible."""


class DuplicateEntry(SurgraphError):
    """A sparse matrix is given the same (row, col) entry twice, or a graph
    file gives an edge twice (in either order) or joins a node to itself."""


class LabelOutOfRange(SurgraphError):
    """Class label index outside the probability vector."""


class NonFiniteGradient(SurgraphError):
    """A gradient check encountered NaN or infinity."""


class EmptyGraph(SurgraphError):
    """Model input graph has no nodes."""


class DimensionMismatch(SurgraphError):
    """Graph feature dimension does not match the model input dimension."""


# --- training pipeline -------------------------------------------------------

class OverlappingSplits(SurgraphError):
    """A video is assigned to more than one dataset split."""


class EmptyTrainSet(SurgraphError):
    """Training requested with no train samples."""


class EmptyEvalSet(SurgraphError):
    """Evaluation requested with no samples."""


class NonFiniteLoss(SurgraphError):
    """Training loss became NaN or infinite."""


class VersionMismatch(SurgraphError):
    """Checkpoint format version is not supported."""


class CorruptCheckpoint(SurgraphError):
    """Checkpoint file is malformed or truncated."""


# --- explanation -------------------------------------------------------------

class NotTrained(SurgraphError):
    """Refusing to explain a model that outputs uniform probabilities."""


# --- synthetic data ----------------------------------------------------------

class ScriptTooLong(InvalidConfig):
    """Phase script durations exceed the frame budget."""


class AmbiguousRules(SurgraphError):
    """Two phase rules cannot be told apart from a mask."""


# --- decoded JSON --------------------------------------------------------------

def _is_integer(value) -> bool:
    """A JSON integer of any size; a bool is none."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """An integer that fits int64, so numpy takes it."""
    return _is_integer(value) and -(2**63) <= value < 2**63


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_real(value) -> bool:
    """A float, NaN and infinities included, or an integer that fits int64."""
    return isinstance(value, float) or _is_int(value)


def _is_finite(value) -> bool:
    return _is_real(value) and math.isfinite(value)


def _is_counts(value) -> bool:
    return isinstance(value, list) and all(map(_is_count, value))


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(map(_is_finite, value))


def _is_pair(value) -> bool:
    return _is_vector(value) and len(value) == 2


def _is_folder_name(value) -> bool:
    """A string naming one folder in another: no separator or NUL, not "", "." or ".."."""
    ok = isinstance(value, str) and value not in ("", ".", "..") and "\0" not in value
    return ok and Path(value).name == value


def _shown(value) -> str:
    """A JSON value as the file writes it, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_json(obj, keys: dict, where: str, error: type = MalformedFile, *,
               optional: dict | None = None, show=_shown, shape: str | None = None) -> None:
    """Raise ``error`` for the first fault of the JSON object ``obj``: ``<where>
    is a list, not an object``, ``has no 'k'`` or ``has 'k' <value>, not <what>``
    for ``keys``, a table ``key -> (test, what)`` (None: any value), and, given
    ``optional``, a table of keys it may hold, ``has unknown key 'k'``.
    ``show`` writes the value; with ``shape`` a fault reads ``is not <shape>``."""
    def fail(fault: str):
        raise error(f"{where} {'is not ' + shape if shape else fault}")

    if not isinstance(obj, dict):
        fail(f"is a {type(obj).__name__}, not an object")
    for key, check in {**keys, **(optional or {})}.items():
        if key in keys and key not in obj:
            fail(f"has no {key!r}")
        if key in obj and check is not None and not check[0](obj[key]):
            fail(f"has {key!r} {show(obj[key])}, not {check[1]}")
    unknown = sorted(set(obj) - set(keys) - set(optional)) if optional is not None else []
    if unknown:
        fail(f"has unknown key {unknown[0]!r}")


def decode_config(build, data, where: str, error: type = InvalidConfig):
    """``build(data)``; its TypeError (not an object, an unknown key) or ValueError
    (a bad value) is raised again as ``error``, ``<where>: `` first."""
    try:
        return build(data)
    except (TypeError, ValueError) as exc:
        raise error(f"{where}: {exc}") from exc
