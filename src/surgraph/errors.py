"""Exception types raised across the package, and the field check of the config dataclasses.

Every error carries a human-readable message; callers that need to branch
should catch the specific class, not parse the text.
"""

import math
import operator
from collections.abc import Iterable
from contextlib import suppress
from dataclasses import fields
from numbers import Real

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
