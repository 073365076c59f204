"""Exception types raised across the package.

Every error carries a human-readable message; callers that need to branch
should catch the specific class, not parse the text.
"""


class SurgraphError(Exception):
    """Base class for all package-specific errors."""


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

class ScriptTooLong(SurgraphError):
    """Phase script durations exceed the frame budget."""


class AmbiguousRules(SurgraphError):
    """Two phase rules cannot be told apart from a mask."""
