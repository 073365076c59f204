"""Loading and saving of masks, label maps, phase annotations and manifests.

File formats:
  * SGM1 mask: ``b"SGM1"`` + u32le width + u32le height + width*height class
    id bytes, row-major, top-left origin.
  * Label map: JSON array of ``{"id": int, "name": str}``.
  * Phase annotations: CSV with header ``frame,phase``, then two integers
    per row.
  * Embeddings: JSON ``{frame_index: {segment_key: [floats]}}``.
  * Manifest: JSON ``{"fps": number, "videos": [...]}``; a frame rate
    such as 29.97 is kept as given.

A file that breaks its format raises a ``SurgraphError`` that names it: the
frame for a mask, the line for a phase CSV, the video and key for a
manifest, the entry for a label map, and the frame and segment for an
embedding table (``MalformedFile``). JSON files are read by ``read_json``,
so text that is not UTF-8, or not JSON, raises ``MalformedFile`` too.

Loading is pure: loaded objects are never mutated by other modules and class
ids pass through bit-exact (no remapping at the I/O layer).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DuplicateId,
    MalformedFile,
    MissingFrameKey,
    MissingLabel,
    MissingPath,
    MixedDimensions,
    NonContiguousIds,
    NonFiniteEmbedding,
    NonMonotonicFrames,
    OutOfRange,
    OversizeDimension,
    TrailingBytes,
    TruncatedFile,
    UnknownPhaseId,
)

logger = logging.getLogger(__name__)

SGM1_MAGIC = b"SGM1"
MAX_DIMENSION = 16384

#: Default phase vocabulary: idle (0) plus the 18 cataract surgery phases.
DEFAULT_PHASE_NAMES = [
    "Idle",
    "Toric Marking",
    "Implant Ejection",
    "Incision",
    "Viscodilatation",
    "Capsulorhexis",
    "Hydrodissection",
    "Nucleus Breaking",
    "Phacoemulsification",
    "Vitrectomy",
    "Irrigation/Aspiration",
    "Preparing Implant",
    "Manual Aspiration",
    "Implantation",
    "Positioning",
    "OVD Aspiration",
    "Suturing",
    "Sealing Control",
    "Wound Hydratation",
]


@dataclass(frozen=True)
class SegmentationMask:
    """Per-frame raster of semantic class ids.

    ``class_ids`` is a (height, width) uint8 array; entry [y, x] is the class
    of the pixel at column x, row y.
    """

    width: int
    height: int
    class_ids: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        if self.class_ids.shape != (self.height, self.width):
            raise ValueError(
                f"class_ids shape {self.class_ids.shape} does not match "
                f"{self.height}x{self.width}"
            )


@dataclass(frozen=True)
class LabelMap:
    """Ordered class id -> class name mapping with contiguous ids from 0."""

    names: tuple[str, ...]

    @property
    def cardinality(self) -> int:
        return len(self.names)

    def name_of(self, class_id: int) -> str:
        return self.names[class_id]


@dataclass(frozen=True)
class PhaseTrack:
    """Per-frame phase labels for one video, strictly increasing frames."""

    video_id: str
    frames: np.ndarray
    phases: np.ndarray

    def __len__(self) -> int:
        return len(self.frames)

    def label_at(self, frame_index: int) -> int:
        """Phase id annotated at exactly `frame_index` (MissingLabel if absent)."""
        idx = np.searchsorted(self.frames, frame_index)
        if idx == len(self.frames) or self.frames[idx] != frame_index:
            raise MissingLabel(
                f"video {self.video_id!r}: no phase annotation for frame {frame_index}"
            )
        return int(self.phases[idx])


class EmbeddingTable:
    """Per-frame, per-segment feature vectors (e.g. class query embeddings).

    Keys follow ``seg_<class_id>`` in per-class-region mode and
    ``seg_<class_id>_<component_index>`` in per-component mode.
    """

    def __init__(self, frames: dict[int, dict[str, np.ndarray]], dimension: int | None):
        self.frames = frames
        self.dimension = dimension

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def empty(self) -> bool:
        return not self.frames

    def vectors_for(self, frame_index: int) -> dict[str, np.ndarray]:
        if frame_index not in self.frames:
            raise MissingFrameKey(f"embedding table has no frame {frame_index}")
        return self.frames[frame_index]

    def vector(self, frame_index: int, segment_key: str) -> np.ndarray:
        """Embedding for one segment; zero vector with a warning if absent."""
        vectors = self.vectors_for(frame_index)
        if segment_key not in vectors:
            logger.warning(
                "frame %d has no embedding for %s; using zeros", frame_index, segment_key
            )
            return np.zeros(self.dimension or 0)
        return vectors[segment_key]


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    mask_dir: Path
    phase_csv: Path
    split: str
    embeddings: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    fps: float
    videos: tuple[VideoEntry, ...]


# --- SGM1 masks ---------------------------------------------------------------

def load_mask(path: str | Path, frame_index: int | None = None) -> SegmentationMask:
    """Read an SGM1 raster. Class ids are returned exactly as stored.

    ``frame_index`` defaults to the numeric file stem (0 if not numeric).
    """
    path = Path(path)
    blob = path.read_bytes()
    if frame_index is None:
        try:
            frame_index = int(path.stem)
        except ValueError:
            frame_index = 0
    return mask_from_bytes(blob, frame_index=frame_index)


def mask_from_bytes(blob: bytes, frame_index: int = 0) -> SegmentationMask:
    """Decode an SGM1 raster; every decode error names ``frame_index``."""
    if blob[:4] != SGM1_MAGIC:
        raise BadMagic(f"frame {frame_index}: expected magic {SGM1_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 12:
        raise TruncatedFile(f"frame {frame_index}: header truncated")
    width, height = struct.unpack_from("<II", blob, 4)
    if width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise OversizeDimension(f"frame {frame_index}: {width}x{height} exceeds {MAX_DIMENSION}")
    payload = blob[12 : 12 + width * height]
    if len(payload) < width * height:
        raise TruncatedFile(
            f"frame {frame_index}: payload has {len(payload)} bytes, need {width * height}"
        )
    if len(blob) > 12 + width * height:
        raise TrailingBytes(
            f"frame {frame_index}: {len(blob) - 12 - width * height} trailing bytes "
            f"after the {width}x{height} payload"
        )
    ids = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    return SegmentationMask(width=width, height=height, class_ids=ids, frame_index=frame_index)


def mask_to_bytes(mask: SegmentationMask) -> bytes:
    header = SGM1_MAGIC + struct.pack("<II", mask.width, mask.height)
    return header + np.ascontiguousarray(mask.class_ids, dtype=np.uint8).tobytes()


def write_mask(mask: SegmentationMask, path: str | Path) -> None:
    """Write ``mask`` as SGM1 through ``atomic_write``: never a truncated file."""
    with atomic_write(path, "wb") as fh:
        fh.write(mask_to_bytes(mask))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file beside ``path``; on success it replaces ``path``.

    If the body raises, the temporary file is removed and ``path`` keeps
    its earlier contents, or stays absent.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- label maps ---------------------------------------------------------------

def load_label_map(path: str | Path) -> LabelMap:
    """Load a JSON label map, enforcing unique, contiguous ids from 0.

    Raises MalformedFile, naming the file and the entry index, for a top
    level that is not a list, an entry that is not an object, or a missing
    or mistyped ``id`` or ``name``. DuplicateId and NonContiguousIds name
    the file too.
    """
    path = Path(path)
    entries = read_json(path)
    if not isinstance(entries, list):
        raise MalformedFile(f"{path}: the top level is a {type(entries).__name__}, not an array")
    for index, e in enumerate(entries):
        ok = isinstance(e, dict) and _is_number(e.get("id"), int) and isinstance(e.get("name"), str)
        if not ok:
            raise MalformedFile(
                f"{path}: entry {index} is not an object with an integer 'id' and a string 'name'"
            )
    return label_map_from_entries([(e["id"], e["name"]) for e in entries], source=path)


def label_map_from_entries(
    entries: list[tuple[int, str]], source: str | Path = "label map"
) -> LabelMap:
    """The label map of (id, name) pairs; errors name ``source``."""
    ids = [i for i, _ in entries]
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"{source}: duplicate class ids in {sorted(ids)}")
    if sorted(ids) != list(range(len(ids))):
        raise NonContiguousIds(f"{source}: ids {sorted(ids)} are not 0..{len(ids) - 1}")
    names = [name for _, name in sorted(entries)]
    return LabelMap(names=tuple(names))


def default_label_map() -> LabelMap:
    """The bundled 17-class CaDIS Task II label map."""
    with resources.as_file(resources.files("surgraph.data") / "cadis_task2.json") as path:
        return load_label_map(path)


# --- phase annotations ----------------------------------------------------------

def load_phase_labels(path: str | Path, video_id: str | None = None) -> PhaseTrack:
    """Parse a ``frame,phase`` CSV into a strictly increasing phase track.

    A file that is not UTF-8 text, a wrong header, or a row that is not two
    integers raises MalformedFile; a frame that does not increase raises
    NonMonotonicFrames and a phase outside ``DEFAULT_PHASE_NAMES``
    UnknownPhaseId. Each names the file and, past the text check, the line.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(_utf8_text(path), newline=""))
    frames: list[int] = []
    phases: list[int] = []
    try:
        header = next(reader, None)
        if header != ["frame", "phase"]:
            raise MalformedFile(f"{path}: line 1: expected header 'frame,phase', got {header}")
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            try:
                frame, phase = map(int, row)
            except ValueError as exc:
                raise MalformedFile(
                    f"{where}: expected two integers, got {','.join(row)!r}"
                ) from exc
            if frames and frame <= frames[-1]:
                raise NonMonotonicFrames(f"{where}: frame {frame} follows {frames[-1]}")
            if not 0 <= phase < len(DEFAULT_PHASE_NAMES):
                raise UnknownPhaseId(
                    f"{where}: phase id {phase} outside vocabulary of {len(DEFAULT_PHASE_NAMES)}"
                )
            frames.append(frame)
            phases.append(phase)
    except csv.Error as exc:
        raise MalformedFile(f"{path}: line {reader.line_num}: {exc}") from exc
    return PhaseTrack(
        video_id=video_id or path.stem,
        frames=np.asarray(frames, dtype=np.int64),
        phases=np.asarray(phases, dtype=np.int64),
    )


def write_phase_labels(track: PhaseTrack, path: str | Path) -> None:
    """The track as a phase CSV; a failed write leaves an earlier file at ``path`` as it was."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["frame", "phase"])
    for frame, phase in zip(track.frames, track.phases):
        writer.writerow([int(frame), int(phase)])
    with atomic_write(path, "wb") as fh:
        fh.write(text.getvalue().encode("utf-8"))


# --- embeddings -----------------------------------------------------------------

def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load per-frame segment embeddings; all vectors must share one length.

    Raises MalformedFile, naming the file and the frame or segment, for a
    top level or frame that is not an object, a frame key that is not a
    frame number (or repeats one) and a vector that is not a list of
    numbers. Raises MixedDimensions for vectors of different lengths and
    NonFiniteEmbedding for a NaN or infinite entry, which ``json.loads``
    would otherwise accept; both name the file too.
    """
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise MalformedFile(f"{path}: the top level is a {type(raw).__name__}, not an object")
    frames: dict[int, dict[str, np.ndarray]] = {}
    dimension: int | None = None
    for frame_key, segments in raw.items():
        if not (frame_key.isascii() and frame_key.isdigit()):
            raise MalformedFile(f"{path}: frame key {frame_key!r} is not a frame number")
        if int(frame_key) in frames:
            raise MalformedFile(f"{path}: frame key {frame_key!r} repeats frame {int(frame_key)}")
        if not isinstance(segments, dict):
            raise MalformedFile(f"{path}: frame {frame_key} is not an object of segment vectors")
        table: dict[str, np.ndarray] = {}
        for segment_key, values in segments.items():
            where = f"{path}: embedding of frame {frame_key}, segment {segment_key}"
            if not isinstance(values, list) or not all(map(_is_number, values)):
                raise MalformedFile(f"{where} is not a list of numbers")
            vec = np.asarray(values, dtype=np.float64)
            if dimension is None:
                dimension = vec.shape[0]
            elif vec.shape[0] != dimension:
                raise MixedDimensions(f"{where} has length {vec.shape[0]}, expected {dimension}")
            if not np.isfinite(vec).all():
                raise NonFiniteEmbedding(f"{where} holds a non-finite value")
            table[segment_key] = vec
        frames[int(frame_key)] = table
    return EmbeddingTable(frames=frames, dimension=dimension)


# --- manifests --------------------------------------------------------------------

VALID_SPLITS = ("train", "val", "test")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a dataset manifest and verify that referenced paths exist.

    Raises OutOfRange, naming the manifest, for an ``fps`` that is not a
    finite number of at least 1 (see ``checked_fps``), and MalformedFile,
    naming the manifest, the video and the key, for a missing or unknown
    key, a ``split`` outside train/val/test or a path (``mask_dir``,
    ``phase_csv``, ``embeddings``) that is not a string. A path that names
    no folder or file raises MissingPath, a FileNotFoundError that names
    the manifest, the video and the key.
    """
    path = Path(path)
    raw = read_json(path)
    entries = _required(raw, "videos", path, "the manifest")
    _known_keys(raw, ("fps", "videos"), path, "the manifest")
    if not isinstance(entries, list):
        raise MalformedFile(f"{path}: the manifest's 'videos' is not a list")
    fps = checked_fps(raw.get("fps", 1), path)
    videos = []
    for index, entry in enumerate(entries):
        video_id = _required(entry, "id", path, f"video {index}")
        split, mask_dir, phase_csv = (
            _required(entry, key, path, f"video {video_id!r}")
            for key in ("split", "mask_dir", "phase_csv")
        )
        where = f"video {video_id!r}"
        _known_keys(entry, ("id", "split", "mask_dir", "phase_csv", "embeddings"), path, where)
        if split not in VALID_SPLITS:
            raise MalformedFile(
                f"{path}: {where} has 'split' {split!r}, not one of {', '.join(VALID_SPLITS)}"
            )
        mask_dir = _resolve(path, where, "mask_dir", mask_dir)
        phase_csv = _resolve(path, where, "phase_csv", phase_csv)
        embeddings = entry.get("embeddings")  # absent, null or "": no table
        if embeddings in (None, ""):
            embeddings = None
        else:
            embeddings = _resolve(path, where, "embeddings", embeddings)
        if not mask_dir.is_dir():
            raise MissingPath(f"{path}: {where} has 'mask_dir' {mask_dir}, not a folder")
        if not phase_csv.is_file():
            raise MissingPath(f"{path}: {where} has 'phase_csv' {phase_csv}, not a file")
        if embeddings is not None and not embeddings.is_file():
            raise MissingPath(f"{path}: {where} has 'embeddings' {embeddings}, not a file")
        videos.append(
            VideoEntry(
                video_id=video_id,
                mask_dir=mask_dir,
                phase_csv=phase_csv,
                split=split,
                embeddings=embeddings,
            )
        )
    return DatasetManifest(fps=fps, videos=tuple(videos))


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        try:
            return str(p.relative_to(base))
        except ValueError:
            return str(p)

    raw = {
        "fps": manifest.fps,
        "videos": [
            {
                "id": v.video_id,
                "mask_dir": rel(v.mask_dir),
                "phase_csv": rel(v.phase_csv),
                "split": v.split,
                **({"embeddings": rel(v.embeddings)} if v.embeddings else {}),
            }
            for v in manifest.videos
        ],
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(raw, indent=2) + "\n")


def checked_fps(value, source: str | Path) -> float:
    """A frame rate read from JSON ``source``, returned as given.

    An int stays an int and a fractional rate such as 29.97 stays a float.
    Raises OutOfRange, naming ``source``, for a bool, a non-number, a
    non-finite value or a rate below 1.
    """
    finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not finite:
        raise OutOfRange(f"{source}: fps {value!r} is not a finite number")
    if value < 1:
        raise OutOfRange(f"{source}: fps {value} must be at least 1")
    return value


def list_mask_files(mask_dir: str | Path) -> list[tuple[int, Path]]:
    """(frame_index, path) pairs for every ``*.sgm`` file, sorted by frame.

    A file whose stem is not a frame number (an integer of at least 0) is
    skipped with a warning that names it.
    """
    pairs = []
    for p in Path(mask_dir).glob("*.sgm"):
        try:
            frame = int(p.stem)
        except ValueError:
            frame = -1
        if frame < 0:
            logger.warning("skipping mask file whose stem is not a frame number: %s", p)
        else:
            pairs.append((frame, p))
    return sorted(pairs)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``.

    Raises MalformedFile, naming the file, for text that is not UTF-8 or
    not JSON.
    """
    path = Path(path)
    try:
        return json.loads(_utf8_text(path))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise MalformedFile(f"{path}: not JSON ({exc})") from exc


def _utf8_text(path: Path) -> str:
    """The file's text; MalformedFile naming ``path`` if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc


def _is_number(value, kind=(int, float)) -> bool:
    """Whether a JSON ``value`` is a number of ``kind``; a bool is none."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _required(obj, key: str, path: Path, where: str):
    """``obj[key]``; MalformedFile naming the manifest ``path``, ``where`` and ``key`` if absent."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedFile(f"{path}: {where} has no {key!r}")
    return obj[key]


def _known_keys(obj: dict, keys, path: Path, where: str) -> None:
    """MalformedFile naming the manifest ``path``, ``where`` and the key if ``obj``
    has a key outside ``keys``, such as a misspelt ``embeddings``."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise MalformedFile(f"{path}: {where} has unknown key {unknown[0]!r}")


def _resolve(path: Path, where: str, key: str, value) -> Path:
    """A path ``value`` from the manifest ``path``, relative to its folder.

    MalformedFile naming the manifest, ``where`` and ``key`` if it is not a string.
    """
    if not isinstance(value, str):
        raise MalformedFile(f"{path}: {where} has {key!r} {value!r}, not a path string")
    p = Path(value)
    return p if p.is_absolute() else path.parent / p
