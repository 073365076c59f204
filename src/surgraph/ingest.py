"""Loading and saving of masks, label maps, phase annotations and manifests.

File formats:
  * SGM1 mask: ``b"SGM1"`` + u32le width + u32le height + width*height class
    id bytes, row-major, top-left origin.
  * Label map: JSON array of ``{"id": int, "name": str}``.
  * Phase annotations: CSV with header ``frame,phase``.
  * Embeddings: JSON ``{frame_index: {segment_key: [floats]}}``.
  * Manifest: JSON ``{"fps": int, "videos": [...]}``.

Loading is pure: loaded objects are never mutated by other modules and class
ids pass through bit-exact (no remapping at the I/O layer).
"""

from __future__ import annotations

import csv
import json
import logging
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DuplicateId,
    MissingFrameKey,
    MissingLabel,
    MixedDimensions,
    NonContiguousIds,
    NonFiniteEmbedding,
    NonMonotonicFrames,
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
    phase_vocab: tuple[str, ...] = tuple(DEFAULT_PHASE_NAMES)

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
    fps: int
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
    if blob[:4] != SGM1_MAGIC:
        raise BadMagic(f"expected magic {SGM1_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 12:
        raise TruncatedFile("header truncated")
    width, height = struct.unpack_from("<II", blob, 4)
    if width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise OversizeDimension(f"{width}x{height} exceeds {MAX_DIMENSION}")
    payload = blob[12 : 12 + width * height]
    if len(payload) < width * height:
        raise TruncatedFile(
            f"payload has {len(payload)} bytes, need {width * height}"
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
    Path(path).write_bytes(mask_to_bytes(mask))


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
    """Load a JSON label map, enforcing unique, contiguous ids from 0."""
    entries = json.loads(Path(path).read_text())
    return label_map_from_entries([(e["id"], e["name"]) for e in entries])


def label_map_from_entries(entries: list[tuple[int, str]]) -> LabelMap:
    ids = [i for i, _ in entries]
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"duplicate class ids in {sorted(ids)}")
    if sorted(ids) != list(range(len(ids))):
        raise NonContiguousIds(f"ids {sorted(ids)} are not 0..{len(ids) - 1}")
    names = [name for _, name in sorted(entries)]
    return LabelMap(names=tuple(names))


def default_label_map() -> LabelMap:
    """The bundled 17-class CaDIS Task II label map."""
    ref = resources.files("surgraph.data").joinpath("cadis_task2.json")
    entries = json.loads(ref.read_text())
    return label_map_from_entries([(e["id"], e["name"]) for e in entries])


# --- phase annotations ----------------------------------------------------------

def load_phase_labels(
    path: str | Path,
    vocab: tuple[str, ...] | list[str] | None = None,
    video_id: str | None = None,
) -> PhaseTrack:
    """Parse a ``frame,phase`` CSV into a strictly increasing phase track."""
    path = Path(path)
    vocab = tuple(vocab) if vocab is not None else tuple(DEFAULT_PHASE_NAMES)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["frame", "phase"]:
            raise ValueError(f"expected header 'frame,phase', got {header}")
        frames: list[int] = []
        phases: list[int] = []
        for row in reader:
            if not row:
                continue
            frame, phase = int(row[0]), int(row[1])
            if frames and frame <= frames[-1]:
                raise NonMonotonicFrames(
                    f"frame {frame} follows {frames[-1]} in {path.name}"
                )
            if not 0 <= phase < len(vocab):
                raise UnknownPhaseId(f"phase id {phase} outside vocabulary of {len(vocab)}")
            frames.append(frame)
            phases.append(phase)
    return PhaseTrack(
        video_id=video_id or path.stem,
        frames=np.asarray(frames, dtype=np.int64),
        phases=np.asarray(phases, dtype=np.int64),
        phase_vocab=vocab,
    )


def write_phase_labels(track: PhaseTrack, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "phase"])
        for frame, phase in zip(track.frames, track.phases):
            writer.writerow([int(frame), int(phase)])


# --- embeddings -----------------------------------------------------------------

def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load per-frame segment embeddings; all vectors must share one length.

    Raises MixedDimensions for vectors of different lengths and
    NonFiniteEmbedding for a NaN or infinite entry, which ``json.loads``
    would otherwise accept.
    """
    raw = json.loads(Path(path).read_text())
    frames: dict[int, dict[str, np.ndarray]] = {}
    dimension: int | None = None
    for frame_key, segments in raw.items():
        table: dict[str, np.ndarray] = {}
        for segment_key, values in segments.items():
            vec = np.asarray(values, dtype=np.float64)
            if dimension is None:
                dimension = vec.shape[0]
            elif vec.shape[0] != dimension:
                raise MixedDimensions(
                    f"vector for {segment_key}@{frame_key} has length "
                    f"{vec.shape[0]}, expected {dimension}"
                )
            if not np.isfinite(vec).all():
                raise NonFiniteEmbedding(
                    f"{path}: embedding of frame {frame_key}, segment {segment_key} "
                    "holds a non-finite value"
                )
            table[segment_key] = vec
        frames[int(frame_key)] = table
    return EmbeddingTable(frames=frames, dimension=dimension)


# --- manifests --------------------------------------------------------------------

VALID_SPLITS = ("train", "val", "test")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a dataset manifest and verify that referenced paths exist."""
    path = Path(path)
    raw = json.loads(path.read_text())
    base = path.parent
    videos = []
    for entry in raw["videos"]:
        split = entry["split"]
        if split not in VALID_SPLITS:
            raise ValueError(f"unknown split {split!r} for video {entry['id']}")
        mask_dir = _resolve(base, entry["mask_dir"])
        phase_csv = _resolve(base, entry["phase_csv"])
        embeddings = _resolve(base, entry["embeddings"]) if entry.get("embeddings") else None
        if not mask_dir.is_dir():
            raise FileNotFoundError(f"mask_dir {mask_dir} for video {entry['id']}")
        if not phase_csv.is_file():
            raise FileNotFoundError(f"phase_csv {phase_csv} for video {entry['id']}")
        if embeddings is not None and not embeddings.is_file():
            raise FileNotFoundError(f"embeddings {embeddings} for video {entry['id']}")
        videos.append(
            VideoEntry(
                video_id=entry["id"],
                mask_dir=mask_dir,
                phase_csv=phase_csv,
                split=split,
                embeddings=embeddings,
            )
        )
    return DatasetManifest(fps=int(raw.get("fps", 1)), videos=tuple(videos))


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
    path.write_text(json.dumps(raw, indent=2) + "\n")


def list_mask_files(mask_dir: str | Path) -> list[tuple[int, Path]]:
    """(frame_index, path) pairs for every ``*.sgm`` file, sorted by frame."""
    pairs = []
    for p in Path(mask_dir).glob("*.sgm"):
        try:
            pairs.append((int(p.stem), p))
        except ValueError:
            logger.warning("skipping mask file with non-numeric stem: %s", p.name)
    return sorted(pairs)


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else base / p
