"""Static scene graphs from segmentation masks.

A mask is decomposed into segments (one per class present, or one per
connected component) by ``extract_segments``, which returns them as arrays
(``Segments``) with an image of each pixel's segment. Segment k becomes
node k, carrying a feature vector, and two nodes are joined by an
undirected edge when their pixel regions touch in that image. All
operations are pure and deterministic.

Segments are read off bincounts over one label image, so a mask is walked
a fixed number of times (plus one labelling pass per class in
per-component mode), never once per segment, with O(H*W) transient memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import ndimage

from .errors import (
    EmptyMask, InvalidConfig, MissingFrameKey, OutOfRange, ShapeMismatch, check_fields,
)
from .ingest import EmbeddingTable, SegmentationMask
from .numerics import unique_sorted

SPATIAL_DIM = 16
TEMPORAL_DIM = 16
SIZE_DIM = 1

SEGMENT_MODE_CLASS = "per-class-region"
SEGMENT_MODE_COMPONENT = "per-component"


@dataclass(frozen=True)
class FeatureConfig:
    """Which node-feature blocks are active and how segments are formed.

    Feature vectors are the concatenation, in this order, of the active
    blocks: class one-hot (``num_classes``), spatial position (16), relative
    size (1), temporal position (16, zeros until a dynamic graph overwrites
    them), and segment embedding (``embedding_dim``). Inactive blocks
    contribute zero width.
    """

    num_classes: int = 17
    use_class: bool = True
    use_spatial: bool = False
    use_size: bool = False
    use_temporal: bool = False
    use_embedding: bool = False
    embedding_dim: int = 100
    segment_mode: str = SEGMENT_MODE_CLASS
    min_segment_pixels: int = 10
    connectivity: int = 4

    def __post_init__(self):
        check_fields(self)
        if self.segment_mode not in (SEGMENT_MODE_CLASS, SEGMENT_MODE_COMPONENT):
            raise InvalidConfig(f"unknown segment_mode {self.segment_mode!r}")
        if self.connectivity not in (4, 8):
            raise InvalidConfig("connectivity must be 4 or 8")
        if self.feature_dim == 0:
            raise InvalidConfig("at least one feature block must be active")

    @property
    def feature_dim(self) -> int:
        return sum(width for _, width in self._blocks())

    def block_slices(self) -> dict[str, slice]:
        """Name -> slice of each active block inside a feature vector."""
        slices = {}
        offset = 0
        for name, width in self._blocks():
            slices[name] = slice(offset, offset + width)
            offset += width
        return slices

    def _blocks(self) -> list[tuple[str, int]]:
        blocks = []
        if self.use_class:
            blocks.append(("class", self.num_classes))
        if self.use_spatial:
            blocks.append(("spatial", SPATIAL_DIM))
        if self.use_size:
            blocks.append(("size", SIZE_DIM))
        if self.use_temporal:
            blocks.append(("temporal", TEMPORAL_DIM))
        if self.use_embedding:
            blocks.append(("embedding", self.embedding_dim))
        return blocks


@dataclass(frozen=True, eq=False)
class Segments:
    """A mask's segments as arrays; row k is segment k, which becomes node k.

    Rows are in ascending (class_id, component_index) order: ``class_ids``,
    ``pixel_counts`` and ``component_index`` (int64) and ``centroids``
    (n x 2, normalized (cx, cy) of the pixel centers). ``index_image`` is
    the mask-shaped int32 image of each pixel's row, -1 where its region
    was dropped; ``connectivity`` (4 or 8) is the one its components and
    edges use.
    """

    class_ids: np.ndarray
    pixel_counts: np.ndarray
    centroids: np.ndarray
    component_index: np.ndarray
    index_image: np.ndarray
    connectivity: int

    def __len__(self) -> int:
        return len(self.class_ids)

    def keys(self, mode: str) -> list[str]:
        """Embedding-table key of each segment."""
        classes = self.class_ids.tolist()
        if mode == SEGMENT_MODE_COMPONENT:
            return [f"seg_{c}_{k}" for c, k in zip(classes, self.component_index.tolist())]
        return [f"seg_{c}" for c in classes]


@dataclass(frozen=True)
class NodeRecord:
    """One entry of a graph's ``nodes`` view: segment summary plus features."""

    class_id: int
    centroid: tuple[float, float]
    size: float
    component_index: int
    features: np.ndarray
    t: int = 0


@dataclass(frozen=True, eq=False)
class GraphArrays:
    """Nodes and edges of a graph as arrays, with derived per-node views.

    Row k of every node array describes node k: ``x`` (n x d float64
    features), ``class_ids``, ``centroids`` (n x 2, normalized (cx, cy)),
    ``sizes`` (relative area) and ``component_index`` (int64).
    ``edge_index`` is an E x 2 int64 array of (i, j) node pairs. The arrays
    are made read-only, so the cached ``nodes`` and ``edges`` views derived
    from them stay valid.
    """

    x: np.ndarray
    class_ids: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray
    component_index: np.ndarray
    edge_index: np.ndarray
    config: FeatureConfig

    def __post_init__(self):
        n = self.x.shape[0]
        per_node = (self.class_ids, self.centroids, self.sizes, self.component_index)
        if any(a.shape[0] != n for a in per_node) or self.edge_index.shape[1:] != (2,):
            raise ShapeMismatch("node arrays must share one length and edge_index be E x 2")
        for array in (self.x, *per_node, self.edge_index):
            array.flags.writeable = False

    @property
    def feature_dim(self) -> int:
        return self.config.feature_dim

    def feature_matrix(self) -> np.ndarray:
        """The n x d feature array ``x`` (read-only)."""
        return self.x

    def _steps(self) -> list[int]:
        return [0] * self.x.shape[0]

    @cached_property
    def nodes(self) -> tuple[NodeRecord, ...]:
        """One NodeRecord per node, derived from the arrays on first use."""
        return tuple(
            NodeRecord(c, (cx, cy), s, k, f, t)
            for c, (cx, cy), s, k, f, t in zip(
                self.class_ids.tolist(),
                self.centroids.tolist(),
                self.sizes.tolist(),
                self.component_index.tolist(),
                self.x,
                self._steps(),
            )
        )

    @cached_property
    def edges(self) -> tuple[tuple, ...]:
        """``edge_index`` as a tuple of (i, j) int pairs."""
        return tuple(map(tuple, self.edge_index.tolist()))


@dataclass(frozen=True, eq=False)
class SceneGraph(GraphArrays):
    """One frame's nodes with features and undirected spatial edges.

    Edges are (i, j) with i < j, sorted; node order is ascending
    (class_id, component_index).
    """

    frame_index: int


def extract_segments(mask: SegmentationMask, cfg: FeatureConfig) -> Segments:
    """Segment the mask per the config's mode and pixel threshold.

    Per-class-region mode yields at most one segment per class (the union of
    that class's pixels); per-component mode yields one segment per
    connected component (4- or 8-connected, per config). Segments smaller
    than ``min_segment_pixels`` are dropped. Raises EmptyMask, naming the
    frame, when nothing survives, also when a class is large enough but
    none of its components is.

    The mask is walked a fixed number of times, plus one labelling pass
    per class in per-component mode, never once per segment: every region
    gets a label in one image (the class id itself, or a component label
    offset per class), and pixel counts and centroid sums are bincounts
    over that image. Transient memory is O(H*W). Each pixel center
    (x + 0.5, y + 0.5) is a multiple of 0.5, so every centroid sum is exact
    in float64 (for sides up to 2^17 px) whatever order it is added in; a
    centroid is then ``(sum / count) / W``, the same two divisions as the
    mean of the region's pixel centers over W.
    """
    ids = mask.class_ids
    # A region below the threshold cannot yield a segment, so only classes
    # with enough pixels are labelled at all.
    threshold = max(cfg.min_segment_pixels, 1)
    class_counts = np.bincount(ids.ravel())
    if cfg.segment_mode == SEGMENT_MODE_CLASS:
        labels, label_class, sizes = ids, np.arange(class_counts.size), class_counts
    else:
        labels, label_class = _component_labels(ids, class_counts >= threshold, cfg.connectivity)
        sizes = np.bincount(labels.ravel(), minlength=label_class.size)
    flat = labels.ravel()
    kept = np.flatnonzero(sizes >= threshold)
    if not kept.size:
        raise EmptyMask(f"frame {mask.frame_index}: no segment >= {cfg.min_segment_pixels} px")
    row_of_label = np.full(label_class.size, -1, dtype=np.int32)
    row_of_label[kept] = np.arange(kept.size, dtype=np.int32)
    class_ids = label_class[kept].astype(np.int64)
    counts = sizes[kept].astype(np.int64)
    centers_x, centers_y = _pixel_centers(*ids.shape)
    sum_x = np.bincount(flat, weights=centers_x, minlength=label_class.size)[kept]
    sum_y = np.bincount(flat, weights=centers_y, minlength=label_class.size)[kept]
    # Rows are sorted by class, so a row's component index is its distance
    # from the first row of its class.
    first_row = np.searchsorted(class_ids, class_ids)
    return Segments(
        class_ids=class_ids,
        pixel_counts=counts,
        centroids=np.stack([sum_x / counts / mask.width, sum_y / counts / mask.height], axis=1),
        component_index=np.arange(kept.size, dtype=np.int64) - first_row,
        index_image=row_of_label[labels],
        connectivity=cfg.connectivity,
    )


def compute_adjacency(segments: Segments) -> list[tuple[int, int]]:
    """Undirected edges between segments whose pixels touch.

    Edge (i, j) exists iff some pixel of segment i is a 4-neighbour (or
    8-neighbour, per the segments' connectivity) of some pixel of segment
    j. Edges are returned sorted by (min, max) node index.
    """
    edge_index = _edges_from_index_image(
        segments.index_image, segments.connectivity, len(segments)
    )
    return list(map(tuple, edge_index.tolist()))


def spatial_encoding(cx: float, cy: float) -> np.ndarray:
    """Sinusoidal 16-vector for a normalized centroid.

    For coord in (cx, cy) and k in 0..3 the output carries
    sin(2^k * pi * coord), cos(2^k * pi * coord).
    """
    if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
        raise OutOfRange(f"centroid ({cx}, {cy}) outside [0,1]^2")
    out = np.empty(SPATIAL_DIM)
    i = 0
    for coord in (cx, cy):
        for k in range(4):
            angle = (2.0**k) * np.pi * coord
            out[i] = np.sin(angle)
            out[i + 1] = np.cos(angle)
            i += 2
    return out


def spatial_encodings(centroids: np.ndarray) -> np.ndarray:
    """``spatial_encoding`` of every (cx, cy) row of an n x 2 array, as n x 16.

    Each angle is the product ``spatial_encoding`` forms, and sin and cos
    run as one array call each, so row k is bitwise
    ``spatial_encoding(*centroids[k])`` wherever numpy's sin and cos give
    an array the bits they give one value (a test checks this). Raises
    OutOfRange for the first centroid outside [0, 1]^2, with its message.
    """
    outside = ~((centroids >= 0.0) & (centroids <= 1.0)).all(axis=1)
    if outside.any():
        spatial_encoding(*centroids[np.argmax(outside)].tolist())
    angles = centroids[:, :, None] * _SPATIAL_SCALES
    return np.stack([np.sin(angles), np.cos(angles)], axis=-1).reshape(len(centroids), SPATIAL_DIM)


def build_static_graph(
    mask: SegmentationMask,
    embeddings: EmbeddingTable | None = None,
    cfg: FeatureConfig | None = None,
) -> SceneGraph:
    """Build the frame's scene graph: segments -> featured nodes + edges.

    Node order is ascending (class_id, component_index). The temporal block,
    when active, is zero here; dynamic graph construction overwrites it.
    An empty or all-below-threshold mask raises EmptyMask.
    """
    cfg = cfg or FeatureConfig()
    if cfg.use_embedding and (embeddings is None or embeddings.empty):
        # An absent table disables the block rather than zero-filling 100 dims.
        cfg = replace(cfg, use_embedding=False)
    segments = extract_segments(mask, cfg)
    n = len(segments)
    class_ids = segments.class_ids
    sizes = segments.pixel_counts / (mask.width * mask.height)

    slices = cfg.block_slices()
    x = np.zeros((n, cfg.feature_dim))
    if cfg.use_class:
        outside = class_ids[class_ids >= cfg.num_classes]
        if outside.size:
            raise OutOfRange(f"class id {outside[0]} outside one-hot of {cfg.num_classes}")
        x[np.arange(n), slices["class"].start + class_ids] = 1.0
    if cfg.use_spatial:
        x[:, slices["spatial"]] = spatial_encodings(segments.centroids)
    if cfg.use_size:
        x[:, slices["size"]] = sizes[:, None]
    if cfg.use_embedding:
        for row, key in zip(x, segments.keys(cfg.segment_mode)):
            vec = embeddings.vector(mask.frame_index, key)
            if vec.shape[0] != cfg.embedding_dim:
                raise MissingFrameKey(
                    f"embedding length {vec.shape[0]} != configured {cfg.embedding_dim}"
                )
            row[slices["embedding"]] = vec
    return SceneGraph(
        x=x,
        class_ids=class_ids,
        centroids=segments.centroids,
        sizes=sizes,
        component_index=segments.component_index,
        edge_index=_edges_from_index_image(segments.index_image, segments.connectivity, n),
        config=cfg,
        frame_index=mask.frame_index,
    )


# --- internals --------------------------------------------------------------------

# 2^k * pi for k in 0..3, the angle scales of ``spatial_encoding``.
_SPATIAL_SCALES = (2.0 ** np.arange(4)) * np.pi
_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def _component_labels(
    ids: np.ndarray, visit: np.ndarray, connectivity: int
) -> tuple[np.ndarray, np.ndarray]:
    """One label image for the connected components of the visited classes.

    Class c owns the labels ``base[c] .. base[c] + n_c``, where ``n_c`` is
    its number of components (0 unless ``visit[c]``): its components carry
    ``base[c] + 1 ..`` in ``ndimage.label``'s order, and ``base[c]`` itself
    marks its pixels when it is not visited. Returns the label image and
    the class of each label.
    """
    structure = _FOUR_CONNECTED if connectivity == 4 else _EIGHT_CONNECTED
    in_class = np.empty(ids.shape, dtype=bool)
    scratch = np.empty(ids.shape, dtype=np.int32)
    local = np.zeros(ids.shape, dtype=np.int32)
    components = np.zeros(visit.size, dtype=np.intp)
    for class_id in np.flatnonzero(visit).tolist():
        np.equal(ids, class_id, out=in_class)
        # label writes 0 outside the class, so adding keeps the other classes.
        components[class_id] = ndimage.label(in_class, structure=structure, output=scratch)
        local += scratch
    owned = components + 1
    base = np.cumsum(owned) - owned
    return local + base[ids], np.repeat(np.arange(visit.size), owned)


@lru_cache(maxsize=4)
def _pixel_centers(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat, read-only x + 0.5 and y + 0.5 of every pixel, in raster order."""
    xs = np.tile(np.arange(width) + 0.5, height)
    ys = np.repeat(np.arange(height) + 0.5, width)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _edges_from_index_image(
    index_image: np.ndarray, connectivity: int, node_count: int
) -> np.ndarray:
    """E x 2 int64 array of touching (lo, hi) node pairs, sorted."""
    shifts = [(0, 1), (1, 0)]
    if connectivity == 8:
        shifts += [(1, 1), (1, -1)]
    codes = []
    for dy, dx in shifts:
        a, b = _shifted_views(index_image, dy, dx)
        touching = (a != b) & (a >= 0) & (b >= 0)
        a, b = a[touching].astype(np.int64), b[touching].astype(np.int64)
        codes.append(np.minimum(a, b) * node_count + np.maximum(a, b))
    lo, hi = np.divmod(unique_sorted(np.concatenate(codes)), max(node_count, 1))
    return np.stack([lo, hi], axis=1)


def _shifted_views(image: np.ndarray, dy: int, dx: int) -> tuple[np.ndarray, np.ndarray]:
    h, w = image.shape
    ys = slice(max(0, -dy), min(h, h - dy))
    xs = slice(max(0, -dx), min(w, w - dx))
    ys2 = slice(max(0, dy), min(h, h + dy))
    xs2 = slice(max(0, dx), min(w, w + dx))
    return image[ys, xs], image[ys2, xs2]
