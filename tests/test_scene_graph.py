import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from surgraph.errors import DuplicateEntry, EmptyMask, OutOfRange
from surgraph.ingest import EmbeddingTable, SegmentationMask
from surgraph.scene_graph import (
    SEGMENT_MODE_CLASS,
    SEGMENT_MODE_COMPONENT,
    FeatureConfig,
    NodeRecord,
    build_static_graph,
    compute_adjacency,
    extract_segments,
    spatial_encoding,
    spatial_encodings,
)
from surgraph.scene_graph import _edges_from_index_image, _shifted_views
from surgraph.dynamic_graph import graph_from_json, graph_to_json
from surgraph.numerics import unique_sorted

from conftest import random_mask


def _mask(rows, frame_index=0):
    arr = np.asarray(rows, dtype=np.uint8)
    return SegmentationMask(arr.shape[1], arr.shape[0], arr, frame_index)


SMALL = [[0, 0, 7], [0, 4, 7]]


def test_segments_threshold_one():
    segs = extract_segments(_mask(SMALL), FeatureConfig(min_segment_pixels=1))
    pairs = list(zip(segs.class_ids.tolist(), segs.pixel_counts.tolist()))
    assert pairs == [(0, 3), (4, 1), (7, 2)]


def test_segments_threshold_two_drops_singleton():
    segs = extract_segments(_mask(SMALL), FeatureConfig(min_segment_pixels=2))
    assert segs.class_ids.tolist() == [0, 7]


def test_single_pixel_centroid():
    segs = extract_segments(_mask([[3]]), FeatureConfig(min_segment_pixels=1))
    assert segs.centroids[0].tolist() == [0.5, 0.5]


def test_centroid_is_mean_of_pixel_centers():
    # class 7 occupies the full right column of the 2x3 mask
    segs = extract_segments(_mask(SMALL), FeatureConfig(min_segment_pixels=1))
    cx, cy = segs.centroids[2]
    assert cx == pytest.approx(2.5 / 3)
    assert cy == pytest.approx(0.5)


def test_adjacency_small_mask():
    cfg = FeatureConfig(min_segment_pixels=1)
    mask = _mask(SMALL)
    edges = compute_adjacency(extract_segments(mask, cfg))
    assert edges == [(0, 1), (0, 2), (1, 2)]


def test_adjacency_single_pixel_no_edges():
    cfg = FeatureConfig(min_segment_pixels=1)
    mask = _mask([[1]])
    assert compute_adjacency(extract_segments(mask, cfg)) == []


def test_uniform_mask_one_node_no_edges():
    graph = build_static_graph(_mask(np.full((8, 8), 5)))
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_adjacency_transpose_symmetry():
    rng = np.random.default_rng(0)
    cfg = FeatureConfig(min_segment_pixels=1)
    for _ in range(20):
        mask = random_mask(rng, max_side=16, max_classes=6)
        segs = extract_segments(mask, cfg)
        edges = set(compute_adjacency(segs))
        tmask = SegmentationMask(
            mask.height, mask.width, np.ascontiguousarray(mask.class_ids.T)
        )
        tsegs = extract_segments(tmask, cfg)
        tedges = set(compute_adjacency(tsegs))
        # per-class-region node order only depends on class ids present
        assert segs.class_ids.tolist() == tsegs.class_ids.tolist()
        assert edges == tedges


def test_diagonal_needs_8_connectivity():
    mask = _mask([[1, 2], [2, 1]])
    cfg4 = FeatureConfig(min_segment_pixels=1)
    cfg8 = FeatureConfig(min_segment_pixels=1, connectivity=8)
    assert compute_adjacency(extract_segments(mask, cfg4)) == [(0, 1)]
    assert compute_adjacency(extract_segments(mask, cfg8)) == [(0, 1)]
    solo = _mask([[1, 3], [3, 2]])
    assert (0, 1) not in compute_adjacency(extract_segments(solo, cfg4))
    assert (0, 1) in compute_adjacency(extract_segments(solo, cfg8))
    assert extract_segments(solo, cfg8).connectivity == 8


def test_spatial_encoding_origin():
    enc = spatial_encoding(0.0, 0.0)
    assert enc.shape == (16,)
    np.testing.assert_allclose(enc, [0, 1] * 8, atol=1e-12)


def test_spatial_encoding_right_edge():
    enc = spatial_encoding(1.0, 0.0)
    np.testing.assert_allclose(enc[:8], [0, -1, 0, 1, 0, 1, 0, 1], atol=1e-12)
    np.testing.assert_allclose(enc[8:], [0, 1] * 4, atol=1e-12)


def test_spatial_encoding_matches_scalar_reference():
    cx, cy = 0.3, 0.7
    expected = []
    for c in (cx, cy):
        for k in range(4):
            expected.append(math.sin(2**k * math.pi * c))
            expected.append(math.cos(2**k * math.pi * c))
    np.testing.assert_allclose(spatial_encoding(cx, cy), expected, atol=1e-12)


def test_spatial_encoding_out_of_range():
    with pytest.raises(OutOfRange):
        spatial_encoding(-0.1, 0.5)
    with pytest.raises(OutOfRange):
        spatial_encoding(0.5, 1.1)


def test_spatial_encodings_equal_spatial_encoding_bitwise():
    rng = np.random.default_rng(11)
    exact = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, 1.0], [1.0, 0.5]]
    centroids = np.concatenate([rng.random((10_000, 2)), exact])
    want = np.stack([spatial_encoding(cx, cy) for cx, cy in centroids.tolist()])
    got = spatial_encodings(centroids)
    assert got.shape == want.shape == (len(centroids), 16)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.1), (float("nan"), 0.2), (1.0, -0.0001)])
def test_spatial_encodings_raise_as_spatial_encoding(bad):
    with pytest.raises(OutOfRange) as scalar:
        spatial_encoding(*bad)
    # the first centroid outside [0, 1]^2 is the one named
    centroids = np.array([[0.25, 0.75], bad, [2.0, 2.0]])
    with pytest.raises(OutOfRange) as vectorized:
        spatial_encodings(centroids)
    assert str(vectorized.value) == str(scalar.value) == f"centroid {bad} outside [0,1]^2"


def _unique_edges(index_image, connectivity, node_count):
    """The ``np.unique`` edge dedupe that ``unique_sorted`` replaced."""
    shifts = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if connectivity == 8 else [])
    codes = []
    for dy, dx in shifts:
        a, b = _shifted_views(index_image, dy, dx)
        touching = (a != b) & (a >= 0) & (b >= 0)
        a, b = a[touching].astype(np.int64), b[touching].astype(np.int64)
        codes.append(np.minimum(a, b) * node_count + np.maximum(a, b))
    lo, hi = np.divmod(np.unique(np.concatenate(codes)), max(node_count, 1))
    return np.stack([lo, hi], axis=1)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("node_count", [0, 1, 2, 17, 300])
def test_sorted_edge_dedupe_equals_np_unique(connectivity, node_count):
    rng = np.random.default_rng(node_count * 10 + connectivity)
    for _ in range(20):
        h, w = rng.integers(1, 40, size=2)
        image = rng.integers(-1, node_count, size=(h, w)).astype(np.int32)
        if node_count:  # smooth some regions, so that a code repeats many times
            image = np.kron(image[: -(-h // 3), : -(-w // 3)], np.ones((3, 3), np.int32))[:h, :w]
        got = _edges_from_index_image(image, connectivity, node_count)
        want = _unique_edges(image, connectivity, node_count)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_unique_sorted_equals_np_unique():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 1000):
        values = rng.integers(-3, 20, size=size)
        assert unique_sorted(values).tobytes() == np.unique(values).tobytes()


def test_build_static_graph_class_only():
    cfg = FeatureConfig(num_classes=17, min_segment_pixels=1)
    graph = build_static_graph(_mask(SMALL), cfg=cfg)
    assert cfg.feature_dim == 17
    x = graph.feature_matrix()
    assert x.shape == (3, 17)
    onehots = np.argmax(x, axis=1)
    assert onehots.tolist() == [0, 4, 7]
    assert x.sum() == 3.0
    assert graph.edges == ((0, 1), (0, 2), (1, 2))


def test_feature_dim_full_stack_is_148():
    cfg = FeatureConfig(
        num_classes=15,
        use_class=True,
        use_spatial=True,
        use_size=True,
        use_temporal=True,
        use_embedding=True,
    )
    assert cfg.feature_dim == 15 + 16 + 1 + 16 + 100


def test_build_with_embeddings():
    cfg = FeatureConfig(
        num_classes=15,
        use_spatial=True,
        use_size=True,
        use_temporal=True,
        use_embedding=True,
        min_segment_pixels=1,
    )
    rng = np.random.default_rng(3)
    vecs = {
        0: {
            "seg_0": rng.normal(size=100),
            "seg_4": rng.normal(size=100),
            "seg_7": rng.normal(size=100),
        }
    }
    table = EmbeddingTable(frames=vecs, dimension=100)
    graph = build_static_graph(_mask(SMALL), embeddings=table, cfg=cfg)
    x = graph.feature_matrix()
    assert x.shape == (3, 148)
    sl = cfg.block_slices()
    np.testing.assert_array_equal(x[0, sl["embedding"]], vecs[0]["seg_0"])
    # temporal block left zero until window assembly
    assert np.all(x[:, sl["temporal"]] == 0.0)


def test_missing_embedding_table_disables_block():
    cfg = FeatureConfig(num_classes=17, use_embedding=True, min_segment_pixels=1)
    graph = build_static_graph(_mask(SMALL), embeddings=None, cfg=cfg)
    assert graph.feature_matrix().shape == (3, 17)
    assert graph.config.use_embedding is False


def test_size_only_full_frame():
    cfg = FeatureConfig(use_class=False, use_size=True, min_segment_pixels=1)
    graph = build_static_graph(_mask(np.full((4, 4), 2)), cfg=cfg)
    np.testing.assert_array_equal(graph.feature_matrix(), [[1.0]])


def test_translation_moves_centroid_only():
    base = np.full((16, 16), 5, dtype=np.uint8)
    base[2:5, 2:5] = 9
    shifted = np.full((16, 16), 5, dtype=np.uint8)
    shifted[6:9, 7:10] = 9
    cfg = FeatureConfig(min_segment_pixels=1)
    a = extract_segments(_mask(base), cfg)
    b = extract_segments(_mask(shifted), cfg)
    assert a.pixel_counts[1] == b.pixel_counts[1]
    assert b.centroids[1, 0] - a.centroids[1, 0] == pytest.approx(5 / 16)
    assert b.centroids[1, 1] - a.centroids[1, 1] == pytest.approx(4 / 16)


def test_determinism():
    rng = np.random.default_rng(11)
    mask = random_mask(rng, max_side=24, max_classes=8)
    cfg = FeatureConfig(use_spatial=True, use_size=True, min_segment_pixels=1)
    g1 = build_static_graph(mask, cfg=cfg)
    g2 = build_static_graph(mask, cfg=cfg)
    np.testing.assert_array_equal(g1.feature_matrix(), g2.feature_matrix())
    assert g1.edges == g2.edges


def test_per_component_mode_splits_regions():
    arr = np.full((6, 6), 5, dtype=np.uint8)
    arr[0, 0] = 9
    arr[5, 5] = 9
    cfg = FeatureConfig(segment_mode=SEGMENT_MODE_COMPONENT, min_segment_pixels=1)
    segs = extract_segments(_mask(arr), cfg)
    assert list(zip(segs.class_ids.tolist(), segs.component_index.tolist())) == [
        (5, 0), (9, 0), (9, 1)
    ]
    assert segs.keys(cfg.segment_mode)[1] == "seg_9_0"
    # per-class-region mode merges them back into one node
    merged = extract_segments(_mask(arr), FeatureConfig(min_segment_pixels=1))
    assert list(zip(merged.class_ids.tolist(), merged.pixel_counts.tolist())) == [(5, 34), (9, 2)]


def test_empty_mask_raises():
    with pytest.raises(EmptyMask):
        build_static_graph(_mask([[1]]), cfg=FeatureConfig(min_segment_pixels=10))


def test_empty_mask_when_no_component_is_large_enough():
    # Class 1 has 12 pixels, enough for the threshold, but every one of them
    # is its own component; classes 2 and 3 fill the gaps with 6 and 5.
    row = [1 if i % 2 == 0 else 2 + (i // 2) % 2 for i in range(23)]
    mask = _mask([row], frame_index=37)
    for connectivity in (4, 8):
        cfg = FeatureConfig(segment_mode=SEGMENT_MODE_COMPONENT, connectivity=connectivity)
        with pytest.raises(EmptyMask, match="frame 37: no segment >= 10 px"):
            extract_segments(mask, cfg)
        with pytest.raises(EmptyMask, match="frame 37"):
            build_static_graph(mask, cfg=cfg)
    segs = extract_segments(mask, FeatureConfig())
    assert segs.class_ids.tolist() == [1] and segs.pixel_counts.tolist() == [12]


def test_json_round_trip():
    cfg = FeatureConfig(num_classes=17, use_spatial=True, use_size=True, min_segment_pixels=1)
    graph = build_static_graph(_mask(SMALL, frame_index=12), cfg=cfg)
    data = graph_to_json(graph)
    assert data["frame"] == 12
    assert data["d"] == cfg.feature_dim
    again = graph_from_json(data)
    np.testing.assert_array_equal(graph.feature_matrix(), again.feature_matrix())
    assert graph.edges == again.edges
    assert [n.class_id for n in again.nodes] == [0, 4, 7]


@pytest.mark.parametrize(
    "extra, error, message",
    [
        (lambda i, j: [1, 1], DuplicateEntry, "self-loop (1, 1) in the graph of frame 12"),
        (lambda i, j: [j, i], DuplicateEntry, "given twice in the graph of frame 12"),
        (lambda i, j: [i, j], DuplicateEntry, "given twice in the graph of frame 12"),
        (lambda i, j: [0, 3], OutOfRange, "edge (0, 3) in the graph of frame 12 ends outside its 3 nodes"),
        (lambda i, j: [-1, 0], OutOfRange, "edge (-1, 0) in the graph of frame 12 ends outside its 3 nodes"),
    ],
    ids=["self-loop", "reversed", "repeated", "past-last-node", "negative"],
)
def test_json_rejects_bad_edges(extra, error, message):
    cfg = FeatureConfig(num_classes=17, use_spatial=True, use_size=True, min_segment_pixels=1)
    data = graph_to_json(build_static_graph(_mask(SMALL, frame_index=12), cfg=cfg))
    data["edges"].append(extra(*data["edges"][0]))
    with pytest.raises(error) as caught:
        graph_from_json(data)
    assert message in str(caught.value)


# --- array layout against the per-node reference ------------------------------------


def reference_static_graph(mask, embeddings, cfg):
    """The per-node builder the arrays replaced: (NodeRecords, sorted edge tuples)."""
    segments, _ = reference_segments_with_index_image(mask, cfg)
    image = np.full(mask.class_ids.shape, -1)
    for k, seg in enumerate(segments):
        region = mask.class_ids == seg.class_id
        if cfg.segment_mode == SEGMENT_MODE_COMPONENT:
            structure = np.ones((3, 3)) if cfg.connectivity == 8 else None
            labelled, _ = ndimage.label(region, structure=structure)
            kept = [
                lab for lab in range(1, labelled.max() + 1)
                if (labelled == lab).sum() >= cfg.min_segment_pixels
            ]
            region = labelled == kept[seg.component_index]
        image[region] = k
    pairs = set()
    h, w = image.shape
    steps = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if cfg.connectivity == 8 else [])
    for y in range(h):
        for x in range(w):
            for dy, dx in steps:
                yy, xx = y + dy, x + dx
                if 0 <= yy < h and 0 <= xx < w:
                    a, b = image[y, x], image[yy, xx]
                    if a != b and a >= 0 and b >= 0:
                        pairs.add((int(min(a, b)), int(max(a, b))))
    slices = cfg.block_slices()
    nodes = []
    for seg in segments:
        feat = np.zeros(cfg.feature_dim)
        if cfg.use_class:
            feat[slices["class"].start + seg.class_id] = 1.0
        if cfg.use_spatial:
            feat[slices["spatial"]] = spatial_encoding(*seg.centroid)
        size = reference_segment_size(seg, mask)
        if cfg.use_size:
            feat[slices["size"]] = size
        if cfg.use_embedding:
            feat[slices["embedding"]] = embeddings.vector(
                mask.frame_index, seg.key(cfg.segment_mode)
            )
        nodes.append(NodeRecord(seg.class_id, seg.centroid, size, seg.component_index, feat))
    return nodes, sorted(pairs)


def reference_graph_json(frame, d, nodes, edges):
    return {
        "frame": frame,
        "d": d,
        "nodes": [
            {
                "class": n.class_id,
                "centroid": [n.centroid[0], n.centroid[1]],
                "size": n.size,
                "features": n.features.tolist(),
            }
            for n in nodes
        ],
        "edges": [[i, j] for i, j in edges],
    }


def assert_plain_json(value):
    """Every leaf is a Python int, float or str: json.dumps prints no numpy scalar."""
    if isinstance(value, dict):
        for v in value.values():
            assert_plain_json(v)
    elif isinstance(value, list):
        for v in value:
            assert_plain_json(v)
    else:
        assert type(value) in (int, float, str), type(value)


STATIC_CASES = [
    dict(segment_mode="per-class-region", connectivity=4),
    dict(segment_mode="per-component", connectivity=4, use_size=True),
    dict(segment_mode="per-component", connectivity=8, use_spatial=True, use_size=True),
    dict(segment_mode="per-class-region", connectivity=8, use_spatial=True, use_temporal=True),
    dict(use_class=False, use_size=True, use_embedding=True, embedding_dim=3),
]


@pytest.mark.parametrize("case", STATIC_CASES)
def test_static_graph_matches_reference(case):
    rng = np.random.default_rng(41)
    cfg = FeatureConfig(num_classes=8, min_segment_pixels=2, **case)
    for frame in range(12):
        mask = random_mask(rng, max_side=14, max_classes=6, frame_index=frame)
        table = EmbeddingTable(
            {frame: {f"seg_{c}": rng.normal(size=3) for c in range(6)}}, 3
        )
        try:
            graph = build_static_graph(mask, table, cfg)
        except EmptyMask:
            continue
        nodes, edges = reference_static_graph(mask, table, cfg)
        assert np.array_equal(graph.x, np.stack([n.features for n in nodes]))
        assert graph.class_ids.tolist() == [n.class_id for n in nodes]
        assert graph.component_index.tolist() == [n.component_index for n in nodes]
        assert graph.centroids.tolist() == [list(n.centroid) for n in nodes]
        assert graph.sizes.tolist() == [n.size for n in nodes]
        assert graph.edges == tuple(edges)
        assert graph.edge_index.dtype == np.int64
        def fields(n):
            return n.class_id, n.centroid, n.size, n.component_index, n.t

        assert [fields(n) for n in graph.nodes] == [fields(n) for n in nodes]

        data = graph_to_json(graph)
        assert_plain_json(data)
        expected = reference_graph_json(frame, cfg.feature_dim, nodes, edges)
        assert json.dumps(data) == json.dumps(expected)


def test_graph_json_round_trip_arrays():
    rng = np.random.default_rng(5)
    cfg = FeatureConfig(num_classes=8, use_spatial=True, use_size=True, min_segment_pixels=1,
                        segment_mode=SEGMENT_MODE_COMPONENT)
    mask = random_mask(rng, max_side=12, max_classes=6, frame_index=3)
    graph = build_static_graph(mask, cfg=cfg)
    again = graph_from_json(json.loads(json.dumps(graph_to_json(graph))))
    for name in ("x", "class_ids", "centroids", "sizes", "edge_index"):
        assert np.array_equal(getattr(graph, name), getattr(again, name)), name
    assert again.frame_index == 3
    assert json.dumps(graph_to_json(again)) == json.dumps(graph_to_json(graph))


def test_graph_arrays_are_read_only():
    graph = build_static_graph(_mask(SMALL), cfg=FeatureConfig(min_segment_pixels=1))
    with pytest.raises(ValueError):
        graph.x[0, 0] = 5.0
    with pytest.raises(ValueError):
        graph.edge_index[0, 0] = 2
    assert graph.nodes is graph.nodes


# --- segment arrays against a naive per-segment loop --------------------------------
# The reference visits every class and every component, counts each region's
# pixels and only then drops the small ones; extract_segments labels only
# large enough classes and reads every region off bincounts. Segment and
# _segment_from_region are the per-segment records the arrays replaced.

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Segment:
    """A region of the mask assigned one class."""

    class_id: int
    pixel_count: int
    centroid: tuple[float, float]
    component_index: int = 0
    bounding_box: tuple[int, int, int, int] = (0, 0, 0, 0)

    def key(self, mode: str) -> str:
        """Embedding-table key for this segment."""
        if mode == SEGMENT_MODE_COMPONENT:
            return f"seg_{self.class_id}_{self.component_index}"
        return f"seg_{self.class_id}"


def reference_segment_size(segment: Segment, mask: SegmentationMask) -> float:
    """Relative segment area: pixel count over mask area, in (0, 1]."""
    return segment.pixel_count / (mask.width * mask.height)


def reference_segments_with_index_image(
    mask: SegmentationMask, cfg: FeatureConfig
) -> tuple[list[Segment], np.ndarray]:
    """The segment loop before it skipped small classes and components, verbatim."""
    ids = mask.class_ids
    index_image = np.full(ids.shape, -1, dtype=np.int32)
    segments: list[Segment] = []
    structure = _FOUR_CONNECTED if cfg.connectivity == 4 else _EIGHT_CONNECTED

    for class_id in np.unique(ids):
        class_mask = ids == class_id
        if cfg.segment_mode == SEGMENT_MODE_CLASS:
            regions = [class_mask]
        else:
            labelled, count = ndimage.label(class_mask, structure=structure)
            regions = [labelled == lab for lab in range(1, count + 1)]
        component = 0
        for region in regions:
            count = int(region.sum())
            if count < cfg.min_segment_pixels:
                continue
            segments.append(_segment_from_region(region, int(class_id), component, mask, count))
            index_image[region] = len(segments) - 1
            component += 1
    return segments, index_image


def _segment_from_region(
    region: np.ndarray, class_id: int, component: int, mask: SegmentationMask, count: int
) -> Segment:
    ys, xs = np.nonzero(region)
    # Pixel centers: pixel (x, y) sits at ((x + 0.5) / W, (y + 0.5) / H).
    cx = float((xs + 0.5).mean() / mask.width)
    cy = float((ys + 0.5).mean() / mask.height)
    bbox = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
    return Segment(
        class_id=class_id,
        pixel_count=count,
        centroid=(cx, cy),
        component_index=component,
        bounding_box=bbox,
    )


def _speckled_masks():
    import dataclasses

    from surgraph.synth import generate_sequence, preset_distinct_tools

    cfg = preset_distinct_tools(n_frames=12, seed=5, width=48, height=48)
    masks, _, _ = generate_sequence(dataclasses.replace(cfg, speckle_noise=0.99))
    rng = np.random.default_rng(23)
    return masks + [random_mask(rng, max_side=24, max_classes=17) for _ in range(12)]


def assert_same_bits(got, want, dtype):
    """``got`` has ``dtype`` and the bytes of ``want`` converted to it."""
    want = np.asarray(want, dtype=dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["per-class-region", SEGMENT_MODE_COMPONENT])
@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("min_pixels", [0, 1, 10])
def test_segments_match_reference_loop(mode, connectivity, min_pixels):
    cfg = FeatureConfig(
        num_classes=17, use_spatial=True, use_size=True, use_embedding=True, embedding_dim=3,
        segment_mode=mode, connectivity=connectivity, min_segment_pixels=min_pixels,
    )
    rng = np.random.default_rng(29)
    for mask in _speckled_masks():
        assert_matches_reference(mask, cfg, rng)


def assert_matches_reference(mask, cfg, rng):
    """Segments and graph arrays carry the bits of the reference loop's."""
    mode = cfg.segment_mode
    want, want_image = reference_segments_with_index_image(mask, cfg)
    if not want:
        with pytest.raises(EmptyMask, match=f"frame {mask.frame_index}: "):
            extract_segments(mask, cfg)
        with pytest.raises(EmptyMask, match=f"frame {mask.frame_index}: "):
            build_static_graph(mask, None, cfg)
        return
    got = extract_segments(mask, cfg)
    assert_same_bits(got.class_ids, [s.class_id for s in want], np.int64)
    assert_same_bits(got.pixel_counts, [s.pixel_count for s in want], np.int64)
    assert_same_bits(got.centroids, [s.centroid for s in want], np.float64)
    assert_same_bits(got.component_index, [s.component_index for s in want], np.int64)
    assert_same_bits(got.index_image, want_image, np.int32)
    assert got.keys(mode) == [s.key(mode) for s in want]

    table = EmbeddingTable(
        {mask.frame_index: {s.key(mode): rng.normal(size=3) for s in want}}, 3
    )
    graph = build_static_graph(mask, table, cfg)
    nodes, edges = reference_static_graph(mask, table, cfg)
    assert_same_bits(graph.x, [n.features for n in nodes], np.float64)
    assert_same_bits(graph.class_ids, [n.class_id for n in nodes], np.int64)
    assert_same_bits(graph.centroids, [n.centroid for n in nodes], np.float64)
    assert_same_bits(graph.sizes, [n.size for n in nodes], np.float64)
    assert_same_bits(graph.component_index, [n.component_index for n in nodes], np.int64)
    assert_same_bits(graph.edge_index, np.array(edges).reshape(-1, 2), np.int64)


@st.composite
def blocky_masks(draw):
    """uint8 masks of 1x1 to 40x40 with up to 20 classes, in square blocks."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    block = draw(st.integers(1, 6))
    classes = draw(st.integers(1, 20))
    cells = draw(hnp.arrays(
        np.uint8, (-(-height // block), -(-width // block)), elements=st.integers(0, classes - 1)
    ))
    ids = np.kron(cells, np.ones((block, block), dtype=np.uint8))[:height, :width]
    return SegmentationMask(width, height, np.ascontiguousarray(ids), draw(st.integers(0, 99)))


@settings(max_examples=300, deadline=None)
@given(
    mask=blocky_masks(),
    mode=st.sampled_from([SEGMENT_MODE_CLASS, SEGMENT_MODE_COMPONENT]),
    connectivity=st.sampled_from([4, 8]),
    min_pixels=st.sampled_from([0, 1, 10]),
    seed=st.integers(0, 2**16),
)
def test_segments_match_reference_loop_property(mask, mode, connectivity, min_pixels, seed):
    cfg = FeatureConfig(
        num_classes=20, use_spatial=True, use_size=True, use_embedding=True, embedding_dim=3,
        segment_mode=mode, connectivity=connectivity, min_segment_pixels=min_pixels,
    )
    assert_matches_reference(mask, cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("mode", [SEGMENT_MODE_CLASS, SEGMENT_MODE_COMPONENT])
def test_centroid_of_large_mask_is_exact(mode):
    # Pixel-center sums are multiples of 0.5 and so exact in float64.
    side = 2048
    mask = SegmentationMask(side, side, np.full((side, side), 3, dtype=np.uint8))
    segs = extract_segments(mask, FeatureConfig(segment_mode=mode))
    assert segs.centroids.tolist() == [[0.5, 0.5]]
    assert segs.pixel_counts.tolist() == [side * side]
