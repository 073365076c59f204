import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import damaged, random_mask, stripe_mask
from test_scene_graph import assert_plain_json

from surgraph.errors import (
    DuplicateEntry,
    EmptyMask,
    EmptyWindow,
    MalformedFile,
    OutOfRange,
    ShapeMismatch,
    SurgraphError,
)
from surgraph.dynamic_graph import (
    EDGE_SPATIAL,
    EDGE_TEMPORAL,
    DynamicGraph,
    Track,
    WindowConfig,
    WindowText,
    build_dynamic_graph,
    context_seconds,
    dynamic_graph_to_json,
    graph_from_json,
    graph_to_json,
    load_graph_json,
    select_window,
    temporal_encoding,
)
from surgraph.gcn import normalize_adjacency
from surgraph.ingest import SegmentationMask
from surgraph.numerics import SparseAdjacency
from surgraph.pipeline import iter_windows
from surgraph.scene_graph import (
    SEGMENT_MODE_COMPONENT,
    FeatureConfig,
    SceneGraph,
    build_static_graph,
)


def _graph(rows, frame_index, cfg):
    arr = np.asarray(rows, dtype=np.uint8)
    mask = SegmentationMask(arr.shape[1], arr.shape[0], arr, frame_index)
    return build_static_graph(mask, cfg=cfg)


CFG = FeatureConfig(num_classes=17, use_temporal=True, min_segment_pixels=1)

# frames 0 and 2 hold classes {0, 7}; frame 1 only class 0
FRAME_07 = [[0, 0, 7, 7]]
FRAME_0 = [[0, 0, 0, 0]]


def _window(rows_per_step, cfg=CFG, wcfg=None, start=0):
    graphs = [_graph(rows, start + t, cfg) for t, rows in enumerate(rows_per_step)]
    return build_dynamic_graph(graphs, wcfg or WindowConfig(window=len(rows_per_step)))


def test_select_window_basic():
    assert select_window(100, 3, 5) == [90, 95, 100]


def test_select_window_single():
    assert select_window(7, 1, 1) == [7]


def test_select_window_truncates_at_video_start():
    assert select_window(2, 30, 3) == [2]
    assert select_window(5, 3, 5) == [0, 5]


def test_context_seconds():
    assert context_seconds(30, 3, 1.0) == 90.0
    assert context_seconds(10, 3, 30.0) == 1.0


def test_temporal_encoding_oldest():
    np.testing.assert_allclose(temporal_encoding(0, 30), [0, 1] * 8, atol=1e-12)


def test_temporal_encoding_newest():
    enc = temporal_encoding(29, 30)
    np.testing.assert_allclose(enc[:2], [0, -1], atol=1e-12)


def test_temporal_encoding_matches_scalar_reference():
    r = 10 / 29
    expected = []
    for k in range(8):
        expected.append(np.sin(2**k * np.pi * r))
        expected.append(np.cos(2**k * np.pi * r))
    np.testing.assert_allclose(temporal_encoding(10, 30), expected, atol=1e-12)


def test_temporal_encoding_out_of_range():
    with pytest.raises(OutOfRange):
        temporal_encoding(30, 30)
    with pytest.raises(OutOfRange):
        temporal_encoding(-1, 30)


def test_temporal_edges_same_class_consecutive_only():
    dyn = _window([FRAME_07, FRAME_0, FRAME_07])
    # map (t, class) -> global node index
    idx = {(n.t, n.class_id): i for i, n in enumerate(dyn.nodes)}
    temporal = set(dyn.temporal_edges())
    assert temporal == {
        (idx[(0, 0)], idx[(1, 0)]),
        (idx[(1, 0)], idx[(2, 0)]),
    }
    # class 7 disappears at t=1, so no skip-step edge
    assert (idx[(0, 7)], idx[(2, 7)]) not in temporal


def test_single_step_window_is_static_plus_r1():
    g = _graph(FRAME_07, 5, CFG)
    dyn = build_dynamic_graph([g], WindowConfig(window=1))
    assert dyn.window == 1
    assert dyn.label_frame_index == 5
    assert len(dyn.nodes) == len(g.nodes)
    assert dyn.temporal_edges() == []
    assert set(dyn.spatial_edges()) == set(g.edges)
    sl = CFG.block_slices()
    x = dyn.feature_matrix()
    np.testing.assert_allclose(
        x[:, sl["temporal"]], np.tile(temporal_encoding(0, 1), (2, 1)), atol=1e-12
    )
    # single-step windows sit at r=1: k=0 block is [sin(pi), cos(pi)]
    np.testing.assert_allclose(x[0, sl["temporal"]][:2], [0, -1], atol=1e-12)


def test_identical_frames_link_every_shared_class():
    dyn = _window([FRAME_07, FRAME_07])
    assert len(dyn.temporal_edges()) == 2


def test_edge_count_is_sum_of_groups():
    dyn = _window([FRAME_07, FRAME_0, FRAME_07])
    assert len(dyn.edges) == len(dyn.spatial_edges()) + len(dyn.temporal_edges())
    # 2 spatial (frames 0 and 2; frame 1 is a single node) + 2 temporal
    assert len(dyn.edges) == 4


def test_edge_ordering_interleaves_blocks():
    dyn = _window([FRAME_07, FRAME_07, FRAME_07])
    kinds = [k for _, _, k in dyn.edges]
    assert kinds == [
        EDGE_SPATIAL,  # within t=0
        EDGE_TEMPORAL, EDGE_TEMPORAL,  # t=0 -> t=1
        EDGE_SPATIAL,
        EDGE_TEMPORAL, EDGE_TEMPORAL,
        EDGE_SPATIAL,
    ]
    for i, j, _ in dyn.edges:
        assert i < j


def test_node_order_is_timestep_major():
    dyn = _window([FRAME_07, FRAME_0, FRAME_07])
    assert [n.t for n in dyn.nodes] == [0, 0, 1, 2, 2]
    assert [n.class_id for n in dyn.nodes] == [0, 7, 0, 0, 7]


def test_label_policy_newest_vs_center():
    graphs = [_graph(FRAME_0, f, CFG) for f in (10, 13, 16)]
    newest = build_dynamic_graph(graphs, WindowConfig(window=3, dilation=3))
    assert newest.label_frame_index == 16
    center = build_dynamic_graph(
        graphs, WindowConfig(window=3, dilation=3, label_policy="center")
    )
    assert center.label_frame_index == 13


def test_truncated_window_reports_actual_steps():
    graphs = [_graph(FRAME_0, f, CFG) for f in (0, 3)]
    dyn = build_dynamic_graph(graphs, WindowConfig(window=30, dilation=3))
    assert dyn.window == 2
    assert dyn.frame_indices == (0, 3)
    sl = CFG.block_slices()
    x = dyn.feature_matrix()
    np.testing.assert_allclose(x[1, sl["temporal"]][:2], [0, -1], atol=1e-12)


def test_empty_window_raises():
    with pytest.raises(EmptyWindow):
        build_dynamic_graph([], WindowConfig(window=3))


def test_mismatched_configs_rejected():
    other = FeatureConfig(num_classes=17, use_temporal=True, use_size=True,
                          min_segment_pixels=1)
    graphs = [_graph(FRAME_0, 0, CFG), _graph(FRAME_0, 1, other)]
    with pytest.raises(ValueError):
        build_dynamic_graph(graphs, WindowConfig(window=2))


def test_json_round_trip():
    dyn = _window([FRAME_07, FRAME_0, FRAME_07], wcfg=WindowConfig(window=3, dilation=1))
    data = dynamic_graph_to_json(dyn)
    assert data["window"] == 3
    assert data["dilation"] == 1
    assert data["label_frame"] == dyn.label_frame_index
    again = graph_from_json(data)
    assert isinstance(again, DynamicGraph)
    np.testing.assert_array_equal(dyn.feature_matrix(), again.feature_matrix())
    assert dyn.edges == again.edges
    assert [n.t for n in again.nodes] == [n.t for n in dyn.nodes]


def test_determinism():
    a = _window([FRAME_07, FRAME_0, FRAME_07])
    b = _window([FRAME_07, FRAME_0, FRAME_07])
    np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())
    assert a.edges == b.edges


# --- array builder against the per-node reference ------------------------------------


def reference_window(graphs, cfg):
    """The NodeRecord window builder the arrays replaced: (nodes, edges, label frame)."""
    steps = len(graphs)
    offsets = np.cumsum([0] + [len(g.nodes) for g in graphs[:-1]]).tolist()
    feat_cfg = graphs[0].config
    temporal_slice = feat_cfg.block_slices()["temporal"] if feat_cfg.use_temporal else None
    nodes = []
    for t, graph in enumerate(graphs):
        encoding = temporal_encoding(t, steps) if temporal_slice else None
        for record in graph.nodes:
            features = record.features
            if encoding is not None:
                features = features.copy()
                features[temporal_slice] = encoding
            nodes.append(dataclasses.replace(record, features=features, t=t))

    def matches(older, newer, off_a, off_b):
        out = []
        for i, a in enumerate(older.nodes):
            for j, b in enumerate(newer.nodes):
                if a.class_id == b.class_id:
                    out.append((off_a + i, off_b + j, EDGE_TEMPORAL))
        return out

    edges = []
    for t, graph in enumerate(graphs):
        for i, j in graph.edges:
            edges.append((offsets[t] + i, offsets[t] + j, EDGE_SPATIAL))
        if t + 1 < steps:
            edges.extend(matches(graphs[t], graphs[t + 1], offsets[t], offsets[t + 1]))
    center = cfg.label_policy == "center"
    label_frame = graphs[steps // 2 if center else -1].frame_index
    return nodes, edges, label_frame


def reference_normalize(n, edges):
    """The tuple-zipping normalize_adjacency the edge_index version replaced."""
    ends = tuple(zip(*edges))[:2] or ((), ())
    i = np.array(ends[0], dtype=np.int64)
    j = np.array(ends[1], dtype=np.int64)
    keep = i != j
    codes = np.unique(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep])
    lo, hi = np.divmod(codes, n)
    degree = 1.0 + np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    dinv = 1.0 / np.sqrt(degree)
    off = dinv[lo] * dinv[hi]
    diag = np.arange(n)
    return SparseAdjacency.from_triples(
        n,
        np.concatenate([diag, lo, hi]),
        np.concatenate([diag, hi, lo]),
        np.concatenate([dinv * dinv, off, off]),
    )


def reference_window_json(dyn_fields, nodes, edges):
    return {
        **dyn_fields,
        "nodes": [
            {
                "class": n.class_id,
                "t": n.t,
                "centroid": [n.centroid[0], n.centroid[1]],
                "size": n.size,
                "features": n.features.tolist(),
            }
            for n in nodes
        ],
        "edges": [[i, j, kind] for i, j, kind in edges],
    }


def assert_matches_reference(graphs, wcfg):
    dyn = build_dynamic_graph(graphs, wcfg)
    nodes, edges, label_frame = reference_window(graphs, wcfg)
    assert np.array_equal(dyn.x, np.stack([n.features for n in nodes]))
    assert np.array_equal(dyn.t, [n.t for n in nodes])
    assert np.array_equal(dyn.class_ids, [n.class_id for n in nodes])
    assert dyn.edges == tuple(edges)
    assert [n.t for n in dyn.nodes] == [n.t for n in nodes]
    assert dyn.label_frame_index == label_frame
    got = normalize_adjacency(dyn)
    want = reference_normalize(len(nodes), edges)
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    return dyn, nodes, edges


def _random_graphs(rng, frames, cfg, max_classes=6):
    graphs = []
    for f in frames:
        while True:
            mask = random_mask(rng, max_side=10, max_classes=max_classes, frame_index=f)
            try:
                graphs.append(build_static_graph(mask, cfg=cfg))
                break
            except EmptyMask:
                continue
    return graphs


FULL = FeatureConfig(num_classes=8, use_spatial=True, use_size=True, use_temporal=True,
                     min_segment_pixels=2)
REFERENCE_CASES = {
    "alternate-frames": (FULL, WindowConfig(window=6, dilation=2), range(0, 12, 2)),
    "center": (FULL, WindowConfig(window=5, dilation=1, label_policy="center"), range(5)),
    "missing-frames": (FULL, WindowConfig(window=8, dilation=1), [0, 1, 3, 4, 7]),
    "per-component": (
        dataclasses.replace(FULL, segment_mode=SEGMENT_MODE_COMPONENT, connectivity=8),
        WindowConfig(window=4, dilation=1), range(4),
    ),
    "no-temporal-block": (dataclasses.replace(FULL, use_temporal=False),
                          WindowConfig(window=4, dilation=3), range(0, 12, 3)),
    "one-step": (FULL, WindowConfig(window=1), [9]),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_window_matches_reference(case):
    cfg, wcfg, frames = REFERENCE_CASES[case]
    rng = np.random.default_rng(sorted(REFERENCE_CASES).index(case))
    for _ in range(8):
        assert_matches_reference(_random_graphs(rng, frames, cfg), wcfg)


def test_window_of_frames_without_edges_matches_reference():
    # one class per frame: no spatial edges, only temporal chains
    graphs = [_graph(rows, f, CFG) for f, rows in enumerate([FRAME_0, FRAME_0, [[7, 7]]])]
    dyn, _, _ = assert_matches_reference(graphs, WindowConfig(window=3))
    assert dyn.spatial_edges() == []
    assert dyn.temporal_edges() == [(0, 1)]


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(
        st.lists(st.integers(0, 4), min_size=1, max_size=5), min_size=1, max_size=6
    ),
    per_component=st.booleans(),
    temporal=st.booleans(),
)
def test_window_matches_reference_on_random_class_lists(frames, per_component, temporal):
    cfg = FeatureConfig(
        num_classes=5,
        use_size=True,
        use_temporal=temporal,
        min_segment_pixels=1,
        segment_mode=SEGMENT_MODE_COMPONENT if per_component else "per-class-region",
    )
    graphs = [
        build_static_graph(stripe_mask(classes, width=3, rows_per_class=1, frame_index=f), cfg=cfg)
        for f, classes in enumerate(frames)
    ]
    assert_matches_reference(graphs, WindowConfig(window=len(frames)))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_window_json_bytes_match_reference(case):
    cfg, wcfg, frames = REFERENCE_CASES[case]
    graphs = _random_graphs(np.random.default_rng(17), frames, cfg)
    dyn, nodes, edges = assert_matches_reference(graphs, wcfg)
    data = dynamic_graph_to_json(dyn)
    assert_plain_json(data)
    fields = {k: data[k] for k in ("frame", "d", "window", "dilation", "label_frame", "frames")}
    assert fields == {
        "frame": dyn.label_frame_index,
        "d": cfg.feature_dim,
        "window": len(graphs),
        "dilation": wcfg.dilation,
        "label_frame": dyn.label_frame_index,
        "frames": [g.frame_index for g in graphs],
    }
    assert json.dumps(data) == json.dumps(reference_window_json(fields, nodes, edges))

    again = graph_from_json(json.loads(json.dumps(data)))
    for name in ("x", "class_ids", "centroids", "sizes", "t", "edge_index", "edge_kinds"):
        assert np.array_equal(getattr(dyn, name), getattr(again, name)), name
    assert json.dumps(dynamic_graph_to_json(again)) == json.dumps(data)


def test_json_rejects_unknown_edge_kind():
    data = dynamic_graph_to_json(_window([FRAME_07, FRAME_07]))
    data["edges"][0][2] = "diagonal"
    with pytest.raises(MalformedFile):
        graph_from_json(data)


def test_json_rejects_bad_edges():
    data = dynamic_graph_to_json(_window([FRAME_07, FRAME_0, FRAME_07]))
    i, j, kind = data["edges"][0]
    reversed_pair = dict(data, edges=data["edges"] + [[j, i, kind]])
    with pytest.raises(DuplicateEntry, match=f"graph of frame {data['label_frame']}"):
        graph_from_json(reversed_pair)
    outside = dict(data, edges=data["edges"] + [[0, len(data["nodes"]), "temporal"]])
    with pytest.raises(OutOfRange, match=f"graph of frame {data['label_frame']}"):
        graph_from_json(outside)


# --- reading graph files ----------------------------------------------------------------


def _graph_files():
    """The JSON of one static graph and of one window, as ``json.dumps`` prints them."""
    static = graph_to_json(_graph([[0, 7, 7, 4]], 12, CFG))
    window = dynamic_graph_to_json(_window([FRAME_07, FRAME_0, FRAME_07], start=3))
    return {"static": static, "dynamic": window}


@pytest.mark.parametrize("kind", ["static", "dynamic"])
def test_load_graph_json_round_trips(tmp_path, kind):
    data = _graph_files()[kind]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    graph = load_graph_json(path)
    assert isinstance(graph, DynamicGraph) == (kind == "dynamic")
    to_json = dynamic_graph_to_json if kind == "dynamic" else graph_to_json
    assert json.dumps(to_json(graph)) == json.dumps(data)


@pytest.mark.parametrize(
    "kind, fields, detail",
    [
        ("static", {"d": "17"}, "the top level has 'd' \"17\", not an integer of at least 0"),
        ("static", {"edges": None}, "the top level has 'edges' null, not a list"),
        ("dynamic", {"frames": [1.5]}, "the top level has 'frames' [1.5], not a list of integers"),
        ("dynamic", {"label_frame": 0}, "'frame' 5 but 'label_frame' 0"),
        ("static", {"nodes": [3]}, "node 0 is a int, not an object"),
        ("static", {"size": float("nan")}, "node 0 has 'size' NaN, not a finite"),
        ("static", {"class": -1}, "node 0 has 'class' -1, not an integer"),
        ("static", {"features": [True]}, "node 0 has 'features' [true], not a list"),
        ("dynamic", {"t": None}, "node 0 has 't' null, not an integer"),
        ("static", {"centroid": [1.0]}, "node 0 has 'centroid' [1.0], not two finite numbers"),
        ("static", {"features": [0.5]}, "node 0 has 1 'features', not 'd' = "),
        ("static", {"edges": [[0, 1, "spatial"]]}, "edge 0 is [0, 1, \"spatial\"], not [i, j]"),
        ("dynamic", {"edges": [[0, 1]]}, "edge 0 is [0, 1], not [i, j, kind]"),
        ("dynamic", {"edges": [[0, 1, "diagonal"]]}, "edge 0 is [0, 1, \"diagonal\"]"),
        ("static", {"d": 0}, "the top level has 'd' 0, not a feature width of at least 1"),
        ("dynamic", {"d": 0}, "the top level has 'd' 0, not a feature width of at least 1"),
        ("dynamic", {"t": 3}, "node 0 has 't' 3, not below 'window' = 3"),
        ("dynamic", {"frames": [3, 4]}, "the top level has 2 'frames', not 'window' = 3"),
        ("dynamic", {"window": 4}, "the top level has 3 'frames', not 'window' = 4"),
        ("static", {"class": 2**63}, "node 0 has 'class' 9223372036854775808, not an integer"),
        ("static", {"size": 2**1024}, "node 0 has 'size' 1797693134862315907729305190789024733..."),
    ],
)
def test_load_graph_json_names_the_file_and_the_key(tmp_path, kind, fields, detail):
    """``fields`` replace the first node's keys, or else keys of the top level."""
    data = _graph_files()[kind]
    node = data["nodes"][0]
    if set(fields) <= set(node):
        data = dict(data, nodes=[{**node, **fields}, *data["nodes"][1:]])
    else:
        data = {**data, **fields}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MalformedFile) as caught:
        load_graph_json(path)
    assert str(caught.value).startswith(f"{path}: ") and detail in str(caught.value)


def test_load_graph_json_puts_the_file_before_decode_errors(tmp_path):
    data = _graph_files()["dynamic"]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**data, "edges": data["edges"] + [data["edges"][0]]}))
    with pytest.raises(DuplicateEntry, match=f"^{path}: adjacency entry .* given twice"):
        load_graph_json(path)


def _damaged_graph_files():
    blobs = [json.dumps(g).encode() for g in _graph_files().values()]
    return st.one_of(*(damaged(b, header=b.index(b'"nodes"')) for b in blobs))


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.deferred(_damaged_graph_files))
def test_damaged_graph_json_decodes_exactly_or_raises_naming_the_file(tmp_path, case):
    _, blob = case
    path = tmp_path / "g.json"
    path.write_bytes(blob)
    try:
        graph = load_graph_json(path)
    except SurgraphError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a damaged file that still decodes gives exactly the values it holds
    to_json = dynamic_graph_to_json if isinstance(graph, DynamicGraph) else graph_to_json
    assert to_json(graph) == json.loads(blob)


# --- windows cut from tracks against windows built from lists ---------------------------

WINDOW_ARRAYS = (
    "x", "class_ids", "centroids", "sizes", "component_index", "t", "edge_index", "edge_kinds",
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    present=st.lists(st.integers(0, 23), min_size=1, max_size=14, unique=True),
    window=st.integers(1, 8),
    dilation=st.integers(1, 4),
    label_policy=st.sampled_from(["newest", "center"]),
    temporal=st.booleans(),
    per_component=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_iter_windows_equal_list_windows_bitwise(
    present, window, dilation, label_policy, temporal, per_component, seed
):
    # the frames absent from ``present`` are the gaps a skipped frame leaves
    cfg = FeatureConfig(
        num_classes=6, use_spatial=True, use_size=True, use_temporal=temporal,
        min_segment_pixels=1,
        segment_mode=SEGMENT_MODE_COMPONENT if per_component else "per-class-region",
    )
    graphs = _random_graphs(np.random.default_rng(seed), sorted(present), cfg)
    static = {g.frame_index: g for g in graphs}
    wcfg = WindowConfig(window=window, dilation=dilation, label_policy=label_policy)
    windows = list(iter_windows(static, wcfg))
    assert [frame for frame, _ in windows] == sorted(static)
    for frame, dyn in windows:
        listed = [static[i] for i in select_window(frame, window, dilation) if i in static]
        want = build_dynamic_graph(listed, wcfg)
        for name in WINDOW_ARRAYS:
            got, expected = getattr(dyn, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name
            assert not got.flags.writeable, name
        assert (dyn.window, dyn.dilation, dyn.label_frame_index, dyn.frame_indices) == (
            want.window, want.dilation, want.label_frame_index, want.frame_indices
        )
        assert dyn.frame_indices == tuple(g.frame_index for g in listed)
        # and both are the window the per-node builder makes
        nodes, edges, label_frame = reference_window(listed, wcfg)
        assert dyn.x.tobytes() == np.stack([n.features for n in nodes]).tobytes()
        assert dyn.edges == tuple(edges)
        assert dyn.label_frame_index == label_frame


def test_track_window_is_a_range_of_the_track():
    rows = [FRAME_07, FRAME_0, FRAME_07, FRAME_07]
    track = Track.of([_graph(r, f, CFG) for f, r in enumerate(rows)])
    assert track.step.tolist() == [0, 0, 1, 2, 2, 3, 3]
    assert track.node_start == [0, 2, 3, 5, 7]
    # spatial 0: (0,1); temporal 0-1: (0,2); spatial 1: none; temporal 1-2: (2,3);
    # spatial 2: (3,4); temporal 2-3: (3,5), (4,6); spatial 3: (5,6)
    assert track.edge_index.tolist() == [[0, 1], [0, 2], [2, 3], [3, 4], [3, 5], [4, 6], [5, 6]]
    assert track.group_start == [0, 1, 2, 2, 3, 4, 6, 7]
    assert all(not a.flags.writeable for a in vars(track).values() if isinstance(a, np.ndarray))
    dyn = build_dynamic_graph(track.steps(1, 3), WindowConfig(window=2))
    assert dyn.frame_indices == (1, 2)
    assert dyn.edge_index.tolist() == [[0, 1], [1, 2]]
    assert dyn.t.tolist() == [0, 1, 1]
    with pytest.raises(EmptyWindow):
        build_dynamic_graph(track.steps(2, 2), WindowConfig(window=2))


def test_iter_windows_of_a_negative_frame_raise_empty_window():
    static = {f: _graph(FRAME_0, f, CFG) for f in (-1, 0, 2)}
    with pytest.raises(EmptyWindow):
        list(iter_windows(static, WindowConfig(window=3, dilation=1)))


# --- cached node text against json.dumps ----------------------------------------------


def spliced_json(text: WindowText, dyn: DynamicGraph) -> str:
    """The file text build-graphs writes, without its context_s and newline."""
    header = json.dumps(dynamic_graph_to_json(dyn, nodes=False))
    return header.replace('"nodes": []', '"nodes": ' + text.nodes(dyn), 1)


# Values whose text is easy to get wrong: signed zero, exponent forms,
# subnormals and the non-finite values json.dumps writes as NaN/Infinity.
AWKWARD = [0.0, -0.0, 1e-05, 1e16, 1e-310, 5e-324, 0.1, -2.5, 1.0, float("nan"), float("inf")]
values = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=True, allow_infinity=True))


def _float_array(draw, *shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)


@st.composite
def video_graphs(draw):
    """Static graphs of one video with gaps between frames and arbitrary values,
    including the temporal block a window overwrites."""
    flags = draw(st.fixed_dictionaries({
        name: st.booleans()
        for name in ("use_class", "use_spatial", "use_size", "use_temporal", "use_embedding")
    }))
    if not any(flags.values()):
        flags["use_temporal"] = True
    cfg = FeatureConfig(num_classes=3, embedding_dim=draw(st.integers(1, 3)), **flags)
    frames = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
    static = {}
    for f in sorted(frames):
        n = draw(st.integers(1, 3))
        static[f] = SceneGraph(
            x=_float_array(draw, n, cfg.feature_dim),
            class_ids=np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),
            centroids=_float_array(draw, n, 2),
            sizes=_float_array(draw, n),
            component_index=np.zeros(n, dtype=np.int64),
            edge_index=np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64).reshape(-1, 2),
            config=cfg,
            frame_index=f,
        )
    return static


@settings(max_examples=150, deadline=None)
@given(
    static=video_graphs(),
    window=st.integers(1, 5),
    dilation=st.integers(1, 3),
)
def test_window_text_equals_json_dumps(static, window, dilation):
    text = WindowText(static)
    wcfg = WindowConfig(window=window, dilation=dilation)
    for frame in sorted(static):
        graphs = [static[i] for i in select_window(frame, window, dilation) if i in static]
        dyn = build_dynamic_graph(graphs, wcfg)
        assert spliced_json(text, dyn) == json.dumps(dynamic_graph_to_json(dyn))


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_window_text_equals_json_dumps_on_masks(case):
    cfg, wcfg, frames = REFERENCE_CASES[case]
    graphs = _random_graphs(np.random.default_rng(3), frames, cfg)
    text = WindowText({g.frame_index: g for g in graphs})
    for end in range(1, len(graphs) + 1):
        dyn = build_dynamic_graph(graphs[:end], wcfg)
        assert spliced_json(text, dyn) == json.dumps(dynamic_graph_to_json(dyn))


def test_window_text_rejects_other_static_graphs():
    dyn = _window([FRAME_07, FRAME_0])
    other = {0: _graph(FRAME_0, 0, CFG), 1: _graph(FRAME_0, 1, CFG)}
    with pytest.raises(ShapeMismatch, match="has 3 nodes, its static graphs 2"):
        WindowText(other).nodes(dyn)
