"""Dynamic scene graphs: a dilated window of static graphs stitched together.

Nodes from each included frame are kept (timestep-major), spatial edges stay
within their frame, and temporal edges join nodes of equal class in
consecutive timesteps. Each node's temporal feature block is overwritten with
a sinusoidal encoding of its relative position in the window.

Windows are cut from tracks. A ``Track`` concatenates static graphs once:
their node arrays, their spatial edges and the temporal edges between
neighbours, already in a window's edge order. The window of any run of
consecutive track steps is then one node range and one edge range of the
track. ``pipeline.iter_windows`` builds one track per residue of the frames
modulo the dilation, since a dilated window holds frames of one residue,
and cuts every window of that residue out of it; neighbouring windows share
all but one step. Only ``x`` is copied, to write its temporal block.

This module also owns the graph file format: ``graph_to_json`` and
``dynamic_graph_to_json`` encode static and dynamic graphs, ``WindowText``
renders a window's node text, ``graph_from_json`` checks and decodes
either kind in one pass, and ``load_graph_json`` reads a file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DuplicateEntry, EmptyWindow, InvalidConfig, MalformedFile, OutOfRange, ShapeMismatch,
    SurgraphError, check_fields,
)
from .ingest import read_json
from .scene_graph import TEMPORAL_DIM, FeatureConfig, GraphArrays, SceneGraph

EDGE_SPATIAL = "spatial"
EDGE_TEMPORAL = "temporal"
# ``DynamicGraph.edge_kinds`` holds indices into this tuple.
EDGE_KINDS = (EDGE_SPATIAL, EDGE_TEMPORAL)
SPATIAL, TEMPORAL = 0, 1

LABEL_NEWEST = "newest"
LABEL_CENTER = "center"


@dataclass(frozen=True)
class WindowConfig:
    """How frames are gathered into a window and labelled.

    ``window`` static graphs spaced ``dilation`` frames apart end at the
    query frame; together they cover window*dilation/fps seconds of video.
    """

    window: int = 30
    dilation: int = 3
    label_policy: str = LABEL_NEWEST

    def __post_init__(self):
        check_fields(self)
        if self.window < 1 or self.dilation < 1:
            raise InvalidConfig("window and dilation must be >= 1")
        if self.label_policy not in (LABEL_NEWEST, LABEL_CENTER):
            raise InvalidConfig(f"unknown label_policy {self.label_policy!r}")


@dataclass(frozen=True, eq=False)
class DynamicGraph(GraphArrays):
    """Union of windowed scene graphs with temporal stitching.

    ``window`` is the number of timesteps actually included (smaller than the
    configured window near the start of a video). Nodes are timestep-major:
    ``t`` holds each node's step. Row k of ``edge_index`` is an (i, j) pair
    with i < j and ``edge_kinds[k]`` indexes ``EDGE_KINDS``. Edges are
    grouped as: spatial edges of step 0, temporal edges 0-1, spatial edges
    of step 1, temporal 1-2, ...; within a temporal group pairs are ordered
    by (i, j). ``nodes`` and ``edges`` (``(i, j, kind)`` tuples) are views
    derived from these arrays.
    """

    window: int
    dilation: int
    label_frame_index: int
    frame_indices: tuple[int, ...]
    t: np.ndarray
    edge_kinds: np.ndarray

    def __post_init__(self):
        if self.t.shape != self.class_ids.shape or len(self.edge_kinds) != len(self.edge_index):
            raise ShapeMismatch("t must have one entry per node and edge_kinds one per edge")
        super().__post_init__()
        self.t.flags.writeable = False
        self.edge_kinds.flags.writeable = False

    def _steps(self) -> list[int]:
        return self.t.tolist()

    @cached_property
    def edges(self) -> tuple[tuple[int, int, str], ...]:
        return tuple(
            (i, j, EDGE_KINDS[k])
            for (i, j), k in zip(self.edge_index.tolist(), self.edge_kinds.tolist())
        )

    def spatial_edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, self.edge_index[self.edge_kinds == SPATIAL].tolist()))

    def temporal_edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, self.edge_index[self.edge_kinds == TEMPORAL].tolist()))


def select_window(frame_index: int, window: int, dilation: int) -> list[int]:
    """Frame indices [f-(W-1)D, ..., f-D, f]; negative indices are dropped."""
    if window < 1 or dilation < 1:
        raise ValueError("window and dilation must be >= 1")
    frames = [frame_index - k * dilation for k in range(window - 1, -1, -1)]
    return [f for f in frames if f >= 0]


def context_seconds(window: int, dilation: int, fps: float) -> float:
    """Seconds of video a window spans."""
    if fps <= 0:
        raise ValueError("fps must be positive")
    return window * dilation / fps


def temporal_encoding(t: int, window: int) -> np.ndarray:
    """Sinusoidal 16-vector for timestep t of a window.

    r = t/(W-1) in [0, 1] (r = 1 for a single-frame window, so the newest
    frame always encodes as r = 1); entries are sin(2^k pi r), cos(2^k pi r)
    for k in 0..7.
    """
    if not 0 <= t < window:
        raise OutOfRange(f"timestep {t} outside window of {window}")
    r = 1.0 if window == 1 else t / (window - 1)
    out = np.empty(TEMPORAL_DIM)
    for k in range(8):
        angle = (2.0**k) * np.pi * r
        out[2 * k] = np.sin(angle)
        out[2 * k + 1] = np.cos(angle)
    return out


@lru_cache(maxsize=None)
def _temporal_table(steps: int) -> np.ndarray:
    """Row t is temporal_encoding(t, steps); read-only, one per window length."""
    table = np.stack([temporal_encoding(t, steps) for t in range(steps)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class Track(GraphArrays):
    """Static graphs of consecutive window steps, concatenated once.

    Step k is the k-th graph given to ``Track.of``. The node arrays hold
    every step's nodes in step order, with ``x`` as the static graphs give
    it, and ``step`` gives each node's step. ``edge_index`` holds every
    spatial edge and every temporal edge between consecutive steps, in the
    group order of a ``DynamicGraph``: spatial edges of step 0, temporal
    0-1, spatial edges of step 1, ... So the window of steps
    ``start .. stop - 1`` is the node rows
    ``node_start[start]:node_start[stop]`` and the edge rows
    ``group_start[2 * start]:group_start[2 * stop - 1]``, minus the node
    offset. ``steps(start, stop)`` names such a window, and
    ``build_dynamic_graph`` cuts it out.
    """

    frame_indices: tuple[int, ...]
    step: np.ndarray
    edge_kinds: np.ndarray
    node_start: list[int]  # first node row of each step, then the node count
    group_start: list[int]  # first edge row of group g: spatial k is 2k, temporal k-(k+1) 2k+1

    def __post_init__(self):
        super().__post_init__()
        self.step.flags.writeable = False
        self.edge_kinds.flags.writeable = False

    @classmethod
    def of(cls, graphs: list[SceneGraph]) -> "Track":
        """The track of ordered static graphs (oldest first).

        Temporal edges connect every pair of equal-class nodes in
        consecutive steps; a class absent from a step breaks its chain
        there. Raises EmptyWindow for an empty list.
        """
        if not graphs:
            raise EmptyWindow("no static graphs in window")
        feat_cfg = graphs[0].config
        if any(g.config is not feat_cfg and g.config != feat_cfg for g in graphs[1:]):
            raise ValueError("all graphs of a track must share one feature config")

        steps = len(graphs)
        node_counts = [g.x.shape[0] for g in graphs]
        step = np.repeat(np.arange(steps), node_counts)
        class_ids = np.concatenate([g.class_ids for g in graphs])
        starts = np.cumsum(node_counts) - node_counts
        spatial = np.concatenate([g.edge_index for g in graphs])
        spatial += np.repeat(starts, [g.edge_index.shape[0] for g in graphs])[:, None]

        # Nodes of equal class in steps s and s + 1 have keys k and k + span;
        # the pairs come out sorted by (older, newer).
        low = class_ids.min(initial=0)
        span = int(class_ids.max(initial=0) - low) + 1
        key = step * span + (class_ids - low)
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        first = np.searchsorted(sorted_keys, key + span, "left")
        matched = np.searchsorted(sorted_keys, key + span, "right") - first
        older = np.repeat(np.arange(key.size), matched)
        skip = np.repeat(first - (np.cumsum(matched) - matched), matched)
        newer = order[skip + np.arange(older.size)]

        # Stable sort on (step of the older end, group) puts every group in the
        # documented place and keeps each group's own order.
        ends = np.concatenate([spatial, np.stack([older, newer], 1)])
        group = np.repeat([0, 1], [spatial.shape[0], older.size])
        group_key = 2 * step[ends[:, 0]] + group
        place = np.argsort(group_key, kind="stable")
        return cls(
            x=np.concatenate([g.x for g in graphs]),
            class_ids=class_ids,
            centroids=np.concatenate([g.centroids for g in graphs]),
            sizes=np.concatenate([g.sizes for g in graphs]),
            component_index=np.concatenate([g.component_index for g in graphs]),
            edge_index=ends[place],
            config=feat_cfg,
            frame_indices=tuple(g.frame_index for g in graphs),
            step=step,
            edge_kinds=(group[place] > 0).astype(np.int8),
            node_start=np.append(starts, len(step)).tolist(),
            group_start=np.searchsorted(group_key[place], np.arange(2 * steps)).tolist(),
        )

    def steps(self, start: int, stop: int) -> "TrackSteps":
        """The window of steps ``start .. stop - 1``."""
        return TrackSteps(self, start, stop)


class TrackSteps(NamedTuple):
    """Steps ``start .. stop - 1`` of ``track``: one window's static graphs."""

    track: Track
    start: int
    stop: int


def build_dynamic_graph(
    graphs: list[SceneGraph] | TrackSteps, cfg: WindowConfig | None = None
) -> DynamicGraph:
    """Stitch ordered static graphs (oldest first) into a dynamic graph.

    ``graphs`` is a list of static graphs, which become one track whose
    steps all form the window, or the steps of a ``Track``, which are cut
    out of it. Temporal edges connect every pair of equal-class nodes in
    consecutive timesteps; a class absent from a timestep breaks its chain
    there. Raises EmptyWindow for no graphs.
    """
    cfg = cfg or WindowConfig()
    if not isinstance(graphs, TrackSteps):
        graphs = Track.of(graphs).steps(0, len(graphs))
    track, start, stop = graphs
    if stop <= start:
        raise EmptyWindow("no static graphs in window")
    steps = stop - start
    first, last = track.node_start[start], track.node_start[stop]
    edges = slice(track.group_start[2 * start], track.group_start[2 * stop - 1])
    t = track.step[first:last] - start
    x = track.x[first:last]
    feat_cfg = track.config
    if feat_cfg.use_temporal:
        x = x.copy()
        x[:, feat_cfg.block_slices()["temporal"]] = _temporal_table(steps)[t]
    frames = track.frame_indices[start:stop]
    return DynamicGraph(
        x=x,
        class_ids=track.class_ids[first:last],
        centroids=track.centroids[first:last],
        sizes=track.sizes[first:last],
        component_index=track.component_index[first:last],
        edge_index=track.edge_index[edges] - first,
        config=feat_cfg,
        window=steps,
        dilation=cfg.dilation,
        label_frame_index=frames[steps // 2 if cfg.label_policy == LABEL_CENTER else -1],
        frame_indices=frames,
        t=t,
        edge_kinds=track.edge_kinds[edges],
    )


# --- JSON export ----------------------------------------------------------------
# Every number written is a Python scalar (``tolist``), so ``json.dumps`` prints
# the same text it printed for the per-node records these arrays replaced.

def graph_to_json(graph: SceneGraph) -> dict:
    return {
        "frame": graph.frame_index,
        "d": graph.feature_dim,
        "nodes": [
            {"class": c, "centroid": centroid, "size": s, "features": f}
            for c, centroid, s, f in zip(
                graph.class_ids.tolist(),
                graph.centroids.tolist(),
                graph.sizes.tolist(),
                graph.x.tolist(),
            )
        ],
        "edges": graph.edge_index.tolist(),
    }


def dynamic_graph_to_json(graph: DynamicGraph, nodes: bool = True) -> dict:
    """The graph as a dict of plain Python values, for ``json.dumps``.

    With ``nodes=False`` the ``"nodes"`` list is left empty: a caller that
    renders the node text itself with ``WindowText`` splices it in place of
    ``"nodes": []`` in the dumped text. Every value before ``"nodes"`` is an
    int or a list of ints, so the first such occurrence is the key itself.
    """
    return {
        "frame": graph.label_frame_index,
        "d": graph.feature_dim,
        "window": graph.window,
        "dilation": graph.dilation,
        "label_frame": graph.label_frame_index,
        "frames": list(graph.frame_indices),
        "nodes": [
            {"class": c, "t": t, "centroid": centroid, "size": s, "features": f}
            for c, t, centroid, s, f in zip(
                graph.class_ids.tolist(),
                graph.t.tolist(),
                graph.centroids.tolist(),
                graph.sizes.tolist(),
                graph.x.tolist(),
            )
        ] if nodes else [],
        "edges": [
            [i, j, EDGE_KINDS[k]]
            for (i, j), k in zip(graph.edge_index.tolist(), graph.edge_kinds.tolist())
        ],
    }


def _items(values: list) -> str:
    """The items of a JSON list exactly as ``json.dumps`` prints them, unbracketed."""
    return json.dumps(values)[1:-1]


class WindowText:
    """JSON text of the ``nodes`` list of dynamic graphs built from one video.

    A frame's static node fields, and its features outside the temporal
    block, are the same in every window that holds it; the temporal block
    depends only on the node's step and the window length. So each static
    node's text is rendered once, in pieces around its step and temporal
    block, and each temporal block once per (step, window length). Every
    piece comes from ``json.dumps``, so ``nodes(graph)`` equals the text
    ``json.dumps`` prints for ``dynamic_graph_to_json(graph)["nodes"]``.

    ``static`` maps frame index to the static graph the windows were built
    from. Keep one instance per video: it holds the text of every frame it
    has rendered.
    """

    def __init__(self, static: dict[int, SceneGraph]):
        self._static = static
        self._frames: dict[int, list[tuple[str, str, str]]] = {}
        self._steps: dict[tuple[int, int], tuple[str, str]] = {}

    def nodes(self, graph: DynamicGraph) -> str:
        parts = []
        for t, frame in enumerate(graph.frame_indices):
            step, temporal = self._step(t, graph.window)
            if not graph.config.use_temporal:
                temporal = ""
            parts.extend(
                head + step + middle + temporal + tail
                for head, middle, tail in self._frame(frame)
            )
        if len(parts) != graph.x.shape[0]:
            raise ShapeMismatch(
                f"window of frame {graph.label_frame_index} has {graph.x.shape[0]} nodes, "
                f"its static graphs {len(parts)}"
            )
        return "[" + ", ".join(parts) + "]"

    def _step(self, t: int, steps: int) -> tuple[str, str]:
        """The text of step t and the items of its temporal block."""
        key = (t, steps)
        if key not in self._steps:
            self._steps[key] = (json.dumps(t), _items(_temporal_table(steps)[t].tolist()))
        return self._steps[key]

    def _frame(self, frame: int) -> list[tuple[str, str, str]]:
        """Per node: the text before its step, from its step to its temporal
        block, and after that block."""
        pieces = self._frames.get(frame)
        if pieces is None:
            graph = self._static[frame]
            use_temporal = graph.config.use_temporal
            if use_temporal:
                cut = graph.config.block_slices()["temporal"]
                before, after = graph.x[:, : cut.start], graph.x[:, cut.stop :]
            else:
                before, after = graph.x, graph.x[:, :0]
            pieces = self._frames[frame] = [
                _node_pieces(c, centroid, s, b, a, use_temporal)
                for c, centroid, s, b, a in zip(
                    graph.class_ids.tolist(),
                    graph.centroids.tolist(),
                    graph.sizes.tolist(),
                    before.tolist(),
                    after.tolist(),
                )
            ]
        return pieces


def _node_pieces(c, centroid, size, before, after, temporal: bool) -> tuple[str, str, str]:
    """``WindowText``'s three pieces of one static node; feature pieces are
    joined with ", " and an empty one is skipped."""
    head = '{"class": ' + json.dumps(c) + ', "t": '
    middle = f', "centroid": {json.dumps(centroid)}, "size": {json.dumps(size)}, "features": ['
    middle += _items(before) + (", " if temporal and before else "")
    tail = (", " + _items(after) if after else "") + "]}"
    return head, middle, tail


# --- reading graph files ----------------------------------------------------------


def _is_int(value) -> bool:
    """An int that fits int64, so numpy takes it; a bool is none."""
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value)


def _is_counts(value) -> bool:
    return isinstance(value, list) and all(map(_is_count, value))


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(map(_is_finite, value))


def _is_pair(value) -> bool:
    return _is_vector(value) and len(value) == 2


_INT, _LIST = (_is_count, "an integer of at least 0"), (lambda v: isinstance(v, list), "a list")
_GRAPH_KEYS = {"frame": _INT, "d": _INT, "nodes": _LIST, "edges": _LIST}
_WINDOW_KEYS = {
    **_GRAPH_KEYS,
    "window": _INT,
    "dilation": _INT,
    "label_frame": _INT,
    "frames": (_is_counts, "a list of integers of at least 0"),
}
_NODE_KEYS = {
    "class": _INT,
    "centroid": (_is_pair, "two finite numbers"),
    "size": (_is_finite, "a finite number"),
    "features": (_is_vector, "a list of finite numbers"),
}
_WINDOW_NODE_KEYS = {**_NODE_KEYS, "t": _INT}


def _shown(value) -> str:
    """A JSON value as the file writes it, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _check_fields(where: str, obj, keys: dict) -> None:
    """MalformedFile naming ``where`` and the key for an absent or mistyped field."""
    if not isinstance(obj, dict):
        raise MalformedFile(f"{where} is a {type(obj).__name__}, not an object")
    for key, (test, what) in keys.items():
        if key not in obj:
            raise MalformedFile(f"{where} has no {key!r}")
        if not test(obj[key]):
            raise MalformedFile(f"{where} has {key!r} {_shown(obj[key])}, not {what}")


def _is_edge(edge, dynamic: bool) -> bool:
    if not isinstance(edge, list) or len(edge) != 2 + dynamic:
        return False
    return _is_int(edge[0]) and _is_int(edge[1]) and (not dynamic or edge[2] in EDGE_KINDS)


def graph_from_json(data) -> SceneGraph | DynamicGraph:
    """The static or dynamic graph in decoded graph JSON; one with a ``"window"`` is dynamic.

    Raises MalformedFile, naming the key, for a top level that is not an
    object, a missing or mistyped key, a ``d`` of 0, a window whose
    ``frames`` are not ``window`` long or whose ``frame`` is not its
    ``label_frame``, a node whose ``features`` are not ``d`` numbers or
    whose ``t`` is not below ``window``, and an edge that is not ``[i, j]``
    (static) or ``[i, j, kind]`` (dynamic). Raises OutOfRange for an edge
    end outside the graph's nodes and DuplicateEntry for a self-loop or a
    pair given twice in either order; both name the graph's frame, and the
    first bad edge in file order is the one named. Component indices are
    not exported, so they read back as 0, and the config is a class block
    of width ``d``.
    """
    dynamic = isinstance(data, dict) and "window" in data
    _check_fields("the top level", data, _WINDOW_KEYS if dynamic else _GRAPH_KEYS)
    frame, d, nodes, edges = data["frame"], data["d"], data["nodes"], data["edges"]
    if d == 0:
        raise MalformedFile("the top level has 'd' 0, not a feature width of at least 1")
    if dynamic:
        window = data["window"]
        if frame != data["label_frame"]:
            raise MalformedFile(f"the top level has 'frame' {frame} "
                                f"but 'label_frame' {data['label_frame']}")
        if len(data["frames"]) != window:
            raise MalformedFile(f"the top level has {len(data['frames'])} 'frames', "
                                f"not 'window' = {window}")
    node_keys = _WINDOW_NODE_KEYS if dynamic else _NODE_KEYS
    for index, node in enumerate(nodes):
        _check_fields(f"node {index}", node, node_keys)
        if len(node["features"]) != d:
            raise MalformedFile(f"node {index} has {len(node['features'])} "
                                f"'features', not 'd' = {d}")
        if dynamic and node["t"] >= window:
            raise MalformedFile(f"node {index} has 't' {node['t']}, not below 'window' = {window}")
    shape = f"[i, j, kind] with a kind in {EDGE_KINDS}" if dynamic else "[i, j]"
    where = f"in the graph of frame {frame}"
    pairs = set()
    for index, edge in enumerate(edges):
        if not _is_edge(edge, dynamic):
            raise MalformedFile(f"edge {index} is {_shown(edge)}, not {shape}")
        i, j = edge[:2]
        if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
            raise OutOfRange(f"edge ({i}, {j}) {where} ends outside its {len(nodes)} nodes")
        if i == j:
            raise DuplicateEntry(f"self-loop ({i}, {i}) {where}")
        if (min(i, j), max(i, j)) in pairs:
            raise DuplicateEntry(f"adjacency entry ({i}, {j}) given twice {where}")
        pairs.add((min(i, j), max(i, j)))

    arrays = dict(
        x=np.array([n["features"] for n in nodes], dtype=np.float64).reshape(len(nodes), d),
        class_ids=np.array([n["class"] for n in nodes], dtype=np.int64),
        centroids=np.array([n["centroid"] for n in nodes], dtype=np.float64).reshape(-1, 2),
        sizes=np.array([n["size"] for n in nodes], dtype=np.float64),
        component_index=np.zeros(len(nodes), dtype=np.int64),
        edge_index=np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2),
        config=FeatureConfig(num_classes=d),
    )
    if not dynamic:
        return SceneGraph(**arrays, frame_index=frame)
    return DynamicGraph(
        **arrays,
        window=window,
        dilation=data["dilation"],
        label_frame_index=frame,
        frame_indices=tuple(data["frames"]),
        t=np.array([n["t"] for n in nodes], dtype=np.int64),
        edge_kinds=np.array([EDGE_KINDS.index(e[2]) for e in edges], dtype=np.int8),
    )


def load_graph_json(path: str | Path) -> SceneGraph | DynamicGraph:
    """``graph_from_json`` of the JSON in the file at ``path``.

    Every SurgraphError names ``path``: the decoder's are raised again with
    ``path`` put before their message.
    """
    data = read_json(path)
    try:
        return graph_from_json(data)
    except SurgraphError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
