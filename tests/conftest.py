import errno
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

import surgraph.ingest

from surgraph.dynamic_graph import Track, TrackSteps
from surgraph.gcn import GcnConfig, init_model, normalize_adjacency
from surgraph.ingest import SegmentationMask, load_manifest
from surgraph.pipeline import GraphSample
from surgraph.scene_graph import FeatureConfig, SceneGraph
from surgraph.synth import generate_dataset, preset_distinct_tools

# Windows per node count in ``mixed_eval_samples``. With 256-row stacks:
# 5 nodes has one window, 10 nodes fills 380 rows (two stacks of up to 25),
# 63 nodes is the largest dense count (four per stack), and 64 and 70 nodes
# take the CSR path, one call each.
MIXED_EVAL_WINDOWS = {1: 3, 5: 1, 10: 38, 63: 9, 64: 3, 70: 2}


@pytest.fixture
def report(capfd):
    """Print a line straight to the terminal, bypassing pytest capture."""

    def _report(line: str):
        with capfd.disabled():
            print(line)

    return _report


def random_mask(rng, max_side=32, max_classes=8, frame_index=0) -> SegmentationMask:
    w = int(rng.integers(2, max_side + 1))
    h = int(rng.integers(2, max_side + 1))
    n_classes = int(rng.integers(2, max_classes + 1))
    ids = rng.integers(0, n_classes, size=(h, w)).astype(np.uint8)
    return SegmentationMask(width=w, height=h, class_ids=ids, frame_index=frame_index)


def distinct_pairs(ends: np.ndarray) -> np.ndarray:
    """The undirected pairs among the rows of ``ends``, each once, without self-loops.

    ``normalize_adjacency`` takes edges as given, so random edges go through this first.
    """
    ends = np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1)
    return np.unique(ends, axis=0).reshape(-1, 2)


def one_step(x, edge_index=np.empty((0, 2), dtype=np.int64)) -> TrackSteps:
    """The one step of a track whose features are ``x`` and edges ``edge_index``.

    A ``GraphSample`` built on it reads ``x`` back bitwise: the config has a
    class block of x's width and no temporal block.
    """
    n, d = x.shape
    graph = SceneGraph(
        x=np.array(x, dtype=np.float64),
        class_ids=np.zeros(n, dtype=np.int64),
        centroids=np.zeros((n, 2)),
        sizes=np.zeros(n),
        component_index=np.zeros(n, dtype=np.int64),
        edge_index=np.array(edge_index, dtype=np.int64).reshape(-1, 2),
        config=FeatureConfig(num_classes=d),
        frame_index=0,
    )
    return Track.of([graph]).steps(0, 1)


def mixed_eval_samples(seed=2, input_dim=6, num_classes=4):
    """A model and a shuffled list of labelled windows of ``MIXED_EVAL_WINDOWS`` node counts."""
    rng = np.random.default_rng(seed)
    model = init_model(
        GcnConfig(input_dim=input_dim, hidden_dims=(8, 5), num_classes=num_classes, seed=seed)
    )
    samples = []
    for n, count in MIXED_EVAL_WINDOWS.items():
        for _ in range(count):
            ends = distinct_pairs(rng.integers(0, n, size=(2 * n, 2)))
            graph = SimpleNamespace(x=rng.normal(size=(n, input_dim)), edge_index=ends)
            label = int(rng.integers(num_classes))
            samples.append(
                GraphSample(
                    "v", len(samples), label, one_step(graph.x, ends), normalize_adjacency(graph)
                )
            )
    return model, [samples[i] for i in rng.permutation(len(samples))]


def _flip(blob: bytes, bits) -> bytes:
    out = bytearray(blob)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def damaged(blob: bytes, header: int):
    """A strategy of ``(kind, bytes)``: ``blob`` cut short, padded, or with 1-4 bits flipped.

    Half of the flipped bits fall in the first ``header`` bytes, where a
    decoder reads sizes and layout.
    """
    bit = st.integers(0, 8 * header - 1) | st.integers(0, 8 * len(blob) - 1)
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda cut: ("truncated", blob[:cut])),
        st.binary(min_size=1, max_size=16).map(lambda pad: ("padded", blob + pad)),
        st.lists(bit, min_size=1, max_size=4, unique=True).map(
            lambda bits: ("flipped", _flip(blob, bits))
        ),
    )


def stripe_mask(classes, width=12, rows_per_class=2, frame_index=0) -> SegmentationMask:
    """Horizontal stripes, one per class in the given order."""
    rows = []
    for c in classes:
        rows.append(np.full((rows_per_class, width), c, dtype=np.uint8))
    ids = np.concatenate(rows, axis=0)
    return SegmentationMask(
        width=width, height=ids.shape[0], class_ids=ids, frame_index=frame_index
    )


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    """Two train videos, one val, one test: 40 frames each, 10-frame phases."""
    out = tmp_path_factory.mktemp("tinyset")
    cfgs = []
    for i in range(2):
        cfgs.append(
            preset_distinct_tools(
                n_frames=40, phase_frames=10, seed=i, video_id=f"train{i}", split="train"
            )
        )
    cfgs.append(
        preset_distinct_tools(
            n_frames=40, phase_frames=10, seed=7, video_id="val0", split="val"
        )
    )
    cfgs.append(
        preset_distinct_tools(
            n_frames=40, phase_frames=10, seed=9, video_id="test0", split="test"
        )
    )
    manifest_path, _ = generate_dataset(out, cfgs, fps=1)
    return load_manifest(manifest_path)


class _FullDisk:
    """A file that takes ``room`` bytes and then fails as a full disk does."""

    def __init__(self, fh, room=20):
        self.fh, self.room = fh, room

    def write(self, data):
        if len(data) > self.room:
            self.fh.write(data[: self.room])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.fixture
def full_disk(monkeypatch):
    """Call it to make files that ``ingest.atomic_write`` opens fail after 20
    bytes; ``spare`` files opened first are written in full."""

    def fill(spare=0):
        opened = itertools.count()

        def open_on_a_full_disk(*args, **kwargs):
            fh = open(*args, **kwargs)
            return fh if next(opened) < spare else _FullDisk(fh)

        monkeypatch.setattr(surgraph.ingest, "open", open_on_a_full_disk, raising=False)

    return fill
