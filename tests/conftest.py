import errno

import numpy as np
import pytest

import surgraph.ingest

from surgraph.ingest import SegmentationMask, load_manifest
from surgraph.synth import generate_dataset, preset_distinct_tools


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
    """Call it to make files that ``ingest.atomic_write`` opens fail after 20 bytes."""

    def fill():
        monkeypatch.setattr(
            surgraph.ingest, "open", lambda *a, **k: _FullDisk(open(*a, **k)), raising=False
        )

    return fill
