import struct

import numpy as np
import pytest

from surgraph.errors import (
    BadMagic,
    DuplicateId,
    MissingFrameKey,
    MissingLabel,
    MixedDimensions,
    NonContiguousIds,
    NonFiniteEmbedding,
    NonMonotonicFrames,
    OversizeDimension,
    SurgraphError,
    TrailingBytes,
    TruncatedFile,
    UnknownPhaseId,
)
from surgraph.ingest import (
    DEFAULT_PHASE_NAMES,
    DatasetManifest,
    SegmentationMask,
    VideoEntry,
    default_label_map,
    label_map_from_entries,
    list_mask_files,
    load_embeddings,
    load_manifest,
    load_mask,
    load_phase_labels,
    mask_from_bytes,
    mask_to_bytes,
    write_manifest,
    write_mask,
    write_phase_labels,
)

from conftest import random_mask


def test_load_mask_direct_bytes():
    blob = b"SGM1" + struct.pack("<II", 2, 1) + bytes([0, 7])
    mask = mask_from_bytes(blob)
    assert (mask.width, mask.height) == (2, 1)
    assert mask.class_ids.tolist() == [[0, 7]]


def test_load_mask_bad_magic():
    blob = b"XXXX" + struct.pack("<II", 1, 1) + bytes([0])
    with pytest.raises(BadMagic):
        mask_from_bytes(blob)


def test_load_mask_truncated_payload():
    blob = b"SGM1" + struct.pack("<II", 4, 4) + bytes([0] * 5)
    with pytest.raises(TruncatedFile):
        mask_from_bytes(blob)


def test_load_mask_trailing_bytes():
    mask = mask_from_bytes(b"SGM1" + struct.pack("<II", 4, 4) + bytes(16))
    with pytest.raises(TrailingBytes, match="1 trailing bytes"):
        mask_from_bytes(mask_to_bytes(mask) + b"x")


def test_load_mask_oversize():
    blob = b"SGM1" + struct.pack("<II", 20000, 1)
    with pytest.raises(OversizeDimension):
        mask_from_bytes(blob)


def test_mask_round_trip_100_random(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(100):
        mask = random_mask(rng, max_side=64, max_classes=17, frame_index=i)
        path = tmp_path / f"{i}.sgm"
        write_mask(mask, path)
        again = load_mask(path)
        assert path.read_bytes() == mask_to_bytes(mask)
        assert again.frame_index == i
        assert np.array_equal(again.class_ids, mask.class_ids)


def test_frame_index_from_stem(tmp_path):
    mask = SegmentationMask(1, 1, np.zeros((1, 1), dtype=np.uint8))
    write_mask(mask, tmp_path / "000042.sgm")
    assert load_mask(tmp_path / "000042.sgm").frame_index == 42


def test_default_label_map_matches_task2():
    lm = default_label_map()
    assert lm.cardinality == 17
    assert lm.name_of(0) == "Pupil"
    assert lm.name_of(16) == "Capsulorhexis Forceps"


def test_label_map_non_contiguous():
    with pytest.raises(NonContiguousIds):
        label_map_from_entries([(0, "a"), (2, "b")])


def test_label_map_duplicate():
    with pytest.raises(DuplicateId):
        label_map_from_entries([(0, "a"), (0, "b")])


def test_label_map_single_entry():
    assert label_map_from_entries([(0, "a")]).cardinality == 1


def test_phase_csv_basic(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n0,0\n1,3\n")
    track = load_phase_labels(p)
    assert len(track) == 2
    assert track.label_at(1) == 3
    assert DEFAULT_PHASE_NAMES[3] == "Incision"


def test_phase_csv_non_monotonic(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n5,0\n4,0\n")
    with pytest.raises(NonMonotonicFrames):
        load_phase_labels(p)


def test_phase_csv_empty_body(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n")
    assert len(load_phase_labels(p)) == 0


def test_phase_csv_unknown_phase(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n0,99\n")
    with pytest.raises(UnknownPhaseId):
        load_phase_labels(p)


def test_phase_csv_round_trip(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n0,1\n3,2\n9,18\n")
    track = load_phase_labels(p)
    q = tmp_path / "w.csv"
    write_phase_labels(track, q)
    assert p.read_text() == q.read_text()


def test_label_at_missing_frame(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n0,1\n")
    track = load_phase_labels(p)
    with pytest.raises(KeyError):
        track.label_at(5)


def test_label_at_missing_frame_names_video_and_frame(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("frame,phase\n0,1\n")
    track = load_phase_labels(p, video_id="case07")
    with pytest.raises(MissingLabel) as info:
        track.label_at(5)
    assert isinstance(info.value, SurgraphError)
    assert str(info.value) == "video 'case07': no phase annotation for frame 5"


def test_embeddings_single_frame(tmp_path):
    p = tmp_path / "e.json"
    p.write_text('{"0": {"seg_0": %s}}' % ([0.0] * 100))
    table = load_embeddings(p)
    assert len(table) == 1
    assert table.vector(0, "seg_0").shape == (100,)


def test_embeddings_empty(tmp_path):
    p = tmp_path / "e.json"
    p.write_text("{}")
    table = load_embeddings(p)
    assert table.empty


def test_embeddings_mixed_dimensions(tmp_path):
    p = tmp_path / "e.json"
    p.write_text('{"0": {"seg_0": [1.0, 2.0], "seg_1": [1.0]}}')
    with pytest.raises(MixedDimensions):
        load_embeddings(p)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_embeddings_non_finite(tmp_path, value):
    p = tmp_path / "e.json"
    p.write_text('{"0": {"seg_0": [1.0, 2.0]}, "4": {"seg_3": [0.5, %s]}}' % value)
    with pytest.raises(NonFiniteEmbedding) as info:
        load_embeddings(p)
    assert isinstance(info.value, SurgraphError)
    assert str(info.value) == f"{p}: embedding of frame 4, segment seg_3 holds a non-finite value"


def test_embeddings_missing_frame(tmp_path):
    p = tmp_path / "e.json"
    p.write_text('{"0": {"seg_0": [1.0]}}')
    table = load_embeddings(p)
    with pytest.raises(MissingFrameKey):
        table.vectors_for(3)


def test_embeddings_missing_segment_is_zero(tmp_path, caplog):
    p = tmp_path / "e.json"
    p.write_text('{"0": {"seg_0": [1.0, 2.0]}}')
    table = load_embeddings(p)
    vec = table.vector(0, "seg_9")
    assert np.array_equal(vec, np.zeros(2))


def _write_video(tmp_path, name, frames=2):
    vdir = tmp_path / name
    mdir = vdir / "masks"
    mdir.mkdir(parents=True)
    for f in range(frames):
        write_mask(
            SegmentationMask(2, 2, np.zeros((2, 2), dtype=np.uint8), f),
            mdir / f"{f:06d}.sgm",
        )
    csv = vdir / "phases.csv"
    csv.write_text("frame,phase\n" + "".join(f"{f},0\n" for f in range(frames)))
    return mdir, csv


def test_manifest_round_trip(tmp_path):
    mdir, csv = _write_video(tmp_path, "a")
    manifest = DatasetManifest(
        fps=1, videos=(VideoEntry("a", mdir, csv, "train"),)
    )
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    loaded = load_manifest(path)
    assert loaded.fps == 1
    assert loaded.videos[0].video_id == "a"
    assert loaded.videos[0].mask_dir == mdir
    assert loaded.videos[0].split == "train"


def test_manifest_missing_path(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"fps": 1, "videos": [{"id": "a", "mask_dir": "nope", '
        '"phase_csv": "nope.csv", "split": "train"}]}'
    )
    with pytest.raises(FileNotFoundError):
        load_manifest(path)


def test_manifest_bad_split(tmp_path):
    mdir, csv = _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"fps": 1, "videos": [{"id": "a", "mask_dir": "a/masks", '
        '"phase_csv": "a/phases.csv", "split": "holdout"}]}'
    )
    with pytest.raises(ValueError):
        load_manifest(path)


def test_list_mask_files_sorted(tmp_path):
    for f in (3, 1, 2):
        write_mask(
            SegmentationMask(1, 1, np.zeros((1, 1), dtype=np.uint8), f),
            tmp_path / f"{f}.sgm",
        )
    assert [f for f, _ in list_mask_files(tmp_path)] == [1, 2, 3]
