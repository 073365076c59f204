import csv
import functools
import io
import json
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surgraph.errors import (
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
    SurgraphError,
    TrailingBytes,
    TruncatedFile,
    UnknownPhaseId,
)
from surgraph.ingest import (
    DEFAULT_PHASE_NAMES,
    DatasetManifest,
    PhaseTrack,
    SegmentationMask,
    VideoEntry,
    default_label_map,
    label_map_from_entries,
    list_mask_files,
    load_embeddings,
    load_label_map,
    load_manifest,
    load_mask,
    load_phase_labels,
    mask_from_bytes,
    mask_to_bytes,
    write_manifest,
    write_mask,
    write_phase_labels,
)

from conftest import damaged, random_mask


def test_load_mask_direct_bytes():
    blob = b"SGM1" + struct.pack("<II", 2, 1) + bytes([0, 7])
    mask = mask_from_bytes(blob)
    assert (mask.width, mask.height) == (2, 1)
    assert mask.class_ids.tolist() == [[0, 7]]


def test_load_mask_bad_magic():
    blob = b"XXXX" + struct.pack("<II", 1, 1) + bytes([0])
    with pytest.raises(BadMagic, match="^frame 12: expected magic"):
        mask_from_bytes(blob, frame_index=12)


def test_load_mask_truncated_payload():
    blob = b"SGM1" + struct.pack("<II", 4, 4) + bytes([0] * 5)
    with pytest.raises(TruncatedFile, match="^frame 12: payload has 5 bytes"):
        mask_from_bytes(blob, frame_index=12)
    with pytest.raises(TruncatedFile, match="^frame 13: header truncated"):
        mask_from_bytes(blob[:10], frame_index=13)


def test_load_mask_trailing_bytes():
    mask = mask_from_bytes(b"SGM1" + struct.pack("<II", 4, 4) + bytes(16))
    with pytest.raises(TrailingBytes, match="^frame 12: 1 trailing bytes"):
        mask_from_bytes(mask_to_bytes(mask) + b"x", frame_index=12)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    case=st.integers(0, 2**32 - 1).flatmap(
        lambda seed: damaged(
            mask_to_bytes(random_mask(np.random.default_rng(seed), max_side=6)), header=12
        )
    ),
)
def test_damaged_sgm1_decodes_exactly_or_raises_naming_the_frame(case):
    kind, blob = case
    try:
        mask = mask_from_bytes(blob, frame_index=31)
    except SurgraphError as exc:
        assert str(exc).startswith("frame 31: ")
        return
    # only a flip that keeps the header consistent decodes, and then exactly
    assert kind == "flipped"
    assert mask_to_bytes(mask) == blob


def test_load_mask_oversize():
    blob = b"SGM1" + struct.pack("<II", 20000, 1)
    with pytest.raises(OversizeDimension, match="^frame 12: 20000x1 exceeds"):
        mask_from_bytes(blob, frame_index=12)


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


def test_failed_mask_write_keeps_the_earlier_mask(tmp_path, full_disk):
    rng = np.random.default_rng(3)
    path = tmp_path / "000007.sgm"
    write_mask(random_mask(rng, max_side=16, frame_index=7), path)
    before = path.read_bytes()
    full_disk()  # the next write fails after 20 bytes
    bigger = SegmentationMask(32, 32, np.full((32, 32), 5, dtype=np.uint8), frame_index=7)
    with pytest.raises(OSError):
        write_mask(bigger, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_failed_phase_label_write_keeps_the_earlier_file(tmp_path, full_disk):
    path = tmp_path / "phases.csv"
    write_phase_labels(PhaseTrack("v", np.array([0]), np.array([1])), path)
    before = path.read_bytes()
    full_disk()  # the next write fails after 20 bytes
    longer = PhaseTrack("v", np.arange(10), np.full(10, 3))
    with pytest.raises(OSError):
        write_phase_labels(longer, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


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


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"id": 0, "name": "a"}', "the top level is a dict, not an array"),
        ('[{"id": 0, "name": "a"}, 1]', "entry 1 is not an object"),
        ('[{"name": "a"}]', "entry 0 is not an object with an integer 'id'"),
        ('[{"id": true, "name": "a"}]', "entry 0 is not an object with an integer 'id'"),
        ('[{"id": 0, "name": "a"}, {"id": 1}]', "entry 1 is not an object with"),
        ('[{"id": 0, "name": 5}]', "entry 0 is not an object with"),
        ('[{"id": 0, "name": "a"}, {"id": 0, "name": "b"}]', "duplicate class ids"),
        ('[{"id": 1, "name": "a"}]', "ids [1] are not 0..0"),
        ('[{"id": 0, "name": "a"}', "not JSON"),
    ],
)
def test_label_map_errors_name_the_file_and_entry(tmp_path, text, where):
    p = tmp_path / "labels.json"
    p.write_text(text)
    with pytest.raises(SurgraphError) as info:
        load_label_map(p)
    assert str(info.value).startswith(f"{p}: ") and where in str(info.value)


def test_label_map_file_round_trip(tmp_path):
    p = tmp_path / "labels.json"
    p.write_text('[{"id": 1, "name": "Iris"}, {"id": 0, "name": "Pupil"}]')
    assert load_label_map(p).names == ("Pupil", "Iris")


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
    with pytest.raises(MixedDimensions) as info:
        load_embeddings(p)
    assert str(info.value) == f"{p}: embedding of frame 0, segment seg_1 has length 1, expected 2"


@pytest.mark.parametrize(
    "text, where",
    [
        ("[]", "the top level is a list, not an object"),
        ('{"x": {}}', "frame key 'x' is not a frame number"),
        ('{"-1": {}}', "frame key '-1' is not a frame number"),
        ('{"3": {}, "03": {}}', "frame key '03' repeats frame 3"),
        ('{"3": [1.0]}', "frame 3 is not an object of segment vectors"),
        ('{"3": {"seg_0": 1.0}}', "frame 3, segment seg_0 is not a list of numbers"),
        ('{"3": {"seg_0": ["1.0"]}}', "frame 3, segment seg_0 is not a list of numbers"),
        ('{"3": {"seg_0": [true]}}', "frame 3, segment seg_0 is not a list of numbers"),
        ('{"3": {"seg_0": [[1.0]]}}', "frame 3, segment seg_0 is not a list of numbers"),
        ('{"3": {"seg_0": [null]}}', "frame 3, segment seg_0 is not a list of numbers"),
    ],
)
def test_embedding_errors_name_the_file_and_frame(tmp_path, text, where):
    p = tmp_path / "e.json"
    p.write_text(text)
    with pytest.raises(MalformedFile) as info:
        load_embeddings(p)
    assert str(info.value).startswith(f"{p}: ") and where in str(info.value)


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
    with pytest.raises(FileNotFoundError) as info:
        load_manifest(path)
    assert isinstance(info.value, MissingPath)
    assert str(info.value) == f"{path}: video 'a' has 'mask_dir' {tmp_path / 'nope'}, not a folder"


def test_manifest_bad_split(tmp_path):
    mdir, csv = _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"fps": 1, "videos": [{"id": "a", "mask_dir": "a/masks", '
        '"phase_csv": "a/phases.csv", "split": "holdout"}]}'
    )
    with pytest.raises(MalformedFile) as info:
        load_manifest(path)
    assert str(info.value) == (
        f"{path}: video 'a' has 'split' 'holdout', not one of train, val, test"
    )


@pytest.mark.parametrize("key", ["videos", "id", "split", "mask_dir", "phase_csv"])
def test_manifest_missing_key_names_manifest_video_and_key(tmp_path, key):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    video = {"id": "a", "mask_dir": "a/masks", "phase_csv": "a/phases.csv", "split": "train"}
    raw = {"fps": 1, "videos": [video]}
    del (raw if key == "videos" else video)[key]
    path.write_text(json.dumps(raw))
    where = {"videos": "the manifest", "id": "video 0"}.get(key, "video 'a'")
    with pytest.raises(MalformedFile) as info:
        load_manifest(path)
    assert not isinstance(info.value, KeyError)
    assert str(info.value) == f"{path}: {where} has no '{key}'"


@pytest.mark.parametrize("where", ["the manifest", "video 'a'"])
def test_manifest_unknown_key_names_manifest_video_and_key(tmp_path, where):
    # a misspelt "embeddings" would otherwise leave the video without its table
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    video = {"id": "a", "mask_dir": "a/masks", "phase_csv": "a/phases.csv", "split": "train"}
    raw = {"fps": 1, "videos": [video]}
    (raw if where == "the manifest" else video)["embedings"] = "a/embeddings.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MalformedFile) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: {where} has unknown key 'embedings'"


@pytest.mark.parametrize(
    "key, value",
    [("mask_dir", 5), ("phase_csv", ["a/phases.csv"]), ("embeddings", 0), ("embeddings", True)],
)
def test_manifest_path_that_is_no_string_names_manifest_video_and_key(tmp_path, key, value):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    video = {"id": "a", "mask_dir": "a/masks", "phase_csv": "a/phases.csv", "split": "train"}
    path.write_text(json.dumps({"fps": 1, "videos": [{**video, key: value}]}))
    with pytest.raises(MalformedFile) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: video 'a' has '{key}' {value!r}, not a path string"


@pytest.mark.parametrize("embeddings", [None, ""])
def test_manifest_null_or_empty_embeddings_mean_no_table(tmp_path, embeddings):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    video = {"id": "a", "mask_dir": "a/masks", "phase_csv": "a/phases.csv", "split": "train"}
    path.write_text(json.dumps({"fps": 1, "videos": [{**video, "embeddings": embeddings}]}))
    assert load_manifest(path).videos[0].embeddings is None


def test_manifest_videos_must_be_a_list(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"fps": 1, "videos": 5}')
    with pytest.raises(MalformedFile, match="'videos' is not a list"):
        load_manifest(path)


@pytest.mark.parametrize("fps", [0, -3, 0.5])
def test_manifest_rejects_fps_below_one(tmp_path, fps):
    mdir, csv = _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    path.write_text(
        f'{{"fps": {fps}, "videos": [{{"id": "a", "mask_dir": "a/masks", '
        '"phase_csv": "a/phases.csv", "split": "train"}]}'
    )
    with pytest.raises(OutOfRange, match=f"{path}: fps {fps} must be at least 1"):
        load_manifest(path)


def _manifest(tmp_path, fps, split="train"):
    mdir, csv = tmp_path / "a" / "masks", tmp_path / "a" / "phases.csv"
    return DatasetManifest(fps=fps, videos=(VideoEntry("a", mdir, csv, split),))


@pytest.mark.parametrize("fps", [1, 29.97, pytest.param(10**400, id="400-digit-int")])
def test_manifest_keeps_fps_as_given(tmp_path, fps):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    write_manifest(_manifest(tmp_path, fps), path)
    assert f'"fps": {fps},' in path.read_text()
    loaded = load_manifest(path).fps
    assert loaded == fps and type(loaded) is type(fps)


@pytest.mark.parametrize("fps", ["true", '"30"', "null", "[30]", "NaN", "Infinity", "1e400"])
def test_manifest_rejects_fps_that_is_no_finite_number(tmp_path, fps):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    path.write_text(
        f'{{"fps": {fps}, "videos": [{{"id": "a", "mask_dir": "a/masks", '
        '"phase_csv": "a/phases.csv", "split": "train"}]}'
    )
    with pytest.raises(OutOfRange, match=re.escape(f"{path}: fps ") + ".* is not a finite number"):
        load_manifest(path)


def test_failed_manifest_write_keeps_earlier_manifest(tmp_path, full_disk):
    _write_video(tmp_path, "a")
    path = tmp_path / "manifest.json"
    write_manifest(_manifest(tmp_path, 1), path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError):
        write_manifest(_manifest(tmp_path, 25, split="test"), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "manifest.json"]


def test_list_mask_files_sorted(tmp_path):
    for f in (3, 1, 2):
        write_mask(
            SegmentationMask(1, 1, np.zeros((1, 1), dtype=np.uint8), f),
            tmp_path / f"{f}.sgm",
        )
    assert [f for f, _ in list_mask_files(tmp_path)] == [1, 2, 3]


def test_list_mask_files_skips_stems_that_are_no_frame_number(tmp_path, caplog):
    mask = SegmentationMask(1, 1, np.zeros((1, 1), dtype=np.uint8))
    for stem in ("000002", "-000001", "notes"):
        write_mask(mask, tmp_path / f"{stem}.sgm")
    with caplog.at_level("WARNING", logger="surgraph.ingest"):
        assert list_mask_files(tmp_path) == [(2, tmp_path / "000002.sgm")]
    assert str(tmp_path / "-000001.sgm") in caplog.text
    assert str(tmp_path / "notes.sgm") in caplog.text


# --- damaged phase CSVs and manifests ---------------------------------------------

PHASE_CSV = b"frame,phase\n0,0\n1,3\n4,3\n5,7\n9,12\n10,18\n"


def _csv_rows(blob: bytes) -> list[tuple[int, int]]:
    """The integer rows a well-formed phase CSV ``blob`` holds."""
    rows = csv.reader(io.StringIO(blob.decode("utf-8"), newline=""))
    next(rows)
    return [tuple(map(int, row)) for row in rows if row]


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=damaged(PHASE_CSV, header=len(b"frame,phase\n")))
def test_damaged_phase_csv_decodes_exactly_or_raises_naming_the_file(tmp_path, case):
    _, blob = case
    path = tmp_path / "v.csv"
    path.write_bytes(blob)
    try:
        track = load_phase_labels(path)
    except SurgraphError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a damaged file that still decodes gives exactly the integers it holds
    assert list(zip(track.frames.tolist(), track.phases.tolist())) == _csv_rows(blob)


@functools.cache
def _manifest_bytes() -> bytes:
    """A manifest of two videos, with relative paths ``a/...`` and ``b/...``."""
    root = Path(tempfile.mkdtemp())
    try:
        videos = []
        for name, split in (("a", "train"), ("b", "test")):
            mdir, phases = _write_video(root, name)
            embeddings = root / name / "emb.json" if name == "b" else None
            videos.append(VideoEntry(name, mdir, phases, split, embeddings))
        write_manifest(DatasetManifest(fps=25, videos=tuple(videos)), root / "manifest.json")
        return (root / "manifest.json").read_bytes()
    finally:
        shutil.rmtree(root)


def _damaged_manifests():
    blob = _manifest_bytes()
    return damaged(blob, header=blob.index(b"["))


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.deferred(_damaged_manifests))
def test_damaged_manifest_decodes_exactly_or_raises_naming_the_file(tmp_path, case):
    _, blob = case
    for name in ("a", "b"):
        if not (tmp_path / name).exists():
            _write_video(tmp_path, name)
    (tmp_path / "b" / "emb.json").write_text("{}")
    path = tmp_path / "manifest.json"
    path.write_bytes(blob)
    try:
        manifest = load_manifest(path)
    except SurgraphError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a damaged file that still decodes gives exactly the values it holds
    raw = json.loads(blob)
    assert manifest.fps == raw.get("fps", 1)
    assert [
        (v.video_id, v.split, v.mask_dir, v.phase_csv, v.embeddings) for v in manifest.videos
    ] == [
        (
            e["id"],
            e["split"],
            tmp_path / e["mask_dir"],
            tmp_path / e["phase_csv"],
            tmp_path / e["embeddings"] if e.get("embeddings") else None,
        )
        for e in raw["videos"]
    ]


# --- damaged label maps and embedding tables ------------------------------------------

LABEL_MAP = json.dumps(
    [{"id": i, "name": name} for i, name in enumerate(("Pupil", "Iris", "Cornea", "Tool"))]
).encode()


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=damaged(LABEL_MAP, header=LABEL_MAP.index(b"}") + 1))
def test_damaged_label_map_decodes_exactly_or_raises_naming_the_file(tmp_path, case):
    _, blob = case
    path = tmp_path / "labels.json"
    path.write_bytes(blob)
    try:
        label_map = load_label_map(path)
    except SurgraphError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a damaged file that still decodes gives exactly the names it holds, in id order
    entries = json.loads(blob)
    assert label_map.names == tuple(e["name"] for e in sorted(entries, key=lambda e: e["id"]))


EMBEDDINGS = b'{"0": {"seg_0": [0.5, -1.0], "seg_3": [2.0, 0.25]}, "12": {"seg_1": [1e-3, 4]}}'


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=damaged(EMBEDDINGS, header=EMBEDDINGS.index(b"[")))
def test_damaged_embeddings_decode_exactly_or_raise_naming_the_file(tmp_path, case):
    _, blob = case
    path = tmp_path / "e.json"
    path.write_bytes(blob)
    try:
        table = load_embeddings(path)
    except SurgraphError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    # a damaged file that still decodes gives exactly the vectors it holds
    raw = json.loads(blob)
    assert {f: {k: v.tolist() for k, v in t.items()} for f, t in table.frames.items()} == {
        int(f): segments for f, segments in raw.items()
    }
    vectors = [v for segments in raw.values() for v in segments.values()]
    assert table.dimension == (len(vectors[0]) if vectors else None)
