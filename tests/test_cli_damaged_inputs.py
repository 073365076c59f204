"""Every command, one damaged input file at a time.

For each command and each file it reads, that one file is cut short, padded
or has bits flipped (``conftest.damaged``), and the command runs on a tiny
dataset for one epoch. ``cli.run`` must return 0, 1 or 2 without raising; a
failure's message must start with the damaged file's path, and the failed
command must leave no output behind.
"""

import contextlib
import io
import itertools
import json
import struct
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import damaged
from surgraph.cli import run
from surgraph.ingest import load_manifest, load_mask, write_manifest
from surgraph.synth import generate_dataset, preset_distinct_tools

VIDEOS = (("train0", "train"), ("train1", "train"), ("val0", "val"), ("test0", "test"),
          ("test1", "test"))
EMBEDDING_DIM = 100  # FeatureConfig's default, the only width the command line can ask for
TRAIN_CONFIG = {
    "feature_config": {"use_embedding": True}, "window": 2, "dilation": 1, "epochs": 1,
    "batch_size": 8, "hidden_dims": [4], "patience": 1,
}
# The files each command reads, by kind. Two train and two test videos, so that
# one damaged phase CSV or mask cannot leave a split without samples.
COMMANDS = {
    "build-graphs": ("manifest", "mask", "embeddings"),
    "train": ("manifest", "phase_csv", "mask", "embeddings", "train_config"),
    "eval": ("checkpoint", "manifest", "phase_csv", "mask", "embeddings"),
    "explain": ("checkpoint", "graph", "label_map"),
    "synth": ("synth_config",),
    "ablate": ("manifest", "grid", "phase_csv", "mask", "embeddings"),
}


def _quiet_run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, err.getvalue()


def _write_embeddings(video, path):
    """A 100-d vector for every segment key of every frame of ``video``."""
    vector = [k % 7 / 8 for k in range(EMBEDDING_DIM)]
    table = {}
    for mask_path in sorted(video.mask_dir.glob("*.sgm")):
        ids = np.unique(load_mask(mask_path).class_ids)
        table[str(int(mask_path.stem))] = {f"seg_{c}": vector for c in ids.tolist()}
    path.write_text(json.dumps(table))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """``(files, argv, out)``: ``files(split)`` maps each input kind to the
    file a command on ``split`` reads, ``argv(command, folder)`` is the
    command writing into ``folder``, and ``out`` holds those folders."""
    root = tmp_path_factory.mktemp("damaged")
    configs = [
        preset_distinct_tools(n_frames=8, phase_frames=2, seed=k, video_id=video_id,
                              split=split, width=32, height=32)
        for k, (video_id, split) in enumerate(VIDEOS)
    ]
    manifest_path, manifest = generate_dataset(root / "data", configs, fps=1)
    videos = []
    for video in manifest.videos:
        embeddings = video.mask_dir.parent / "embeddings.json"
        _write_embeddings(video, embeddings)
        videos.append(replace(video, embeddings=embeddings))
    write_manifest(replace(manifest, videos=tuple(videos)), manifest_path)
    by_id = {v.video_id: v for v in load_manifest(manifest_path).videos}

    train_config = root / "train.json"
    train_config.write_text(json.dumps(TRAIN_CONFIG))
    grid = root / "grid.json"
    grid.write_text(json.dumps([TRAIN_CONFIG]))
    phases = [{"phase_id": 3, "duration": 2, "tools": [10]}, {"phase_id": 5, "duration": 2}]
    synth_config = root / "synth.json"
    synth_config.write_text(json.dumps(
        {"fps": 1, "videos": [{"n_frames": 4, "width": 32, "height": 32, "seed": 0,
                               "video_id": "v", "split": "test", "phase_script": phases}]}
    ))
    label_map = root / "labels.json"
    label_map.write_bytes((resources.files("surgraph.data") / "cadis_task2.json").read_bytes())
    checkpoint = root / "model.ckpt"
    graphs = root / "graphs"
    assert run(["train", "--manifest", str(manifest_path), "--config", str(train_config),
                "--out-checkpoint", str(checkpoint)]) == 0
    assert run(["build-graphs", "--manifest", str(manifest_path), "--out", str(graphs),
                "--mode", "dynamic", "--window", "2", "--dilation", "1", "--split", "test",
                "--features", "class,embedding"]) == 0

    def files(split):
        video = by_id[f"{split}0"]
        return {
            "manifest": manifest_path, "phase_csv": video.phase_csv,
            "mask": video.mask_dir / "000003.sgm", "embeddings": video.embeddings,
            "checkpoint": checkpoint, "graph": graphs / "test0_000003.json",
            "label_map": label_map, "train_config": train_config, "grid": grid,
            "synth_config": synth_config,
        }

    def argv(command, out):
        return {
            "build-graphs": ["build-graphs", "--manifest", manifest_path, "--out", out,
                             "--mode", "dynamic", "--window", "2", "--dilation", "1",
                             "--features", "class,embedding"],
            "train": ["train", "--manifest", manifest_path, "--config", train_config,
                      "--out-checkpoint", out / "m.ckpt", "--history", out / "h.json"],
            "eval": ["eval", "--checkpoint", checkpoint, "--manifest", manifest_path,
                     "--split", "test"],
            "explain": ["explain", "--checkpoint", checkpoint, "--graph", graphs /
                        "test0_000003.json", "--label-map", label_map, "--iterations", "5",
                        "--dot-out", out / "e.dot", "--json-out", out / "e.json"],
            "synth": ["synth", "--config", synth_config, "--out", out],
            "ablate": ["ablate", "--manifest", manifest_path, "--grid", grid,
                       "--out-csv", out / "a.csv"],
        }[command]

    return files, argv, root / "out"


def _header(kind: str, blob: bytes) -> int:
    """The bytes that hold a binary file's sizes and layout; all of a text file."""
    if kind == "mask":
        return 12
    if kind == "checkpoint":
        return 12 + struct.unpack("<I", blob[8:12])[0]
    return len(blob)


CASES = [(command, kind) for command, kinds in COMMANDS.items() for kind in kinds]
_fresh = itertools.count()


@pytest.mark.parametrize("command, kind", CASES, ids=[f"{c}-{k}" for c, k in CASES])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_damaged_input_exits_0_1_or_2_naming_the_file(inputs, command, kind, data):
    files, argv, out_root = inputs
    split = "test" if command == "eval" else "train"
    path = files(split)[kind]
    blob = path.read_bytes()
    how, damaged_blob = data.draw(damaged(blob, _header(kind, blob)))
    out = out_root / str(next(_fresh))
    path.write_bytes(damaged_blob)
    try:
        code, err = _quiet_run(argv(command, out))
    finally:
        path.write_bytes(blob)
    event(f"{kind}: exit {code}")
    assert code in (0, 1, 2), err
    if code:
        assert err.startswith(f"error: {path}: "), (how, err)
        assert not out.exists()
