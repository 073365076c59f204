import json
import logging
import shutil
import subprocess
import sys

import numpy as np
import pytest

import surgraph.pipeline
from surgraph.cli import run
from surgraph.gcn import GcnConfig, init_model, save_checkpoint
from surgraph.ingest import list_mask_files, load_manifest, load_mask
from surgraph.pipeline import ABLATION_CSV_HEADER, TrainConfig, build_samples
from surgraph.scene_graph import FeatureConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cliset")
    code = run(
        [
            "synth",
            "--out", str(out),
            "--preset", "distinct-tools",
            "--train", "2",
            "--val", "1",
            "--test", "1",
            "--n-frames", "40",
            "--seed", "0",
        ]
    )
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    ckpt = out / "model.ckpt"
    history = out / "history.json"
    code = run(
        [
            "train",
            "--manifest", str(dataset),
            "--out-checkpoint", str(ckpt),
            "--history", str(history),
            "--window", "3",
            "--dilation", "1",
            "--epochs", "25",
            "--batch-size", "16",
            "--lr", "0.01",
            "--seed", "0",
            "--patience", "25",
            "--features", "class",
            "--num-classes", "17",
        ]
    )
    assert code == 0
    return ckpt, history


def test_synth_writes_loadable_dataset(dataset):
    manifest = load_manifest(dataset)
    splits = [v.split for v in manifest.videos]
    assert splits == ["train", "train", "val", "test"]
    mask = load_mask(manifest.videos[0].mask_dir / "000000.sgm")
    assert (mask.width, mask.height) == (64, 64)


def test_synth_is_seed_reproducible(dataset, tmp_path):
    code = run(
        [
            "synth", "--out", str(tmp_path), "--preset", "distinct-tools",
            "--train", "2", "--val", "1", "--test", "1",
            "--n-frames", "40", "--seed", "0",
        ]
    )
    assert code == 0
    first = load_manifest(dataset)
    second = load_manifest(tmp_path / "manifest.json")
    for a, b in zip(first.videos, second.videos):
        fa = (a.mask_dir / "000007.sgm").read_bytes()
        fb = (b.mask_dir / "000007.sgm").read_bytes()
        assert fa == fb


def test_build_graphs_static(dataset, tmp_path, capsys):
    out = tmp_path / "graphs"
    code = run(
        [
            "build-graphs", "--manifest", str(dataset), "--out", str(out),
            "--mode", "static", "--split", "test", "--num-classes", "17",
        ]
    )
    assert code == 0
    files = sorted(out.glob("*.json"))
    assert len(files) == 40
    summary = capsys.readouterr().out
    assert "wrote 40 static graph files" in summary
    data = json.loads(files[0].read_text())
    assert data["d"] == 17
    assert data["nodes"]


def test_build_graphs_dynamic_context(dataset, tmp_path):
    out = tmp_path / "graphs"
    code = run(
        [
            "build-graphs", "--manifest", str(dataset), "--out", str(out),
            "--mode", "dynamic", "--window", "5", "--dilation", "2",
            "--split", "test", "--num-classes", "17",
        ]
    )
    assert code == 0
    data = json.loads(sorted(out.glob("*.json"))[-1].read_text())
    assert data["window"] == 5
    assert data["context_s"] == 5 * 2 / 1.0  # manifest fps is 1


def test_unknown_feature_is_validation_error(dataset, tmp_path, capsys):
    code = run(
        [
            "build-graphs", "--manifest", str(dataset),
            "--out", str(tmp_path / "g"), "--features", "class,bogus",
        ]
    )
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert run(["build-graphs"]) == 1
    assert "usage" in capsys.readouterr().err


def test_train_writes_artifacts_and_metrics_line(checkpoint, capsys):
    ckpt, history = checkpoint
    assert ckpt.exists()
    records = json.loads(history.read_text())
    assert records[0]["epoch"] == 0
    assert "val_accuracy" in records[0]


def test_eval_prints_metrics(checkpoint, dataset, capsys):
    ckpt, _ = checkpoint
    code = run(
        ["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
         "--split", "test"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert out.startswith("accuracy=")
    accuracy = float(out.split()[0].split("=")[1])
    macro = float(out.split()[1].split("=")[1])
    assert accuracy > 0.8
    assert 0.0 <= macro <= 1.0


def test_eval_missing_checkpoint_is_runtime_error(dataset, tmp_path, capsys):
    code = run(
        ["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
         "--manifest", str(dataset)]
    )
    assert code == 2


def test_eval_feature_dim_mismatch_names_both_dims(dataset, tmp_path, capsys):
    # checkpoint trained for 10-dim inputs, manifest graphs produce 17
    model = init_model(GcnConfig(input_dim=10, hidden_dims=(4,), num_classes=19))
    ckpt = tmp_path / "narrow.ckpt"
    stored = TrainConfig(
        feature_config=FeatureConfig(num_classes=17),
        window=1, dilation=1, hidden_dims=(4,),
    )
    save_checkpoint(model, ckpt, extra={"train_config": stored.to_json()})
    code = run(
        ["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
         "--split", "test"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "17" in err and "10" in err


@pytest.mark.parametrize(
    "stored, detail",
    [
        ([1, 2], "'list' object is not a mapping"),
        ({"window": 3, "colour": "red"}, "unexpected keyword argument 'colour'"),
        ({"window": 0}, "window and dilation must be >= 1"),
    ],
    ids=["not-an-object", "unknown-key", "bad-value"],
)
def test_eval_malformed_stored_config_is_a_corrupt_checkpoint(
    dataset, tmp_path, capsys, stored, detail
):
    model = init_model(GcnConfig(input_dim=17, hidden_dims=(4,), num_classes=19))
    ckpt = tmp_path / "stored.ckpt"
    save_checkpoint(model, ckpt, extra={"train_config": stored})
    assert run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: bad training config: ") and detail in err


def test_train_config_with_unknown_label_policy_exits_1(dataset, tmp_path, capsys):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"label_policy": "middle", "epochs": 1}))
    ckpt = tmp_path / "m.ckpt"
    argv = ["train", "--manifest", str(dataset), "--config", str(config),
            "--out-checkpoint", str(ckpt)]
    assert run(argv) == 1
    assert "unknown label_policy 'middle'" in capsys.readouterr().err
    assert not ckpt.exists()


def test_explain_malformed_label_map_exits_2_without_a_traceback(checkpoint, dataset, tmp_path):
    ckpt, _ = checkpoint
    graphs = tmp_path / "graphs"
    assert run(["build-graphs", "--manifest", str(dataset), "--out", str(graphs),
                "--split", "test", "--num-classes", "17"]) == 0
    label_map = tmp_path / "labels.json"
    label_map.write_text('[{"id": 0, "name": "Pupil"}, {"id": "1", "name": "Iris"}]')
    dot_out = tmp_path / "expl.dot"
    proc = subprocess.run(
        [sys.executable, "-m", "surgraph.cli", "explain", "--checkpoint", str(ckpt),
         "--graph", str(sorted(graphs.glob("*.json"))[0]), "--dot-out", str(dot_out),
         "--label-map", str(label_map), "--iterations", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"error: {label_map}: entry 1 " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not dot_out.exists()


def test_negative_mask_stem_is_skipped_with_a_warning(dataset, tmp_path, caplog):
    data = tmp_path / "data"
    shutil.copytree(dataset.parent, data)
    manifest = load_manifest(data / "manifest.json")
    cfg = TrainConfig(feature_config=FeatureConfig(num_classes=17), window=3, dilation=2)

    def outputs(name):
        samples = [
            (s.video_id, s.frame_index, s.label, s.x.tobytes(), s.adjacency.rows.tobytes(),
             s.adjacency.cols.tobytes(), s.adjacency.values.tobytes())
            for s in build_samples(manifest.videos, cfg)
        ]
        out = tmp_path / name
        assert run(["build-graphs", "--manifest", str(data / "manifest.json"), "--out", str(out),
                    "--mode", "dynamic", "--window", "3", "--dilation", "2",
                    "--num-classes", "17"]) == 0
        return samples, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    before = outputs("before")
    stray = manifest.videos[0].mask_dir / "-000001.sgm"
    shutil.copy(stray.with_name("000000.sgm"), stray)
    with caplog.at_level(logging.WARNING, logger="surgraph.ingest"):
        after = outputs("after")
    assert after == before
    assert f"skipping mask file whose stem is not a frame number: {stray}" in caplog.text


def test_outputs_make_missing_folders_that_a_failure_removes(
    checkpoint, dataset, tmp_path, full_disk
):
    ckpt, _ = checkpoint
    graphs = tmp_path / "graphs"
    assert run(["build-graphs", "--manifest", str(dataset), "--out", str(graphs),
                "--split", "test", "--num-classes", "17"]) == 0
    argv = ["explain", "--checkpoint", str(ckpt), "--graph", str(sorted(graphs.glob("*.json"))[5]),
            "--iterations", "5", "--dot-out"]
    made = tmp_path / "made" / "deep" / "expl.dot"
    assert run([*argv, str(made)]) == 0
    assert made.read_text().startswith("graph G {")
    full_disk()
    assert run([*argv, str(tmp_path / "failed" / "deep" / "expl.dot")]) == 2
    assert not (tmp_path / "failed").exists()


def test_run_undoes_the_outputs_of_any_failure_and_reraises(tmp_path, monkeypatch):
    import surgraph.cli

    made = tmp_path / "new" / "partial.txt"

    def interrupted(args, outputs):
        outputs.file(made).write_text("partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(surgraph.cli, "cmd_synth", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(["synth", "--out", str(tmp_path / "data")])
    assert not (tmp_path / "new").exists()


def test_explain_writes_parseable_dot(checkpoint, dataset, tmp_path, capsys):
    ckpt, _ = checkpoint
    graphs = tmp_path / "graphs"
    assert run(
        [
            "build-graphs", "--manifest", str(dataset), "--out", str(graphs),
            "--mode", "dynamic", "--window", "3", "--dilation", "1",
            "--split", "test", "--num-classes", "17",
        ]
    ) == 0
    graph_file = sorted(graphs.glob("*.json"))[10]
    dot_out = tmp_path / "expl.dot"
    json_out = tmp_path / "expl.json"
    code = run(
        [
            "explain", "--checkpoint", str(ckpt), "--graph", str(graph_file),
            "--dot-out", str(dot_out), "--json-out", str(json_out),
            "--iterations", "50",
        ]
    )
    assert code == 0
    dot = dot_out.read_text()
    assert dot.startswith("graph G {")
    assert dot.rstrip().endswith("}")
    assert "--" in dot
    data = json.loads(json_out.read_text())
    assert set(data) == {"target_class", "edges", "nodes"}
    assert "top edge" in capsys.readouterr().out


def test_explain_rejects_repeated_edge(checkpoint, dataset, tmp_path, capsys):
    ckpt, _ = checkpoint
    graphs = tmp_path / "graphs"
    assert run(
        [
            "build-graphs", "--manifest", str(dataset), "--out", str(graphs),
            "--mode", "dynamic", "--window", "3", "--dilation", "1",
            "--split", "test", "--num-classes", "17",
        ]
    ) == 0
    data = json.loads(sorted(graphs.glob("*.json"))[10].read_text())
    i, j, kind = data["edges"][0]
    data["edges"].append([j, i, kind])
    graph_file = tmp_path / "repeated.json"
    graph_file.write_text(json.dumps(data))
    dot_out = tmp_path / "expl.dot"
    capsys.readouterr()
    code = run(
        [
            "explain", "--checkpoint", str(ckpt), "--graph", str(graph_file),
            "--dot-out", str(dot_out), "--iterations", "5",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {graph_file}: adjacency entry") and "given twice" in err
    assert not dot_out.exists()


@pytest.mark.parametrize(
    "text, detail",
    [
        ("5", "the top level is a int, not an object"),
        ("[]", "the top level is a list, not an object"),
        ('{"window": 3}', "the top level has no 'frame'"),
        ('{"nodes": 1}', "the top level has no 'frame'"),
        ('{"frame": 0, "d": 0, "nodes": [], "edges": []}',
         "the top level has 'd' 0, not a feature width of at least 1"),
    ],
    ids=["number", "array", "window-only", "nodes-only", "no-features"],
)
def test_explain_on_a_malformed_graph_file_names_it(checkpoint, tmp_path, capsys, text, detail):
    ckpt, _ = checkpoint
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(text)
    dot_out = tmp_path / "expl.dot"
    capsys.readouterr()
    code = run(["explain", "--checkpoint", str(ckpt), "--graph", str(graph_file),
                "--dot-out", str(dot_out), "--iterations", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {graph_file}: {detail}\n"
    assert "Traceback" not in err
    assert not dot_out.exists()


def test_explain_names_the_graph_and_checkpoint_of_a_width_mismatch(checkpoint, tmp_path, capsys):
    ckpt, _ = checkpoint
    graph_file = tmp_path / "graph.json"
    node = {"class": 0, "centroid": [0.5, 0.5], "size": 0.1, "features": [1.0]}
    graph_file.write_text(json.dumps({"frame": 0, "d": 1, "nodes": [node], "edges": []}))
    dot_out = tmp_path / "expl.dot"
    capsys.readouterr()
    code = run(["explain", "--checkpoint", str(ckpt), "--graph", str(graph_file),
                "--dot-out", str(dot_out), "--iterations", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {graph_file}: graph features are 1-d, checkpoint {ckpt} expects 17\n"
    assert not dot_out.exists()


def test_train_feature_flags_override_only_their_fields_of_the_config(dataset, tmp_path):
    from surgraph.gcn import checkpoint_header

    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "window": 3, "dilation": 1, "epochs": 1,
        "feature_config": {"num_classes": 17, "use_size": True, "min_segment_pixels": 5},
    }))
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--manifest", str(dataset), "--config", str(config),
                "--out-checkpoint", str(ckpt), "--connectivity", "8"]) == 0
    stored = TrainConfig.from_json(checkpoint_header(ckpt)["extra"]["train_config"])
    assert stored.feature_config == FeatureConfig(
        num_classes=17, use_size=True, min_segment_pixels=5, connectivity=8
    )


def test_eval_feature_flags_override_only_their_fields_of_the_checkpoint(
    checkpoint, dataset, monkeypatch, capsys
):
    import surgraph.cli

    ckpt, _ = checkpoint
    used = []
    build = surgraph.cli.build_samples
    monkeypatch.setattr(
        surgraph.cli, "build_samples", lambda videos, cfg: used.append(cfg) or build(videos, cfg)
    )
    assert run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                "--min-segment-pixels", "3", "--segment-mode", "per-component"]) == 0
    assert used[0].feature_config == FeatureConfig(
        num_classes=17, min_segment_pixels=3, segment_mode="per-component"
    )
    assert (used[0].window, used[0].dilation) == (3, 1)
    # a threshold no segment reaches leaves nothing to evaluate, where it was once ignored
    assert run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                "--min-segment-pixels", "100000"]) == 2
    assert used[1].feature_config == FeatureConfig(min_segment_pixels=100000)


def test_synth_with_no_frames_exits_1(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), "--n-frames", "0"]) == 1
    assert capsys.readouterr().err == "error: n_frames must be >= 1\n"
    assert not out.exists()


def test_ablate_writes_csv(dataset, tmp_path):
    base = TrainConfig(
        feature_config=FeatureConfig(num_classes=17),
        window=2, dilation=1, epochs=2, batch_size=16,
        hidden_dims=(6, 6), patience=2,
    ).to_json()
    import copy

    second = copy.deepcopy(base)
    second["window"] = 1
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([base, second]))
    csv_path = tmp_path / "ablation.csv"
    code = run(
        ["ablate", "--manifest", str(dataset), "--grid", str(grid_path),
         "--out-csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ABLATION_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("dynamic,")
    assert lines[2].startswith("static,")


def _synth_config(tmp_path, fps):
    phases = [{"phase_id": 0, "duration": 6}, {"phase_id": 1, "duration": 6}]
    videos = [
        {"n_frames": 12, "phase_script": phases, "seed": i, "video_id": split, "split": split}
        for i, split in enumerate(["train", "val", "test"])
    ]
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"fps": fps, "videos": videos}))
    return path


def test_fractional_fps_reaches_context_seconds(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--config", str(_synth_config(tmp_path, 29.97)), "--out", str(data)]) == 0
    manifest = data / "manifest.json"
    assert '"fps": 29.97,' in manifest.read_text()
    assert load_manifest(manifest).fps == 29.97

    graphs = tmp_path / "graphs"
    assert run(["build-graphs", "--manifest", str(manifest), "--out", str(graphs),
                "--mode", "dynamic", "--window", "3", "--dilation", "2",
                "--split", "test", "--num-classes", "17"]) == 0
    window = json.loads(sorted(graphs.glob("*.json"))[-1].read_text())
    assert window["context_s"] == 3 * 2 / 29.97

    grid = tmp_path / "grid.json"
    cell = TrainConfig(feature_config=FeatureConfig(num_classes=17), window=3, dilation=2,
                       epochs=1, hidden_dims=(4,), patience=1)
    grid.write_text(json.dumps([cell.to_json()]))
    csv_path = tmp_path / "ablation.csv"
    assert run(["ablate", "--manifest", str(manifest), "--grid", str(grid),
                "--out-csv", str(csv_path)]) == 0
    row = dict(zip(ABLATION_CSV_HEADER.split(","), csv_path.read_text().splitlines()[1].split(",")))
    assert row["context_s"] == f"{3 * 2 / 29.97:g}" != f"{3 * 2 / 29:g}"


@pytest.mark.parametrize("fps", [True, "30", float("nan"), 0])
def test_synth_rejects_bad_fps(tmp_path, capsys, fps):
    config = _synth_config(tmp_path, fps)
    out = tmp_path / "data"
    assert run(["synth", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {config}: fps " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["video", "phase"])
def test_synth_rejects_unknown_config_key(tmp_path, capsys, where):
    config = _synth_config(tmp_path, 1)
    raw = json.loads(config.read_text())
    target = raw["videos"][0] if where == "video" else raw["videos"][0]["phase_script"][0]
    target["colour"] = "red"
    config.write_text(json.dumps(raw))
    out = tmp_path / "data"
    assert run(["synth", "--config", str(config), "--out", str(out)]) == 1
    assert "bad synth config" in capsys.readouterr().err
    assert not out.exists()


def test_failed_build_graphs_removes_outputs(dataset, tmp_path):
    manifest = load_manifest(dataset)
    # corrupt one mask of the last video so the failure hits mid-run
    victim = manifest.videos[-1].mask_dir / "000020.sgm"
    original = victim.read_bytes()
    victim.write_bytes(b"XXXX" + original[4:])
    out = tmp_path / "graphs"
    try:
        code = run(
            ["build-graphs", "--manifest", str(dataset), "--out", str(out),
             "--mode", "static", "--split", "test", "--num-classes", "17"]
        )
    finally:
        victim.write_bytes(original)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-graphs", "ablate"])
def test_zero_fps_manifest_exits_2_before_any_work(dataset, tmp_path, monkeypatch, capsys, command):
    raw = json.loads(dataset.read_text())
    for video in raw["videos"]:
        for key in ("mask_dir", "phase_csv"):
            video[key] = str(dataset.parent / video[key])
    raw["fps"] = 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))

    def refuse(*args, **kwargs):
        raise AssertionError("work started on a manifest with fps 0")

    for name in ("load_static_graphs", "build_samples", "fit"):
        monkeypatch.setattr(surgraph.pipeline, name, refuse)
    out = tmp_path / "out"
    if command == "build-graphs":
        argv = ["build-graphs", "--manifest", str(manifest), "--out", str(out),
                "--mode", "dynamic", "--window", "3"]
    else:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([TrainConfig(feature_config=FeatureConfig()).to_json()]))
        argv = ["ablate", "--manifest", str(manifest), "--grid", str(grid),
                "--out-csv", str(out)]
    assert run(argv) == 2
    assert f"{manifest}: fps 0 must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_path_that_is_no_string_exits_2_without_a_traceback(dataset, tmp_path):
    raw = json.loads(dataset.read_text())
    for video in raw["videos"]:
        for key in ("mask_dir", "phase_csv"):
            video[key] = str(dataset.parent / video[key])
    raw["videos"][0]["mask_dir"] = 5
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "surgraph.cli", "build-graphs", "--manifest", str(manifest),
         "--out", str(out), "--mode", "dynamic", "--window", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    video = raw["videos"][0]["id"]
    assert f"error: {manifest}: video {video!r} has 'mask_dir' 5, not a path string" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_manifest_with_unknown_split_exits_2_without_a_traceback(dataset, tmp_path):
    raw = json.loads(dataset.read_text())
    for video in raw["videos"]:
        for key in ("mask_dir", "phase_csv"):
            video[key] = str(dataset.parent / video[key])
    raw["videos"][0]["split"] = "holdout"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "surgraph.cli", "build-graphs", "--manifest", str(manifest),
         "--out", str(out), "--mode", "dynamic", "--window", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    video = raw["videos"][0]["id"]
    assert (
        f"error: {manifest}: video {video!r} has 'split' 'holdout', not one of train, val, test"
        in proc.stderr
    )
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_help_everywhere():
    for argv in (
        ["--help"],
        ["build-graphs", "--help"],
        ["train", "--help"],
        ["eval", "--help"],
        ["explain", "--help"],
        ["synth", "--help"],
        ["ablate", "--help"],
    ):
        assert run(argv) == 0


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "surgraph.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "surgraph" in proc.stdout


def test_train_without_val_builds_each_window_once(dataset, tmp_path, monkeypatch, capsys):
    from surgraph import pipeline

    manifest = load_manifest(dataset)
    train_videos = [v for v in manifest.videos if v.split == "train"]
    raw = {
        "fps": 1,
        "videos": [
            {"id": v.video_id, "mask_dir": str(v.mask_dir), "phase_csv": str(v.phase_csv),
             "split": v.split}
            for v in train_videos
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(raw))
    calls = []
    build = pipeline.build_dynamic_graph
    monkeypatch.setattr(
        pipeline, "build_dynamic_graph", lambda *a, **k: calls.append(1) or build(*a, **k)
    )
    history = tmp_path / "history.json"
    code = run(
        ["train", "--manifest", str(tmp_path / "manifest.json"),
         "--out-checkpoint", str(tmp_path / "m.ckpt"), "--history", str(history),
         "--window", "3", "--dilation", "1", "--epochs", "3", "--batch-size", "16",
         "--seed", "0", "--features", "class", "--num-classes", "17"]
    )
    assert code == 0
    frames = sum(len(list_mask_files(v.mask_dir)) for v in train_videos)
    assert len(calls) == frames
    last = json.loads(history.read_text())[-1]
    out = capsys.readouterr().out
    assert f"accuracy={last['train_accuracy']:.6f} macro_f1={last['train_macro_f1']:.6f}" in out


def test_build_graphs_skips_empty_frame(tmp_path, caplog):
    from surgraph.ingest import SegmentationMask, write_mask
    from surgraph.synth import generate_dataset, preset_distinct_tools

    cfg = preset_distinct_tools(n_frames=20, phase_frames=5, seed=3, video_id="test0",
                                split="test")
    manifest_path, manifest = generate_dataset(tmp_path / "data", [cfg], fps=1)
    blank = SegmentationMask(3, 3, np.zeros((3, 3), dtype=np.uint8), 5)
    write_mask(blank, load_manifest(manifest_path).videos[0].mask_dir / "000005.sgm")
    out = tmp_path / "graphs"
    with caplog.at_level("WARNING"):
        code = run(["build-graphs", "--manifest", str(manifest_path), "--out", str(out),
                    "--mode", "dynamic", "--window", "4", "--dilation", "1"])
    assert code == 0
    names = sorted(p.name for p in out.glob("*.json"))
    assert len(names) == 19 and "test0_000005.json" not in names
    assert all(5 not in json.loads((out / n).read_text())["frames"] for n in names)
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 1 frame(s) with no segment >= 10 px: test0/5"
    ]


def test_build_graphs_windows_match_build_samples(tmp_path, monkeypatch, caplog):
    # build-graphs and build_samples share one frame loader and one window
    # iterator: same windows, same skips, one window built per written file
    from surgraph import pipeline
    from surgraph.dynamic_graph import graph_from_json
    from surgraph.gcn import normalize_adjacency
    from surgraph.ingest import SegmentationMask, write_mask
    from surgraph.synth import generate_dataset, preset_distinct_tools

    cfg = preset_distinct_tools(n_frames=20, phase_frames=5, seed=3, video_id="v0")
    manifest_path, _ = generate_dataset(tmp_path / "data", [cfg], fps=1)
    manifest = load_manifest(manifest_path)
    blank = SegmentationMask(3, 3, np.zeros((3, 3), dtype=np.uint8), 5)
    write_mask(blank, manifest.videos[0].mask_dir / "000005.sgm")

    built = []
    build = pipeline.build_dynamic_graph
    monkeypatch.setattr(
        pipeline, "build_dynamic_graph", lambda *a, **k: built.append(1) or build(*a, **k)
    )
    out = tmp_path / "graphs"
    with caplog.at_level("WARNING"):
        code = run(["build-graphs", "--manifest", str(manifest_path), "--out", str(out),
                    "--mode", "dynamic", "--window", "4", "--dilation", "2",
                    "--features", "class,spatial,size,temporal"])
    assert code == 0
    files = sorted(out.glob("*.json"))
    assert len(built) == len(files) == 19

    train_cfg = TrainConfig(
        feature_config=FeatureConfig(num_classes=17, use_spatial=True, use_size=True,
                                     use_temporal=True),
        window=4,
        dilation=2,
    )
    with caplog.at_level("WARNING"):
        samples = {(s.video_id, s.frame_index): s
                   for s in pipeline.build_samples(list(manifest.videos), train_cfg)}
    assert sorted(f"{v}_{f:06d}.json" for v, f in samples) == [p.name for p in files]
    for path in files:
        data = json.loads(path.read_text())
        sample = samples[("v0", data["frame"])]
        graph = graph_from_json(data)
        assert graph.x.tobytes() == sample.x.tobytes()
        adjacency = normalize_adjacency(graph)
        for ours, theirs in zip(
            (adjacency.rows, adjacency.cols, adjacency.values),
            (sample.adjacency.rows, sample.adjacency.cols, sample.adjacency.values),
        ):
            assert ours.tobytes() == theirs.tobytes()
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 1 frame(s) with no segment >= 10 px: v0/5"
    ] * 2


def test_build_graphs_dynamic_files_match_dict_path(dataset, tmp_path):
    # every file equals json.dumps of the full dict, which export wrote before
    # it spliced in cached node text
    from surgraph.dynamic_graph import (
        WindowConfig,
        build_dynamic_graph,
        dynamic_graph_to_json,
        select_window,
    )
    from surgraph.ingest import load_embeddings
    from surgraph.scene_graph import build_static_graph

    out = tmp_path / "graphs"
    code = run(
        ["build-graphs", "--manifest", str(dataset), "--out", str(out), "--mode", "dynamic",
         "--window", "4", "--dilation", "2", "--features", "class,spatial,size,temporal",
         "--segment-mode", "per-component", "--min-segment-pixels", "3"]
    )
    assert code == 0
    cfg = FeatureConfig(num_classes=17, use_spatial=True, use_size=True, use_temporal=True,
                        segment_mode="per-component", min_segment_pixels=3)
    manifest = load_manifest(dataset)
    expected = {}
    for video in manifest.videos:
        static = {
            f: build_static_graph(load_mask(p, frame_index=f), None, cfg)
            for f, p in list_mask_files(video.mask_dir)
        }
        for f in static:
            graphs = [static[i] for i in select_window(f, 4, 2) if i in static]
            data = dynamic_graph_to_json(build_dynamic_graph(graphs, WindowConfig(4, 2)))
            data["context_s"] = 8.0
            expected[f"{video.video_id}_{f:06d}.json"] = json.dumps(data) + "\n"
    written = {p.name: p.read_text() for p in out.glob("*.json")}
    assert written.keys() == expected.keys()
    assert [n for n in expected if written[n] != expected[n]] == []


def test_failed_build_graphs_keeps_earlier_export_files(dataset, tmp_path, full_disk):
    out = tmp_path / "graphs"
    argv = ["build-graphs", "--manifest", str(dataset), "--out", str(out), "--mode", "dynamic",
            "--window", "3", "--dilation", "1", "--split", "test"]
    assert run([*argv, "--features", "class"]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    # the rerun writes other features; its second file fails part-way
    full_disk(spare=1)
    assert run([*argv, "--features", "class,size"]) == 2
    now = {p.name: p.read_bytes() for p in out.iterdir()}
    assert now.keys() == earlier.keys()  # no temporary file is left behind
    first, second, *rest = sorted(earlier)
    assert now[first] != earlier[first]  # replaced whole before the failure
    json.loads(now[first])
    assert [name for name in [second, *rest] if now[name] != earlier[name]] == []


def _train_argv(manifest, out, seed):
    return ["train", "--manifest", str(manifest), "--out-checkpoint", str(out / "m.ckpt"),
            "--history", str(out / "history.json"), "--window", "2", "--dilation", "1",
            "--epochs", "2", "--batch-size", "16", "--seed", str(seed), "--features", "class",
            "--num-classes", "17"]


def test_failed_train_keeps_earlier_history_and_new_checkpoint(
    dataset, tmp_path, monkeypatch, full_disk
):
    import surgraph.cli
    from surgraph.gcn import load_checkpoint

    assert run(_train_argv(dataset, tmp_path, seed=0)) == 0
    history = (tmp_path / "history.json").read_bytes()
    checkpoint = (tmp_path / "m.ckpt").read_bytes()
    write_history = surgraph.cli.write_history

    def write_on_a_full_disk(*args):
        full_disk()
        return write_history(*args)

    monkeypatch.setattr(surgraph.cli, "write_history", write_on_a_full_disk)
    assert run(_train_argv(dataset, tmp_path, seed=1)) == 2
    assert (tmp_path / "history.json").read_bytes() == history
    # the second run's checkpoint replaced the first one atomically and stays
    assert (tmp_path / "m.ckpt").read_bytes() != checkpoint
    load_checkpoint(tmp_path / "m.ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["history.json", "m.ckpt"]


@pytest.mark.parametrize(
    "body, line",
    [("frame,phase\n0,3\n2\n", 3), ("frame,phase\n0,x\n", 2), ("frame;phase\n0;3\n", 1)],
    ids=["short-row", "non-integer", "wrong-header"],
)
def test_train_names_the_malformed_phase_csv(dataset, tmp_path, capsys, body, line):
    raw = json.loads(dataset.read_text())
    for video in raw["videos"]:
        for key in ("mask_dir", "phase_csv"):
            video[key] = str(dataset.parent / video[key])
    phases = tmp_path / "phases.csv"
    phases.write_text(body)
    raw["videos"][0]["phase_csv"] = str(phases)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    assert run(_train_argv(manifest, tmp_path, seed=0)) == 2
    assert f"error: {phases}: line {line}: " in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def _manifest_with_nan_embedding(dataset, tmp_path, split):
    manifest = load_manifest(dataset)
    video = next(v for v in manifest.videos if v.split == split)
    table = tmp_path / "embeddings.json"
    table.write_text('{"0": {"seg_0": [0.5, 1.0]}, "3": {"seg_4": [NaN, 1.0]}}')
    raw = {"fps": 1, "videos": [
        {"id": v.video_id, "mask_dir": str(v.mask_dir), "phase_csv": str(v.phase_csv),
         "split": v.split, **({"embeddings": str(table)} if v is video else {})}
        for v in manifest.videos
    ]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(raw))
    return path, table


def test_build_graphs_rejects_non_finite_embedding(dataset, tmp_path, capsys):
    manifest, table = _manifest_with_nan_embedding(dataset, tmp_path, "test")
    out = tmp_path / "graphs"
    code = run(["build-graphs", "--manifest", str(manifest), "--out", str(out),
                "--mode", "dynamic", "--window", "3", "--features", "class,embedding",
                "--split", "test"])
    assert code == 2
    assert f"{table}: embedding of frame 3, segment seg_4" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_non_finite_embedding(dataset, tmp_path, capsys):
    manifest, table = _manifest_with_nan_embedding(dataset, tmp_path, "train")
    argv = _train_argv(manifest, tmp_path, seed=0)
    argv[argv.index("class")] = "class,embedding"
    assert run(argv) == 2
    assert f"{table}: embedding of frame 3, segment seg_4" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("failing", ["dot", "json"])
def test_failed_explain_keeps_earlier_outputs(
    checkpoint, dataset, tmp_path, monkeypatch, full_disk, failing
):
    import surgraph.cli

    ckpt, _ = checkpoint
    graphs = tmp_path / "graphs"
    assert run(
        [
            "build-graphs", "--manifest", str(dataset), "--out", str(graphs),
            "--mode", "dynamic", "--window", "3", "--dilation", "1",
            "--split", "test", "--num-classes", "17",
        ]
    ) == 0
    out = tmp_path / "out"
    out.mkdir()
    dot_out, json_out = out / "expl.dot", out / "expl.json"
    dot_out.write_text("earlier dot\n")
    json_out.write_text("earlier json\n")
    if failing == "dot":
        full_disk()
    else:
        write_explanation_json = surgraph.cli.write_explanation_json

        def write_on_a_full_disk(*args):
            full_disk()
            return write_explanation_json(*args)

        monkeypatch.setattr(surgraph.cli, "write_explanation_json", write_on_a_full_disk)
    code = run(
        [
            "explain", "--checkpoint", str(ckpt), "--graph", str(sorted(graphs.glob("*.json"))[10]),
            "--dot-out", str(dot_out), "--json-out", str(json_out), "--iterations", "5",
        ]
    )
    assert code == 2
    assert json_out.read_text() == "earlier json\n"
    if failing == "dot":
        assert dot_out.read_text() == "earlier dot\n"
    else:
        assert dot_out.read_text().startswith("graph G {")
    assert sorted(p.name for p in out.iterdir()) == ["expl.dot", "expl.json"]


def test_main_logs_training_progress_to_stderr(dataset, tmp_path):
    # run() leaves logging alone for callers that embed it; the console
    # entry point shows the per-epoch lines
    proc = subprocess.run(
        [sys.executable, "-m", "surgraph.cli", *_train_argv(dataset, tmp_path, seed=0)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "INFO:surgraph.pipeline:epoch 0: train_loss=" in proc.stderr
    assert "INFO:surgraph.pipeline:epoch 1: train_loss=" in proc.stderr
    assert proc.stdout.startswith("accuracy=") and "epoch" not in proc.stdout


_PHASE = {"phase_id": 4, "duration": 12, "tools": [14]}
_MISTYPED = [
    ("train", {"epochs": 2.5}, "epochs"),
    ("train", {"lr": "x"}, "lr"),
    ("train", {"feature_config": {"min_segment_pixels": "5"}}, "min_segment_pixels"),
    ("train", {"seed": "a"}, "seed"),
    ("train", {"batch_size": True}, "batch_size"),
    ("train", {"patience": 1.5}, "patience"),
    ("train", {"hidden_dims": ["4"]}, "hidden_dims"),
    ("ablate", {"epochs": 2.5}, "epochs"),
    ("checkpoint", {"epochs": 2.5}, "epochs"),
    ("synth", {"seed": "x"}, "seed"),
    ("synth", {"width": 32.5}, "width"),
    ("synth", {"video_id": 5}, "video_id"),
    ("synth", {"phase_script": [{**_PHASE, "duration": 2.5}]}, "duration"),
    ("synth", {"video_id": "../esc"}, "video_id"),
    ("synth", {"split": "holdout"}, "split"),
    ("synth", {"phase_script": [{**_PHASE, "touch": [[14, 8]]}]}, "phase 4"),
]


@pytest.mark.parametrize(
    "command, fields, key", _MISTYPED,
    ids=[f"{c}-{k}-{i}" for i, (c, _, k) in enumerate(_MISTYPED)],
)
def test_a_bad_config_value_exits_naming_the_file_and_the_key(
    dataset, tmp_path, capsys, command, fields, key
):
    """``fields`` go into a train config, a grid entry, a checkpoint's stored
    config or the first video of a synth config. The command returns, without
    a traceback, and leaves nothing but the config in ``tmp_path``."""
    out = tmp_path / "out"
    if command == "synth":
        config = _synth_config(tmp_path, 1)
        raw = json.loads(config.read_text())
        raw["videos"][0].update(fields)
        config.write_text(json.dumps(raw))
        argv = ["synth", "--config", config, "--out", out / "data"]
    elif command == "checkpoint":
        config = tmp_path / "stored.ckpt"
        model = init_model(GcnConfig(input_dim=17, hidden_dims=(4,), num_classes=19))
        save_checkpoint(model, config, extra={"train_config": fields})
        argv = ["eval", "--checkpoint", config, "--manifest", dataset]
    elif command == "ablate":
        config = tmp_path / "grid.json"
        config.write_text(json.dumps([fields]))
        argv = ["ablate", "--manifest", dataset, "--grid", config, "--out-csv", out / "a.csv"]
    else:
        config = tmp_path / "train.json"
        config.write_text(json.dumps(fields))
        argv = ["train", "--manifest", dataset, "--config", config,
                "--out-checkpoint", out / "m.ckpt"]
    assert run([str(a) for a in argv]) == (2 if command == "checkpoint" else 1)
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith(f"error: {config}: ") and key in first
    assert [p.name for p in tmp_path.iterdir()] == [config.name]


@pytest.mark.parametrize(
    "stored", [{"feature_config": {"num_classes": 16}}, None], ids=["narrower", "absent"]
)
def test_eval_names_the_checkpoint_whose_model_the_feature_config_does_not_fit(
    dataset, tmp_path, capsys, stored
):
    model = init_model(GcnConfig(input_dim=18, hidden_dims=(4,), num_classes=19))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt, extra={} if stored is None else {"train_config": stored})
    assert run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset)]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: the model takes 18-d node features, the feature config gives "
        f"{16 if stored else 17}\n"
    )


def test_embedding_features_without_embeddings_exit_1(dataset, tmp_path, capsys):
    out = tmp_path / "graphs"
    assert run(["build-graphs", "--manifest", str(dataset), "--out", str(out),
                "--features", "embedding"]) == 1
    assert "at least one feature block must be active" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "preset, n_frames, minimum",
    [("distinct-tools", 3, 4), ("order-dependent", 1, 2), ("planted-contact", 1, 2)],
)
def test_synth_below_the_preset_minimum_names_the_flag(tmp_path, capsys, preset, n_frames, minimum):
    out = tmp_path / "data"
    assert run(["synth", "--out", str(out), "--preset", preset, "--n-frames", str(n_frames)]) == 1
    assert capsys.readouterr().err == (
        f"error: --n-frames {n_frames} is below the {preset} preset's minimum of {minimum} frames\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "damage, detail",
    [(lambda blob: b"XXXX" + blob[4:], "frame 20: expected magic b'SGM1', got b'XXXX'"),
     (lambda blob: blob[:12] + bytes([17] * 20) + blob[32:], "class id 17 outside one-hot of 17")],
    ids=["bad-magic", "class-outside-one-hot"],
)
def test_a_frame_error_names_the_mask_file(dataset, tmp_path, capsys, damage, detail):
    victim = load_manifest(dataset).videos[-1].mask_dir / "000020.sgm"
    original = victim.read_bytes()
    victim.write_bytes(damage(original))
    try:
        code = run(["build-graphs", "--manifest", str(dataset), "--out", str(tmp_path / "g"),
                    "--split", "test", "--num-classes", "17"])
    finally:
        victim.write_bytes(original)
    assert code == 2
    assert capsys.readouterr().err == f"error: {victim}: {detail}\n"
