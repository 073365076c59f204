import json
import subprocess
import sys

import numpy as np
import pytest

from surgraph.cli import run
from surgraph.gcn import GcnConfig, init_model, save_checkpoint
from surgraph.ingest import list_mask_files, load_manifest, load_mask
from surgraph.pipeline import ABLATION_CSV_HEADER, TrainConfig
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
    assert err.startswith("error: adjacency entry") and "given twice" in err
    assert not dot_out.exists()


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
    from surgraph.dynamic_graph import dynamic_graph_from_json
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
        graph = dynamic_graph_from_json(data, train_cfg.feature_config)
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
