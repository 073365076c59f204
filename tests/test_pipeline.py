import dataclasses
import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import mixed_eval_samples
from surgraph import pipeline
from surgraph.errors import (
    DimensionMismatch,
    EmptyEvalSet,
    EmptyGraph,
    EmptyTrainSet,
    NonFiniteLoss,
    OverlappingSplits,
    ShapeMismatch,
)
from surgraph.gcn import forward_prepared, normalize_adjacency
from surgraph.ingest import (
    DatasetManifest,
    SegmentationMask,
    VideoEntry,
    load_manifest,
    write_mask,
)
from surgraph.metrics import compute_metrics
from surgraph.numerics import SparseAdjacency
from surgraph.pipeline import (
    ABLATION_CSV_HEADER,
    AblationRow,
    GraphSample,
    TrainConfig,
    build_samples,
    evaluate,
    fit,
    run_ablation,
    split_dataset,
    train,
    write_ablation_csv,
    write_history,
)
from surgraph.scene_graph import FeatureConfig
from surgraph.synth import generate_dataset, preset_distinct_tools


def _entry(vid, split):
    # split_dataset only inspects ids and split names
    return VideoEntry(video_id=vid, mask_dir=".", phase_csv=".", split=split)


def test_split_dataset_buckets():
    manifest = DatasetManifest(
        fps=1,
        videos=tuple(
            _entry(f"v{i}", s)
            for i, s in enumerate(["train"] * 6 + ["val"] * 2 + ["test"] * 2)
        ),
    )
    tr, va, te = split_dataset(manifest)
    assert (len(tr), len(va), len(te)) == (6, 2, 2)
    assert [v.video_id for v in va] == ["v6", "v7"]


def test_split_dataset_overlap_rejected():
    manifest = DatasetManifest(
        fps=1, videos=(_entry("a", "train"), _entry("a", "test"))
    )
    with pytest.raises(OverlappingSplits):
        split_dataset(manifest)


def test_split_dataset_duplicate_same_split_ok():
    manifest = DatasetManifest(
        fps=1, videos=(_entry("a", "train"), _entry("a", "train"))
    )
    tr, _, _ = split_dataset(manifest)
    assert len(tr) == 2


SMALL_TRAIN = TrainConfig(
    feature_config=FeatureConfig(num_classes=17),
    window=3,
    dilation=1,
    epochs=40,
    batch_size=16,
    lr=0.01,
    seed=0,
    patience=40,
    num_classes=19,
    hidden_dims=(8, 8),
)


def test_build_samples_one_per_frame(tiny_manifest):
    tr, _, _ = split_dataset(tiny_manifest)
    samples = build_samples(tr[:1], SMALL_TRAIN)
    assert len(samples) == 40
    assert samples[0].video_id == "train0"
    assert [s.frame_index for s in samples[:4]] == [0, 1, 2, 3]
    # truncated window at the video start still yields a sample
    assert samples[0].x.shape[1] == SMALL_TRAIN.feature_config.feature_dim
    assert samples[0].label == 3  # first scripted phase


def test_build_samples_threaded_matches_serial(tiny_manifest):
    tr, _, _ = split_dataset(tiny_manifest)
    serial = build_samples(tr, SMALL_TRAIN, threads=1)
    threaded = build_samples(tr, SMALL_TRAIN, threads=2)
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert (a.video_id, a.frame_index, a.label) == (b.video_id, b.frame_index, b.label)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.adjacency.to_dense(), b.adjacency.to_dense())


def test_train_fits_separable_phases(tiny_manifest):
    model, history = train(SMALL_TRAIN, tiny_manifest)
    losses = [h["train_loss"] for h in history]
    assert all(b < a for a, b in zip(losses[:5], losses[1:6]))
    tr, _, te = split_dataset(tiny_manifest)
    # phase-boundary windows mix two tools, so a couple of samples stay ambiguous
    train_metrics = evaluate(model, build_samples(tr, SMALL_TRAIN))
    assert train_metrics.accuracy >= 0.95
    test_metrics = evaluate(model, build_samples(te, SMALL_TRAIN))
    assert test_metrics.accuracy >= 0.9
    assert {"epoch", "train_loss", "val_accuracy", "val_macro_f1"} <= set(history[0])


def test_train_is_seed_reproducible(tiny_manifest):
    m1, h1 = train(SMALL_TRAIN, tiny_manifest)
    m2, h2 = train(SMALL_TRAIN, tiny_manifest)
    assert h1 == h2
    np.testing.assert_array_equal(m1.to_vector(), m2.to_vector())


def test_train_empty_train_split():
    manifest = DatasetManifest(fps=1, videos=(_entry("a", "val"),))
    with pytest.raises(EmptyTrainSet):
        train(SMALL_TRAIN, manifest)


def test_fit_on_built_samples_matches_train(tiny_manifest):
    cfg = dataclasses.replace(SMALL_TRAIN, epochs=4)
    model, history = train(cfg, tiny_manifest)
    train_videos, val_videos, _ = split_dataset(tiny_manifest)
    fitted, fit_history = fit(
        cfg, build_samples(train_videos, cfg), build_samples(val_videos, cfg)
    )
    assert json.dumps(fit_history) == json.dumps(history)
    assert fitted.vector.tobytes() == model.vector.tobytes()


def test_fit_empty_train_samples():
    with pytest.raises(EmptyTrainSet):
        fit(SMALL_TRAIN, [], [])


def test_predict_matches_evaluate(tiny_manifest):
    model, _ = train(SMALL_TRAIN, tiny_manifest)
    _, _, te = split_dataset(tiny_manifest)
    samples = build_samples(te, SMALL_TRAIN)
    preds = [forward_prepared(model, s.x, s.adjacency)[2] for s in samples]
    metrics = evaluate(model, samples)
    manual = compute_metrics([s.label for s in samples], preds, model.config.num_classes)
    assert metrics.accuracy == manual.accuracy


def test_stacked_evaluate_matches_one_forward_per_window():
    # one shuffled list holds a node count with a single window, a group
    # split over several stacks, and windows of 63 (dense) and 64 (CSR) nodes
    model, samples = mixed_eval_samples()
    preds = [forward_prepared(model, s.x, s.adjacency)[2] for s in samples]
    assert len(set(preds)) >= 3
    expected = compute_metrics([s.label for s in samples], preds, model.config.num_classes)
    got = evaluate(model, samples)
    assert (got.accuracy, got.macro_f1, got.per_class) == (
        expected.accuracy, expected.macro_f1, expected.per_class
    )
    assert np.array_equal(got.confusion, expected.confusion)


@pytest.mark.parametrize(
    "damage, error",
    [
        (lambda s: dataclasses.replace(s, x=s.x[:-1]), ShapeMismatch),
        (lambda s: dataclasses.replace(s, x=s.x[:, :-1]), DimensionMismatch),
        (
            lambda s: dataclasses.replace(
                s, x=s.x[:0], adjacency=SparseAdjacency.from_triples(0, [], [], [])
            ),
            EmptyGraph,
        ),
    ],
    ids=["rows-disagree", "feature-dim", "empty"],
)
def test_evaluate_raises_for_a_window_the_model_cannot_take(damage, error):
    model, samples = mixed_eval_samples()
    k = next(k for k, s in enumerate(samples) if s.x.shape[0] == 10)  # one of a stacked group
    samples[k] = damage(samples[k])
    with pytest.raises(error):
        evaluate(model, samples)


def test_evaluate_empty():
    with pytest.raises(EmptyEvalSet):
        evaluate(None, [])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(window=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError, match="unknown label_policy 'middle'"):
        TrainConfig(label_policy="middle")


def test_train_config_json_round_trip():
    cfg = TrainConfig(
        feature_config=FeatureConfig(num_classes=15, use_spatial=True),
        window=10,
        dilation=2,
        hidden_dims=(4, 4),
        label_policy="center",
    )
    assert TrainConfig.from_json(cfg.to_json()) == cfg
    assert TrainConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def test_write_history(tmp_path):
    path = tmp_path / "history.json"
    write_history([{"epoch": 0, "train_loss": 1.5}], path)
    assert json.loads(path.read_text()) == [{"epoch": 0, "train_loss": 1.5}]


def test_failed_history_write_keeps_earlier_file(tmp_path, full_disk):
    path = tmp_path / "history.json"
    write_history([{"epoch": 0, "train_loss": 1.5}], path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError):
        write_history([{"epoch": e, "train_loss": 1.0 / (e + 1)} for e in range(5)], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_train_matches_per_array_reference_loop(tiny_manifest):
    # the batch sum, 1/B scaling and Adam step on flat buffers against the
    # per-array loop they replaced; with no val split the final model returns
    from test_gcn import (
        _RefAdamState,
        _ref_adam_step,
        _ref_add_gradients,
        _ref_scale_gradients,
        _ref_zeros,
    )

    from surgraph.gcn import AdamHyper, GcnConfig, init_model, loss_and_gradients_prepared

    manifest = dataclasses.replace(
        tiny_manifest, videos=tuple(v for v in tiny_manifest.videos if v.split == "train")
    )
    cfg = dataclasses.replace(SMALL_TRAIN, epochs=3, batch_size=12)  # 80 samples: last batch 8
    model, history = train(cfg, manifest)

    samples = build_samples(list(manifest.videos), cfg)
    ref = init_model(GcnConfig(samples[0].feature_dim, cfg.hidden_dims, cfg.num_classes, cfg.seed))
    state = _RefAdamState(m=_ref_zeros(ref), v=_ref_zeros(ref))
    hyper = AdamHyper(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = _ref_zeros(ref)
            for idx in batch:
                s = samples[idx]
                loss, grads = loss_and_gradients_prepared(ref, s.x, s.adjacency, s.label)
                epoch_losses.append(loss)
                acc = _ref_add_gradients(acc, grads)
            ref, state = _ref_adam_step(ref, _ref_scale_gradients(acc, 1.0 / len(batch)), state, hyper)
        losses.append(float(np.mean(epoch_losses)))
    assert [h["train_loss"] for h in history] == losses
    assert np.array_equal(model.vector, ref.to_vector())


def test_train_returns_the_best_epoch_not_the_last(tiny_manifest):
    # adam_step updates the model in place, so train must copy the parameters
    # of the best validation epoch rather than keep a reference to the model
    cfg = dataclasses.replace(SMALL_TRAIN, epochs=8, lr=0.05)
    model, history = train(cfg, tiny_manifest)
    accuracies = [h["val_accuracy"] for h in history]
    best = accuracies.index(max(accuracies))
    assert best < len(history) - 1
    at_best, _ = train(dataclasses.replace(cfg, epochs=best + 1), tiny_manifest)
    assert np.array_equal(model.vector, at_best.vector)
    _, val_videos, _ = split_dataset(tiny_manifest)
    assert evaluate(model, build_samples(val_videos, cfg)).accuracy == max(accuracies)


ABLATE_BASE = TrainConfig(
    feature_config=FeatureConfig(num_classes=17),
    window=2,
    dilation=1,
    epochs=2,
    batch_size=16,
    lr=0.01,
    patience=2,
    hidden_dims=(6, 6),
)


def test_run_ablation_grid(tiny_manifest, caplog):
    import dataclasses

    grid = [
        ABLATE_BASE,
        dataclasses.replace(ABLATE_BASE, window=1),
        ABLATE_BASE,  # duplicate: skipped with a warning
        dataclasses.replace(ABLATE_BASE, num_classes=2),  # labels exceed head: fails
    ]
    with caplog.at_level(logging.WARNING, logger="surgraph.pipeline"):
        rows = run_ablation(grid, tiny_manifest)
    assert len(rows) == 3
    assert rows[0].metrics is not None
    assert rows[1].metrics is not None
    assert rows[2].metrics is None and rows[2].error
    assert any("duplicate" in r.message for r in caplog.records)


def test_write_ablation_csv(tmp_path):
    import dataclasses

    truth, preds = [0, 1, 1, 0], [0, 1, 0, 0]
    metrics = compute_metrics(truth, preds, num_classes=2)
    rows = [
        AblationRow(TrainConfig(window=30, dilation=1), metrics),
        AblationRow(
            dataclasses.replace(
                TrainConfig(window=30, dilation=3),
                feature_config=FeatureConfig(use_spatial=True, use_temporal=True),
            ),
            metrics,
        ),
        AblationRow(TrainConfig(window=1, dilation=1), None, error="boom"),
    ]
    path = tmp_path / "ablation.csv"
    write_ablation_csv(rows, path, fps=1.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ABLATION_CSV_HEADER
    assert lines[1] == "dynamic,0,0,0,0,30,1,30,0.750000,0.733333"
    assert lines[2].startswith("dynamic,1,0,0,1,30,3,90,")
    assert lines[3] == "static,0,0,0,0,1,1,1,,"


def test_failed_ablation_csv_write_keeps_earlier_file(tmp_path, full_disk):
    path = tmp_path / "ablation.csv"
    row = AblationRow(TrainConfig(window=1, dilation=1), None, error="boom")
    write_ablation_csv([row], path, fps=1.0)
    before = path.read_bytes()
    assert before == f"{ABLATION_CSV_HEADER}\r\nstatic,0,0,0,0,1,1,1,,\r\n".encode()
    full_disk()
    with pytest.raises(OSError):
        write_ablation_csv([row] * 5, path, fps=1.0)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_empty_frame_is_skipped_and_counted(tmp_path, monkeypatch, caplog):
    cfg = preset_distinct_tools(n_frames=20, phase_frames=5, seed=3, video_id="train0")
    manifest_path, _ = generate_dataset(tmp_path, [cfg], fps=1)
    manifest = load_manifest(manifest_path)
    # 9 pixels of one class: no segment reaches min_segment_pixels (10)
    blank = SegmentationMask(3, 3, np.zeros((3, 3), dtype=np.uint8), 5)
    write_mask(blank, manifest.videos[0].mask_dir / "000005.sgm")

    windows = []
    build = pipeline.build_dynamic_graph

    def recording(graphs, window_cfg):
        dyn = build(graphs, window_cfg)
        windows.append(dyn.frame_indices)
        return dyn

    monkeypatch.setattr(pipeline, "build_dynamic_graph", recording)
    train_cfg = dataclasses.replace(SMALL_TRAIN, window=4, dilation=1, epochs=2)
    with caplog.at_level(logging.WARNING, logger="surgraph.pipeline"):
        _, history = train(train_cfg, manifest)
    assert len(history) == 2
    assert len(windows) == 19
    assert not any(5 in frames for frames in windows)
    assert (3, 4, 6) in windows
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["skipped 1 frame(s) with no segment >= 10 px: train0/5"]


def test_unlabelled_frame_is_skipped_and_counted(tmp_path, caplog):
    cfg = preset_distinct_tools(n_frames=20, phase_frames=5, seed=3, video_id="v0")
    manifest_path, _ = generate_dataset(tmp_path, [cfg], fps=1)
    manifest = load_manifest(manifest_path)
    video = manifest.videos[0]
    rows = video.phase_csv.read_text().splitlines(keepends=True)
    kept = [row for row in rows if not row.startswith("7,")]
    assert len(kept) == len(rows) - 1
    video.phase_csv.write_text("".join(kept))

    train_cfg = dataclasses.replace(SMALL_TRAIN, window=4, dilation=1, epochs=2)
    with caplog.at_level(logging.WARNING, logger="surgraph.pipeline"):
        samples = build_samples([video], train_cfg)
        _, history = train(train_cfg, manifest)
    assert len(history) == 2
    assert sorted(s.frame_index for s in samples) == [f for f in range(20) if f != 7]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["skipped 1 frame(s) with no phase label: v0/7"] * 2

    # an empty frame and an unlabelled one are named in the same line
    blank = SegmentationMask(3, 3, np.zeros((3, 3), dtype=np.uint8), 5)
    write_mask(blank, video.mask_dir / "000005.sgm")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="surgraph.pipeline"):
        samples = build_samples([video], train_cfg)
    assert len(samples) == 18
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 1 frame(s) with no segment >= 10 px: v0/5; "
        "1 frame(s) with no phase label: v0/7"
    ]


def test_fit_names_the_sample_whose_loss_is_not_finite():
    ends = np.array([[0, 1], [1, 2]])
    x = np.ones((3, 2))
    adjacency = normalize_adjacency(SimpleNamespace(x=x, edge_index=ends))
    bad = x.copy()
    bad[1, 0] = np.nan
    samples = [GraphSample("v1", 4, 0, x, adjacency), GraphSample("v2", 7, 1, bad, adjacency)]
    cfg = TrainConfig(epochs=2, batch_size=1, hidden_dims=(4,), num_classes=2)
    with pytest.raises(NonFiniteLoss, match=r"^epoch 0, video v2, frame 7: loss nan$"):
        fit(cfg, samples, [])
