"""The names the benchmark's traced run patches or calls must exist in surgraph.

``bench/tracing.py`` times modules by replacing module attributes for the
duration of a run; a refactor that renames one of them would otherwise only
show up when the traced benchmark runs.
"""

import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

import surgraph.cli
import surgraph.gcn
import surgraph.pipeline
from conftest import MIXED_EVAL_WINDOWS, mixed_eval_samples
from surgraph.numerics import DENSE_NODE_LIMIT, SparseAdjacency
from surgraph.pipeline import STACK_ROWS, TrainConfig, build_samples, evaluate, split_dataset, train
from surgraph.dynamic_graph import WindowConfig
from surgraph.scene_graph import FeatureConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_call_sites_exist(tracing):
    assert tracing._CALL_SITES
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in tracing._CALL_SITES
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
    # the per-layer forward metrics call this directly
    assert callable(surgraph.gcn.gcn_layer_forward)


def _patched_targets(tracing):
    targets = [(owner, attr) for owner, attr, _ in tracing._CALL_SITES]
    return targets + [(surgraph.cli, "json"), (SparseAdjacency, "apply")]


def test_traced_calls_patch_and_restore(tracing):
    targets = _patched_targets(tracing)
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    with tracing.traced_calls(tracer):
        inside = [getattr(owner, attr) for owner, attr in targets]
        assert all(a is not b for a, b in zip(inside, before))
        assert surgraph.cli.json.dumps([1]) == json.dumps([1])
    assert tracer.count("cli.json_dumps") == 1
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(targets, before))


def test_traced_calls_restore_after_an_error(tracing):
    targets = _patched_targets(tracing)
    before = [getattr(owner, attr) for owner, attr in targets]
    with pytest.raises(RuntimeError):
        with tracing.traced_calls(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(getattr(owner, attr) is b for (owner, attr), b in zip(targets, before))


def test_train_calls_through_the_traced_names(tiny_manifest, monkeypatch):
    # gcn.adam_step_ms and gcn.loss_grad_ms time calls made through these
    # pipeline attributes: one Adam step per batch, one gradient per sample
    calls = {"adam_step": 0, "loss_and_gradients_prepared": 0}
    for name in calls:
        original = getattr(surgraph.pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(surgraph.pipeline, name, counted)
    cfg = TrainConfig(
        feature_config=FeatureConfig(num_classes=17),
        window=2,
        dilation=1,
        epochs=3,
        batch_size=12,  # 80 samples: the last batch of each epoch holds 8
        hidden_dims=(6, 6),
    )
    _, history = train(cfg, tiny_manifest)
    samples = len(build_samples(split_dataset(tiny_manifest)[0], cfg))
    assert len(history) == 3
    assert calls["loss_and_gradients_prepared"] == 3 * samples
    assert calls["adam_step"] == 3 * math.ceil(samples / cfg.batch_size)


def test_evaluate_calls_through_the_traced_names(monkeypatch):
    # gcn.forward_ms and its p99 time the calls evaluate makes through this
    # attribute: one per stack of at most STACK_ROWS node rows, one per CSR
    # window. The benchmark's p99 needs 1,000 of them per traced round.
    rows = []  # node rows per call, and whether the call ran a stack
    original = surgraph.pipeline.forward_prepared

    def counted(model, x, anorm, workspace=None):
        rows.append((x.shape[0] * x.shape[1], True) if x.ndim == 3 else (x.shape[0], False))
        return original(model, x, anorm, workspace=workspace)

    monkeypatch.setattr(surgraph.pipeline, "forward_prepared", counted)
    model, samples = mixed_eval_samples()
    evaluate(model, samples)
    assert Counter(s.x.shape[0] for s in samples) == MIXED_EVAL_WINDOWS
    expected = sum(
        math.ceil(count / (STACK_ROWS // n)) if n < DENSE_NODE_LIMIT else count
        for n, count in MIXED_EVAL_WINDOWS.items()
    )
    assert len(rows) == expected == 12
    assert sum(r for r, _ in rows) == sum(s.x.shape[0] for s in samples)
    assert all(r <= STACK_ROWS if stacked else r >= DENSE_NODE_LIMIT for r, stacked in rows)


def test_dynamic_export_calls_through_the_traced_names(tiny_manifest, tmp_path, monkeypatch):
    # cli.export_json_ms pairs one dynamic_graph_to_json span with one
    # json.dumps span per written file, in call order
    from surgraph.ingest import write_manifest

    calls = {"dynamic_graph_to_json": 0, "dumps": 0}
    to_json = surgraph.cli.dynamic_graph_to_json

    def counted_to_json(*args, **kwargs):
        calls["dynamic_graph_to_json"] += 1
        return to_json(*args, **kwargs)

    class CountedJson:
        def dumps(self, *args, **kwargs):
            calls["dumps"] += 1
            return json.dumps(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(json, name)

    monkeypatch.setattr(surgraph.cli, "dynamic_graph_to_json", counted_to_json)
    monkeypatch.setattr(surgraph.cli, "json", CountedJson())
    write_manifest(tiny_manifest, tmp_path / "manifest.json")
    out = tmp_path / "graphs"
    code = surgraph.cli.run(
        ["build-graphs", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out),
         "--mode", "dynamic", "--window", "4", "--dilation", "2",
         "--features", "class,spatial,size,temporal", "--split", "test"]
    )
    assert code == 0
    files = len(list(out.glob("*.json")))
    assert files == 40
    assert calls == {"dynamic_graph_to_json": files, "dumps": files}


def test_iter_windows_calls_through_the_traced_name_once_per_window(tiny_manifest, monkeypatch):
    # dynamic_graph.window_ms and its p99 time the calls iter_windows makes
    # through this attribute, one per window; the track it cuts them from is
    # built outside them
    built = []
    original = surgraph.pipeline.build_dynamic_graph

    def counted(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(surgraph.pipeline, "build_dynamic_graph", counted)
    cfg = FeatureConfig(num_classes=17, use_temporal=True)
    static = surgraph.pipeline.load_static_graphs(tiny_manifest.videos[0], cfg, [])
    del static[7], static[20]  # gaps, as skipped frames leave them
    windows = list(surgraph.pipeline.iter_windows(static, WindowConfig(window=5, dilation=3)))
    assert len(windows) == len(static) == len(built)
    assert all(dyn is call for (_, dyn), call in zip(windows, built))
