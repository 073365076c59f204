"""The names the benchmark's traced run patches or calls must exist in surgraph.

``bench/tracing.py`` times modules by replacing module attributes for the
duration of a run; a refactor that renames one of them would otherwise only
show up when the traced benchmark runs.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import surgraph.cli
import surgraph.gcn
import surgraph.pipeline
from surgraph.numerics import SparseAdjacency
from surgraph.pipeline import TrainConfig, build_samples, split_dataset, train
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
