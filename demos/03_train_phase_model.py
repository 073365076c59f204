#!/usr/bin/env python3
"""Train the windowed phase classifier on a synthetic dataset end to end."""

from pathlib import Path

from surgraph.gcn import save_checkpoint
from surgraph.pipeline import (
    TrainConfig,
    build_samples,
    evaluate,
    split_dataset,
    train,
    write_history,
)
from surgraph.scene_graph import FeatureConfig
from surgraph.synth import generate_dataset, preset_distinct_tools

out = Path(__file__).with_name("out")
out.mkdir(exist_ok=True)

# four phases, each with its own tool; 5% of tool pixels mislabelled per frame
configs = [
    preset_distinct_tools(n_frames=120, seed=seed, video_id=vid, split=split,
                          tool_noise=0.05)
    for seed, vid, split in [
        (0, "train0", "train"), (1, "train1", "train"), (2, "train2", "train"),
        (10, "val0", "val"), (20, "test0", "test"),
    ]
]
_, manifest = generate_dataset(out / "phases_dataset", configs, fps=1)
print(f"dataset: {len(manifest.videos)} videos x 120 frames")

cfg = TrainConfig(
    feature_config=FeatureConfig(num_classes=17, use_spatial=True, use_size=True,
                                 use_temporal=True),
    window=10,
    dilation=3,
    epochs=40,
    batch_size=16,
    lr=3e-3,
    seed=0,
    patience=8,
    num_classes=19,
    hidden_dims=(16, 16, 32, 16),
)
model, history = train(cfg, manifest)
print(f"trained {len(history)} epochs; last epoch: {history[-1]}")

_, _, test_videos = split_dataset(manifest)
metrics = evaluate(model, build_samples(test_videos, cfg, threads=2))
print(f"test accuracy {metrics.accuracy:.3f}, macro F1 {metrics.macro_f1:.3f}")
for c, score in enumerate(metrics.per_class):
    if score.support:
        print(f"  phase {c:2d}: precision {score.precision:.2f} "
              f"recall {score.recall:.2f} f1 {score.f1:.2f} ({score.support} windows)")

save_checkpoint(model, out / "phase_model.ckpt", step=len(history),
                extra={"train_config": cfg.to_json()})
write_history(history, out / "history.json")
print(f"saved {out / 'phase_model.ckpt'} and history.json")
