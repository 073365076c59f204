#!/usr/bin/env python3
"""Sweep window size and feature blocks, collect one CSV of results."""

import dataclasses
from pathlib import Path

from surgraph.pipeline import TrainConfig, run_ablation, write_ablation_csv
from surgraph.scene_graph import FeatureConfig
from surgraph.synth import generate_dataset, preset_order_dependent

out = Path(__file__).with_name("out")
out.mkdir(exist_ok=True)

# the order-dependent preset alternates two phases every 5 frames, so a
# 10-frame window holds the same frame multiset for both labels: aggregation
# without the temporal block collapses to chance, worse than no window at all
configs = [
    preset_order_dependent(half_period=5, n_frames=100, seed=seed, video_id=vid,
                           split=split)
    for seed, vid, split in [
        (0, "t0", "train"), (1, "t1", "train"), (5, "v0", "val"), (7, "e0", "test"),
    ]
]
_, manifest = generate_dataset(out / "ablation_dataset", configs, fps=1)

base = TrainConfig(
    feature_config=FeatureConfig(num_classes=17, use_temporal=True),
    window=10,
    dilation=1,
    epochs=30,
    batch_size=16,
    lr=3e-3,
    seed=0,
    patience=8,
    num_classes=19,
    hidden_dims=(16, 16, 32, 16),
)
grid = [
    base,
    dataclasses.replace(
        base, feature_config=dataclasses.replace(base.feature_config, use_temporal=False)
    ),
    dataclasses.replace(base, window=1),
]

rows = run_ablation(grid, manifest)
csv_path = out / "ablation.csv"
write_ablation_csv(rows, csv_path, fps=1.0)

print(csv_path.read_text())
for row in rows:
    kind = "static" if row.config.window == 1 else "dynamic"
    temp = "temporal" if row.config.feature_config.use_temporal else "plain"
    if row.metrics is None:
        print(f"{kind:7s} {temp:8s} window {row.config.window:3d}: failed ({row.error})")
    else:
        print(f"{kind:7s} {temp:8s} window {row.config.window:3d}: "
              f"accuracy {row.metrics.accuracy:.3f}, macro F1 {row.metrics.macro_f1:.3f}")
