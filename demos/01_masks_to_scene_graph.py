#!/usr/bin/env python3
"""From a raw class-id mask to a featured scene graph, step by step."""

from pathlib import Path

import numpy as np

from surgraph.ingest import default_label_map, load_mask, write_mask
from surgraph.scene_graph import (
    FeatureConfig,
    build_static_graph,
    compute_adjacency,
    extract_segments,
)
from surgraph.synth import generate_sequence, preset_planted_contact

out = Path(__file__).with_name("out")
out.mkdir(exist_ok=True)

# one synthetic cataract-style frame: pupil/iris/cornea rings plus a tool
masks, track, _ = generate_sequence(preset_planted_contact(n_frames=4, seed=3))
mask = masks[0]
labels = default_label_map()
print(f"frame {mask.frame_index}: {mask.width}x{mask.height}, "
      f"classes present: {sorted(int(c) for c in np.unique(mask.class_ids))}")

# the .sgm container round-trips the grid byte for byte
path = out / "frame0.sgm"
write_mask(mask, path)
again = load_mask(path, frame_index=0)
print(f"wrote {path.name} ({path.stat().st_size} bytes), "
      f"round-trip exact: {np.array_equal(mask.class_ids, again.class_ids)}")

# segments: one region per class above the pixel threshold, as arrays
cfg = FeatureConfig(num_classes=17, use_spatial=True, use_size=True)
segments = extract_segments(mask, cfg)
classes = segments.class_ids.tolist()
for c, count, (cx, cy) in zip(
    classes, segments.pixel_counts.tolist(), segments.centroids.tolist()
):
    print(f"  segment class {c:2d} {labels.name_of(c):<22} "
          f"{count:4d} px  centroid ({cx:.2f}, {cy:.2f})")

# adjacency: which segments share a pixel border
edges = compute_adjacency(segments)
for i, j in edges:
    print(f"  edge {labels.name_of(classes[i])} -- {labels.name_of(classes[j])}")

# the full graph carries one feature row per segment
graph = build_static_graph(mask, None, cfg)
x = graph.feature_matrix()
print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
      f"feature dim {x.shape[1]} (17 class + 16 spatial + 1 size)")
print(f"node 0 one-hot argmax = class {int(np.argmax(x[0, :17]))}, "
      f"size fraction = {x[0, -1]:.3f}")
