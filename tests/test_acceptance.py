"""Release acceptance suite: one test per criterion, each printing a verdict.

Unlike the unit tests these run end to end — seeded synthetic datasets,
real trainings, independent oracles — and the whole module takes a few
minutes. Every test prints a single ``[PASS]``/``[FAIL]`` line (straight to
the terminal, bypassing capture) before asserting, so the verdict table is
readable even from a failing run.
"""

import dataclasses
import json
import shutil
import statistics
import time

import numpy as np

from conftest import random_mask, stripe_mask
from test_gcn import FakeGraph

from surgraph.dynamic_graph import (
    WindowConfig,
    build_dynamic_graph,
    context_seconds,
    dynamic_graph_to_json,
    graph_from_json,
    graph_to_json,
)
from surgraph.explain import ExplainConfig, explain_prediction
from surgraph.gcn import (
    GcnConfig,
    forward,
    init_model,
    load_checkpoint,
    loss_and_gradients,
    normalize_adjacency,
    save_checkpoint,
)
from surgraph.ingest import list_mask_files, load_mask, mask_to_bytes, write_mask
from surgraph.numerics import grad_check
from surgraph.pipeline import TrainConfig, build_samples, evaluate, split_dataset, train
from surgraph.scene_graph import (
    FeatureConfig,
    build_static_graph,
    compute_adjacency,
    extract_segments,
)
from surgraph.synth import (
    PUPIL,
    corrupt_tool_classes,
    generate_dataset,
    generate_sequence,
    preset_distinct_tools,
    preset_order_dependent,
    preset_planted_contact,
)


def _verdict(report, number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    report(line)
    assert ok, line


# --- 1: spatial adjacency ------------------------------------------------------------


def _pixel_pair_adjacency(mask, segments):
    """Brute force: walk every pixel, look right and down, record class pairs."""
    rank = {c: k for k, c in enumerate(segments.class_ids.tolist())}
    ids = mask.class_ids
    h, w = ids.shape
    touching = set()
    for y in range(h):
        for x in range(w):
            c = int(ids[y, x])
            if x + 1 < w and int(ids[y, x + 1]) != c:
                a, b = rank[c], rank[int(ids[y, x + 1])]
                touching.add((min(a, b), max(a, b)))
            if y + 1 < h and int(ids[y + 1, x]) != c:
                a, b = rank[c], rank[int(ids[y + 1, x])]
                touching.add((min(a, b), max(a, b)))
    return sorted(touching)


def test_adjacency_matches_pixel_pair_oracle(report):
    cfg = FeatureConfig(num_classes=17, min_segment_pixels=1)
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(500):
        mask = random_mask(rng, max_side=32, max_classes=8)
        segments = extract_segments(mask, cfg)
        if compute_adjacency(segments) != _pixel_pair_adjacency(mask, segments):
            mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(
        report,
        1,
        "segment adjacency matches the pixel-pair oracle",
        mismatches == 0 and elapsed < 10.0,
        f"500 masks, {mismatches} mismatches, {elapsed:.1f}s",
    )


# --- 2: temporal edge rule -----------------------------------------------------------


def test_temporal_edges_match_enumeration_oracle(report):
    cfg = FeatureConfig(num_classes=17)
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(200):
        w = int(rng.integers(1, 11))
        per_step = [
            sorted(rng.choice(17, size=int(rng.integers(1, 6)), replace=False).tolist())
            for _ in range(w)
        ]
        graphs = [
            build_static_graph(stripe_mask(classes, frame_index=t), None, cfg)
            for t, classes in enumerate(per_step)
        ]
        dyn = build_dynamic_graph(graphs, WindowConfig(window=w, dilation=1))
        # same class, consecutive steps only; node order is timestep-major with
        # nodes sorted by class inside a step
        offsets = np.cumsum([0] + [len(c) for c in per_step])
        expected = set()
        for t in range(w - 1):
            for c in set(per_step[t]) & set(per_step[t + 1]):
                expected.add(
                    (
                        int(offsets[t]) + per_step[t].index(c),
                        int(offsets[t + 1]) + per_step[t + 1].index(c),
                    )
                )
        if set(dyn.temporal_edges()) != expected:
            mismatches += 1
    _verdict(
        report,
        2,
        "temporal edges match the enumeration oracle",
        mismatches == 0,
        f"200 windows, {mismatches} mismatches",
    )


# --- 3: context coverage -------------------------------------------------------------


CONTEXT_TABLE = [
    (30, 1, 30.0),
    (30, 3, 90.0),
    (30, 5, 150.0),
    (30, 10, 300.0),
    (100, 1, 100.0),
    (100, 3, 300.0),
    (100, 5, 500.0),
    (150, 1, 150.0),
    (150, 3, 450.0),
    (150, 5, 750.0),
]


def test_context_seconds_table(report):
    wrong = [
        (w, d) for w, d, want in CONTEXT_TABLE if context_seconds(w, d, 1.0) != want
    ]
    _verdict(
        report,
        3,
        "window/dilation context table is exact",
        not wrong,
        f"10 pairs at 1 fps, wrong: {wrong or 'none'}",
    )


# --- 4: architecture -----------------------------------------------------------------


def test_default_architecture_shapes(report):
    full = FeatureConfig(
        num_classes=15, use_spatial=True, use_size=True, use_temporal=True, use_embedding=True
    )
    model = init_model(GcnConfig(input_dim=full.feature_dim, num_classes=19, seed=0))
    got = [w.shape for w in model.weights]
    want = [
        (148, 64), (64, 64), (64, 128), (128, 128),
        (128, 192), (192, 128), (128, 64), (64, 64),
    ]
    ok = full.feature_dim == 148 and got == want and model.fc_weight.shape == (64, 19)
    _verdict(
        report,
        4,
        "stacked layer widths and head shape",
        ok,
        f"input dim {full.feature_dim}, head {model.fc_weight.shape}",
    )


# --- 5: gradient correctness ---------------------------------------------------------


def _min_abs_preactivation(model, graph):
    anorm = normalize_adjacency(graph)
    h = graph.feature_matrix()
    lo = np.inf
    for w, b in zip(model.weights, model.biases):
        z = anorm.apply(h @ w) + b
        lo = min(lo, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return lo


def _well_posed_draw(rng):
    """A random graph/model/label where central differences are a valid oracle.

    A 1e-5 parameter step moves preactivations by ~1e-5, so requiring every
    |preactivation| > 1e-3 means no ReLU kink is crossed and dead paths stay
    bitwise dead (their numeric difference is exactly zero, like the
    analytic gradient). Bounding the loss keeps the difference quotient's
    float64 roundoff near 1e-11 and stays far from the log clamp inside the
    cross-entropy. Finally, any coordinate whose gradient is alive but below
    2e-6 would be judged against that roundoff instead of a real slope, so
    those draws are rejected too.
    """
    while True:
        n = int(rng.integers(3, 41))
        x = rng.normal(size=(n, 8))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    kind = "temporal" if rng.random() < 0.5 else "spatial"
                    edges.append((i, j, kind))
        graph = FakeGraph(x, tuple(edges))
        model = init_model(
            GcnConfig(input_dim=8, hidden_dims=(6, 6), num_classes=4,
                      seed=int(rng.integers(0, 2**31)))
        )
        label = int(rng.integers(0, 4))
        if _min_abs_preactivation(model, graph) < 1e-3:
            continue
        loss, grads = loss_and_gradients(model, graph, label)
        if loss > 1.5:
            continue
        mags = np.abs(grads.to_vector())
        if np.any((mags > 0.0) & (mags < 2e-6)):
            continue
        return graph, model, label


def test_full_loss_gradients_match_central_differences(report):
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        graph, model, label = _well_posed_draw(rng)

        def f(vec, m=model, g=graph, y=label):
            loss, grads = loss_and_gradients(m.with_vector(vec), g, y)
            return loss, grads.to_vector()

        worst = max(worst, grad_check(f, model.to_vector(), eps=1e-5))
    elapsed = time.monotonic() - t0
    _verdict(
        report,
        5,
        "loss gradients match central differences",
        worst < 1e-4 and elapsed < 120.0,
        f"20 graphs, worst rel err {worst:.2e}, {elapsed:.0f}s",
    )


# --- 6: permutation invariance -------------------------------------------------------


def test_forward_is_permutation_invariant(report):
    rng = np.random.default_rng(11)
    model = init_model(GcnConfig(input_dim=12, hidden_dims=(8, 8), num_classes=5, seed=0))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 41))
        x = rng.normal(size=(n, 12))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    kind = "temporal" if rng.random() < 0.5 else "spatial"
                    edges.append((i, j, kind))
        perm = rng.permutation(n)
        inv = np.argsort(perm)  # old index -> new index
        permuted = tuple(
            (min(int(inv[i]), int(inv[j])), max(int(inv[i]), int(inv[j])), kind)
            for i, j, kind in edges
        )
        _, p1, _ = forward(model, FakeGraph(x, tuple(edges)))
        _, p2, _ = forward(model, FakeGraph(x[perm], permuted))
        worst = max(worst, float(np.max(np.abs(p1 - p2))))
    _verdict(
        report,
        6,
        "probabilities are node-order invariant",
        worst < 1e-6,
        f"100 graphs, worst delta {worst:.2e}",
    )


# --- 7: learnability -----------------------------------------------------------------


def test_windowed_model_learns_synthetic_phases(report, tmp_path):
    t0 = time.monotonic()
    configs = [
        preset_distinct_tools(
            n_frames=300, phase_frames=75, seed=seed, video_id=vid, split=split,
            tool_noise=0.05,
        )
        for seed, vid, split in [
            *((i, f"train{i}", "train") for i in range(6)),
            (100, "val0", "val"),
            (101, "val1", "val"),
            (200, "test0", "test"),
            (201, "test1", "test"),
        ]
    ]
    _, manifest = generate_dataset(tmp_path / "data", configs, fps=1)
    cfg = TrainConfig(
        feature_config=FeatureConfig(
            num_classes=17, use_spatial=True, use_size=True, use_temporal=True
        ),
        window=10,
        dilation=3,
        epochs=100,
        batch_size=32,
        lr=1e-3,
        seed=0,
        patience=10,
        num_classes=19,
        hidden_dims=(32, 32, 64, 64, 96, 64, 32, 32),
    )
    model, history = train(cfg, manifest)
    _, _, test_videos = split_dataset(manifest)
    metrics = evaluate(model, build_samples(test_videos, cfg, threads=2))
    elapsed = time.monotonic() - t0
    _verdict(
        report,
        7,
        "window=10 dilation=3 model fits noisy synthetic phases",
        metrics.accuracy >= 0.95 and len(history) <= 100 and elapsed < 600.0,
        f"test accuracy {metrics.accuracy:.3f}, {len(history)} epochs, {elapsed:.0f}s",
    )


# --- 8: temporal features matter -----------------------------------------------------


def test_temporal_encoding_beats_plain_on_order_dependent_phases(report, tmp_path):
    gaps = []
    for s in range(5):
        configs = [
            preset_order_dependent(
                half_period=5, n_frames=100, seed=s * 10 + idx,
                video_id=f"v{idx}", split=split,
            )
            for idx, split in [(0, "train"), (1, "train"), (5, "val"), (7, "test")]
        ]
        _, manifest = generate_dataset(tmp_path / f"d{s}", configs, fps=1)
        shared = dict(
            window=10, dilation=1, epochs=40, batch_size=16, lr=3e-3, seed=s,
            patience=10, num_classes=19, hidden_dims=(16, 16, 32, 16),
        )
        accs = {}
        for name, use_temporal in (("temporal", True), ("plain", False)):
            cfg = TrainConfig(
                feature_config=FeatureConfig(num_classes=17, use_temporal=use_temporal),
                **shared,
            )
            model, _ = train(cfg, manifest)
            _, _, test_videos = split_dataset(manifest)
            accs[name] = evaluate(model, build_samples(test_videos, cfg)).accuracy
        gaps.append(100.0 * (accs["temporal"] - accs["plain"]))
    med = statistics.median(gaps)
    _verdict(
        report,
        8,
        "temporal encoding wins on order-dependent phases",
        med >= 10.0,
        f"gaps {[f'{g:.0f}' for g in gaps]} pts, median {med:.0f} >= 10",
    )


# --- 9: robustness to corrupted frames -----------------------------------------------


def test_windows_absorb_corrupted_test_frames(report, tmp_path):
    drops = []
    for s in range(5):
        configs = [
            preset_distinct_tools(
                n_frames=200, phase_frames=50, seed=s * 10 + idx,
                video_id=f"v{idx}", split=split, tool_noise=noise,
            )
            for idx, split, noise in [
                (0, "train", 0.05),
                (1, "train", 0.05),
                (5, "val", 0.05),
                (7, "test", 0.0),
            ]
        ]
        root = tmp_path / f"d{s}"
        _, manifest = generate_dataset(root, configs, fps=1)
        cfg = TrainConfig(
            feature_config=FeatureConfig(
                num_classes=17, use_spatial=True, use_size=True, use_temporal=True
            ),
            window=10, dilation=3, epochs=40, batch_size=16, lr=3e-3, seed=s,
            patience=8, num_classes=19, hidden_dims=(16, 16, 32, 16),
        )
        model, _ = train(cfg, manifest)
        _, _, test_videos = split_dataset(manifest)
        entry = test_videos[0]
        clean = evaluate(model, build_samples([entry], cfg)).accuracy

        # rewrite tool classes in a random 10% of the test video's frames
        rng = np.random.default_rng(s)
        corrupt_dir = root / "corrupt_masks"
        shutil.copytree(entry.mask_dir, corrupt_dir)
        files = list_mask_files(corrupt_dir)
        for k in rng.choice(len(files), size=int(round(0.10 * len(files))), replace=False):
            frame, path = files[int(k)]
            write_mask(corrupt_tool_classes(load_mask(path, frame), rng), path)
        corrupted_entry = dataclasses.replace(entry, mask_dir=corrupt_dir)
        corrupted = evaluate(model, build_samples([corrupted_entry], cfg)).accuracy
        drops.append(100.0 * (clean - corrupted))
    med = statistics.median(drops)
    _verdict(
        report,
        9,
        "10% frame corruption costs under 5 accuracy points",
        med < 5.0,
        f"drops {[f'{d:.1f}' for d in drops]} pts, median {med:.1f} < 5",
    )


# --- 10: explanation fidelity --------------------------------------------------------


CONTACT_TOOL = 14


def test_explanations_surface_planted_contact_edge(report, tmp_path):
    configs = [
        preset_planted_contact(
            phase_frames=10, n_frames=100, seed=seed, video_id=vid, split=split
        )
        for seed, vid, split in [
            *((1000 + i, f"t{i}", "train") for i in range(4)),
            (1100, "v0", "val"),
            (1200, "e0", "test"),
        ]
    ]
    _, manifest = generate_dataset(tmp_path / "data", configs, fps=1)
    feature_cfg = FeatureConfig(num_classes=17)
    cfg = TrainConfig(
        feature_config=feature_cfg, window=1, dilation=1, epochs=60, batch_size=16,
        lr=3e-3, seed=0, patience=12, num_classes=19, hidden_dims=(16, 16, 32, 16),
    )
    model, _ = train(cfg, manifest)
    _, _, test_videos = split_dataset(manifest)
    sanity = evaluate(model, build_samples(test_videos, cfg)).accuracy

    explain_cfg = ExplainConfig(iterations=400, lr=0.1, sparsity=0.2)
    top3 = 0
    flip_cases = 0
    flip_agree = 0
    for s in range(50):
        masks, track, _ = generate_sequence(
            preset_planted_contact(phase_frames=10, n_frames=20, seed=5000 + s)
        )
        mask = masks[3]  # inside the contact phase
        assert track.label_at(3) == 4
        graph = build_static_graph(mask, None, feature_cfg)
        classes = [n.class_id for n in graph.nodes]
        planted = next(
            (
                k
                for k, (i, j) in enumerate(graph.edges)
                if {classes[i], classes[j]} == {PUPIL, CONTACT_TOOL}
            ),
            None,
        )
        explanation = explain_prediction(model, graph, explain_cfg)
        order = np.argsort(-explanation.edge_importance)
        if planted is not None and planted in order[:3]:
            top3 += 1
        # leave-one-edge-out: does the top-1 edge actually flip the prediction?
        _, _, pred = forward(model, graph)
        x = graph.feature_matrix()
        flips = [
            k
            for k in range(len(graph.edges))
            if forward(model, FakeGraph(x, graph.edges[:k] + graph.edges[k + 1:]))[2] != pred
        ]
        if flips:
            flip_cases += 1
            if int(order[0]) in flips:
                flip_agree += 1
    ok = top3 / 50 >= 0.80 and flip_cases > 0 and flip_agree / flip_cases >= 0.70
    _verdict(
        report,
        10,
        "planted contact edge dominates explanations",
        ok,
        f"top-3 {top3}/50, flip agreement {flip_agree}/{flip_cases}, "
        f"model sanity accuracy {sanity:.2f}",
    )


# --- 11: determinism and round-trips -------------------------------------------------


def test_determinism_and_round_trips(report, tmp_path):
    configs = [
        preset_distinct_tools(
            n_frames=40, phase_frames=10, seed=seed, video_id=f"v{seed}", split=split
        )
        for seed, split in [(0, "train"), (1, "train"), (7, "val"), (9, "test")]
    ]
    _, manifest = generate_dataset(tmp_path / "data", configs, fps=1)
    cfg = TrainConfig(
        feature_config=FeatureConfig(num_classes=17), window=3, dilation=1, epochs=3,
        batch_size=16, lr=1e-2, seed=0, patience=3, num_classes=19, hidden_dims=(8, 8),
    )
    model_a, hist_a = train(cfg, manifest)
    model_b, hist_b = train(cfg, manifest)
    histories_identical = json.dumps(hist_a) == json.dumps(hist_b)

    ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model_a, ckpt_a, step=len(hist_a), extra={"train_config": cfg.to_json()})
    save_checkpoint(model_b, ckpt_b, step=len(hist_b), extra={"train_config": cfg.to_json()})
    reruns_identical = ckpt_a.read_bytes() == ckpt_b.read_bytes()

    loaded = load_checkpoint(ckpt_a)
    ckpt_c = tmp_path / "c.ckpt"
    save_checkpoint(loaded, ckpt_c, step=len(hist_a), extra={"train_config": cfg.to_json()})
    checkpoint_exact = (
        np.array_equal(loaded.to_vector(), model_a.to_vector())
        and ckpt_c.read_bytes() == ckpt_a.read_bytes()
    )

    rng = np.random.default_rng(3)
    sgm_exact = True
    for i in range(20):
        mask = random_mask(rng, frame_index=i)
        path = tmp_path / f"{i:06d}.sgm"
        write_mask(mask, path)
        again = load_mask(path, frame_index=i)
        sgm_exact = (
            sgm_exact
            and np.array_equal(mask.class_ids, again.class_ids)
            and mask_to_bytes(again) == mask_to_bytes(mask)
        )

    feature_cfg = FeatureConfig(num_classes=17, use_spatial=True, use_size=True, use_temporal=True)
    graphs = [
        build_static_graph(stripe_mask([0, 4, 7], frame_index=t), None, feature_cfg)
        for t in range(3)
    ]
    static_round = graph_from_json(json.loads(json.dumps(graph_to_json(graphs[0]))))
    dyn = build_dynamic_graph(graphs, WindowConfig(window=3, dilation=1))
    dyn_round = graph_from_json(json.loads(json.dumps(dynamic_graph_to_json(dyn))))
    json_exact = (
        np.array_equal(static_round.feature_matrix(), graphs[0].feature_matrix())
        and static_round.edges == graphs[0].edges
        and static_round.frame_index == graphs[0].frame_index
        and np.array_equal(dyn_round.feature_matrix(), dyn.feature_matrix())
        and dyn_round.edges == dyn.edges
        and dyn_round.frame_indices == dyn.frame_indices
    )

    ok = histories_identical and reruns_identical and checkpoint_exact and sgm_exact and json_exact
    _verdict(
        report,
        11,
        "seeded reruns and round-trips are exact",
        ok,
        f"histories {histories_identical}, reruns {reruns_identical}, "
        f"checkpoint {checkpoint_exact}, sgm {sgm_exact}, json {json_exact}",
    )
