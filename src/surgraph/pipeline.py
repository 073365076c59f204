"""Dataset splitting, sample building, training, evaluation, and the ablation runner.

A sample is one dilated window of static graphs collapsed into a dynamic
graph, labelled by its anchor frame's phase. ``load_static_graphs`` turns a
video's masks into static graphs and ``iter_windows`` stitches them into
windows; ``build_samples`` and the ``build-graphs`` command both go through
these two. ``fit`` trains on samples the caller holds, and ``train`` builds
a manifest's samples and calls ``fit``. Training accumulates gradients
over a batch of windows, applies one Adam step per batch, and keeps the model
with the best validation accuracy. Everything is seeded and bitwise
reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamic_graph import (
    LABEL_NEWEST,
    DynamicGraph,
    WindowConfig,
    build_dynamic_graph,
    context_seconds,
    select_window,
)
from .errors import (
    EmptyEvalSet,
    EmptyMask,
    EmptyTrainSet,
    MissingLabel,
    NonFiniteLoss,
    OverlappingSplits,
)
from .gcn import (
    DEFAULT_HIDDEN_DIMS,
    AdamHyper,
    GcnConfig,
    GcnModel,
    Workspace,
    adam_step,
    forward_prepared,
    init_adam_state,
    init_model,
    loss_and_gradients_prepared,
    normalize_adjacency,
    zeros_like_gradients,
)
from .ingest import (
    DatasetManifest,
    VideoEntry,
    atomic_write,
    list_mask_files,
    load_embeddings,
    load_mask,
    load_phase_labels,
)
from .metrics import Metrics, compute_metrics
from .numerics import SparseAdjacency
from .scene_graph import FeatureConfig, SceneGraph, build_static_graph

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "GraphSample",
    "split_dataset",
    "load_static_graphs",
    "iter_windows",
    "build_samples",
    "fit",
    "train",
    "evaluate",
    "run_ablation",
    "write_ablation_csv",
    "write_history",
    "ABLATION_CSV_HEADER",
]

ABLATION_CSV_HEADER = "graph,spatial,size,emb,temp,window,dilation,context_s,accuracy,macro_f1"


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run (and hence its result)."""

    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    window: int = 30
    dilation: int = 3
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0
    patience: int = 10
    num_classes: int = 19
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    label_policy: str = LABEL_NEWEST

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.window < 1 or self.dilation < 1:
            raise ValueError("window and dilation must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    def window_config(self) -> WindowConfig:
        return WindowConfig(
            window=self.window, dilation=self.dilation, label_policy=self.label_policy
        )

    def to_json(self) -> dict:
        fc = self.feature_config
        return {
            "feature_config": {
                "num_classes": fc.num_classes,
                "use_class": fc.use_class,
                "use_spatial": fc.use_spatial,
                "use_size": fc.use_size,
                "use_temporal": fc.use_temporal,
                "use_embedding": fc.use_embedding,
                "embedding_dim": fc.embedding_dim,
                "segment_mode": fc.segment_mode,
                "min_segment_pixels": fc.min_segment_pixels,
                "connectivity": fc.connectivity,
            },
            "window": self.window,
            "dilation": self.dilation,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "seed": self.seed,
            "patience": self.patience,
            "num_classes": self.num_classes,
            "hidden_dims": list(self.hidden_dims),
            "label_policy": self.label_policy,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        fc = FeatureConfig(**data.get("feature_config", {}))
        rest = {k: v for k, v in data.items() if k != "feature_config"}
        if "hidden_dims" in rest:
            rest["hidden_dims"] = tuple(rest["hidden_dims"])
        return cls(feature_config=fc, **rest)


@dataclass(frozen=True)
class GraphSample:
    """One labelled window, with forward inputs precomputed."""

    video_id: str
    frame_index: int
    label: int
    x: np.ndarray
    adjacency: SparseAdjacency

    @property
    def feature_dim(self) -> int:
        return self.x.shape[1]


def split_dataset(
    manifest: DatasetManifest,
) -> tuple[list[VideoEntry], list[VideoEntry], list[VideoEntry]]:
    """Partition the manifest's videos by their declared split."""
    seen: dict[str, str] = {}
    for v in manifest.videos:
        if v.video_id in seen and seen[v.video_id] != v.split:
            raise OverlappingSplits(
                f"video {v.video_id!r} listed in both {seen[v.video_id]!r} and {v.split!r}"
            )
        seen[v.video_id] = v.split
    buckets = {"train": [], "val": [], "test": []}
    for v in manifest.videos:
        buckets[v.split].append(v)
    return buckets["train"], buckets["val"], buckets["test"]


def load_static_graphs(
    video: VideoEntry, feature_cfg: FeatureConfig, skipped: list[str], threads: int = 1
) -> dict[int, SceneGraph]:
    """The static graph of every usable frame of ``video``, in frame order.

    A frame with no segment of at least ``min_segment_pixels`` is left out
    and appended to ``skipped`` as ``video/frame``. With ``threads > 1``
    frames are built across a thread pool.
    """
    mask_files = list_mask_files(video.mask_dir)
    if not mask_files:
        return {}
    # build_static_graph drops the embedding block without a table
    table = load_embeddings(video.embeddings) if video.embeddings is not None else None

    def build_one(item):
        frame, path = item
        mask = load_mask(path, frame_index=frame)
        try:
            return frame, build_static_graph(mask, table, feature_cfg)
        except EmptyMask:
            return frame, None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            built = list(pool.map(build_one, mask_files))
    else:
        built = [build_one(item) for item in mask_files]
    skipped.extend(f"{video.video_id}/{frame}" for frame, graph in built if graph is None)
    return {frame: graph for frame, graph in built if graph is not None}


def iter_windows(
    static: dict[int, SceneGraph], window_cfg: WindowConfig
) -> Iterator[tuple[int, DynamicGraph]]:
    """``(frame, window)`` for every frame of ``static``, in frame order.

    Windows at the start of a video are shorter, and a frame missing from
    ``static`` is simply absent from the windows that would have held it.
    """
    for frame in sorted(static):
        wanted = select_window(frame, window_cfg.window, window_cfg.dilation)
        yield frame, build_dynamic_graph([static[i] for i in wanted if i in static], window_cfg)


def build_samples(
    videos: list[VideoEntry],
    cfg: TrainConfig,
    threads: int = 1,
) -> list[GraphSample]:
    """Window samples for every labelled frame of every video.

    Each frame's static graph is built once and shared between overlapping
    windows. A frame skipped by ``load_static_graphs`` anchors no sample. A
    window whose label frame has no phase annotation is skipped too (its
    frame still serves other windows), and one warning counts the skipped
    frames by reason.
    """
    window_cfg = cfg.window_config()
    samples: list[GraphSample] = []
    skipped: list[str] = []
    unlabelled: list[str] = []
    for video in videos:
        static = load_static_graphs(video, cfg.feature_config, skipped, threads=threads)
        if not static:
            continue
        track = load_phase_labels(video.phase_csv, video_id=video.video_id)
        for frame, dyn in iter_windows(static, window_cfg):
            try:
                label = track.label_at(dyn.label_frame_index)
            except MissingLabel:
                unlabelled.append(f"{video.video_id}/{dyn.label_frame_index}")
                continue
            samples.append(
                GraphSample(
                    video_id=video.video_id,
                    frame_index=frame,
                    label=label,
                    x=dyn.x,
                    adjacency=normalize_adjacency(dyn),
                )
            )
    warn_skipped_frames(skipped, cfg.feature_config, unlabelled)
    return samples


def warn_skipped_frames(
    skipped: list[str], cfg: FeatureConfig, unlabelled: Sequence[str] = ()
) -> None:
    """One warning naming every skipped ``video/frame``, grouped by reason.

    ``skipped`` frames have no segment of at least ``min_segment_pixels``;
    ``unlabelled`` frames label a window but have no phase annotation.
    """
    reasons = {f"no segment >= {cfg.min_segment_pixels} px": skipped, "no phase label": unlabelled}
    parts = [f"{len(v)} frame(s) with {r}: {', '.join(v)}" for r, v in reasons.items() if v]
    if parts:
        log.warning("skipped %s", "; ".join(parts))


def train(
    cfg: TrainConfig, manifest: DatasetManifest, threads: int = 1
) -> tuple[GcnModel, list[dict]]:
    """``fit`` on the samples of the manifest's train and val splits."""
    train_videos, val_videos, _ = split_dataset(manifest)
    if not train_videos:
        raise EmptyTrainSet("manifest has no train videos")
    train_samples = build_samples(train_videos, cfg, threads=threads)
    if not train_samples:
        raise EmptyTrainSet("train split produced no window samples")
    return fit(cfg, train_samples, build_samples(val_videos, cfg, threads=threads))


def fit(
    cfg: TrainConfig, train_samples: list[GraphSample], val_samples: list[GraphSample]
) -> tuple[GcnModel, list[dict]]:
    """Train on ``train_samples``, select on ``val_samples``.

    Returns the best-validation-accuracy model and a per-epoch history of
    {"epoch", "train_loss", "val_accuracy", "val_macro_f1"}. Stops early
    after ``patience`` epochs without a validation improvement. With no val
    samples the final model is returned, no early stopping happens, and
    the last record gains "train_accuracy" and "train_macro_f1": the final
    model scored on the train samples.
    """
    if not train_samples:
        raise EmptyTrainSet("no train samples")
    input_dim = train_samples[0].feature_dim
    model = init_model(
        GcnConfig(
            input_dim=input_dim,
            hidden_dims=cfg.hidden_dims,
            num_classes=cfg.num_classes,
            seed=cfg.seed,
        )
    )
    hyper = AdamHyper(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    state = init_adam_state(model)
    # One buffer for every sample's gradient, one for every batch's mean, and
    # one workspace for the kernel's intermediates, validation included
    grads, acc = zeros_like_gradients(model), zeros_like_gradients(model)
    workspace = Workspace()
    total = acc.vector
    rng = np.random.default_rng(cfg.seed)

    best = None  # the best epoch's parameters; adam_step updates the model in place
    best_val = -1.0
    stale = 0
    history: list[dict] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_samples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            total.fill(0.0)
            for idx in batch:
                sample = train_samples[idx]
                loss, _ = loss_and_gradients_prepared(
                    model, sample.x, sample.adjacency, sample.label, out=grads, workspace=workspace
                )
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"epoch {epoch}, video {sample.video_id}, "
                        f"frame {sample.frame_index}: loss {loss}"
                    )
                losses.append(loss)
                total += grads.vector
            total *= 1.0 / len(batch)
            model, state = adam_step(model, acc, state, hyper)

        record = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if val_samples:
            val_metrics = evaluate(model, val_samples, workspace)
            record["val_accuracy"] = val_metrics.accuracy
            record["val_macro_f1"] = val_metrics.macro_f1
            if val_metrics.accuracy > best_val:
                best_val = val_metrics.accuracy
                best = model.to_vector()
                stale = 0
            else:
                stale += 1
        history.append(record)
        log.info(
            "epoch %d: train_loss=%.4f val_acc=%s",
            epoch,
            record["train_loss"],
            record.get("val_accuracy", "n/a"),
        )
        if val_samples and stale >= cfg.patience:
            break

    if val_samples:
        return model.with_vector(best), history
    train_metrics = evaluate(model, train_samples, workspace)
    history[-1]["train_accuracy"] = train_metrics.accuracy
    history[-1]["train_macro_f1"] = train_metrics.macro_f1
    return model, history


def evaluate(
    model: GcnModel, samples: list[GraphSample], workspace: Workspace | None = None
) -> Metrics:
    """Window-level accuracy and macro F1 over precomputed samples.

    ``workspace`` holds the kernel's intermediates; None makes one for this call.
    """
    if not samples:
        raise EmptyEvalSet("no samples to evaluate")
    truth = []
    preds = []
    workspace = Workspace() if workspace is None else workspace
    for sample in samples:
        _, _, pred = forward_prepared(model, sample.x, sample.adjacency, workspace=workspace)
        truth.append(sample.label)
        preds.append(pred)
    return compute_metrics(truth, preds, model.config.num_classes)


def write_history(history: list[dict], path: str | Path) -> None:
    """JSON history; a failed write leaves an earlier file at ``path`` as it was."""
    text = json.dumps(history, indent=2) + "\n"
    with atomic_write(path) as fh:
        fh.write(text)


# --- ablation ----------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    config: TrainConfig
    metrics: Metrics | None
    error: str | None = None


def run_ablation(
    grid: list[TrainConfig], manifest: DatasetManifest, threads: int = 1
) -> list[AblationRow]:
    """Train/evaluate one row per distinct config; failures become rows too."""
    rows = []
    seen = set()
    for cfg in grid:
        key = json.dumps(cfg.to_json(), sort_keys=True)
        if key in seen:
            log.warning("duplicate ablation config skipped: window=%d dilation=%d",
                        cfg.window, cfg.dilation)
            continue
        seen.add(key)
        try:
            train_videos, val_videos, test_videos = split_dataset(manifest)
            model, _ = fit(
                cfg,
                build_samples(train_videos, cfg, threads=threads),
                build_samples(val_videos, cfg, threads=threads),
            )
            test_samples = build_samples(test_videos, cfg, threads=threads)
            rows.append(AblationRow(cfg, evaluate(model, test_samples)))
        except Exception as exc:  # recorded, not fatal: one bad cell shouldn't kill the grid
            log.warning("ablation cell failed: %s", exc)
            rows.append(AblationRow(cfg, None, error=str(exc)))
    return rows


def write_ablation_csv(rows: list[AblationRow], path: str | Path, fps: float) -> None:
    """One CSV row per ablation cell under the fixed header; a failed write
    leaves an earlier file at ``path`` as it was."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(ABLATION_CSV_HEADER.split(","))
    for row in rows:
        cfg = row.config
        fc = cfg.feature_config
        graph_kind = "static" if cfg.window == 1 else "dynamic"
        context = context_seconds(cfg.window, cfg.dilation, fps)
        cells = [
            graph_kind,
            int(fc.use_spatial),
            int(fc.use_size),
            int(fc.use_embedding),
            int(fc.use_temporal),
            cfg.window,
            cfg.dilation,
            f"{context:g}",
        ]
        if row.metrics is None:
            cells.extend(["", ""])
        else:
            cells.extend([f"{row.metrics.accuracy:.6f}", f"{row.metrics.macro_f1:.6f}"])
        writer.writerow(cells)
    with atomic_write(path, "wb") as fh:
        fh.write(text.getvalue().encode("utf-8"))
