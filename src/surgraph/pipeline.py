"""Dataset splitting, sample building, training, evaluation, and the ablation runner.

A sample is one dilated window of static graphs collapsed into a dynamic
graph, labelled by its anchor frame's phase. ``load_static_graphs`` turns a
video's masks into static graphs and ``iter_windows`` stitches them into
windows; ``build_samples`` and the ``build-graphs`` command both go through
these two. A sample keeps its window's normalized adjacency and the track
steps the window was cut from, and builds its features from them on each
read: the windows of a video share one copy of its node features. ``fit``
trains on samples the caller holds, and ``train`` builds a manifest's
samples and calls ``fit``. Training accumulates gradients over a batch of
windows, applies one Adam step per batch, and keeps the model with the best
validation accuracy. Everything is seeded and bitwise
reproducible. A ``TrainConfig``'s JSON is its dataclass fields.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dynamic_graph import (
    LABEL_NEWEST,
    DynamicGraph,
    Track,
    TrackSteps,
    WindowConfig,
    build_dynamic_graph,
    context_seconds,
)
from .errors import (
    DimensionMismatch,
    EmptyEvalSet,
    EmptyMask,
    EmptyTrainSet,
    InvalidConfig,
    MissingFrameKey,
    MissingLabel,
    NonFiniteLoss,
    OverlappingSplits,
    SurgraphError,
    check_fields,
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
from .numerics import DenseStack, SparseAdjacency
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
        check_fields(self)
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        self.window_config()  # validates window, dilation and label_policy
        if self.patience < 1:
            raise InvalidConfig("patience must be >= 1")
        # validates hidden_dims and num_classes as the model will take them
        GcnConfig(input_dim=1, hidden_dims=self.hidden_dims, num_classes=self.num_classes)

    def window_config(self) -> WindowConfig:
        return WindowConfig(
            window=self.window, dilation=self.dilation, label_policy=self.label_policy
        )

    def to_json(self) -> dict:
        """The config's fields, the feature config's nested, as ``dataclasses.asdict`` gives them."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TrainConfig":
        """The config ``to_json`` wrote; absent fields take their defaults.

        TypeError or ValueError for data that is not an object, an unknown key
        or a bad value.
        """
        return cls(**{**data, "feature_config": FeatureConfig(**data.get("feature_config", {}))})


@dataclass(frozen=True)
class GraphSample:
    """One labelled window: the track steps it was cut from and its adjacency.

    The normalized adjacency is built once. The features are not stored:
    ``x`` builds them from the track the window was cut from on each read,
    and every window of a video's dilation residue shares that track. So a
    video's node features are held once, not once per window that holds
    their frame. On the benchmark's 30-step windows (about 123 nodes of 50
    features and 650 adjacency entries) a sample holds about 14 KB (13,883
    bytes by ``tracemalloc`` over one video), where its own ``x`` would
    take 49 KB more. Its adjacency is on the CSR path, where the CSR is the
    only store (``SparseAdjacency``).
    """

    video_id: str
    frame_index: int
    label: int
    steps: TrackSteps
    adjacency: SparseAdjacency

    @property
    def x(self) -> np.ndarray:
        """The window's n x d features, read-only (``TrackSteps.features``)."""
        return self.steps.features()

    @property
    def node_count(self) -> int:
        return self.steps.node_count

    @property
    def feature_dim(self) -> int:
        return self.steps.feature_dim


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
    and appended to ``skipped`` as ``video/frame``. Any other SurgraphError
    of a frame is raised again with the mask file's path before its message,
    or the embedding table's for a MissingFrameKey. With ``threads > 1``
    frames are built across a thread pool; only the benchmark's per-layer
    timing asks for one, since the pool was measured slower than one thread.
    """
    mask_files = list_mask_files(video.mask_dir)
    if not mask_files:
        return {}
    # build_static_graph drops the embedding block without a table
    table = load_embeddings(video.embeddings) if video.embeddings is not None else None

    def build_one(item):
        frame, path = item
        try:
            return frame, build_static_graph(load_mask(path, frame_index=frame), table, feature_cfg)
        except EmptyMask:
            return frame, None
        except MissingFrameKey as exc:
            raise MissingFrameKey(f"{video.embeddings}: {exc}") from exc
        except SurgraphError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

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
    for frame, steps in _window_steps(static, window_cfg):
        yield frame, build_dynamic_graph(steps, window_cfg)


def _window_steps(
    static: dict[int, SceneGraph], window_cfg: WindowConfig
) -> Iterator[tuple[int, TrackSteps]]:
    """``(frame, steps)`` for every frame of ``static``: the track steps
    ``iter_windows`` builds the frame's window from.

    The frames of a window are all equal modulo the dilation, so each window
    is cut out of one ``Track`` of the present frames with its frame's
    residue, built once per residue.
    """
    dilation, reach = window_cfg.dilation, (window_cfg.window - 1) * window_cfg.dilation
    frames = sorted(static)
    residues: dict[int, list[int]] = {}
    for frame in frames:
        residues.setdefault(frame % dilation, []).append(frame)
    tracks = {r: Track.of([static[f] for f in members]) for r, members in residues.items()}
    for frame in frames:
        r = frame % dilation
        stop = bisect_right(residues[r], frame)
        # the oldest frame is the earliest non-negative one of the residue within reach
        start = bisect_left(residues[r], max(frame - reach, r), 0, stop)
        yield frame, tracks[r].steps(start, stop)


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
        for frame, steps in _window_steps(static, window_cfg):
            dyn = build_dynamic_graph(steps, window_cfg)
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
                    steps=steps,
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


def train(cfg: TrainConfig, manifest: DatasetManifest) -> tuple[GcnModel, list[dict]]:
    """``fit`` on the samples of the manifest's train and val splits."""
    train_videos, val_videos, _ = split_dataset(manifest)
    if not train_videos:
        raise EmptyTrainSet("manifest has no train videos")
    train_samples = build_samples(train_videos, cfg)
    if not train_samples:
        raise EmptyTrainSet("train split produced no window samples")
    return fit(cfg, train_samples, build_samples(val_videos, cfg))


def fit(
    cfg: TrainConfig, train_samples: list[GraphSample], val_samples: list[GraphSample]
) -> tuple[GcnModel, list[dict]]:
    """Train on ``train_samples``, select on ``val_samples``.

    Returns the best-validation-accuracy model and a per-epoch history of
    {"epoch", "train_loss", "val_accuracy", "val_macro_f1"}. Stops early
    after ``patience`` epochs without a validation improvement. With no val
    samples the final model is returned, no early stopping happens, and
    the last record gains "train_accuracy" and "train_macro_f1": the final
    model scored on the train samples. Raises DimensionMismatch, naming both
    windows, if a train or val sample's feature width is not the first
    train sample's.
    """
    if not train_samples:
        raise EmptyTrainSet("no train samples")
    first = train_samples[0]
    input_dim = first.feature_dim
    for sample in (*train_samples, *val_samples):
        if sample.feature_dim != input_dim:
            raise DimensionMismatch(
                f"video {sample.video_id}, frame {sample.frame_index} has "
                f"{sample.feature_dim}-d features, but video {first.video_id}, "
                f"frame {first.frame_index} has {input_dim}-d"
            )
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


# Node rows per DenseStack that evaluate builds. A stacked layer block is
# STACK_ROWS x width x 8 bytes (196 KB at width 96, 393 KB at 192), so it stays
# in a core's L2 cache; on 15-node windows, stacks of 128 to 1,024 rows
# evaluated equally fast.
STACK_ROWS = 256


def evaluate(
    model: GcnModel, samples: list[GraphSample], workspace: Workspace | None = None
) -> Metrics:
    """Window-level accuracy and macro F1 over precomputed samples.

    Windows whose adjacency is dense (``SparseAdjacency.is_dense``) with
    equal node counts and feature widths run as stacks of at most
    ``STACK_ROWS`` node rows, one ``forward_prepared`` call per stack, each
    window's features written into its slot of the stack; each other window
    is one call. The predictions are bitwise those of one call per window.
    ``workspace`` holds the kernel's intermediates; None makes one for this call.
    """
    if not samples:
        raise EmptyEvalSet("no samples to evaluate")
    workspace = Workspace() if workspace is None else workspace
    preds = np.empty(len(samples), dtype=np.int64)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, sample in enumerate(samples):
        n = sample.node_count
        # an empty window, or one whose x and adjacency disagree, goes alone to raise
        if 0 < n == sample.adjacency.node_count and sample.adjacency.is_dense:
            groups.setdefault((n, sample.feature_dim), []).append(i)
        else:
            preds[i] = forward_prepared(model, sample.x, sample.adjacency, workspace=workspace)[2]
    for shape, members in groups.items():
        per_stack = STACK_ROWS // shape[0]
        for start in range(0, len(members), per_stack):
            stack = members[start : start + per_stack]
            x = np.empty((len(stack), *shape))
            for k, i in enumerate(stack):
                samples[i].steps.features(out=x[k])
            anorm = DenseStack.of(samples[i].adjacency for i in stack)
            preds[stack] = forward_prepared(model, x, anorm, workspace=workspace)[2]
    truth = [sample.label for sample in samples]
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


def run_ablation(grid: list[TrainConfig], manifest: DatasetManifest) -> list[AblationRow]:
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
            model, _ = train(cfg, manifest)
            test_samples = build_samples(split_dataset(manifest)[2], cfg)
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
