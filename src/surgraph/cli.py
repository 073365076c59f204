"""Command-line entry point: graphs, training, evaluation, explanations, data.

Exit codes: 0 success; 1 for ``InvalidConfig``, a bad flag or config value;
2 for any other ``SurgraphError`` or an ``OSError``, such as a checkpoint
whose stored training config is malformed (CorruptCheckpoint) or a label map
or embedding table that breaks its format (MalformedFile, naming the file).
The error's type alone decides the code. An ``OSError`` that names a file,
such as a missing one, prints as ``error: <path>: <reason>``. Flags are
validated before anything is written. ``run`` hands each command one
``_Outputs`` record and, if the command fails, removes what was registered
there.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .dynamic_graph import (
    WindowConfig,
    WindowText,
    context_seconds,
    dynamic_graph_to_json,
    graph_to_json,
    load_graph_json,
)
from .errors import (
    CorruptCheckpoint, DimensionMismatch, InvalidConfig, MalformedFile, SurgraphError,
)
from .explain import (
    ExplainConfig,
    explain_prediction,
    export_dot,
    write_explanation_json,
)
from .gcn import checkpoint_header, load_checkpoint, save_checkpoint
from .ingest import (
    atomic_write,
    checked_fps,
    default_label_map,
    load_label_map,
    load_manifest,
    read_json,
)
from .pipeline import (
    TrainConfig,
    build_samples,
    evaluate,
    iter_windows,
    load_static_graphs,
    run_ablation,
    train,
    warn_skipped_frames,
    write_ablation_csv,
    write_history,
)
from .scene_graph import FeatureConfig
from .synth import (
    SynthConfig,
    generate_dataset,
    preset_distinct_tools,
    preset_order_dependent,
    preset_planted_contact,
    synth_config_from_json,
)

# Not called here; bench/tracing.py patches these names in this module, so they stay.
from .dynamic_graph import build_dynamic_graph  # noqa: F401
from .ingest import load_mask  # noqa: F401
from .scene_graph import build_static_graph  # noqa: F401

FEATURE_NAMES = ("class", "spatial", "size", "temporal", "embedding")

_PRESETS = {
    "distinct-tools": preset_distinct_tools,
    "order-dependent": preset_order_dependent,
    "planted-contact": preset_planted_contact,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _Outputs:
    """Tracks artifacts a command creates so that ``run`` can undo them if it fails.

    Only paths that did not exist when registered are recorded, so a failure
    never deletes a file the user already had. A directory is recorded by its
    topmost folder that did not exist; a file's missing folders are made when
    it is registered.
    """

    def __init__(self):
        self.files: list[Path] = []
        self.dirs: list[Path] = []

    def file(self, path: Path) -> Path:
        path = Path(path)
        if not path.parent.exists():
            self.directory(path.parent).mkdir(parents=True)
        if not path.exists():
            self.files.append(path)
        return path

    def directory(self, path: Path) -> Path:
        path = Path(path)
        missing = [p for p in (path, *path.parents) if not p.exists()]
        if missing:
            self.dirs.append(missing[-1])
        return path

    def discard(self):
        for f in self.files:
            try:
                f.unlink(missing_ok=True)
            except OSError:
                pass
        for d in reversed(self.dirs):
            shutil.rmtree(d, ignore_errors=True)


def _parse_features(spec: str) -> dict:
    chosen = [token.strip() for token in spec.split(",") if token.strip()]
    for token in chosen:
        if token not in FEATURE_NAMES:
            raise InvalidConfig(
                f"unknown feature {token!r}; choose from {', '.join(FEATURE_NAMES)}"
            )
    if not chosen:
        raise InvalidConfig("at least one feature must be selected")
    return dict(
        use_class="class" in chosen,
        use_spatial="spatial" in chosen,
        use_size="size" in chosen,
        use_temporal="temporal" in chosen,
        use_embedding="embedding" in chosen,
    )


# Feature flags besides --features, each named after the FeatureConfig field it sets.
_FEATURE_FLAGS = ("num_classes", "segment_mode", "min_segment_pixels", "connectivity")


def _feature_config(args, base: FeatureConfig | None = None) -> FeatureConfig:
    """``base`` (``FeatureConfig()`` without one) with every feature flag the user set;
    ``--features`` sets the blocks."""
    overrides = {f: getattr(args, f) for f in _FEATURE_FLAGS if getattr(args, f) is not None}
    if args.features is not None:
        overrides.update(_parse_features(args.features))
    return replace(base or FeatureConfig(), **overrides)


def _add_feature_flags(parser):
    # Each defaults to None, so that only the flags given override a base config.
    parser.add_argument(
        "--features",
        default=None,
        help="comma-separated blocks: class,spatial,size,temporal,embedding "
        "(default: class)",
    )
    parser.add_argument("--num-classes", type=int, default=None,
                        help="segmentation label-map cardinality (default 17)")
    parser.add_argument("--segment-mode", default=None,
                        choices=["per-class-region", "per-component"],
                        help="default per-class-region")
    parser.add_argument("--min-segment-pixels", type=int, default=None, help="default 10")
    parser.add_argument("--connectivity", type=int, default=None, choices=[4, 8],
                        help="default 4")


# Training flags, and the TrainConfig field each one sets.
_TRAIN_FLAGS = {
    "window": "window", "dilation": "dilation", "epochs": "epochs", "batch_size": "batch_size",
    "lr": "lr", "seed": "seed", "patience": "patience", "phase_classes": "num_classes",
}


def _train_config(args, base: TrainConfig | None) -> TrainConfig:
    """``base`` (a --config file's or a checkpoint's config, ``TrainConfig()``
    without one) with every training and feature flag the user set."""
    overrides = {
        field: getattr(args, flag)
        for flag, field in _TRAIN_FLAGS.items()
        if getattr(args, flag, None) is not None
    }
    overrides["feature_config"] = _feature_config(args, base and base.feature_config)
    return replace(TrainConfig() if base is None else base, **overrides)


def _config_from_json(data, source, error=InvalidConfig) -> TrainConfig:
    """``TrainConfig.from_json(data)``; ``error`` naming ``source`` if ``data`` is no config."""
    try:
        return TrainConfig.from_json(data)
    except (TypeError, ValueError) as exc:
        raise error(f"{source}: bad training config: {exc}") from exc


def _read_json_flag(path: str):
    """The JSON in a --config or --grid file; InvalidConfig if it cannot be read."""
    try:
        return read_json(path)
    except (OSError, MalformedFile) as exc:
        raise InvalidConfig(_message(exc)) from exc


def _message(exc: Exception) -> str:
    """The error's text; an OSError that names a file reads ``<path>: <reason>``."""
    if isinstance(exc, OSError) and exc.filename is not None and exc.strerror:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


# --- subcommands -------------------------------------------------------------------

def cmd_build_graphs(args, outputs: _Outputs) -> int:
    feature_cfg = _feature_config(args)
    window_cfg = None
    if args.mode == "dynamic":
        window_cfg = WindowConfig(window=args.window, dilation=args.dilation)
    manifest = load_manifest(args.manifest)

    out_dir = outputs.directory(Path(args.out))
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    skipped: list[str] = []
    for video in manifest.videos:
        if args.split and video.split != args.split:
            continue
        static = load_static_graphs(video, feature_cfg, skipped)
        # Renders each frame's node text once for all the windows that hold it.
        node_text = WindowText(static)
        graphs = static.items() if args.mode == "static" else iter_windows(static, window_cfg)
        for frame, graph in graphs:
            out_path = outputs.file(out_dir / f"{video.video_id}_{frame:06d}.json")
            if args.mode == "static":
                text = json.dumps(graph_to_json(graph))
            else:
                data = dynamic_graph_to_json(graph, nodes=False)
                data["context_s"] = context_seconds(args.window, args.dilation, manifest.fps)
                text = json.dumps(data).replace(
                    '"nodes": []', '"nodes": ' + node_text.nodes(graph), 1
                )
            with atomic_write(out_path) as fh:
                fh.write(text + "\n")
            count += 1
    warn_skipped_frames(skipped, feature_cfg)
    print(f"wrote {count} {args.mode} graph files to {out_dir}")
    return 0


def cmd_train(args, outputs: _Outputs) -> int:
    base = _config_from_json(_read_json_flag(args.config), args.config) if args.config else None
    cfg = _train_config(args, base)
    manifest = load_manifest(args.manifest)
    model, history = train(cfg, manifest)
    save_checkpoint(
        model,
        outputs.file(Path(args.out_checkpoint)),
        step=len(history),
        extra={"train_config": cfg.to_json()},
    )
    if args.history:
        write_history(history, outputs.file(Path(args.history)))
    val_epochs = [h for h in history if "val_accuracy" in h]
    if val_epochs:
        best = max(val_epochs, key=lambda h: h["val_accuracy"])
        accuracy, macro_f1 = best["val_accuracy"], best["val_macro_f1"]
    else:
        accuracy, macro_f1 = history[-1]["train_accuracy"], history[-1]["train_macro_f1"]
    print(f"accuracy={accuracy:.6f} macro_f1={macro_f1:.6f}")
    return 0


def cmd_eval(args, outputs: _Outputs) -> int:
    stored = checkpoint_header(args.checkpoint).get("extra", {}).get("train_config")
    model = load_checkpoint(args.checkpoint)
    if stored is not None:  # the checkpoint's own config, so a bad one is a corrupt checkpoint
        stored = _config_from_json(stored, args.checkpoint, CorruptCheckpoint)
    cfg = _train_config(args, stored)
    # the config's feature width, or that width less the embedding block,
    # which a manifest without embedding tables drops
    fc, width = cfg.feature_config, model.config.input_dim
    if width not in (fc.feature_dim, fc.feature_dim - fc.use_embedding * fc.embedding_dim):
        raise DimensionMismatch(
            f"{args.checkpoint}: the model takes {width}-d node features, "
            f"the feature config gives {fc.feature_dim}"
        )
    manifest = load_manifest(args.manifest)
    videos = [v for v in manifest.videos if v.split == args.split]
    metrics = evaluate(model, build_samples(videos, cfg))
    print(f"accuracy={metrics.accuracy:.6f} macro_f1={metrics.macro_f1:.6f}")
    return 0


def cmd_explain(args, outputs: _Outputs) -> int:
    explain_cfg = ExplainConfig(
        iterations=args.iterations,
        lr=args.lr,
        sparsity=args.sparsity,
        entropy=args.entropy,
    )
    model = load_checkpoint(args.checkpoint)
    graph = load_graph_json(args.graph)
    if graph.feature_dim != model.config.input_dim:
        raise DimensionMismatch(
            f"{args.graph}: graph features are {graph.feature_dim}-d, "
            f"checkpoint {args.checkpoint} expects {model.config.input_dim}"
        )
    label_map = load_label_map(args.label_map) if args.label_map else default_label_map()

    explanation = explain_prediction(model, graph, explain_cfg)
    dot = export_dot(graph, explanation, label_map)
    with atomic_write(outputs.file(Path(args.dot_out))) as fh:
        fh.write(dot)
    if args.json_out:
        write_explanation_json(explanation, graph, outputs.file(Path(args.json_out)))
    if len(explanation.edge_importance):
        top = int(explanation.edge_importance.argmax())
        i, j = graph.edge_index[top].tolist()
        print(
            f"explained class {explanation.target_class}: top edge "
            f"({i},{j}) importance "
            f"{explanation.edge_importance[top]:.3f}"
        )
    else:
        print(f"explained class {explanation.target_class}: graph has no edges")
    return 0


def cmd_synth(args, outputs: _Outputs) -> int:
    configs: list[SynthConfig] = []
    fps = 1
    if args.config:
        raw = _read_json_flag(args.config)
        try:
            if isinstance(raw, dict) and "videos" in raw:
                fps = checked_fps(raw.get("fps", 1), args.config)
                configs = [synth_config_from_json(v) for v in raw["videos"]]
            elif isinstance(raw, list):
                configs = [synth_config_from_json(v) for v in raw]
            else:
                configs = [synth_config_from_json(raw)]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"{args.config}: bad synth config: {exc}") from exc
    else:
        preset = _PRESETS[args.preset]
        splits = ["train"] * args.train + ["val"] * args.val + ["test"] * args.test
        configs = [
            preset(n_frames=args.n_frames, seed=(args.seed or 0) + index,
                   video_id=f"{split}{index:02d}", split=split)
            for index, split in enumerate(splits)
        ]
        needed = sum(p.duration for p in configs[0].phase_script) if configs else 0
        if needed > args.n_frames:
            raise InvalidConfig(
                f"--n-frames {args.n_frames} is below the {args.preset} preset's minimum "
                f"of {needed} frames"
            )
    if not configs:
        raise InvalidConfig("synth config defines no videos")

    out_dir = outputs.directory(Path(args.out))
    try:
        manifest_path, manifest = generate_dataset(out_dir, configs, fps=fps)
    except InvalidConfig as exc:  # a script longer than its video, or phase rules no draw met
        raise type(exc)(f"{args.config or '--preset ' + args.preset}: {exc}") from exc
    total = sum(cfg.n_frames for cfg in configs)
    print(
        f"wrote {len(configs)} videos ({total} frames) to {out_dir}; "
        f"manifest at {manifest_path}"
    )
    return 0


def cmd_ablate(args, outputs: _Outputs) -> int:
    raw = _read_json_flag(args.grid)
    if not isinstance(raw, list):
        raise InvalidConfig(f"{args.grid}: grid must be a JSON array of training configs")
    grid = [_config_from_json(entry, f"{args.grid}: entry {k}") for k, entry in enumerate(raw)]
    manifest = load_manifest(args.manifest)
    rows = run_ablation(grid, manifest)
    write_ablation_csv(rows, outputs.file(Path(args.out_csv)), fps=manifest.fps)
    failed = sum(1 for r in rows if r.metrics is None)
    print(f"wrote {len(rows)} ablation rows to {args.out_csv} ({failed} failed)")
    return 0


# --- parser ------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="surgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"surgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-graphs", help="emit graph JSON files from a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="static", choices=["static", "dynamic"])
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--dilation", type=int, default=3)
    p.add_argument("--split", default=None, choices=["train", "val", "test"])
    _add_feature_flags(p)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="train a phase classifier")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON file")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--history", default=None, help="write per-epoch history JSON here")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--dilation", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--phase-classes", type=int, default=None,
                   help="size of the phase vocabulary (default 19)")
    _add_feature_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--dilation", type=int, default=None)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explain", help="edge/node importance for one graph")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--dot-out", required=True)
    p.add_argument("--json-out", default=None)
    p.add_argument("--label-map", default=None)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--sparsity", type=float, default=0.005)
    p.add_argument("--entropy", type=float, default=0.1)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="SynthConfig JSON (one, list, or {videos})")
    p.add_argument("--preset", default="distinct-tools", choices=sorted(_PRESETS))
    p.add_argument("--train", type=int, default=6)
    p.add_argument("--val", type=int, default=2)
    p.add_argument("--test", type=int, default=2)
    p.add_argument("--n-frames", dest="n_frames", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="run a grid of training configs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--grid", required=True, help="JSON array of TrainConfig objects")
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def run(argv=None) -> int:
    """Run one command; undo its registered outputs if it fails; map errors to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    outputs = _Outputs()
    try:
        try:
            return args.func(args, outputs)
        except BaseException:
            outputs.discard()
            raise
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SurgraphError, OSError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
