"""Command-line entry point: graphs, training, evaluation, explanations, data.

Exit codes: 0 success, 1 flag/config validation error, 2 runtime error.
Flags are validated before anything is written; artifacts created by a
failing command are removed again.
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
    dynamic_graph_from_json,
    dynamic_graph_to_json,
)
from .errors import SurgraphError
from .explain import (
    ExplainConfig,
    explain_prediction,
    export_dot,
    write_explanation_json,
)
from .gcn import checkpoint_header, load_checkpoint, save_checkpoint
from .ingest import atomic_write, default_label_map, load_label_map, load_manifest
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
from .scene_graph import FeatureConfig, graph_from_json, graph_to_json
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


class CliValidationError(Exception):
    """Bad flag or config value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class _Outputs:
    """Tracks artifacts a command creates so failures can undo them.

    Only paths that did not exist when registered are recorded, so a failure
    never deletes a file the user already had.
    """

    def __init__(self):
        self.files: list[Path] = []
        self.dirs: list[Path] = []

    def file(self, path: Path) -> Path:
        path = Path(path)
        if not path.exists():
            self.files.append(path)
        return path

    def directory(self, path: Path) -> Path:
        path = Path(path)
        if not path.exists():
            self.dirs.append(path)
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
            raise CliValidationError(
                f"unknown feature {token!r}; choose from {', '.join(FEATURE_NAMES)}"
            )
    if not chosen:
        raise CliValidationError("at least one feature must be selected")
    return dict(
        use_class="class" in chosen,
        use_spatial="spatial" in chosen,
        use_size="size" in chosen,
        use_temporal="temporal" in chosen,
        use_embedding="embedding" in chosen,
    )


def _feature_config(args) -> FeatureConfig:
    flags = _parse_features(args.features or "class")
    try:
        return FeatureConfig(
            num_classes=args.num_classes,
            segment_mode=args.segment_mode,
            min_segment_pixels=args.min_segment_pixels,
            connectivity=args.connectivity,
            **flags,
        )
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc


def _add_feature_flags(parser):
    parser.add_argument(
        "--features",
        default=None,
        help="comma-separated blocks: class,spatial,size,temporal,embedding "
        "(default: class)",
    )
    parser.add_argument("--num-classes", type=int, default=17,
                        help="segmentation label-map cardinality")
    parser.add_argument("--segment-mode", default="per-class-region",
                        choices=["per-class-region", "per-component"])
    parser.add_argument("--min-segment-pixels", type=int, default=10)
    parser.add_argument("--connectivity", type=int, default=4, choices=[4, 8])


def _train_config(args) -> TrainConfig:
    base = None
    if getattr(args, "config", None):
        try:
            base = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise CliValidationError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:
            raise CliValidationError(f"config {args.config} is not valid JSON: {exc}") from exc
    try:
        if base is not None:
            cfg = TrainConfig.from_json(base)
        else:
            cfg = TrainConfig(feature_config=_feature_config(args))
    except (TypeError, ValueError) as exc:
        raise CliValidationError(f"bad training config: {exc}") from exc

    overrides = {}
    for flag in ("window", "dilation", "epochs", "batch_size", "lr", "seed", "patience"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    if getattr(args, "phase_classes", None) is not None:
        overrides["num_classes"] = args.phase_classes
    if base is not None and getattr(args, "features", None) is not None:
        overrides["feature_config"] = _feature_config(args)
    return _replace_config(cfg, overrides)


def _replace_config(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    if not overrides:
        return cfg
    try:
        return replace(cfg, **overrides)
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc


# --- subcommands -------------------------------------------------------------------

def cmd_build_graphs(args) -> int:
    feature_cfg = _feature_config(args)
    window_cfg = None
    if args.mode == "dynamic":
        try:
            window_cfg = WindowConfig(window=args.window, dilation=args.dilation)
        except ValueError as exc:
            raise CliValidationError(str(exc)) from exc
    manifest = load_manifest(args.manifest)

    outputs = _Outputs()
    out_dir = outputs.directory(Path(args.out))
    try:
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
                    data["context_s"] = context_seconds(
                        args.window, args.dilation, manifest.fps
                    )
                    text = json.dumps(data).replace(
                        '"nodes": []', '"nodes": ' + node_text.nodes(graph), 1
                    )
                out_path.write_text(text + "\n")
                count += 1
        warn_skipped_frames(skipped, feature_cfg)
        print(f"wrote {count} {args.mode} graph files to {out_dir}")
        return 0
    except Exception:
        outputs.discard()
        raise


def cmd_train(args) -> int:
    cfg = _train_config(args)
    manifest = load_manifest(args.manifest)
    outputs = _Outputs()
    try:
        model, history = train(cfg, manifest, threads=args.threads)
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
    except Exception:
        outputs.discard()
        raise


def cmd_eval(args) -> int:
    header = checkpoint_header(args.checkpoint)
    model = load_checkpoint(args.checkpoint)
    stored = header.get("extra", {}).get("train_config")
    if stored is not None:
        cfg = TrainConfig.from_json(stored)
    else:
        cfg = _train_config(args)
    overrides = {}
    if args.window is not None:
        overrides["window"] = args.window
    if args.dilation is not None:
        overrides["dilation"] = args.dilation
    if args.features is not None:
        overrides["feature_config"] = _feature_config(args)
    cfg = _replace_config(cfg, overrides)

    manifest = load_manifest(args.manifest)
    videos = [v for v in manifest.videos if v.split == args.split]
    samples = build_samples(videos, cfg, threads=args.threads)
    metrics = evaluate(model, samples)
    print(f"accuracy={metrics.accuracy:.6f} macro_f1={metrics.macro_f1:.6f}")
    return 0


def cmd_explain(args) -> int:
    try:
        explain_cfg = ExplainConfig(
            iterations=args.iterations,
            lr=args.lr,
            sparsity=args.sparsity,
            entropy=args.entropy,
        )
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    model = load_checkpoint(args.checkpoint)
    data = json.loads(Path(args.graph).read_text())
    if "window" in data:
        graph = dynamic_graph_from_json(data)
    else:
        graph = graph_from_json(data)
    label_map = load_label_map(args.label_map) if args.label_map else default_label_map()

    outputs = _Outputs()
    try:
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
    except Exception:
        outputs.discard()
        raise


def cmd_synth(args) -> int:
    configs: list[SynthConfig] = []
    fps = 1
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise CliValidationError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:
            raise CliValidationError(f"config {args.config} is not valid JSON: {exc}") from exc
        try:
            if isinstance(raw, dict) and "videos" in raw:
                fps = int(raw.get("fps", 1))
                configs = [synth_config_from_json(v) for v in raw["videos"]]
            elif isinstance(raw, list):
                configs = [synth_config_from_json(v) for v in raw]
            else:
                configs = [synth_config_from_json(raw)]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliValidationError(f"bad synth config: {exc}") from exc
    else:
        preset = _PRESETS[args.preset]
        splits = [("train", args.train), ("val", args.val), ("test", args.test)]
        index = 0
        for split, count in splits:
            for _ in range(count):
                configs.append(
                    preset(
                        n_frames=args.n_frames,
                        seed=(args.seed or 0) + index,
                        video_id=f"{split}{index:02d}",
                        split=split,
                    )
                )
                index += 1
    if not configs:
        raise CliValidationError("synth config defines no videos")

    outputs = _Outputs()
    out_dir = outputs.directory(Path(args.out))
    try:
        manifest_path, manifest = generate_dataset(out_dir, configs, fps=fps)
        total = sum(cfg.n_frames for cfg in configs)
        print(
            f"wrote {len(configs)} videos ({total} frames) to {out_dir}; "
            f"manifest at {manifest_path}"
        )
        return 0
    except Exception:
        outputs.discard()
        raise


def cmd_ablate(args) -> int:
    try:
        raw = json.loads(Path(args.grid).read_text())
        if not isinstance(raw, list):
            raise ValueError("grid must be a JSON array of training configs")
        grid = [TrainConfig.from_json(entry) for entry in raw]
    except OSError as exc:
        raise CliValidationError(f"cannot read grid {args.grid}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliValidationError(f"bad ablation grid: {exc}") from exc
    manifest = load_manifest(args.manifest)

    outputs = _Outputs()
    try:
        rows = run_ablation(grid, manifest, threads=args.threads)
        write_ablation_csv(rows, outputs.file(Path(args.out_csv)), fps=manifest.fps)
        failed = sum(1 for r in rows if r.metrics is None)
        print(f"wrote {len(rows)} ablation rows to {args.out_csv} ({failed} failed)")
        return 0
    except Exception:
        outputs.discard()
        raise


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
    p.add_argument("--threads", type=int, default=1)
    _add_feature_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--dilation", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
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
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SurgraphError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
