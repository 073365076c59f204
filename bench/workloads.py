"""The benchmark's workloads: dataset shape, model shape and job size.

Every workload runs the same job (build samples, train, evaluate, explain,
export) on a dataset generated from ``--seed``. The sizes are fixed per
workload so that every run does the same amount of work; only the random
content of the masks changes with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from surgraph.pipeline import TrainConfig
from surgraph.scene_graph import SEGMENT_MODE_CLASS, SEGMENT_MODE_COMPONENT, FeatureConfig
from surgraph.synth import SynthConfig, preset_distinct_tools

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Workload:
    name: str
    videos: tuple[int, int, int]  # per split: train, val, test
    n_frames: int  # of every video
    mask_size: int
    speckle_noise: float
    segment_mode: str
    connectivity: int
    window: int
    dilation: int
    hidden_dims: tuple[int, ...]
    epochs: int
    eval_calls: int  # evaluate() calls per round: one call is short on small graphs
    explain_graphs: int
    explain_iters: int

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            num_classes=17,
            use_class=True,
            use_spatial=True,
            use_size=True,
            use_temporal=True,
            segment_mode=self.segment_mode,
            connectivity=self.connectivity,
        )

    def train_config(self, seed: int) -> TrainConfig:
        # patience >= epochs: early stopping can never shorten a run. One
        # sample per Adam step learns the phases within the few epochs a
        # run can afford (batches of 8 or 32 stayed near chance).
        return TrainConfig(
            feature_config=self.feature_config(),
            window=self.window,
            dilation=self.dilation,
            epochs=self.epochs,
            batch_size=1,
            lr=1e-3,
            seed=seed,
            patience=self.epochs,
            num_classes=19,
            hidden_dims=self.hidden_dims,
        )

    def synth_configs(self, seed: int) -> list[SynthConfig]:
        configs = []
        for split, count in zip(SPLITS, self.videos):
            for k in range(count):
                cfg = preset_distinct_tools(
                    n_frames=self.n_frames,
                    seed=seed * 1000 + len(configs),
                    video_id=f"{split}{k}",
                    split=split,
                    width=self.mask_size,
                    height=self.mask_size,
                )
                configs.append(replace(cfg, speckle_noise=self.speckle_noise))
        return configs

    def export_argv(self, manifest_path, out_dir) -> list[str]:
        return [
            "build-graphs",
            "--manifest", str(manifest_path),
            "--out", str(out_dir),
            "--mode", "dynamic",
            "--window", str(self.window),
            "--dilation", str(self.dilation),
            "--split", "test",
            "--features", "class,spatial,size,temporal",
            "--segment-mode", self.segment_mode,
            "--connectivity", str(self.connectivity),
        ]

    def smoke(self) -> "Workload":
        """A small copy that still learns enough for every check to pass."""
        return replace(
            self,
            n_frames=max(100, self.n_frames // 2),
            epochs=self.epochs + 1,
            eval_calls=1,
            explain_graphs=2,
            explain_iters=5,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="window30-paper",
            videos=(1, 1, 1),
            n_frames=240,
            mask_size=64,
            speckle_noise=0.0,
            segment_mode=SEGMENT_MODE_CLASS,
            connectivity=4,
            window=30,
            dilation=3,
            hidden_dims=(64, 64, 128, 128, 192, 128, 64, 64),
            epochs=3,
            eval_calls=4,
            explain_graphs=8,
            explain_iters=25,
        ),
        Workload(
            name="components-speckle",
            videos=(3, 1, 2),
            n_frames=150,
            mask_size=96,
            speckle_noise=0.9,
            segment_mode=SEGMENT_MODE_COMPONENT,
            connectivity=8,
            window=3,
            dilation=3,
            hidden_dims=(32, 32, 64, 64, 96, 64, 32, 32),
            epochs=4,
            eval_calls=60,
            explain_graphs=16,
            explain_iters=150,
        ),
    )
}
