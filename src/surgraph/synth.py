"""Synthetic mask sequences with rule-defined phase labels.

Frames are concentric anatomy discs (pupil inside iris inside cornea on a
skin background) with seeded jitter, plus rectangular tool blobs placed per
the active phase's tool set. Because labels follow explicit presence/contact
rules, an independent oracle can recompute them from the pixels — which is
what the end-to-end tests lean on. Optional noise corrupts tool class ids
and sprinkles speckle pixels. A config's JSON is its dataclass fields
(``synth_config_from_json``). Every random draw happens in a fixed order,
so a config fixes every byte written; ``test_generated_bytes_are_pinned``
in ``tests/test_synth.py`` guards that output with a sha256.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import AmbiguousRules, InvalidConfig, ScriptTooLong, _is_folder_name, check_fields
from .ingest import (
    DEFAULT_PHASE_NAMES,
    VALID_SPLITS,
    DatasetManifest,
    PhaseTrack,
    SegmentationMask,
    VideoEntry,
    write_manifest,
    write_mask,
    write_phase_labels,
)

# class ids from the bundled 17-class map
PUPIL, IRIS, SKIN, CORNEA = 0, 4, 5, 6
TOOL_CLASSES = tuple(range(7, 17))

IDLE_PHASE = 0

_PRESENCE_MIN_PIXELS = 10  # scattered speckle never reaches this


@dataclass(frozen=True)
class ScriptPhase:
    """One scripted stretch of frames: a phase id and its tool behaviour.

    ``touch`` lists (tool, anatomy) contacts that must exist in the frame;
    ``avoid`` lists contacts that must not. Contacts are 4-neighbourhood
    pixel adjacencies, the same relation the scene graph uses for edges.
    """

    phase_id: int
    duration: int
    tools: tuple[int, ...] = ()
    touch: tuple[tuple[int, int], ...] = ()
    avoid: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        check_fields(self)
        if self.duration < 1:
            raise InvalidConfig("phase duration must be >= 1")
        if not 0 <= self.phase_id < len(DEFAULT_PHASE_NAMES):
            raise InvalidConfig(f"phase id {self.phase_id} outside the phase vocabulary")
        for t in self.tools:
            if t not in TOOL_CLASSES:
                raise InvalidConfig(f"class {t} is not a tool class")
        object.__setattr__(self, "tools", tuple(sorted(self.tools)))
        object.__setattr__(self, "touch", tuple(tuple(pair) for pair in self.touch))
        object.__setattr__(self, "avoid", tuple(tuple(pair) for pair in self.avoid))


@dataclass(frozen=True)
class SynthConfig:
    """One synthetic video. ``video_id`` names its folder, so it is one path
    component; ``split`` is one of ``ingest.VALID_SPLITS``."""

    width: int = 64
    height: int = 64
    n_frames: int = 100
    phase_script: tuple[ScriptPhase, ...] = ()
    tool_noise: float = 0.0  # per frame, per tool: chance of a wrong class id
    speckle_noise: float = 0.0  # per frame: chance of sprinkling noise pixels
    seed: int = 0
    video_id: str = "synth0"
    split: str = "train"

    def __post_init__(self):
        check_fields(self)
        if self.width < 16 or self.height < 16:
            raise InvalidConfig("frames must be at least 16x16")
        if self.n_frames < 1:
            raise InvalidConfig("n_frames must be >= 1")
        if self.n_frames > np.iinfo(np.int64).max:  # frame indices are stored as int64
            raise InvalidConfig("n_frames must fit a 64-bit integer")
        if not self.phase_script:
            raise InvalidConfig("phase_script must be non-empty")
        for p in (self.tool_noise, self.speckle_noise):
            if not 0.0 <= p < 1.0:
                raise InvalidConfig(f"noise probability {p} outside [0, 1)")
        if not _is_folder_name(self.video_id):
            raise InvalidConfig(f"video_id {self.video_id!r} is not a single folder name")
        if self.split not in VALID_SPLITS:
            raise InvalidConfig(f"split {self.split!r} is not one of {', '.join(VALID_SPLITS)}")
        object.__setattr__(self, "phase_script", tuple(self.phase_script))


def classes_touch(class_ids: np.ndarray, a: int, b: int) -> bool:
    """True when some pixel of class a is 4-adjacent to a pixel of class b."""
    am = class_ids == a
    bm = class_ids == b
    if not am.any() or not bm.any():
        return False
    for x, y in ((am, bm), (bm, am)):
        if (x[:-1] & y[1:]).any() or (x[:, :-1] & y[:, 1:]).any():
            return True
    return False


def _present_tools(img: np.ndarray) -> tuple[int, ...]:
    """The tool classes with at least ``_PRESENCE_MIN_PIXELS`` pixels, ascending."""
    counts = np.bincount(img.ravel(), minlength=TOOL_CLASSES[-1] + 1)
    return tuple(t for t in TOOL_CLASSES if counts[t] >= _PRESENCE_MIN_PIXELS)


def _expand_script(script, n_frames, video_id) -> list[ScriptPhase]:
    total = sum(p.duration for p in script)
    if total > n_frames:
        raise ScriptTooLong(
            f"video {video_id!r}: script covers {total} frames, sequence has {n_frames}"
        )
    per_frame = []
    while len(per_frame) < n_frames:
        for phase in script:
            per_frame.extend([phase] * phase.duration)
    return per_frame[:n_frames]


def _draw_anatomy(rng, width, height):
    base = min(width, height)
    cx = width / 2 + rng.uniform(-2, 2)
    cy = height / 2 + rng.uniform(-2, 2)
    pupil_r = 0.14 * base + rng.uniform(-1, 1)
    iris_r = 0.30 * base + rng.uniform(-1, 1)
    cornea_r = 0.45 * base + rng.uniform(-1, 1)
    dist = np.sqrt((np.arange(width) - cx) ** 2 + (np.arange(height) - cy)[:, None] ** 2)
    img = np.full((height, width), SKIN, dtype=np.uint8)
    img[dist <= cornea_r] = CORNEA
    img[dist <= iris_r] = IRIS
    img[dist <= pupil_r] = PUPIL
    geo = {"cx": cx, "cy": cy, "pupil_r": pupil_r, "iris_r": iris_r, "cornea_r": cornea_r}
    return img, geo


def _stamp_rect(img, cx, cy, half_w, half_h, class_id):
    h, w = img.shape
    x0 = max(0, int(round(cx - half_w)))
    x1 = min(w, int(round(cx + half_w)))
    y0 = max(0, int(round(cy - half_h)))
    y1 = min(h, int(round(cy + half_h)))
    img[y0:y1, x0:x1] = class_id


def _place_tools(img, geo, phase: ScriptPhase, rng) -> bool:
    """Stamp the phase's tools, honouring its contact constraints.

    Tools touching the pupil are centred on the pupil boundary; all others
    sit in the cornea/iris ring, far enough out that the pupil stays clear.
    Returns False when the result violates the phase's rules (caller
    redraws).
    """
    width = img.shape[1]
    height = img.shape[0]
    must_touch = {tool: anat for tool, anat in phase.touch}
    n = len(phase.tools)
    base_angle = rng.uniform(0, 2 * np.pi)
    for k, tool in enumerate(phase.tools):
        area = rng.uniform(0.03, 0.08) * width * height
        aspect = rng.uniform(0.6, 1.6)
        half_w = max(2.0, np.sqrt(area * aspect) / 2)
        half_h = max(2.0, (area / (2 * half_w)) / 2)
        half_diag = np.hypot(half_w, half_h)
        angle = base_angle + 2 * np.pi * k / max(n, 1) + rng.uniform(-0.3, 0.3)
        if must_touch.get(tool) == PUPIL:
            radius = geo["pupil_r"] + rng.uniform(-1.0, 1.0)
        else:
            lo = max(geo["iris_r"] + 1.0, geo["pupil_r"] + half_diag + 2.0)
            hi = max(lo + 1.0, geo["cornea_r"] - 2.0)
            radius = rng.uniform(lo, hi)
        cx = geo["cx"] + radius * np.cos(angle)
        cy = geo["cy"] + radius * np.sin(angle)
        cx = float(min(max(cx, half_w + 1), width - half_w - 1))
        cy = float(min(max(cy, half_h + 1), height - half_h - 1))
        _stamp_rect(img, cx, cy, half_w, half_h, tool)

    if set(_present_tools(img)) != set(phase.tools):
        return False
    for tool, anat in phase.touch:
        if not classes_touch(img, tool, anat):
            return False
    for tool, anat in phase.avoid:
        if classes_touch(img, tool, anat):
            return False
    return True


def _corrupt_frame(img, phase: ScriptPhase, rng, tool_noise):
    for tool in phase.tools:
        if tool_noise > 0.0 and rng.random() < tool_noise:
            others = [t for t in TOOL_CLASSES if t != tool]
            img[img == tool] = others[rng.integers(len(others))]


def _speckle_frame(img, rng, speckle_noise):
    if speckle_noise <= 0.0 or rng.random() >= speckle_noise:
        return
    h, w = img.shape
    count = max(1, (h * w) // 500)
    ys = rng.integers(0, h, size=count)
    xs = rng.integers(0, w, size=count)
    img[ys, xs] = rng.integers(0, 17, size=count).astype(np.uint8)


def generate_sequence(cfg: SynthConfig):
    """(masks, phase track, manifest-entry metadata) for one video.

    A script shorter than n_frames repeats from its first phase; one longer
    than n_frames raises ScriptTooLong. With zero noise the generation is a
    pure function of the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    per_frame = _expand_script(cfg.phase_script, cfg.n_frames, cfg.video_id)
    masks = []
    phases = []
    for frame, phase in enumerate(per_frame):
        for attempt in range(60):
            img, geo = _draw_anatomy(rng, cfg.width, cfg.height)
            if not phase.tools:
                break
            scratch = img.copy()
            if _place_tools(scratch, geo, phase, rng):
                img = scratch
                break
        else:
            raise InvalidConfig(
                f"video {cfg.video_id!r}: could not satisfy the rules of phase "
                f"{phase.phase_id} in {cfg.width}x{cfg.height} frames"
            )
        _corrupt_frame(img, phase, rng, cfg.tool_noise)
        _speckle_frame(img, rng, cfg.speckle_noise)
        masks.append(
            SegmentationMask(
                width=cfg.width, height=cfg.height, class_ids=img, frame_index=frame
            )
        )
        phases.append(phase.phase_id)
    track = PhaseTrack(
        video_id=cfg.video_id,
        frames=np.arange(cfg.n_frames, dtype=np.int64),
        phases=np.asarray(phases, dtype=np.int64),
    )
    entry = {"video_id": cfg.video_id, "split": cfg.split, "n_frames": cfg.n_frames}
    return masks, track, entry


def oracle_phase(mask: SegmentationMask, script_rules) -> int:
    """Recompute a frame's phase from tool presence and contact rules alone.

    Raises AmbiguousRules when two different phase ids share one rule
    signature, or when a frame satisfies rules of two different phases.
    Frames matching no rule (e.g. no tools) are idle (0).
    """
    rules = []
    signatures = {}
    for phase in script_rules:
        sig = (phase.tools, tuple(sorted(phase.touch)), tuple(sorted(phase.avoid)))
        prior = signatures.get(sig)
        if prior is not None and prior != phase.phase_id:
            raise AmbiguousRules(
                f"phases {prior} and {phase.phase_id} share one rule signature"
            )
        if prior is None:
            signatures[sig] = phase.phase_id
            rules.append(phase)

    img = mask.class_ids
    present = _present_tools(img)
    matched = []
    for phase in rules:
        if phase.tools != present:
            continue
        if any(not classes_touch(img, t, a) for t, a in phase.touch):
            continue
        if any(classes_touch(img, t, a) for t, a in phase.avoid):
            continue
        matched.append(phase.phase_id)
    unique = sorted(set(matched))
    if len(unique) > 1:
        raise AmbiguousRules(f"frame matches phases {unique}")
    return unique[0] if unique else IDLE_PHASE


def corrupt_tool_classes(mask: SegmentationMask, rng) -> SegmentationMask:
    """Swap every tool's pixels to a different random tool class."""
    img = mask.class_ids.copy()
    for tool in TOOL_CLASSES:
        region = img == tool
        if region.any():
            others = [t for t in TOOL_CLASSES if t != tool]
            img[region] = others[rng.integers(len(others))]
    return replace(mask, class_ids=img)


# --- presets -----------------------------------------------------------------------

def preset_distinct_tools(
    n_frames: int = 300,
    phase_frames: int | None = None,
    seed: int = 0,
    video_id: str = "synth0",
    split: str = "train",
    tool_noise: float = 0.0,
    width: int = 64,
    height: int = 64,
) -> SynthConfig:
    """Four phases, each a different single tool: separable from class sets."""
    if phase_frames is None:
        phase_frames = max(1, n_frames // 4)
    script = (
        ScriptPhase(phase_id=3, duration=phase_frames, tools=(10,)),
        ScriptPhase(phase_id=5, duration=phase_frames, tools=(16,)),
        ScriptPhase(phase_id=8, duration=phase_frames, tools=(11,)),
        ScriptPhase(phase_id=10, duration=phase_frames, tools=(13,)),
    )
    return SynthConfig(
        width=width,
        height=height,
        n_frames=n_frames,
        phase_script=script,
        tool_noise=tool_noise,
        seed=seed,
        video_id=video_id,
        split=split,
    )


def preset_order_dependent(
    half_period: int | None = None,
    n_frames: int = 300,
    seed: int = 0,
    video_id: str = "synth0",
    split: str = "train",
    width: int = 64,
    height: int = 64,
) -> SynthConfig:
    """Two alternating phases whose tools differ but whose windows don't.

    Over a window spanning exactly one full period (2 * half_period frames)
    the multiset of frames is the same for both labels — only the order of
    the two halves differs, so position-in-window information is required to
    tell them apart.
    """
    if half_period is None:
        half_period = max(1, min(10, n_frames // 2))
    script = (
        ScriptPhase(phase_id=3, duration=half_period, tools=(10,)),
        ScriptPhase(phase_id=12, duration=half_period, tools=(12,)),
    )
    return SynthConfig(
        width=width,
        height=height,
        n_frames=n_frames,
        phase_script=script,
        seed=seed,
        video_id=video_id,
        split=split,
    )


def preset_planted_contact(
    phase_frames: int | None = None,
    n_frames: int = 200,
    seed: int = 0,
    video_id: str = "synth0",
    split: str = "train",
    width: int = 64,
    height: int = 64,
) -> SynthConfig:
    """One tool whose pupil contact decides the phase.

    Phase 4: the tool crosses into the pupil (tool-pupil edge exists).
    Phase 14: the same tool stays out in the iris/cornea ring. The
    tool-pupil edge is therefore the planted discriminator an explanation
    should surface.
    """
    if phase_frames is None:
        phase_frames = max(1, min(10, n_frames // 2))
    tool = 14
    script = (
        ScriptPhase(
            phase_id=4, duration=phase_frames, tools=(tool,), touch=((tool, PUPIL),)
        ),
        ScriptPhase(
            phase_id=14, duration=phase_frames, tools=(tool,), avoid=((tool, PUPIL),)
        ),
    )
    return SynthConfig(
        width=width,
        height=height,
        n_frames=n_frames,
        phase_script=script,
        seed=seed,
        video_id=video_id,
        split=split,
    )


# --- dataset emission ---------------------------------------------------------------

def generate_dataset(
    out_dir: str | Path, configs: list[SynthConfig], fps: float = 1
) -> tuple[Path, DatasetManifest]:
    """Write SGM1 masks, phase CSVs, and a manifest for a list of videos."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for cfg in configs:
        masks, track, _ = generate_sequence(cfg)
        video_dir = out_dir / cfg.video_id
        mask_dir = video_dir / "masks"
        mask_dir.mkdir(parents=True, exist_ok=True)
        for mask in masks:
            write_mask(mask, mask_dir / f"{mask.frame_index:06d}.sgm")
        csv_path = video_dir / "phases.csv"
        write_phase_labels(track, csv_path)
        entries.append(
            VideoEntry(
                video_id=cfg.video_id,
                mask_dir=mask_dir,
                phase_csv=csv_path,
                split=cfg.split,
            )
        )
    manifest = DatasetManifest(fps=fps, videos=tuple(entries))
    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path, manifest


def synth_config_from_json(data: dict) -> SynthConfig:
    """A ``SynthConfig`` from its fields as JSON, e.g. ``dataclasses.asdict`` of one.

    Absent fields take the dataclass defaults; data that is not an object,
    or an unknown key, raises TypeError.
    """
    return SynthConfig(
        **{**data, "phase_script": tuple(ScriptPhase(**p) for p in data.get("phase_script", ()))}
    )
