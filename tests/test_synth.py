import dataclasses
import hashlib
import json

import numpy as np
import pytest

from surgraph.errors import AmbiguousRules, InvalidConfig, ScriptTooLong
from surgraph.ingest import (
    MAX_DIMENSION,
    SegmentationMask,
    load_manifest,
    load_mask,
    mask_to_bytes,
)
from surgraph.synth import (
    CORNEA,
    IRIS,
    PUPIL,
    SKIN,
    TOOL_CLASSES,
    ScriptPhase,
    SynthConfig,
    _draw_anatomy,
    _place_tools,
    classes_touch,
    corrupt_tool_classes,
    generate_dataset,
    generate_sequence,
    oracle_phase,
    preset_distinct_tools,
    preset_order_dependent,
    preset_planted_contact,
    synth_config_from_json,
)


def _present_tools(mask, min_pixels=10):
    return {
        t for t in TOOL_CLASSES if int((mask.class_ids == t).sum()) >= min_pixels
    }


TWO_PHASE = SynthConfig(
    n_frames=20,
    phase_script=(
        ScriptPhase(phase_id=1, duration=10, tools=(10,)),
        ScriptPhase(phase_id=2, duration=10, tools=(12,)),
    ),
    seed=0,
)


def test_script_drives_tools_and_labels():
    masks, track, entry = generate_sequence(TWO_PHASE)
    assert len(masks) == 20
    assert entry["n_frames"] == 20
    for f in range(10):
        assert _present_tools(masks[f]) == {10}
        assert track.label_at(f) == 1
    for f in range(10, 20):
        assert _present_tools(masks[f]) == {12}
        assert track.label_at(f) == 2


def test_anatomy_always_present():
    masks, _, _ = generate_sequence(TWO_PHASE)
    for mask in masks[:5]:
        present = set(np.unique(mask.class_ids))
        assert {PUPIL, IRIS, SKIN, CORNEA} <= present


def test_short_script_cycles():
    cfg = SynthConfig(
        n_frames=25,
        phase_script=(
            ScriptPhase(phase_id=1, duration=10, tools=(10,)),
            ScriptPhase(phase_id=2, duration=10, tools=(12,)),
        ),
    )
    _, track, _ = generate_sequence(cfg)
    assert track.label_at(20) == 1
    assert track.label_at(24) == 1


def test_script_too_long():
    cfg = SynthConfig(
        n_frames=5,
        phase_script=(ScriptPhase(phase_id=1, duration=10, tools=(10,)),),
    )
    with pytest.raises(ScriptTooLong):
        generate_sequence(cfg)


def test_script_too_long_names_its_video(tmp_path):
    # in a dataset of several videos, the error points at the one whose script is too long
    script = (ScriptPhase(phase_id=1, duration=10, tools=(10,)),)
    configs = [
        SynthConfig(n_frames=n, phase_script=script, video_id=video_id)
        for video_id, n in (("fits", 12), ("short", 5))
    ]
    message = r"^video 'short': script covers 10 frames, sequence has 5$"
    with pytest.raises(ScriptTooLong, match=message):
        generate_dataset(tmp_path, configs)


def test_noise_free_generation_is_deterministic():
    a, _, _ = generate_sequence(TWO_PHASE)
    b, _, _ = generate_sequence(TWO_PHASE)
    for ma, mb in zip(a, b):
        assert mask_to_bytes(ma) == mask_to_bytes(mb)
    other, _, _ = generate_sequence(
        SynthConfig(n_frames=20, phase_script=TWO_PHASE.phase_script, seed=1)
    )
    assert any(
        mask_to_bytes(ma) != mask_to_bytes(mo) for ma, mo in zip(a, other)
    )


def test_planted_contact_holds_per_phase():
    cfg = preset_planted_contact(phase_frames=10, n_frames=60, seed=3)
    masks, track, _ = generate_sequence(cfg)
    for mask in masks:
        touching = classes_touch(mask.class_ids, 14, PUPIL)
        label = track.label_at(mask.frame_index)
        assert touching == (label == 4)


def test_oracle_agrees_on_noise_free_frames():
    total = 0
    for seed in range(4):
        cfg = preset_distinct_tools(n_frames=250, phase_frames=25, seed=seed)
        masks, track, _ = generate_sequence(cfg)
        for mask in masks:
            assert oracle_phase(mask, cfg.phase_script) == track.label_at(
                mask.frame_index
            )
            total += 1
    assert total == 1000


def test_oracle_disagreement_tracks_tool_noise():
    rate = 0.1
    disagree = 0
    total = 0
    for seed in range(10):
        cfg = preset_distinct_tools(
            n_frames=250, phase_frames=25, seed=seed, tool_noise=rate
        )
        masks, track, _ = generate_sequence(cfg)
        for mask in masks:
            if oracle_phase(mask, cfg.phase_script) != track.label_at(mask.frame_index):
                disagree += 1
            total += 1
    assert total == 2500
    assert disagree / total == pytest.approx(rate, abs=0.02)


def test_oracle_no_tools_is_idle():
    cfg = SynthConfig(
        n_frames=1, phase_script=(ScriptPhase(phase_id=1, duration=1, tools=(10,)),)
    )
    masks, _, _ = generate_sequence(cfg)
    img = masks[0].class_ids.copy()
    img[np.isin(img, TOOL_CLASSES)] = SKIN
    bare = masks[0].__class__(masks[0].width, masks[0].height, img, 0)
    assert oracle_phase(bare, cfg.phase_script) == 0


def test_oracle_duplicate_signature_rejected():
    rules = (
        ScriptPhase(phase_id=1, duration=1, tools=(10,)),
        ScriptPhase(phase_id=2, duration=1, tools=(10,)),
    )
    masks, _, _ = generate_sequence(TWO_PHASE)
    with pytest.raises(AmbiguousRules):
        oracle_phase(masks[0], rules)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(width=8, phase_script=(ScriptPhase(1, 1, (10,)),))
    with pytest.raises(ValueError):
        SynthConfig(phase_script=())
    with pytest.raises(ValueError):
        SynthConfig(phase_script=(ScriptPhase(1, 1, (10,)),), tool_noise=1.5)
    with pytest.raises(ValueError):
        ScriptPhase(phase_id=1, duration=1, tools=(3,))  # anatomy, not a tool
    with pytest.raises(ValueError):
        ScriptPhase(phase_id=99, duration=1, tools=(10,))


@pytest.mark.parametrize("side", ["width", "height"])
def test_config_frame_side_is_at_most_the_largest_readable_mask(side):
    # only configs are built here: no frame is drawn
    script = (ScriptPhase(1, 1, (10,)),)
    assert getattr(SynthConfig(phase_script=script, **{side: MAX_DIMENSION}), side) == MAX_DIMENSION
    for size in (MAX_DIMENSION + 1, 10**400):
        with pytest.raises(InvalidConfig, match=f"^{side} must be at most {MAX_DIMENSION}$"):
            SynthConfig(phase_script=script, **{side: size})


def test_corrupt_tool_classes_swaps_every_tool():
    cfg = preset_distinct_tools(n_frames=4, phase_frames=1, seed=0)
    masks, _, _ = generate_sequence(cfg)
    rng = np.random.default_rng(0)
    for mask in masks:
        before = _present_tools(mask)
        swapped = corrupt_tool_classes(mask, rng)
        after = _present_tools(swapped)
        assert before and after.isdisjoint(before)
        # anatomy untouched
        for cid in (PUPIL, IRIS, SKIN, CORNEA):
            np.testing.assert_array_equal(
                mask.class_ids == cid, swapped.class_ids == cid
            )


def test_order_dependent_preset_alternates():
    cfg = preset_order_dependent(half_period=5, n_frames=30)
    masks, track, _ = generate_sequence(cfg)
    labels = [track.label_at(f) for f in range(30)]
    assert labels == ([3] * 5 + [12] * 5) * 3
    assert _present_tools(masks[0]) == {10}
    assert _present_tools(masks[5]) == {12}


def test_generate_dataset_round_trips_through_ingest(tmp_path):
    cfgs = [
        preset_distinct_tools(n_frames=8, phase_frames=2, seed=s,
                              video_id=f"v{s}", split=split)
        for s, split in ((0, "train"), (1, "val"), (2, "test"))
    ]
    manifest_path, manifest = generate_dataset(tmp_path, cfgs, fps=1)
    loaded = load_manifest(manifest_path)
    assert [v.video_id for v in loaded.videos] == ["v0", "v1", "v2"]
    assert [v.split for v in loaded.videos] == ["train", "val", "test"]
    mask = load_mask(loaded.videos[0].mask_dir / "000003.sgm")
    assert (mask.width, mask.height) == (64, 64)
    assert mask.frame_index == 3


def test_config_json_round_trip():
    cfg = preset_planted_contact(seed=9)
    again = synth_config_from_json(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert again == cfg


def test_config_json_takes_defaults_and_rejects_unknown_keys():
    script = [{"phase_id": 4, "duration": 3, "tools": [14], "touch": [[14, PUPIL]]}]
    cfg = synth_config_from_json({"phase_script": script})
    defaults = SynthConfig(phase_script=cfg.phase_script)
    assert cfg == defaults and cfg.n_frames == 100
    assert cfg.phase_script[0].touch == ((14, PUPIL),)
    with pytest.raises(TypeError, match="frames"):
        synth_config_from_json({"phase_script": script, "frames": 10})
    with pytest.raises(TypeError, match="colour"):
        synth_config_from_json({"phase_script": [{**script[0], "colour": 1}]})
    with pytest.raises(TypeError):
        synth_config_from_json([script])


def test_classes_touch_examples():
    img = np.array([[1, 2], [3, 3]], dtype=np.uint8)
    assert classes_touch(img, 1, 2)
    assert classes_touch(img, 2, 1)
    assert classes_touch(img, 1, 3)
    diag = np.array([[1, 9], [9, 2]], dtype=np.uint8)
    assert not classes_touch(diag, 1, 2)
    assert not classes_touch(img, 1, 7)  # class 7 absent


def _touch_by_pixel_pairs(img, a, b):
    """Walk every 4-neighbour pixel pair, in both orders."""
    h, w = img.shape
    pairs = [((y, x), (y + dy, x + dx)) for y in range(h) for x in range(w)
             for dy, dx in ((0, 1), (1, 0)) if y + dy < h and x + dx < w]
    return any(
        (img[p] == a and img[q] == b) or (img[p] == b and img[q] == a) for p, q in pairs
    )


def test_classes_touch_matches_a_walk_over_pixel_pairs():
    rng = np.random.default_rng(4)
    shapes = [(1, 1), (1, 7), (7, 1), (1, 2), (2, 1)] + [
        tuple(rng.integers(1, 9, size=2)) for _ in range(40)
    ]
    checked = 0
    for shape in shapes:
        img = rng.integers(0, 4, size=shape).astype(np.uint8)  # class 4 is always absent
        for a in range(5):
            for b in range(5):  # a == b included
                assert classes_touch(img, a, b) == _touch_by_pixel_pairs(img, a, b), (img, a, b)
                checked += 1
    assert checked == 25 * len(shapes)


@pytest.mark.parametrize("pixels, present", [(9, False), (10, True)])
def test_a_tool_counts_as_present_from_ten_pixels(pixels, present):
    """One presence rule for the generator's check and for the oracle."""
    rng = np.random.default_rng(0)
    img, geo = _draw_anatomy(rng, 32, 32)
    img.ravel()[:pixels] = 10  # the start of the top row, which is skin
    bare = ScriptPhase(phase_id=1, duration=1)
    # a phase without tools accepts the frame only if tool 10 is absent
    assert _place_tools(img.copy(), geo, bare, rng) == (not present)
    rule = (ScriptPhase(phase_id=3, duration=1, tools=(10,)),)
    mask = SegmentationMask(width=32, height=32, class_ids=img)
    assert oracle_phase(mask, rule) == (3 if present else 0)


# sha256 of every file ``_pinned_dataset`` writes. It was taken with the generator
# before its presence count, contact test and distance map were vectorised, so it
# holds later versions to the same bytes.
PINNED_SHA256 = "28b3dac1765fa28ed2d3f78b8c4794b902aeabf4adb3472026252a0cbef472c6"


def _pinned_dataset(out):
    configs = [
        dataclasses.replace(
            preset_distinct_tools(n_frames=24, phase_frames=6, seed=5, video_id="distinct",
                                  tool_noise=0.3, width=17, height=23),
            speckle_noise=0.5,
        ),
        preset_order_dependent(half_period=4, n_frames=24, seed=6, video_id="order",
                               split="val", width=16, height=16),
        preset_planted_contact(phase_frames=6, n_frames=24, seed=7, video_id="contact",
                               split="test"),
    ]
    generate_dataset(out, configs)


def test_generated_bytes_are_pinned(tmp_path):
    _pinned_dataset(tmp_path)
    digest = hashlib.sha256()
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == 3 * 24 + 3 + 1  # masks, phase CSVs and the manifest
    for name in files:
        digest.update(name.encode() + b"\0")
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == PINNED_SHA256
