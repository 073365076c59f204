"""Stage benchmark for surgraph: one seeded job per run, checked and timed.

Usage, from the root of a source checkout:

    python3 bench/run_bench.py --workload window30-paper --seed 1 --seconds 50 --trace 0
    python3 bench/run_bench.py --smoke

A run generates a synthetic dataset from ``--seed`` (several times, to time
set-up), warms every code path on a tiny dataset, and then repeats whole
rounds of the job

    build_samples -> train -> evaluate -> explain_prediction -> cli build-graphs

until ``--seconds`` are used up. The first round's outputs are checked
against computations made apart from the program (see oracles.py); later
rounds must reproduce them bitwise. Each rate is the work of all untraced
rounds over the time they spent in its stage.
With ``--trace 1`` every second round runs with spans recorded around calls
into each surgraph module (see tracing.py), and the per-module metrics are
derived from those spans. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a result
file with the metrics, the source revision and the environment, and with
``--trace 1`` a span file, go to bench/out/results/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the job runs on one thread (the traced pass alone starts a
# two-thread pool, for pipeline.build_samples_threads2_s), and BLAS threads
# on a shared 2-vCPU host only add scatter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "surgraph" / "__init__.py").is_file():
    sys.exit(f"error: no surgraph sources under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import surgraph  # noqa: E402
from surgraph import cli  # noqa: E402
from surgraph.dynamic_graph import build_dynamic_graph, select_window  # noqa: E402
from surgraph.explain import ExplainConfig, explain_prediction  # noqa: E402
from surgraph.gcn import forward_prepared, gcn_layer_forward, loss_and_gradients_prepared  # noqa: E402
from surgraph.ingest import list_mask_files, load_mask  # noqa: E402
from surgraph.numerics import DENSE_NODE_LIMIT, SparseAdjacency  # noqa: E402
from surgraph.pipeline import build_samples, evaluate, split_dataset, train  # noqa: E402
from surgraph.scene_graph import (  # noqa: E402
    SEGMENT_MODE_CLASS,
    SEGMENT_MODE_COMPONENT,
    build_static_graph,
    extract_segments,
)
from surgraph.synth import generate_dataset  # noqa: E402

import oracles  # noqa: E402
from tracing import APPLY_CSR, APPLY_DENSE, Tracer, traced_calls  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

if Path(surgraph.__file__).resolve().parent != ROOT / "src" / "surgraph":
    sys.exit(f"error: imported surgraph from {surgraph.__file__}, not from {ROOT / 'src'}")

OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = 5  # dataset generations per run; setup_s is their median
# Test accuracy must beat the majority-class share by this many binomial
# standard errors of a chance-level classifier.
ACCURACY_SIGMAS = 4.0
GRAD_TOLERANCE = 1e-4  # relative error allowed between backward and central differences
GRAD_EPS = 1e-6  # central-difference step: small enough to rarely straddle a ReLU kink
GRAD_CANDIDATES = 8  # largest gradient entries tried per parameter block
P99_MIN_CALLS = 1000


# End-to-end metric -> the stage of a round it divides work by time in.
RATES = {
    "build_windows_per_s": "build",
    "train_samples_per_s": "train",
    "eval_windows_per_s": "evaluate",
    "explain_iters_per_s": "explain",
    "export_graphs_per_s": "export",
}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# --- set-up -------------------------------------------------------------------------


@dataclass
class Dataset:
    manifest_path: Path
    manifest: object
    train: list
    val: list
    test: list
    scripts: dict  # video id -> phase script the generator followed
    frames: int


def generate(wl: Workload, seed: int, data_dir: Path, call=_direct) -> tuple[Dataset, dict]:
    """Write the workload's dataset into ``data_dir``, which must not exist yet.

    Returns the dataset and the wall and user-mode CPU seconds of the
    generate_dataset call.
    """
    configs = wl.synth_configs(seed)
    user = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    start = time.perf_counter()
    manifest_path, manifest = call("synth.generate_dataset", generate_dataset, data_dir, configs)
    cost = {
        "wall": time.perf_counter() - start,
        "user": resource.getrusage(resource.RUSAGE_SELF).ru_utime - user,
    }
    tr, va, te = split_dataset(manifest)
    scripts = {c.video_id: c.phase_script for c in configs}
    frames = sum(c.n_frames for c in configs)
    return Dataset(manifest_path, manifest, tr, va, te, scripts, frames), cost


# --- the job ------------------------------------------------------------------------


@dataclass
class Round:
    work: dict  # stage -> units of work done (windows, samples, iterations, files)
    spent: dict  # stage -> wall seconds
    samples: list
    test_samples: list
    model: object
    history: list
    metrics: object
    graphs: list  # (video id, anchor frame, DynamicGraph)
    explanations: list
    export_dir: Path
    export_files: int
    export_bytes: int
    rc: int

    def digest(self):
        return (
            len(self.samples),
            tuple(h["train_loss"] for h in self.history),
            self.metrics.accuracy,
            tuple(float(e.edge_importance.sum()) for e in self.explanations),
            self.export_files,
            self.export_bytes,
        )


def window_graph(wl: Workload, video, frame: int):
    masks = dict(list_mask_files(video.mask_dir))
    cfg = wl.feature_config()
    graphs = [
        build_static_graph(load_mask(masks[f], frame_index=f), None, cfg)
        for f in select_window(frame, wl.window, wl.dilation)
    ]
    return build_dynamic_graph(graphs, wl.train_config(0).window_config())


def explain_anchors(wl: Workload, ds: Dataset) -> list[tuple[object, int]]:
    """Fixed, evenly spaced anchors of full windows, cycling over test videos."""
    last = wl.n_frames - 1
    first = min((wl.window - 1) * wl.dilation, last)
    count = wl.explain_graphs
    return [
        (ds.test[k % len(ds.test)], first + (last - first) * k // max(count - 1, 1))
        for k in range(count)
    ]


def run_job(wl: Workload, seed: int, ds: Dataset, export_dir: Path, call=_direct) -> Round:
    cfg = wl.train_config(seed)
    videos = ds.train + ds.val + ds.test
    gc.collect()
    work, spent = {}, {}
    job_start = time.perf_counter()

    start = time.perf_counter()
    samples = []
    for video in videos:
        samples.extend(call("pipeline.build_samples", build_samples, [video], cfg))
    spent["build"], work["build"] = time.perf_counter() - start, len(samples)

    start = time.perf_counter()
    model, history = call("pipeline.train", train, cfg, ds.manifest)
    spent["train"] = time.perf_counter() - start
    train_ids = {v.video_id for v in ds.train}
    work["train"] = wl.epochs * sum(1 for s in samples if s.video_id in train_ids)

    test_ids = {v.video_id for v in ds.test}
    test_samples = [s for s in samples if s.video_id in test_ids]
    start = time.perf_counter()
    for _ in range(wl.eval_calls):
        metrics = call("pipeline.evaluate", evaluate, model, test_samples)
    spent["evaluate"], work["evaluate"] = time.perf_counter() - start, wl.eval_calls * len(test_samples)

    graphs = [(v.video_id, f, window_graph(wl, v, f)) for v, f in explain_anchors(wl, ds)]
    explain_cfg = ExplainConfig(iterations=wl.explain_iters)
    start = time.perf_counter()
    explanations = [
        call("explain.explain_prediction", explain_prediction, model, g, explain_cfg)
        for _, _, g in graphs
    ]
    spent["explain"], work["explain"] = time.perf_counter() - start, wl.explain_iters * len(graphs)

    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):  # keep the result line last on stdout
        rc = call("cli.run", cli.run, wl.export_argv(ds.manifest_path, export_dir))
    spent["export"] = time.perf_counter() - start
    spent["job"] = time.perf_counter() - job_start

    files = sorted(export_dir.glob("*.json")) if export_dir.is_dir() else []
    work["export"] = len(files)
    return Round(
        work=work,
        spent=spent,
        samples=samples,
        test_samples=test_samples,
        model=model,
        history=history,
        metrics=metrics,
        graphs=graphs,
        explanations=explanations,
        export_dir=export_dir,
        export_files=len(files),
        export_bytes=sum(f.stat().st_size for f in files),
        rc=rc,
    )


# --- checks -------------------------------------------------------------------------


def run_checks(wl: Workload, ds: Dataset, r: Round) -> list[tuple[str, bool, str]]:
    out = []

    def check(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    by_key = {(s.video_id, s.frame_index): s for s in r.samples}

    # Spatial edges, both segment modes and both connectivities, on a few frames.
    probes = [(ds.test[0], 0), (ds.train[0], wl.n_frames // 3), (ds.val[0], 2 * wl.n_frames // 3)]
    bad = []
    for video, frame in probes:
        mask = load_mask(dict(list_mask_files(video.mask_dir))[frame], frame_index=frame)
        for mode in (SEGMENT_MODE_CLASS, SEGMENT_MODE_COMPONENT):
            for connectivity in (4, 8):
                fc = replace(wl.feature_config(), segment_mode=mode, connectivity=connectivity)
                graph = build_static_graph(mask, None, fc)
                nodes, edges = oracles.pixel_pair_segments(
                    mask.class_ids, mode, connectivity, fc.min_segment_pixels
                )
                got = [(n.class_id, round(n.size * mask.width * mask.height)) for n in graph.nodes]
                if got != nodes or list(graph.edges) != edges:
                    bad.append(f"{video.video_id}/{frame} {mode} {connectivity}")
    check("spatial edges match a pixel-pair walk", not bad, ", ".join(bad))

    # Windows: temporal edges, features and normalized adjacency.
    windows = list(r.graphs)
    for frame in (0, (wl.window - 1) * wl.dilation // 2):
        windows.append((ds.test[0].video_id, frame, window_graph(wl, ds.test[0], frame)))
    bad_temporal, bad_adj = [], []
    for video_id, frame, dyn in windows:
        classes = [n.class_id for n in dyn.nodes]
        steps = [n.t for n in dyn.nodes]
        if set(dyn.temporal_edges()) != oracles.temporal_pairs(classes, steps):
            bad_temporal.append(f"{video_id}/{frame}")
        sample = by_key[(video_id, frame)]
        dense = oracles.dense_normalized(len(dyn.nodes), dyn.edges)
        if not (
            np.array_equal(sample.x, dyn.feature_matrix())
            and np.allclose(sample.adjacency.to_dense(), dense, rtol=1e-12, atol=1e-15)
        ):
            bad_adj.append(f"{video_id}/{frame}")
    check("temporal edges match an equal-class enumeration", not bad_temporal, ", ".join(bad_temporal))
    check("normalized adjacency equals dense D^-1/2 (A+I) D^-1/2", not bad_adj, ", ".join(bad_adj))

    wrong = [
        f"{s.video_id}/{s.frame_index}"
        for s in r.samples
        if s.label != oracles.scripted_phase(ds.scripts[s.video_id], s.frame_index)
    ]
    check("labels equal the scripted phase of the anchor frame", not wrong, ", ".join(wrong[:5]))

    # Backward pass against central differences on the largest gradient entries
    # of the first layer, the last layer and the head, on the test window whose
    # true-class probability is nearest 0.5: on a confident window the loss
    # differences fall below float64 resolution. A coordinate whose two step
    # sizes disagree has a ReLU kink within the step; it is skipped for the
    # next largest one.
    model = r.model
    probs = [forward_prepared(model, s.x, s.adjacency)[1] for s in r.test_samples]
    sample = min(zip(r.test_samples, probs), key=lambda sp: abs(sp[1][sp[0].label] - 0.5))[0]
    _, grads = loss_and_gradients_prepared(model, sample.x, sample.adjacency, sample.label)
    vector, gvec = model.to_vector(), grads.to_vector()

    def loss_at(v):
        return loss_and_gradients_prepared(
            model.with_vector(v), sample.x, sample.adjacency, sample.label
        )[0]

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-8)

    offsets = np.cumsum([0] + [a.size for a in model.parameter_arrays()])
    worst, compared, kinks = 0.0, 0, 0
    for b in (0, 2 * (len(model.weights) - 1), 2 * len(model.weights)):
        ranked = offsets[b] + np.argsort(-np.abs(gvec[offsets[b] : offsets[b + 1]]), kind="stable")
        done = 0
        for i in ranked[:GRAD_CANDIDATES]:
            coarse = oracles.central_difference(loss_at, vector, int(i), GRAD_EPS)
            fine = oracles.central_difference(loss_at, vector, int(i), GRAD_EPS / 4)
            if rel(coarse, fine) > GRAD_TOLERANCE:
                kinks += 1
                continue
            worst = max(worst, rel(gvec[i], fine))
            done += 1
            if done == 2:
                break
        compared += done
    check(
        "gradients agree with central differences",
        compared == 6 and worst <= GRAD_TOLERANCE,
        f"{compared} coordinates, worst {worst:.2e}, {kinks} skipped at kinks",
    )

    losses = [h["train_loss"] for h in r.history]
    check(
        "every epoch ran and the train loss fell",
        len(losses) == wl.epochs and losses[-1] < losses[0],
        f"{len(losses)} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}",
    )

    labels = [s.label for s in r.test_samples]
    majority = max(labels.count(c) for c in set(labels)) / len(labels)
    needed = majority + ACCURACY_SIGMAS * math.sqrt(majority * (1 - majority) / len(labels))
    accuracy = r.metrics.accuracy
    check(
        "test accuracy clearly above the majority-class share",
        accuracy >= needed,
        f"accuracy {accuracy:.3f}, majority {majority:.3f}, needed {needed:.3f}",
    )
    recomputed = sum(int(np.argmax(p)) == s.label for p, s in zip(probs, r.test_samples)) / len(probs)
    check("evaluate's accuracy equals recomputed predictions", abs(recomputed - accuracy) < 1e-12)

    bad = []
    for (video_id, frame, dyn), e in zip(r.graphs, r.explanations):
        imp = e.edge_importance
        node_max = np.zeros(len(dyn.nodes))
        for k, (i, j, _) in enumerate(dyn.edges):
            node_max[i] = max(node_max[i], imp[k])
            node_max[j] = max(node_max[j], imp[k])
        s = by_key[(video_id, frame)]
        ok = (
            imp.shape == (len(dyn.edges),)
            and np.all((imp >= 0.0) & (imp <= 1.0))
            and e.target_class == forward_prepared(model, s.x, s.adjacency)[2]
            and np.array_equal(e.node_importance, node_max)
            and e.iterations == wl.explain_iters
        )
        if not ok:
            bad.append(f"{video_id}/{frame}")
    check("explanations are well formed", not bad, ", ".join(bad))

    expected = {
        f"{v.video_id}_{f:06d}.json": (v.video_id, f)
        for v in ds.test
        for f in oracles.labelled_frames(v.phase_csv)
    }
    files = {p.name: p for p in r.export_dir.glob("*.json")} if r.export_dir.is_dir() else {}
    bad = []
    for name, key in expected.items():
        path = files.get(name)
        if path is None:
            bad.append(f"missing {name}")
            continue
        x, edges, data = oracles.read_graph_file(path)
        s = by_key[key]
        dense = oracles.dense_normalized(x.shape[0], edges)
        if not (
            data["label_frame"] == key[1]
            and np.array_equal(x, s.x)
            and np.allclose(s.adjacency.to_dense(), dense, rtol=1e-12, atol=1e-15)
        ):
            bad.append(name)
    check(
        "one exported file per labelled test frame, equal to the window in memory",
        r.rc == 0 and len(files) == len(expected) and not bad,
        f"rc {r.rc}, {len(files)} files for {len(expected)} frames {', '.join(bad[:5])}",
    )
    return out


# --- traced extras and per-layer metrics ---------------------------------------------


def layer_extras(wl: Workload, seed: int, ds: Dataset, r: Round, tracer: Tracer) -> None:
    """Calls the job does not make through a module boundary, timed directly."""
    fc = wl.feature_config()
    for video in ds.test:
        for frame, path in list_mask_files(video.mask_dir):
            mask = load_mask(path, frame_index=frame)
            tracer.call("scene_graph.extract_segments", extract_segments, mask, fc)

    layers = list(zip(r.model.weights, r.model.biases))
    for s in r.test_samples:
        h = s.x
        for k, (w, b) in enumerate(layers):
            h = tracer.call(f"gcn.layer{k}_forward", gcn_layer_forward, h, s.adjacency, w, b)

    # Alternated three times, so that the host's drift over seconds falls on
    # both thread counts alike and the medians compare them.
    cfg = wl.train_config(seed)
    for threads in (1, 2) * 3:
        gc.collect()
        tracer.call(f"pipeline.build_samples_threads{threads}", build_samples, ds.train, cfg, threads=threads)

    if not any(name == APPLY_CSR for _, _, name, _, _ in tracer.spans):
        # No window reaches the CSR path on this workload: time that path on
        # disjoint unions of consecutive test windows instead.
        w0 = layers[0][0]
        for i in range(len(r.test_samples)):
            rows, cols, vals, xs, n = [], [], [], [], 0
            for s in r.test_samples[i:]:
                a = s.adjacency
                rows.append(a.rows + n)
                cols.append(a.cols + n)
                vals.append(a.values)
                xs.append(s.x)
                n += a.node_count
                if n >= DENSE_NODE_LIMIT:
                    break
            if n < DENSE_NODE_LIMIT:
                break
            union = SparseAdjacency.from_triples(
                n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
            )
            union.apply(np.vstack(xs) @ w0)


P99_SPANS = {
    "ingest.load_mask_us": ("ingest.load_mask", 1e6),
    "scene_graph.static_graph_ms": ("scene_graph.build_static_graph", 1e3),
    "dynamic_graph.window_ms": ("dynamic_graph.build_dynamic_graph", 1e3),
    "gcn.normalize_ms": ("gcn.normalize_adjacency", 1e3),
    "numerics.apply_dense_us": (APPLY_DENSE, 1e6),
    "gcn.forward_ms": ("gcn.forward_prepared", 1e3),
}
MEDIAN_SPANS = {
    **P99_SPANS,
    "scene_graph.extract_segments_ms": ("scene_graph.extract_segments", 1e3),
    "gcn.loss_grad_ms": ("gcn.loss_and_gradients_prepared", 1e3),
    "gcn.adam_step_ms": ("gcn.adam_step", 1e3),
    "numerics.apply_csr_us": (APPLY_CSR, 1e6),
    "pipeline.build_samples_threads1_s": ("pipeline.build_samples_threads1", 1.0),
    "pipeline.build_samples_threads2_s": ("pipeline.build_samples_threads2", 1.0),
    **{f"gcn.layer{k}_forward_ms": (f"gcn.layer{k}_forward", 1e3) for k in range(8)},
}


def layer_metrics(wl: Workload, ds: Dataset, tracer: Tracer, rounds: list[dict], p99_min_calls: int) -> dict:
    m = {}
    for metric, (span, scale) in MEDIAN_SPANS.items():
        m[metric] = statistics.median(tracer.durations(span)) * scale
    for metric, (span, scale) in P99_SPANS.items():
        values = tracer.durations(span)
        if len(values) < p99_min_calls:
            raise RuntimeError(f"{span}: {len(values)} calls, too few for a p99")
        m[metric + "_p99"] = statistics.quantiles(values, n=100)[98] * scale
    m["synth.frames_per_s"] = ds.frames / statistics.median(tracer.durations("synth.generate_dataset"))
    m["explain.iteration_ms"] = (
        statistics.median(tracer.durations("explain.explain_prediction")) / wl.explain_iters * 1e3
    )
    # One file's export: its dict conversion plus its json.dumps, paired in call order.
    per_file = [
        a + b
        for a, b in zip(tracer.durations("cli.dynamic_graph_to_json"), tracer.durations("cli.json_dumps"))
    ]
    m["cli.export_json_ms"] = statistics.median(per_file) * 1e3
    traced = [r for r in rounds if r["traced"]]
    m["cli.bytes_per_graph"] = statistics.mean(r["export_bytes"] / r["export_files"] for r in traced)
    m["trace.job_s"] = statistics.median(r["spent"]["job"] for r in traced)
    m["trace.untraced_job_s"] = statistics.median(r["spent"]["job"] for r in rounds if not r["traced"])
    return with_units(m, SPEC["per_layer"])


def with_units(values: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order and with its units."""
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def shape_counts(wl: Workload, ds: Dataset, r: Round) -> dict:
    """Sizes of the work, for the README and the result file."""
    nodes = [s.x.shape[0] for s in r.samples]
    edges = [(s.adjacency.values.size - s.adjacency.node_count) // 2 for s in r.samples]
    static = [
        build_static_graph(load_mask(p, frame_index=f), None, wl.feature_config())
        for f, p in list_mask_files(ds.test[0].mask_dir)
    ]
    return {
        "windows": len(r.samples),
        "test_windows": len(r.test_samples),
        "nodes_per_frame": statistics.mean(len(g.nodes) for g in static),
        "edges_per_frame": statistics.mean(len(g.edges) for g in static),
        "nodes_per_window": statistics.mean(nodes),
        "edges_per_window": statistics.mean(edges),
        "nodes_per_explained_graph": statistics.mean(len(g.nodes) for _, _, g in r.graphs),
        "edges_per_explained_graph": statistics.mean(len(g.edges) for _, _, g in r.graphs),
        "csr_window_share": sum(n >= DENSE_NODE_LIMIT for n in nodes) / len(nodes),
        "export_files": r.export_files,
    }


# --- environment --------------------------------------------------------------------


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "surgraph").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --- a run --------------------------------------------------------------------------


def warm_up(wl: Workload, work: Path) -> None:
    """Run the job once on a tiny dataset, so lazy imports and first-call
    costs stay out of the timed rounds."""
    tiny = replace(
        wl, videos=(1, 1, 1), n_frames=16, epochs=1, eval_calls=1, explain_iters=2
    )
    ds, _ = generate(tiny, 0, work / "warm-data")
    run_job(tiny, 0, ds, work / "warm-export")


def run(wl: Workload, seed: int, seconds: float, trace: bool, setups: int, min_rounds: int,
        p99_min_calls: int = P99_MIN_CALLS) -> dict:
    work = OUT_DIR / f"work-{wl.name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    call = tracer.call if trace else _direct
    begin = time.perf_counter()
    deadline = begin + seconds
    try:
        warm_up(wl, work)
        # Every set-up and every export gets a fresh directory, and nothing is
        # deleted until the run ends: deleting files on a discard-mounted
        # disk slows the file creations that follow it for seconds.
        setup_costs = []
        for k in range(setups):
            ds, cost = generate(wl, seed, work / f"data{k}", call)
            setup_costs.append(cost)

        rounds, checks, counts, peak_rss, first, differing = [], [], {}, None, None, []
        while True:
            traced = trace and len(rounds) % 2 == 1
            round_start = time.perf_counter()
            if traced:
                with traced_calls(tracer):
                    r = run_job(wl, seed, ds, work / f"export{len(rounds)}", tracer.call)
                    layer_extras(wl, seed, ds, r, tracer)
            else:
                r = run_job(wl, seed, ds, work / f"export{len(rounds)}")
            if first is None:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                checks = run_checks(wl, ds, r)
                counts = shape_counts(wl, ds, r)
                first = r.digest()
            elif r.digest() != first:
                differing.append(str(len(rounds) + 1))
            rounds.append(
                {
                    "traced": traced,
                    "wall": time.perf_counter() - round_start,
                    "work": r.work,
                    "spent": r.spent,
                    "export_files": r.export_files,
                    "export_bytes": r.export_bytes,
                }
            )
            del r
            next_traced = trace and len(rounds) % 2 == 1
            alike = [x["wall"] for x in rounds if x["traced"] == next_traced]
            expected = max(alike) if alike else 2 * max(x["wall"] for x in rounds)
            if len(rounds) >= min_rounds and time.perf_counter() + expected > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.append(("later rounds repeat the first bitwise", not differing, ", ".join(differing)))

    untraced = [x for x in rounds if not x["traced"]]
    # Each rate is the work of all untraced rounds over their summed time,
    # so it averages the host's speed over the whole run; a median of
    # per-round rates would rest on the one middle round.
    def total(key, stage):
        return sum(x[key][stage] for x in untraced)

    e2e = {name: total("work", stage) / total("spent", stage) for name, stage in RATES.items()}
    e2e["job_s"] = total("spent", "job") / len(untraced)
    # User-mode CPU: the kernel's share of creating ~1000 files swings
    # threefold with the state of the disk; the wall time is in the result file.
    e2e["setup_s"] = statistics.median(c["user"] for c in setup_costs)
    e2e["peak_rss_mib"] = peak_rss
    ops_per_round = sum(wl.videos) + 2 + wl.eval_calls + wl.explain_graphs
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": setups + ops_per_round * len(rounds),
        "failed": 0,
        "metrics": with_units(e2e, SPEC["end_to_end"]),
    }
    if trace:
        result["metrics"] = layer_metrics(wl, ds, tracer, rounds, p99_min_calls)
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": time.perf_counter() - begin,
        "end_to_end": with_units(e2e, SPEC["end_to_end"]),
        "setup_costs": setup_costs,
        "rounds": rounds,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "counts": counts,
        "environment": environment(),
    }
    if trace:
        detail["per_layer"] = result["metrics"]
        detail["span_counts"] = {
            name: tracer.count(name) for name in sorted({s[2] for s in tracer.spans})
        }
    return result, detail, tracer


def write_outputs(stem: str, detail: dict, tracer: Tracer | None) -> None:
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at a small size, one untraced and one traced round, all checks",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for wl in WORKLOADS.values():
            result, detail, tracer = run(wl.smoke(), args.seed, 0.0, True, setups=1, min_rounds=2, p99_min_calls=2)
            write_outputs(f"smoke-{wl.name}-seed{args.seed}", detail, tracer)
            for c in detail["checks"]:
                print(f"{wl.name}: [{'PASS' if c['ok'] else 'FAIL'}] {c['name']} {c['detail']}")
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
        print(json.dumps(summary))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    wl = WORKLOADS[args.workload]
    result, detail, tracer = run(
        wl, args.seed, args.seconds, bool(args.trace), SETUPS, min_rounds=2 if args.trace else 3
    )
    for c in detail["checks"]:
        if not c["ok"]:
            print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    write_outputs(f"{wl.name}-seed{args.seed}-trace{args.trace}", detail, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
