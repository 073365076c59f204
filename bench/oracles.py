"""Reference computations the benchmark checks the program's outputs against.

Each function recomputes a result from first principles, sharing no code
with ``surgraph``: pixel walks instead of shifted array views, flood fill
instead of ``ndimage.label``, a dense D^-1/2 (A+I) D^-1/2 instead of the
sparse triples, and central differences instead of the hand-written
backward pass.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from pathlib import Path

import numpy as np


def pixel_pair_segments(class_ids: np.ndarray, mode: str, connectivity: int, min_pixels: int):
    """Nodes as (class, pixel count) and edges found by walking every pixel pair.

    ``mode`` is "per-class-region" (one region per class) or "per-component"
    (one region per connected component, found by flood fill). Regions are
    ordered by class, then by the raster position of their first pixel;
    regions below ``min_pixels`` are dropped.
    """
    ids = class_ids.tolist()
    h, w = len(ids), len(ids[0])
    steps = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    if connectivity == 8:
        steps += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    region = [[-1] * w for _ in range(h)]
    regions = []  # (class, first raster position, pixel count)
    if mode == "per-class-region":
        first = {}
        for y in range(h):
            for x in range(w):
                c = ids[y][x]
                if c not in first:
                    first[c] = len(regions)
                    regions.append([c, y * w + x, 0])
                region[y][x] = first[c]
                regions[first[c]][2] += 1
    else:
        for y in range(h):
            for x in range(w):
                if region[y][x] >= 0:
                    continue
                c = ids[y][x]
                r = len(regions)
                regions.append([c, y * w + x, 0])
                region[y][x] = r
                queue = deque([(y, x)])
                while queue:
                    cy, cx = queue.popleft()
                    regions[r][2] += 1
                    for dy, dx in steps:
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and region[ny][nx] < 0 and ids[ny][nx] == c:
                            region[ny][nx] = r
                            queue.append((ny, nx))
    kept = sorted(
        (r for r, (_, _, n) in enumerate(regions) if n >= min_pixels),
        key=lambda r: (regions[r][0], regions[r][1]),
    )
    node_of = {r: k for k, r in enumerate(kept)}
    nodes = [(regions[r][0], regions[r][2]) for r in kept]
    edges = set()
    forward = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if connectivity == 8 else [])
    for y in range(h):
        for x in range(w):
            a = node_of.get(region[y][x])
            if a is None:
                continue
            for dy, dx in forward:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w:
                    b = node_of.get(region[ny][nx])
                    if b is not None and b != a:
                        edges.add((min(a, b), max(a, b)))
    return nodes, sorted(edges)


def temporal_pairs(node_classes: list[int], node_steps: list[int]) -> set[tuple[int, int]]:
    """Every pair of equal-class nodes in consecutive window steps."""
    out = set()
    for i, (ci, ti) in enumerate(zip(node_classes, node_steps)):
        for j, (cj, tj) in enumerate(zip(node_classes, node_steps)):
            if tj == ti + 1 and ci == cj:
                out.add((min(i, j), max(i, j)))
    return out


def dense_normalized(n: int, edges) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 from an undirected edge list, computed densely."""
    a = np.eye(n)
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i != j:
            a[i, j] = a[j, i] = 1.0
    d = a.sum(axis=1)
    return a / np.sqrt(np.outer(d, d))


def scripted_phase(phase_script, frame: int) -> int:
    """The phase the generator was told to draw at ``frame``.

    The script repeats from its first phase until the video ends.
    """
    position = frame % sum(p.duration for p in phase_script)
    for phase in phase_script:
        if position < phase.duration:
            return phase.phase_id
        position -= phase.duration
    raise AssertionError("unreachable")


def central_difference(loss_at, vector: np.ndarray, index: int, eps: float) -> float:
    bump = np.zeros_like(vector)
    bump[index] = eps
    return (loss_at(vector + bump) - loss_at(vector - bump)) / (2.0 * eps)


def labelled_frames(phase_csv: Path) -> list[int]:
    with open(phase_csv, newline="") as fh:
        return [int(row["frame"]) for row in csv.DictReader(fh)]


def read_graph_file(path: Path) -> tuple[np.ndarray, list, dict]:
    data = json.loads(path.read_text())
    x = np.array([n["features"] for n in data["nodes"]], dtype=np.float64)
    return x, data["edges"], data
