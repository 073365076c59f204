"""Graph convolutional phase classifier.

Eight graph-convolution layers (symmetric-normalized adjacency with
self-loops), global add-pooling, and an affine head with softmax. Forward,
backward, and the Adam update are written out explicitly over numpy arrays;
the backward pass is validated against central differences in the tests.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    EmptyGraph,
    OutOfRange,
    ShapeMismatch,
    VersionMismatch,
)
from .numerics import SparseAdjacency, cross_entropy, softmax

DEFAULT_HIDDEN_DIMS = (64, 64, 128, 128, 192, 128, 64, 64)

CHECKPOINT_MAGIC = b"DSGC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class GcnConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    num_classes: int = 19
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not self.hidden_dims:
            raise ValueError("hidden_dims must be non-empty")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class GcnModel:
    """Per-layer weights/biases plus the classification head."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    fc_weight: np.ndarray
    fc_bias: np.ndarray
    config: GcnConfig

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameters in checkpoint order: (W_l, b_l)*, W_fc, b_fc."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        out.extend([self.fc_weight, self.fc_bias])
        return out

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.parameter_arrays()])

    def with_vector(self, vec: np.ndarray) -> "GcnModel":
        arrays = []
        offset = 0
        for a in self.parameter_arrays():
            arrays.append(vec[offset : offset + a.size].reshape(a.shape).copy())
            offset += a.size
        if offset != vec.size:
            raise ShapeMismatch(f"vector length {vec.size}, model needs {offset}")
        n = len(self.weights)
        return GcnModel(
            weights=tuple(arrays[2 * i] for i in range(n)),
            biases=tuple(arrays[2 * i + 1] for i in range(n)),
            fc_weight=arrays[2 * n],
            fc_bias=arrays[2 * n + 1],
            config=self.config,
        )


@dataclass(frozen=True)
class Gradients:
    """Same shapes as the model parameters, in the same order."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    fc_weight: np.ndarray
    fc_bias: np.ndarray

    def parameter_arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        out.extend([self.fc_weight, self.fc_bias])
        return out

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.parameter_arrays()])


def zeros_like_gradients(model: GcnModel) -> Gradients:
    return Gradients(
        weights=tuple(np.zeros_like(w) for w in model.weights),
        biases=tuple(np.zeros_like(b) for b in model.biases),
        fc_weight=np.zeros_like(model.fc_weight),
        fc_bias=np.zeros_like(model.fc_bias),
    )


def add_gradients(a: Gradients, b: Gradients) -> Gradients:
    return Gradients(
        weights=tuple(x + y for x, y in zip(a.weights, b.weights)),
        biases=tuple(x + y for x, y in zip(a.biases, b.biases)),
        fc_weight=a.fc_weight + b.fc_weight,
        fc_bias=a.fc_bias + b.fc_bias,
    )


def scale_gradients(g: Gradients, s: float) -> Gradients:
    return Gradients(
        weights=tuple(w * s for w in g.weights),
        biases=tuple(b * s for b in g.biases),
        fc_weight=g.fc_weight * s,
        fc_bias=g.fc_bias * s,
    )


def init_model(cfg: GcnConfig) -> GcnModel:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    dims = [cfg.input_dim, *cfg.hidden_dims]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    fan_in, fan_out = cfg.hidden_dims[-1], cfg.num_classes
    s = np.sqrt(6.0 / (fan_in + fan_out))
    fc_weight = rng.uniform(-s, s, size=(fan_in, fan_out))
    return GcnModel(
        weights=tuple(weights),
        biases=tuple(biases),
        fc_weight=fc_weight,
        fc_bias=np.zeros(fan_out),
        config=cfg,
    )


def normalize_adjacency(graph, w: np.ndarray | None = None) -> SparseAdjacency:
    """Dhat^{-1/2} (A + I) Dhat^{-1/2} over the graph's undirected edges.

    Reads the graph's ``x`` (for the node count) and its E x 2
    ``edge_index``. Spatial and temporal edges are treated identically;
    self-loops and repeated or reversed edges count once. Raises OutOfRange
    for an edge end outside the graph's nodes.

    With per-edge weights ``w`` (one per row of ``edge_index``), edge e
    enters A as w_e, so degrees become 1 + sum of incident w. Edges are then
    taken as given: a self-loop or a repeated or reversed pair raises
    DuplicateEntry.
    """
    n = graph.x.shape[0]
    if n == 0:
        raise EmptyGraph("graph has no nodes")
    ends = np.asarray(graph.edge_index, dtype=np.int64)
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise OutOfRange(f"edge end outside the graph's {n} nodes")
    i, j = ends[:, 0], ends[:, 1]
    if w is None:
        keep = i != j
        codes = np.sort(np.minimum(i, j)[keep] * n + np.maximum(i, j)[keep])
        codes = codes[np.diff(codes, prepend=-1) != 0]  # unique, as np.unique but cheaper
        i, j = np.divmod(codes, n)
        degree = 1.0 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        dinv = 1.0 / np.sqrt(degree)
        off = dinv[i] * dinv[j]
    else:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != i.shape:
            raise ShapeMismatch(f"edge weights of shape {w.shape} for {len(i)} edges")
        incident = np.bincount(i, weights=w, minlength=n) + np.bincount(j, weights=w, minlength=n)
        dinv = 1.0 / np.sqrt(1.0 + incident)
        off = w * dinv[i] * dinv[j]
    diag = np.arange(n)
    return SparseAdjacency.from_triples(
        n,
        np.concatenate([diag, i, j]),
        np.concatenate([diag, j, i]),
        np.concatenate([dinv * dinv, off, off]),
    )


def gcn_layer_forward(
    h: np.ndarray,
    anorm: SparseAdjacency,
    weight: np.ndarray,
    bias: np.ndarray,
    apply_relu: bool = True,
) -> np.ndarray:
    """relu(Anorm @ h @ W + b), bias broadcast over nodes."""
    if h.shape[1] != weight.shape[0]:
        raise ShapeMismatch(f"features {h.shape} do not chain with weight {weight.shape}")
    if weight.shape[1] != bias.shape[0]:
        raise ShapeMismatch(f"bias {bias.shape} does not match weight {weight.shape}")
    z = anorm.apply(h @ weight) + bias
    return np.maximum(z, 0.0) if apply_relu else z


def global_add_pool(h: np.ndarray) -> np.ndarray:
    """Column-wise sum over nodes."""
    if h.shape[0] == 0:
        raise EmptyGraph("cannot pool an empty node set")
    return h.sum(axis=0)


def forward(model: GcnModel, graph) -> tuple[np.ndarray, np.ndarray, int]:
    """(logits, probs, predicted class); argmax ties go to the lowest index."""
    return forward_prepared(model, graph.x, normalize_adjacency(graph))


def forward_prepared(
    model: GcnModel, x: np.ndarray, anorm: SparseAdjacency
) -> tuple[np.ndarray, np.ndarray, int]:
    """Forward pass on a precomputed feature matrix and normalized adjacency."""
    _check_features(model, x)
    logits, probs, _ = _forward_cached(model, x, anorm)
    return logits, probs, int(np.argmax(probs))


def loss_and_gradients(model: GcnModel, graph, label: int) -> tuple[float, Gradients]:
    """Cross-entropy loss and its exact gradient for one labelled graph."""
    return loss_and_gradients_prepared(model, graph.x, normalize_adjacency(graph), label)


def loss_and_gradients_prepared(
    model: GcnModel, x: np.ndarray, anorm: SparseAdjacency, label: int
) -> tuple[float, Gradients]:
    _check_features(model, x)
    _, probs, (cache, h_last, pooled, _) = _forward_cached(model, x, anorm)
    loss, dlogits, dh = _head_backward(model, probs, label, h_last.shape[0])
    d_weights: list[np.ndarray] = [None] * len(model.weights)
    d_biases: list[np.ndarray] = [None] * len(model.weights)
    for l, dz, dm in _backward_layers(model, anorm, cache, dh):
        d_biases[l] = dz.sum(axis=0)
        d_weights[l] = cache[l][0].T @ dm
    return loss, Gradients(
        weights=tuple(d_weights),
        biases=tuple(d_biases),
        fc_weight=np.outer(pooled, dlogits),
        fc_bias=dlogits.copy(),
    )


def loss_and_edge_gradient(
    model: GcnModel, graph, label: int, w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Cross-entropy with edge e of ``graph`` weighted by w_e, and dL/dw.

    The adjacency is S = D^{-1/2} (A_w + I) D^{-1/2} with D_u = 1 + sum of
    incident w (``normalize_adjacency(graph, w)``). Writing d = D^{-1/2} and
    G = dL/dS = sum over layers of dZ_l M_l^T, the chain rule through the
    scaled entry and both renormalized degrees gives, per edge e = (i, j),

        dL/dw_e = (G_ij + G_ji) d_i d_j + T_i + T_j,
        T_u = -1/2 D_u^{-3/2} sum_b (G_ub + G_bu) Ahat_ub d_b
            = -1/2 S_uu sum_b (G_ub + G_bu) S_ub,

    and d_i d_j = sqrt(S_ii S_jj), so both terms are read off S.
    """
    x = graph.x
    _check_features(model, x)
    anorm = normalize_adjacency(graph, w)
    _, probs, (cache, _, _, _) = _forward_cached(model, x, anorm, keep_products=True)
    n = x.shape[0]
    loss, _, dh = _head_backward(model, probs, label, n)
    g = np.zeros((n, n))
    for l, dz, _ in _backward_layers(model, anorm, cache, dh):
        g += dz @ cache[l][1].T
    r = g + g.T
    s_diag = anorm.values[anorm.rows == anorm.cols]  # the triples hold S_uu for every u, in order
    rs = np.bincount(anorm.rows, weights=r[anorm.rows, anorm.cols] * anorm.values, minlength=n)
    t = -0.5 * s_diag * rs
    i, j = np.asarray(graph.edge_index, dtype=np.int64).T
    return loss, r[i, j] * np.sqrt(s_diag[i] * s_diag[j]) + t[i] + t[j]


def backward(model: GcnModel, graph, label: int) -> Gradients:
    """Gradient of cross_entropy(softmax(logits), label) for every parameter."""
    return loss_and_gradients(model, graph, label)[1]


def _check_features(model, x):
    if x.shape[0] == 0:
        raise EmptyGraph("graph has no nodes")
    if x.shape[1] != model.config.input_dim:
        raise DimensionMismatch(
            f"graph features are {x.shape[1]}-d, model expects {model.config.input_dim}"
        )


def _forward_cached(model, x, anorm, keep_products=False):
    """Forward pass keeping per-layer values for the backward pass.

    The cache holds (h_in, m = h_in @ W, z = S m + b) per layer; m is None
    unless ``keep_products`` (only the edge gradient reads it, and holding
    every m costs the other callers time).
    """
    h = x
    cache = []
    for weight, bias in zip(model.weights, model.biases):
        if h.shape[1] != weight.shape[0]:
            raise DimensionMismatch(
                f"features {h.shape} do not chain with weight {weight.shape}"
            )
        m = h @ weight
        z = anorm.apply(m) + bias
        cache.append((h, m if keep_products else None, z))
        h = np.maximum(z, 0.0)
    pooled = global_add_pool(h)
    logits = pooled @ model.fc_weight + model.fc_bias
    probs = softmax(logits)
    return logits, probs, (cache, h, pooled, probs)


def _head_backward(model, probs, label, node_count):
    """Cross-entropy, dL/dlogits = p - e_y, and dL/dh fanned out to every node row."""
    loss = cross_entropy(probs, label)  # LabelOutOfRange outside the model's classes
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dh = np.tile(model.fc_weight @ dlogits, (node_count, 1))
    return loss, dlogits, dh


def _backward_layers(model, anorm, cache, dh):
    """Yield (layer, dL/dZ, dL/dM) from the last layer to the first."""
    for l in range(len(model.weights) - 1, -1, -1):
        z = cache[l][2]
        dz = dh * (z > 0.0)
        dm = anorm.apply(dz)  # S is symmetric, so S^T dZ = S dZ
        yield l, dz, dm
        dh = dm @ model.weights[l].T


# --- optimizer ---------------------------------------------------------------------

@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class AdamState:
    m: Gradients
    v: Gradients
    t: int = 0


def init_adam_state(model: GcnModel) -> AdamState:
    return AdamState(m=zeros_like_gradients(model), v=zeros_like_gradients(model), t=0)


def adam_step(
    model: GcnModel, grads: Gradients, state: AdamState, hyper: AdamHyper | None = None
) -> tuple[GcnModel, AdamState]:
    """One bias-corrected Adam update; returns the new model and state."""
    hyper = hyper or AdamHyper()
    t = state.t + 1
    new_params, new_m, new_v = [], [], []
    params = model.parameter_arrays()
    gs = grads.parameter_arrays()
    ms = state.m.parameter_arrays()
    vs = state.v.parameter_arrays()
    for p, g, m, v in zip(params, gs, ms, vs):
        if p.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m2 = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v2 = hyper.beta2 * v + (1.0 - hyper.beta2) * g * g
        m_hat = m2 / (1.0 - hyper.beta1**t)
        v_hat = v2 / (1.0 - hyper.beta2**t)
        new_params.append(p - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps))
        new_m.append(m2)
        new_v.append(v2)

    n = len(model.weights)

    def unpack(arrays):
        return (
            tuple(arrays[2 * i] for i in range(n)),
            tuple(arrays[2 * i + 1] for i in range(n)),
            arrays[2 * n],
            arrays[2 * n + 1],
        )

    w, b, fw, fb = unpack(new_params)
    new_model = GcnModel(weights=w, biases=b, fc_weight=fw, fc_bias=fb, config=model.config)
    mw, mb, mfw, mfb = unpack(new_m)
    vw, vb, vfw, vfb = unpack(new_v)
    new_state = AdamState(
        m=Gradients(mw, mb, mfw, mfb), v=Gradients(vw, vb, vfw, vfb), t=t
    )
    return new_model, new_state


# --- checkpoints -------------------------------------------------------------------

def save_checkpoint(
    model: GcnModel, path: str | Path, step: int = 0, extra: dict | None = None
) -> None:
    """Binary checkpoint: magic, version, JSON header, f64le parameter blocks.

    ``extra`` is an optional JSON-serializable dict stored verbatim in the
    header (e.g. the training configuration that produced the model).
    """
    arrays = model.parameter_arrays()
    header = {
        "config": {
            "input_dim": model.config.input_dim,
            "hidden_dims": list(model.config.hidden_dims),
            "num_classes": model.config.num_classes,
            "seed": model.config.seed,
        },
        "dims": [list(a.shape) for a in arrays],
        "step": step,
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> GcnModel:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise CorruptCheckpoint(f"{path}: shorter than the fixed header")
    if data[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {data[:4]!r}")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    if len(data) < 12 + header_len:
        raise CorruptCheckpoint(f"{path}: truncated JSON header")
    try:
        header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        cfg = GcnConfig(
            input_dim=header["config"]["input_dim"],
            hidden_dims=tuple(header["config"]["hidden_dims"]),
            num_classes=header["config"]["num_classes"],
            seed=header["config"]["seed"],
        )
        dims = [tuple(d) for d in header["dims"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed header ({exc})") from exc

    expected = _expected_shapes(cfg)
    if dims != expected:
        raise CorruptCheckpoint(f"{path}: parameter shapes {dims} do not match config")
    offset = 12 + header_len
    arrays = []
    for shape in dims:
        count = int(np.prod(shape))
        end = offset + 8 * count
        if end > len(data):
            raise CorruptCheckpoint(f"{path}: truncated parameter block")
        arrays.append(np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy())
        offset = end
    if offset != len(data):
        raise CorruptCheckpoint(f"{path}: {len(data) - offset} trailing bytes")
    n = len(cfg.hidden_dims)
    return GcnModel(
        weights=tuple(arrays[2 * i] for i in range(n)),
        biases=tuple(arrays[2 * i + 1] for i in range(n)),
        fc_weight=arrays[2 * n],
        fc_bias=arrays[2 * n + 1],
        config=cfg,
    )


def checkpoint_header(path: str | Path) -> dict:
    """The JSON header of a checkpoint (config, dims, step, extra)."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint")
    _, header_len = struct.unpack("<II", data[4:12])
    if len(data) < 12 + header_len:
        raise CorruptCheckpoint(f"{path}: truncated JSON header")
    try:
        return json.loads(data[12 : 12 + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: malformed header ({exc})") from exc


def checkpoint_step(path: str | Path) -> int:
    """The optimizer step recorded in a checkpoint header."""
    return int(checkpoint_header(path).get("step", 0))


def _expected_shapes(cfg: GcnConfig) -> list[tuple[int, ...]]:
    dims = [cfg.input_dim, *cfg.hidden_dims]
    shapes = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        shapes.extend([(fan_in, fan_out), (fan_out,)])
    shapes.extend([(cfg.hidden_dims[-1], cfg.num_classes), (cfg.num_classes,)])
    return shapes
