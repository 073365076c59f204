"""Graph convolutional phase classifier.

Eight graph-convolution layers (symmetric-normalized adjacency with
self-loops), global add-pooling, and an affine head with softmax. Forward,
backward, and the Adam update are written out explicitly over numpy arrays;
the backward pass is validated against central differences in the tests.
Parameters, gradients and Adam's moments each live in one flat vector, and
the Adam step updates them in place. ``parameter_shapes`` alone lays out the
parameter blocks: the model's views, its gradients' views and the
checkpoint's blocks all follow it.

The kernel (``forward_prepared``, ``loss_and_gradients_prepared`` and
``loss_and_edge_gradient``) writes every node-sized intermediate into a
``Workspace``: each layer's h W product and its output h = relu(S h W + b),
stored in place, then dL/dZ, dL/dh, the head's dL/dh fanned out to every
node, and the edge gradient's n x n dL/dS and its symmetric sum. The caller
owns the workspace and passes it as ``workspace=``: ``pipeline.fit`` makes
one per run and evaluates its validation windows in it too,
``pipeline.evaluate`` called alone and ``explain.explain_prediction`` make
one per call, and ``workspace=None`` makes one for that call alone. A workspace
grows to the largest graph it has seen and keeps its shaped views per node
count, so a run reuses the same memory for every sample; buffers of 100 KB
and more that were allocated and freed on each call cost hundreds of page
faults per call. Only the adjacency product still allocates its result.
No returned array points into a workspace; one workspace serves one call
at a time.

``forward_prepared`` also runs a stack of B graphs of one node count: x of
shape (B, n, d) with a ``numerics.DenseStack``. Each layer is then one
product per stack over (B, n, width) workspace views, pooling sums over the
node axis, and the head is one product per graph, so every row of the
result is bitwise that graph's own forward. ``pipeline.evaluate`` stacks
its dense windows this way, at most ``pipeline.STACK_ROWS`` node rows per
stack.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    EmptyGraph,
    InvalidConfig,
    OutOfRange,
    ShapeMismatch,
    VersionMismatch,
    check_fields,
    check_json,
    decode_config,
)
from .ingest import atomic_write
from .numerics import DenseStack, SparseAdjacency, cross_entropy, softmax

DEFAULT_HIDDEN_DIMS = (64, 64, 128, 128, 192, 128, 64, 64)

CHECKPOINT_MAGIC = b"DSGC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class GcnConfig:
    """The architecture and init seed.

    Each dimension and the seed is an int: whatever ``operator.index`` takes,
    numpy ints included, stored as a plain int. A bool, a float or anything
    else raises InvalidConfig, a ValueError.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    num_classes: int = 19
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.input_dim < 1:
            raise InvalidConfig("input_dim must be >= 1")
        if not self.hidden_dims:
            raise InvalidConfig("hidden_dims must be non-empty")
        if min(self.hidden_dims) < 1:
            raise InvalidConfig("hidden_dims must all be >= 1")
        if self.num_classes < 2:
            raise InvalidConfig("num_classes must be >= 2")

    @classmethod
    def from_json(cls, data: dict) -> "GcnConfig":
        """The config ``save_checkpoint`` wrote; ValueError unless its keys are the fields."""
        names = sorted(f.name for f in fields(cls))
        if sorted(data) != names:
            raise ValueError(f"config keys {sorted(data)}, expected {names}")
        return cls(**data)


def parameter_shapes(cfg: GcnConfig) -> tuple[tuple[int, ...], ...]:
    """The parameter blocks in checkpoint order: (W_l, b_l) per affine step.

    The steps run through ``dims = [input_dim, *hidden_dims, num_classes]``,
    so the graph-convolution layers come first and the head is the last pair.
    """
    dims = [cfg.input_dim, *cfg.hidden_dims, cfg.num_classes]
    steps = zip(dims[:-1], dims[1:])
    return tuple(shape for fan_in, fan_out in steps for shape in ((fan_in, fan_out), (fan_out,)))


def _parameter_count(shapes) -> int:
    return sum(math.prod(shape) for shape in shapes)


class Gradients:
    """Parameter-shaped views of one flat float64 ``vector``.

    ``shapes`` lists the blocks in ``parameter_shapes`` order; ``weights``
    and ``biases`` are the layers' blocks and ``fc_weight``, ``fc_bias`` the
    head's. The views are set once, as plain attributes. Holds dL/dparameters,
    and is the base of ``GcnModel``.
    """

    def __init__(self, vector: np.ndarray, shapes):
        self.shapes = tuple(tuple(shape) for shape in shapes)
        count = _parameter_count(self.shapes)
        if vector.shape != (count,):
            raise ShapeMismatch(f"vector of shape {vector.shape} for {count} parameters")
        self.vector = vector
        blocks, offset = [], 0
        for shape in self.shapes:
            blocks.append(vector[offset : offset + math.prod(shape)].reshape(shape))
            offset += math.prod(shape)
        self._blocks = tuple(blocks)
        self.weights, self.biases = self._blocks[0:-2:2], self._blocks[1:-2:2]
        self.fc_weight, self.fc_bias = blocks[-2:]

    def parameter_arrays(self) -> list[np.ndarray]:
        """All blocks in checkpoint order: (W_l, b_l)*, W_fc, b_fc."""
        return list(self._blocks)

    def to_vector(self) -> np.ndarray:
        """A copy of the flat vector."""
        return self.vector.copy()


class GcnModel(Gradients):
    """The GCN's parameters for ``config``, laid out by ``parameter_shapes``.

    Construction copies ``vector``, so every model owns its parameters.
    ``adam_step`` updates them in place; ``with_vector`` gives an independent
    model.
    """

    def __init__(self, config: GcnConfig, vector: np.ndarray):
        super().__init__(np.array(vector, dtype=np.float64), parameter_shapes(config))
        self.config = config

    def with_vector(self, vec: np.ndarray) -> "GcnModel":
        """A new model with this one's architecture and the parameters in ``vec``."""
        return GcnModel(self.config, vec)


def zeros_like_gradients(model: GcnModel) -> Gradients:
    return Gradients(np.zeros_like(model.vector), model.shapes)


def init_model(cfg: GcnConfig) -> GcnModel:
    """Glorot-uniform weights, drawn in block order, and zero biases; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    model = GcnModel(cfg, np.zeros(_parameter_count(parameter_shapes(cfg))))
    for weight in (*model.weights, model.fc_weight):
        s = np.sqrt(6.0 / sum(weight.shape))
        weight[...] = rng.uniform(-s, s, size=weight.shape)
    return model


def normalize_adjacency(graph, w: np.ndarray | None = None) -> SparseAdjacency:
    """Dhat^{-1/2} (A + I) Dhat^{-1/2} over the graph's undirected edges.

    Reads the graph's ``x`` (for the node count) and its E x 2
    ``edge_index``. Spatial and temporal edges are treated identically.
    Edge e enters A as its weight w_e (one per row of ``edge_index``, 1
    without ``w``), so degrees become 1 + sum of incident w. Edges are
    taken as given: a self-loop or a repeated or reversed pair raises
    DuplicateEntry. Raises OutOfRange for an edge end outside the graph's
    nodes.
    """
    n = graph.x.shape[0]
    if n == 0:
        raise EmptyGraph("graph has no nodes")
    ends = np.asarray(graph.edge_index, dtype=np.int64)
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise OutOfRange(f"edge end outside the graph's {n} nodes")
    i, j = ends[:, 0], ends[:, 1]
    w = np.ones(len(i)) if w is None else np.asarray(w, dtype=np.float64)
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
    h: np.ndarray, anorm: SparseAdjacency, weight: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """relu(Anorm @ h @ W + b), bias broadcast over nodes.

    Runs the kernel's own layer step into fresh buffers.
    """
    if weight.shape[1] != bias.shape[0]:
        raise ShapeMismatch(f"bias {bias.shape} does not match weight {weight.shape}")
    shape = (h.shape[0], weight.shape[1])
    return _layer_forward(h, anorm, weight, bias, np.empty(shape), np.empty(shape))


def global_add_pool(h: np.ndarray) -> np.ndarray:
    """Column-wise sum over nodes: axis -2, of one graph or of each graph of a stack."""
    if h.shape[-2] == 0:
        raise EmptyGraph("cannot pool an empty node set")
    return h.sum(axis=-2)


def forward(model: GcnModel, graph) -> tuple[np.ndarray, np.ndarray, int]:
    """(logits, probs, predicted class); argmax ties go to the lowest index."""
    return forward_prepared(model, graph.x, normalize_adjacency(graph))


def forward_prepared(
    model: GcnModel,
    x: np.ndarray,
    anorm: SparseAdjacency | DenseStack,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, int | np.ndarray]:
    """Forward pass on a precomputed feature matrix and normalized adjacency.

    With x of shape (B, n, d) and a ``DenseStack`` of B adjacencies it runs
    B graphs at once and returns logits (B, C), probs (B, C) and an array of
    B predicted classes; row j equals graph j's own forward bitwise.
    """
    _check_features(model, x)
    views = _views(workspace, model, x.shape[-2], stack=x.shape[0] if x.ndim == 3 else None)
    logits, probs, _ = _forward_cached(model, x, anorm, views)
    predicted = np.argmax(probs, axis=-1)
    return logits, probs, predicted if x.ndim == 3 else int(predicted)


def loss_and_gradients(model: GcnModel, graph, label: int) -> tuple[float, Gradients]:
    """Cross-entropy loss and its exact gradient for one labelled graph."""
    return loss_and_gradients_prepared(model, graph.x, normalize_adjacency(graph), label)


def loss_and_gradients_prepared(
    model: GcnModel,
    x: np.ndarray,
    anorm: SparseAdjacency,
    label: int,
    out: Gradients | None = None,
    workspace: Workspace | None = None,
) -> tuple[float, Gradients]:
    """Cross-entropy and its gradient, written into ``out`` or a fresh buffer.

    Every entry of ``out`` is overwritten, so one buffer can serve every
    sample of a training run.
    """
    _check_features(model, x)
    views = _views(workspace, model, x.shape[0])
    _, probs, pooled = _forward_cached(model, x, anorm, views)
    loss, dlogits = _head_backward(model, probs, label, views.dh[-1])
    grads = Gradients(np.empty_like(model.vector), model.shapes) if out is None else out
    inputs = (x, *views.h[:-1])
    for l, dz, dm in _backward_layers(model, anorm, views):
        dz.sum(axis=0, out=grads.biases[l])
        np.matmul(inputs[l].T, dm, out=grads.weights[l])
    np.outer(pooled, dlogits, out=grads.fc_weight)
    grads.fc_bias[...] = dlogits
    return loss, grads


def loss_and_edge_gradient(
    model: GcnModel, graph, label: int, w: np.ndarray, workspace: Workspace | None = None
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
    n = x.shape[0]
    views = _views(workspace, model, n, edges=True)
    _, probs, _ = _forward_cached(model, x, anorm, views)
    loss, _ = _head_backward(model, probs, label, views.dh[-1])
    g, r = views.g, views.r
    g.fill(0.0)
    for l, dz, _ in _backward_layers(model, anorm, views):
        g += np.matmul(dz, views.m[l].T, out=r)
    np.add(g, g.T, out=r)
    s_diag = anorm.values[anorm.rows == anorm.cols]  # the triples hold S_uu for every u, in order
    rs = np.bincount(anorm.rows, weights=r[anorm.rows, anorm.cols] * anorm.values, minlength=n)
    t = -0.5 * s_diag * rs
    i, j = np.asarray(graph.edge_index, dtype=np.int64).T
    return loss, r[i, j] * np.sqrt(s_diag[i] * s_diag[j]) + t[i] + t[j]


def _check_features(model, x):
    if x.shape[-2] == 0:
        raise EmptyGraph("graph has no nodes")
    if x.shape[-1] != model.config.input_dim:
        raise DimensionMismatch(
            f"graph features are {x.shape[-1]}-d, model expects {model.config.input_dim}"
        )


class _Views(NamedTuple):
    """A workspace cut for one node count n; tuples hold one n x width view per layer.

    For a stack of B graphs each view is B x n x width.
    """

    m: tuple[np.ndarray, ...]  # h_in @ W; one shared block unless the edge gradient reads them
    h: tuple[np.ndarray, ...]  # the layer's output, relu(S m + b), stored in place
    dz: tuple[np.ndarray, ...]  # dL/dZ, one shared block
    dh: tuple[np.ndarray, ...]  # dL/dh of the layer's output, one shared block
    mask: tuple[np.ndarray, ...]  # h > 0, one shared bool block
    g: np.ndarray | None  # n x n dL/dS (edge gradient only)
    r: np.ndarray | None  # n x n: each layer's dZ M^T, then G + G^T (edge gradient only)


class Workspace:
    """Buffers the GCN kernel writes into, reused from one call to the next.

    One float64 and one bool block grow to the largest graph or stack
    seen. The shaped views for a node count are cut once and kept, keyed by
    the stack size (None for one graph), the node count, the model's
    parameter shapes and whether the edge gradient needs them (it keeps
    every layer's product and two n x n matrices).
    """

    def __init__(self):
        self._floats = np.empty(0)
        self._bools = np.empty(0, dtype=bool)
        self._cuts: dict[tuple, _Views] = {}

    def views(
        self,
        shapes: tuple[tuple[int, ...], ...],
        n: int,
        edges: bool = False,
        stack: int | None = None,
    ) -> _Views:
        """Views for a model with parameter ``shapes`` on an ``n``-node graph,
        or on a ``stack`` of that many ``n``-node graphs."""
        key = (stack, n, shapes, edges)
        views = self._cuts.get(key)
        if views is None:
            views = self._cuts[key] = self._cut(shapes, n, edges, stack)
        return views

    def _cut(self, shapes, n, edges, stack) -> _Views:
        widths = [shape[1] for shape in shapes[0:-2:2]]  # the layers' W_l (parameter_shapes)
        lead = (n,) if stack is None else (stack, n)
        rows = math.prod(lead)
        block, layers = rows * max(widths), rows * sum(widths)
        size = 2 * layers + 2 * block + 2 * n * n if edges else layers + 3 * block
        if size > self._floats.size or block > self._bools.size:
            self._floats = np.empty(max(size, self._floats.size))
            self._bools = np.empty(max(block, self._bools.size), dtype=bool)
            self._cuts.clear()  # views of the old blocks would keep them alive
        rest = self._floats

        def take(count):
            nonlocal rest
            taken, rest = rest[:count], rest[count:]
            return taken

        def each_layer(shared=None):
            """A ``lead`` x width view per layer: of ``shared``, or of its own block."""
            return tuple(
                (take(rows * d) if shared is None else shared[: rows * d]).reshape(*lead, d)
                for d in widths
            )

        return _Views(
            m=each_layer() if edges else each_layer(take(block)),
            h=each_layer(),
            dz=each_layer(take(block)),
            dh=each_layer(take(block)),
            mask=each_layer(self._bools),
            g=take(n * n).reshape(n, n) if edges else None,
            r=take(n * n).reshape(n, n) if edges else None,
        )


def _views(workspace, model, n, edges=False, stack=None) -> _Views:
    return (Workspace() if workspace is None else workspace).views(model.shapes, n, edges, stack)


def _forward_cached(model, x, anorm, views):
    """Forward pass writing each layer's m = h_in W and h = relu(S m + b) into ``views``.

    Returns (logits, probs, pooled); the layer outputs stay in ``views.h``
    for the backward pass, and each m in ``views.m``.
    """
    h = x
    for weight, bias, m, out in zip(model.weights, model.biases, views.m, views.h):
        h = _layer_forward(h, anorm, weight, bias, m, out)
    pooled = global_add_pool(h)
    if pooled.ndim == 1:
        logits = pooled @ model.fc_weight + model.fc_bias
    else:  # one head product per graph: one (B, d) @ (d, C) product rounds differently
        logits = np.array([p @ model.fc_weight + model.fc_bias for p in pooled])
    probs = softmax(logits)
    return logits, probs, pooled


def _layer_forward(h, anorm, weight, bias, m, out):
    """One layer: m = h W, then out = relu(S m + b) in place; returns ``out``."""
    if h.shape[-1] != weight.shape[0]:
        raise DimensionMismatch(f"features {h.shape} do not chain with weight {weight.shape}")
    np.matmul(h, weight, out=m)
    np.add(anorm.apply(m), bias, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _head_backward(model, probs, label, dh):
    """Cross-entropy and dL/dlogits = p - e_y; dL/dh is written into every row of ``dh``."""
    loss = cross_entropy(probs, label)  # LabelOutOfRange outside the model's classes
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dh[...] = model.fc_weight @ dlogits
    return loss, dlogits


def _backward_layers(model, anorm, views):
    """Yield (layer, dL/dZ, dL/dM) from the last layer to the first.

    Reads the head's dL/dh from ``views.dh[-1]``. The yielded dL/dZ is a
    workspace view that the next step overwrites. dL/dh is carried down to
    layer 1's input; nothing reads it below layer 0. The ReLU mask comes
    from the stored output: h > 0 exactly where z > 0, NaN included.
    """
    for l in range(len(model.weights) - 1, -1, -1):
        dz, mask = views.dz[l], views.mask[l]
        np.greater(views.h[l], 0.0, out=mask)
        np.multiply(views.dh[l], mask, out=dz)
        dm = anorm.apply(dz)  # S is symmetric, so S^T dZ = S dZ
        yield l, dz, dm
        if l:
            np.matmul(dm, model.weights[l].T, out=views.dh[l - 1])


# --- optimizer ---------------------------------------------------------------------

@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(eq=False)
class AdamState:
    """Adam's moments, flat vectors the size of the one they update, and the step count.

    ``adam_update`` updates ``m``, ``v`` and ``t`` in place, using two scratch
    vectors of the same size that the state allocates once.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def init_adam_state(model: GcnModel) -> AdamState:
    return AdamState(m=np.zeros_like(model.vector), v=np.zeros_like(model.vector))


def adam_step(
    model: GcnModel, grads: Gradients, state: AdamState, hyper: AdamHyper | None = None
) -> tuple[GcnModel, AdamState]:
    """One bias-corrected Adam update of ``model`` and ``state``, both in place.

    Returns the same ``(model, state)``; see ``adam_update``.
    """
    adam_update(model.vector, grads.vector, state, hyper or AdamHyper())
    return model, state


def adam_update(p: np.ndarray, g: np.ndarray, state: AdamState, hyper: AdamHyper) -> None:
    """One bias-corrected Adam update of the flat vector ``p`` and ``state``, in place.

    Every array operation writes into ``p``, ``m``, ``v`` or a scratch
    vector, in the order of

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        p = p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps),

    so the result is bitwise that of evaluating these per array.
    """
    m, v = state.m, state.v
    if g.shape != p.shape:
        raise ShapeMismatch(f"gradient of shape {g.shape} for {p.size} parameters")
    state.t += 1
    s, r = state.scratch
    m *= hyper.beta1
    m += np.multiply(g, 1.0 - hyper.beta1, out=s)
    v *= hyper.beta2
    np.multiply(g, 1.0 - hyper.beta2, out=s)
    s *= g
    v += s
    np.divide(m, 1.0 - hyper.beta1**state.t, out=s)
    s *= hyper.lr
    np.divide(v, 1.0 - hyper.beta2**state.t, out=r)
    np.sqrt(r, out=r)
    r += hyper.eps
    s /= r
    p -= s


# --- checkpoints -------------------------------------------------------------------

def save_checkpoint(
    model: GcnModel, path: str | Path, step: int = 0, extra: dict | None = None
) -> None:
    """Binary checkpoint: magic, version, JSON header, f64le parameter blocks.

    Written to a temporary file that then replaces ``path``, so a failed
    write leaves an earlier checkpoint at ``path`` as it was.

    ``extra`` is an optional JSON-serializable dict stored verbatim in the
    header (e.g. the training configuration that produced the model).
    """
    header = {
        "config": asdict(model.config),
        "dims": [list(shape) for shape in model.shapes],
        "step": step,
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(model.vector.astype("<f8", copy=False).tobytes())


def _read_checkpoint(path: str | Path) -> tuple[bytes, dict, int]:
    """The file's bytes, its JSON header (with config and dims), and where the parameters start."""
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
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: malformed header ({exc})") from exc
    check_json(header, {"config": None, "dims": None}, f"{path}: the header", CorruptCheckpoint)
    if not isinstance(header.get("extra", {}), dict):
        raise CorruptCheckpoint(f"{path}: malformed header ('extra' is not an object)")
    return data, header, 12 + header_len


def load_checkpoint(path: str | Path) -> GcnModel:
    data, header, offset = _read_checkpoint(path)
    cfg = decode_config(GcnConfig.from_json, header["config"], f"{path}: malformed header",
                        CorruptCheckpoint)
    shapes = parameter_shapes(cfg)
    if header["dims"] != [list(shape) for shape in shapes]:
        raise CorruptCheckpoint(f"{path}: parameter shapes {header['dims']} do not match config")
    count = _parameter_count(shapes)
    end = offset + 8 * count
    if end > len(data):
        raise CorruptCheckpoint(f"{path}: truncated parameter block")
    if end != len(data):
        raise CorruptCheckpoint(f"{path}: {len(data) - end} trailing bytes")
    return GcnModel(cfg, np.frombuffer(data, dtype="<f8", count=count, offset=offset))


def checkpoint_header(path: str | Path) -> dict:
    """The JSON header of a checkpoint (config, dims, step, extra)."""
    return _read_checkpoint(path)[1]
