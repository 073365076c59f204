"""Edge and node importance for a model's prediction on one graph.

A sigmoid-parameterized weight per edge scales the adjacency before degree
normalization; the weights are optimized to keep the original prediction
while being sparse and binary (cross-entropy + L1 + entropy objective). The
gradient of the loss through the renormalized adjacency is derived in closed
form below. High-importance edges are then grouped into connected subgraphs
and the whole thing can be rendered as DOT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from .dynamic_graph import EDGE_TEMPORAL, DynamicGraph
from .errors import EmptyGraph, NonFiniteLoss, NotTrained
from .gcn import GcnModel, forward
from .ingest import LabelMap
from .numerics import softmax

__all__ = [
    "ExplainConfig",
    "Explanation",
    "Subgraph",
    "explain_prediction",
    "extract_subgraphs",
    "export_dot",
    "explanation_to_json",
    "write_explanation_json",
]


@dataclass(frozen=True)
class ExplainConfig:
    iterations: int = 200
    lr: float = 0.01
    sparsity: float = 0.005  # weight of sum(sigma(m))
    entropy: float = 0.1  # weight of sum of binary entropies
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass(frozen=True)
class Explanation:
    edge_importance: np.ndarray  # sigma(mask logits), one per edge, in [0,1]
    node_importance: np.ndarray  # max over incident edges, 0 for isolated nodes
    target_class: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class Subgraph:
    node_indices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # indices into the parent graph's edge list
    total_importance: float


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _edge_endpoints(graph) -> list[tuple[int, int]]:
    return list(map(tuple, graph.edge_index.tolist()))


def _masked_loss_and_grad(model, x, edges, logits_mask, target, lam1, lam2):
    """Loss and d(loss)/d(mask logits) through the renormalized adjacency.

    With w = sigma(m) scaling each off-diagonal entry of A + I, degrees
    become D_i = 1 + sum of incident w. Writing S = D^{-1/2} (A_w + I)
    D^{-1/2} and G = sum over layers of dZ_l M_l^T (dL/dS), the chain rule
    per edge e=(i,j) is

        dL/dw_e = (G_ij + G_ji) d_i d_j + T_i + T_j,
        T_u = -1/2 D_u^{-3/2} * sum_b (G_ub + G_bu) Ahat_ub d_b,

    i.e. one direct term for the scaled entry plus two degree terms.
    """
    n = x.shape[0]
    w = _sigmoid(logits_mask)

    ahat = np.eye(n)
    deg = np.ones(n)
    for e, (i, j) in enumerate(edges):
        ahat[i, j] = w[e]
        ahat[j, i] = w[e]
        deg[i] += w[e]
        deg[j] += w[e]
    d = deg**-0.5
    s = np.outer(d, d) * ahat

    # forward, caching pre-activations
    h = x
    cache = []
    for weight, bias in zip(model.weights, model.biases):
        m_l = h @ weight
        z = s @ m_l + bias
        cache.append((m_l, z))
        h = np.maximum(z, 0.0)
    pooled = h.sum(axis=0)
    out = pooled @ model.fc_weight + model.fc_bias
    probs = softmax(out)
    ce = float(-np.log(max(probs[target], 1e-12)))
    entropy = float(-(xlogy(w, w) + xlogy(1.0 - w, 1.0 - w)).sum())
    loss = ce + lam1 * float(w.sum()) + lam2 * entropy

    # backward to G = dL/dS
    dlogits = probs.copy()
    dlogits[target] -= 1.0
    dpooled = model.fc_weight @ dlogits
    dh = np.tile(dpooled, (n, 1))
    g = np.zeros((n, n))
    for l in range(len(model.weights) - 1, -1, -1):
        m_l, z = cache[l]
        dz = dh * (z > 0.0)
        g += dz @ m_l.T
        dm = s @ dz  # s symmetric
        dh = dm @ model.weights[l].T

    r = g + g.T
    row = (r * ahat * d[None, :]).sum(axis=1)  # sum_b (G_ub+G_bu) Ahat_ub d_b
    t_term = -0.5 * deg**-1.5 * row
    grad_w = np.empty(len(edges))
    for e, (i, j) in enumerate(edges):
        grad_w[e] = r[i, j] * d[i] * d[j] + t_term[i] + t_term[j]

    sig_grad = w * (1.0 - w)
    # d(entropy)/dm = ln((1-w)/w) * w(1-w) = -m * w(1-w)
    grad_m = grad_w * sig_grad + lam1 * sig_grad - lam2 * logits_mask * sig_grad
    return loss, grad_m, w


def explain_prediction(
    model: GcnModel, graph, cfg: ExplainConfig | None = None
) -> Explanation:
    """Optimize an edge mask that preserves the model's prediction.

    Mask logits start at 0 (all importances 0.5) and are optimized with Adam
    for a fixed number of iterations; the run is fully deterministic. Models
    that output uniform probabilities on this graph are rejected (nothing to
    explain). Graphs without edges yield an all-zero-importance explanation.
    """
    cfg = cfg or ExplainConfig()
    x = graph.x
    if x.shape[0] == 0:
        raise EmptyGraph("cannot explain an empty graph")
    _, probs, target = forward(model, graph)
    if np.allclose(probs, 1.0 / probs.shape[0], atol=1e-9):
        raise NotTrained("model predicts uniform probabilities; nothing to explain")

    edges = _edge_endpoints(graph)
    n_nodes = x.shape[0]
    if not edges:
        return Explanation(
            edge_importance=np.zeros(0),
            node_importance=np.zeros(n_nodes),
            target_class=target,
            converged=True,
            iterations=0,
        )

    m = np.zeros(len(edges))
    adam_m = np.zeros_like(m)
    adam_v = np.zeros_like(m)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    prev_loss = np.inf
    converged = False
    for it in range(1, cfg.iterations + 1):
        loss, grad, w = _masked_loss_and_grad(
            model, x, edges, m, target, cfg.sparsity, cfg.entropy
        )
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"explainer loss {loss} at iteration {it}")
        adam_m = beta1 * adam_m + (1 - beta1) * grad
        adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
        m_hat = adam_m / (1 - beta1**it)
        v_hat = adam_v / (1 - beta2**it)
        m = m - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        converged = abs(prev_loss - loss) < 1e-6
        prev_loss = loss

    importance = _sigmoid(m)
    node_importance = np.zeros(n_nodes)
    for e, (i, j) in enumerate(edges):
        node_importance[i] = max(node_importance[i], importance[e])
        node_importance[j] = max(node_importance[j], importance[e])
    return Explanation(
        edge_importance=importance,
        node_importance=node_importance,
        target_class=target,
        converged=converged,
        iterations=cfg.iterations,
    )


def extract_subgraphs(
    explanation: Explanation, graph, threshold: float
) -> list[Subgraph]:
    """Connected components over edges with importance >= threshold.

    Components with at least two nodes are returned, largest total edge
    importance first.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    edges = _edge_endpoints(graph)
    kept = [e for e in range(len(edges)) if explanation.edge_importance[e] >= threshold]

    parent = list(range(graph.x.shape[0]))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in kept:
        i, j = edges[e]
        parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for e in kept:
        groups.setdefault(find(edges[e][0]), []).append(e)
    out = []
    for root, edge_ids in groups.items():
        nodes = sorted({v for e in edge_ids for v in edges[e]})
        if len(nodes) < 2:
            continue
        total = float(sum(explanation.edge_importance[e] for e in edge_ids))
        out.append(
            Subgraph(
                node_indices=tuple(nodes),
                edges=tuple(edges[e] for e in sorted(edge_ids)),
                total_importance=total,
            )
        )
    out.sort(key=lambda sg: (-sg.total_importance, sg.node_indices))
    return out


def export_dot(
    graph, explanation: Explanation | None = None, label_map: LabelMap | None = None
) -> str:
    """Undirected DOT text for a (possibly explained) graph.

    Node labels are class names, suffixed with the timestep offset "@t-k"
    for dynamic graphs (k = 0 is the newest frame). Edge pen width is
    1 + 4 * importance; temporal edges are dashed.
    """
    is_dynamic = isinstance(graph, DynamicGraph)
    steps = graph.window if is_dynamic else 1

    def class_name(cid: int) -> str:
        if label_map is not None and 0 <= cid < label_map.cardinality:
            return label_map.name_of(cid)
        return f"class_{cid}"

    lines = ["graph G {"]
    for idx, node in enumerate(graph.nodes):
        label = class_name(node.class_id)
        if is_dynamic:
            label += f"@t-{steps - 1 - node.t}"
        lines.append(f'  n{idx} [label="{label}"];')
    for e, edge in enumerate(graph.edges):
        i, j = int(edge[0]), int(edge[1])
        kind = edge[2] if len(edge) > 2 else "spatial"
        if explanation is None:
            width = 1.0
        else:
            width = 1.0 + 4.0 * float(explanation.edge_importance[e])
        attrs = [f"penwidth={width:.2f}"]
        if kind == EDGE_TEMPORAL:
            attrs.append("style=dashed")
        lines.append(f"  n{i} -- n{j} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def explanation_to_json(explanation: Explanation, graph) -> dict:
    edges = []
    for e, edge in enumerate(graph.edges):
        kind = edge[2] if len(edge) > 2 else "spatial"
        edges.append(
            {
                "i": int(edge[0]),
                "j": int(edge[1]),
                "kind": kind,
                "importance": float(explanation.edge_importance[e]),
            }
        )
    nodes = [
        {
            "index": idx,
            "t": node.t,
            "class": node.class_id,
            "importance": float(explanation.node_importance[idx]),
        }
        for idx, node in enumerate(graph.nodes)
    ]
    return {"target_class": explanation.target_class, "edges": edges, "nodes": nodes}


def write_explanation_json(explanation: Explanation, graph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(explanation_to_json(explanation, graph), indent=2) + "\n")
