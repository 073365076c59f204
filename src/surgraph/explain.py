"""Edge and node importance for a model's prediction on one graph.

A sigmoid-parameterized weight per edge scales the adjacency before degree
normalization; the weights are optimized to keep the original prediction
while being sparse and binary (GNNExplainer's cross-entropy + size +
entropy objective). The model's loss and its gradient with respect to the
edge weights come from the training kernel
(``gcn.loss_and_edge_gradient``). High-importance edges are then grouped
into connected subgraphs and the whole thing can be rendered as DOT.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from .dynamic_graph import EDGE_KINDS, EDGE_SPATIAL, EDGE_TEMPORAL, DynamicGraph
from .errors import InvalidConfig, NonFiniteLoss, NotTrained, check_fields
from .gcn import (
    AdamHyper,
    AdamState,
    GcnModel,
    Workspace,
    adam_update,
    forward,
    loss_and_edge_gradient,
)
from .ingest import LabelMap, atomic_write

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

    def __post_init__(self):
        check_fields(self)
        if self.iterations < 1:
            raise InvalidConfig("iterations must be >= 1")
        if self.lr <= 0:
            raise InvalidConfig("lr must be positive")


@dataclass(frozen=True)
class Explanation:
    """Importances found for one prediction.

    ``converged`` is True when the objective of the last two iterations
    differed by less than 1e-6 (and for a graph without edges). It only
    reports; the loop always runs all ``iterations``.
    """

    edge_importance: np.ndarray  # sigma(mask logits), one per edge, in [0,1]
    node_importance: np.ndarray  # max over incident edges, 0 for isolated nodes
    target_class: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class Subgraph:
    node_indices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (i, j) of each kept edge, in edge-list order
    total_importance: float


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _objective(model, graph, logits_mask, target, lam1, lam2, workspace=None):
    """GNNExplainer's loss and its gradient with respect to the mask logits m.

    Cross-entropy of ``target`` with edges weighted by w = sigma(m), plus
    lam1 * sum(w) and lam2 * the summed binary entropy of w.
    """
    w = _sigmoid(logits_mask)
    ce, grad_w = loss_and_edge_gradient(model, graph, target, w, workspace=workspace)
    entropy = float(-(xlogy(w, w) + xlogy(1.0 - w, 1.0 - w)).sum())
    loss = ce + lam1 * float(w.sum()) + lam2 * entropy
    sig_grad = w * (1.0 - w)
    # d(entropy)/dm = ln((1-w)/w) * w(1-w) = -m * w(1-w)
    grad_m = grad_w * sig_grad + lam1 * sig_grad - lam2 * logits_mask * sig_grad
    return loss, grad_m


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
    _, probs, target = forward(model, graph)  # EmptyGraph for a graph without nodes
    if np.allclose(probs, 1.0 / probs.shape[0], atol=1e-9):
        raise NotTrained("model predicts uniform probabilities; nothing to explain")

    ends = np.asarray(graph.edge_index, dtype=np.int64).reshape(-1, 2)
    node_importance = np.zeros(graph.x.shape[0])
    if len(ends) == 0:
        return Explanation(
            edge_importance=np.zeros(0),
            node_importance=node_importance,
            target_class=target,
            converged=True,
            iterations=0,
        )

    m = np.zeros(len(ends))
    adam = AdamState(m=np.zeros_like(m), v=np.zeros_like(m))
    hyper = AdamHyper(lr=cfg.lr)
    prev_loss = np.inf
    converged = False
    workspace = Workspace()
    for it in range(1, cfg.iterations + 1):
        loss, grad = _objective(model, graph, m, target, cfg.sparsity, cfg.entropy, workspace)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"explainer loss {loss} at iteration {it}")
        adam_update(m, grad, adam, hyper)
        converged = abs(prev_loss - loss) < 1e-6
        prev_loss = loss

    importance = _sigmoid(m)
    np.maximum.at(node_importance, ends[:, 0], importance)
    np.maximum.at(node_importance, ends[:, 1], importance)
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
    edges = list(map(tuple, graph.edge_index.tolist()))
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
    steps, kinds = _node_steps_and_edge_kinds(graph)

    def class_name(cid: int) -> str:
        if label_map is not None and 0 <= cid < label_map.cardinality:
            return label_map.name_of(cid)
        return f"class_{cid}"

    lines = ["graph G {"]
    for idx, (cid, t) in enumerate(zip(graph.class_ids.tolist(), steps)):
        label = class_name(cid)
        if is_dynamic:
            label += f"@t-{graph.window - 1 - t}"
        lines.append(f'  n{idx} [label="{label}"];')
    for e, ((i, j), kind) in enumerate(zip(graph.edge_index.tolist(), kinds)):
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


def _node_steps_and_edge_kinds(graph) -> tuple[list[int], list[str]]:
    """Each node's timestep and each edge's kind; a static graph is step 0, all spatial."""
    if isinstance(graph, DynamicGraph):
        return graph.t.tolist(), [EDGE_KINDS[k] for k in graph.edge_kinds.tolist()]
    return [0] * len(graph.class_ids), [EDGE_SPATIAL] * len(graph.edge_index)


def explanation_to_json(explanation: Explanation, graph) -> dict:
    steps, kinds = _node_steps_and_edge_kinds(graph)
    edges = [
        {"i": i, "j": j, "kind": kind, "importance": float(explanation.edge_importance[e])}
        for e, ((i, j), kind) in enumerate(zip(graph.edge_index.tolist(), kinds))
    ]
    nodes = [
        {
            "index": idx,
            "t": t,
            "class": cid,
            "importance": float(explanation.node_importance[idx]),
        }
        for idx, (cid, t) in enumerate(zip(graph.class_ids.tolist(), steps))
    ]
    return {"target_class": explanation.target_class, "edges": edges, "nodes": nodes}


def write_explanation_json(explanation: Explanation, graph, path: str | Path) -> None:
    """Indented JSON; a failed write leaves an earlier file at ``path`` as it was."""
    text = json.dumps(explanation_to_json(explanation, graph), indent=2) + "\n"
    with atomic_write(path) as fh:
        fh.write(text)
