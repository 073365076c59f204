import numpy as np
import pytest
from scipy.special import xlogy

from surgraph.errors import EmptyGraph, NotTrained
from surgraph.explain import (
    ExplainConfig,
    Explanation,
    _objective,
    _sigmoid,
    explain_prediction,
    explanation_to_json,
    export_dot,
    extract_subgraphs,
)
from surgraph.gcn import (
    AdamHyper,
    GcnConfig,
    Workspace,
    adam_step,
    forward,
    forward_prepared,
    init_adam_state,
    init_model,
    loss_and_edge_gradient,
    loss_and_gradients,
    normalize_adjacency,
)
from surgraph.ingest import label_map_from_entries
from surgraph.numerics import DENSE_NODE_LIMIT, cross_entropy, grad_check, softmax

from test_gcn import REUSE_SIZES, FakeGraph, _random_graph, _window_case


def _edge_sensitive_model():
    """Fit a tiny model whose prediction hinges on the A-B edge."""
    a, b, c = np.eye(3)
    with_edge = FakeGraph(np.array([a, b, c]), ((0, 1), (1, 2)))
    without = FakeGraph(np.array([a, b, c]), ((1, 2),))
    model = init_model(GcnConfig(input_dim=3, hidden_dims=(6, 6), num_classes=2, seed=1))
    state = init_adam_state(model)
    hyper = AdamHyper(lr=0.05)
    for _ in range(150):
        for graph, label in ((with_edge, 1), (without, 0)):
            _, grads = loss_and_gradients(model, graph, label)
            model, state = adam_step(model, grads, state, hyper)
    assert forward(model, with_edge)[2] == 1
    assert forward(model, without)[2] == 0
    return model, with_edge


def test_decisive_edge_ranks_first():
    model, graph = _edge_sensitive_model()
    expl = explain_prediction(model, graph)
    assert expl.target_class == 1
    assert int(np.argmax(expl.edge_importance)) == 0  # the (0, 1) edge
    assert np.all(expl.edge_importance >= 0.0)
    assert np.all(expl.edge_importance <= 1.0)
    # node importance is the max over incident edges
    assert expl.node_importance[0] == expl.edge_importance[0]
    assert expl.node_importance[1] == np.max(expl.edge_importance)


def test_heavy_sparsity_drives_mask_down():
    model, graph = _edge_sensitive_model()
    harsh = ExplainConfig(iterations=400, sparsity=50.0, entropy=0.0)
    expl = explain_prediction(model, graph, harsh)
    assert np.max(expl.edge_importance) < 0.1


def test_fully_masked_forward_matches_edgeless_graph():
    model, graph = _edge_sensitive_model()
    x = graph.feature_matrix()
    target = forward(model, graph)[2]
    # logits of -40 push every edge weight to ~0
    w = _sigmoid(np.full(len(graph.edges), -40.0))
    assert np.max(w) < 1e-15
    loss, _ = loss_and_edge_gradient(model, graph, target, w)
    bare = FakeGraph(x, ())
    _, probs, _ = forward(model, bare)
    assert loss == pytest.approx(cross_entropy(probs, target), abs=1e-9)


# --- the explainer on the training kernel against the dense kernel it replaced ---------

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


def _reference_explanation(model, graph, cfg):
    """The Adam loop of explain_prediction, run on the dense reference kernel."""
    edges = list(map(tuple, graph.edge_index.tolist()))
    target = forward(model, graph)[2]
    m = np.zeros(len(edges))
    adam_m = np.zeros_like(m)
    adam_v = np.zeros_like(m)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for it in range(1, cfg.iterations + 1):
        _, grad, _ = _masked_loss_and_grad(
            model, graph.x, edges, m, target, cfg.sparsity, cfg.entropy
        )
        adam_m = beta1 * adam_m + (1 - beta1) * grad
        adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
        m_hat = adam_m / (1 - beta1**it)
        v_hat = adam_v / (1 - beta2**it)
        m = m - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
    importance = _sigmoid(m)
    node_importance = np.zeros(graph.x.shape[0])
    for e, (i, j) in enumerate(edges):
        node_importance[i] = max(node_importance[i], importance[e])
        node_importance[j] = max(node_importance[j], importance[e])
    return target, importance, node_importance


def _random_case(n, seed, hidden_dims=(64, 64, 128, 128, 192, 128, 64, 64)):
    """A seeded random graph of ``n`` nodes, about 1.5 edges per node, and a model."""
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, n, 6, p_edge=min(0.4, 3.0 / n))
    model = init_model(
        GcnConfig(input_dim=6, hidden_dims=hidden_dims, num_classes=4, seed=seed)
    )
    return model, graph, forward(model, graph)[2]


# one graph on each side of the dense/CSR switch in SparseAdjacency
SIZES = (5, 70)


def test_sizes_cover_both_adjacency_kernels():
    assert SIZES[0] < DENSE_NODE_LIMIT <= SIZES[1]


@pytest.mark.parametrize("n", SIZES)
def test_mask_gradient_matches_central_differences(n):
    model, graph, target = _random_case(n, seed=n, hidden_dims=(8, 8, 8))
    logits = np.random.default_rng(n + 1).normal(size=len(graph.edges))

    def f(m):
        return _objective(model, graph, m, target, 0.005, 0.1)

    assert grad_check(f, logits, eps=1e-5) < 1e-6


@pytest.mark.parametrize("n", SIZES)
def test_objective_matches_dense_reference(n):
    model, graph, target = _random_case(n, seed=n)
    edges = list(map(tuple, graph.edge_index.tolist()))
    rng = np.random.default_rng(n + 2)
    for _ in range(5):
        logits = rng.normal(scale=2.0, size=len(edges))
        loss, grad = _objective(model, graph, logits, target, 0.005, 0.1)
        ref_loss, ref_grad, _ = _masked_loss_and_grad(
            model, graph.x, edges, logits, target, 0.005, 0.1
        )
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("n", SIZES)
def test_explanation_matches_dense_reference(n):
    model, graph, _ = _random_case(n, seed=n)
    cfg = ExplainConfig(iterations=60)
    expl = explain_prediction(model, graph, cfg)
    target, importance, node_importance = _reference_explanation(model, graph, cfg)
    assert expl.target_class == target
    np.testing.assert_allclose(expl.edge_importance, importance, rtol=0, atol=1e-12)
    np.testing.assert_allclose(expl.node_importance, node_importance, rtol=0, atol=1e-12)


def test_one_workspace_across_graph_sizes_matches_fresh_edge_gradients_bitwise():
    model, _ = _window_case(60, 1)
    workspace = Workspace()
    kept = []
    for k, n in enumerate(REUSE_SIZES):
        graph = _window_case(61 + k, n)[1]
        w = np.random.default_rng(k).uniform(0.05, 0.95, size=len(graph.edges))
        # a forward pass cuts the same workspace for the same node count
        forward_prepared(model, graph.x, normalize_adjacency(graph), workspace=workspace)
        loss, grad_w = loss_and_edge_gradient(model, graph, k, w, workspace=workspace)
        fresh_loss, fresh_grad_w = loss_and_edge_gradient(model, graph, k, w)
        assert loss == fresh_loss
        assert np.array_equal(grad_w, fresh_grad_w)
        kept.append((grad_w, grad_w.copy()))
    for grad_w, grad_w0 in kept:
        assert np.array_equal(grad_w, grad_w0)


def test_empty_graph_raises():
    model, _ = _edge_sensitive_model()
    with pytest.raises(EmptyGraph):
        explain_prediction(model, FakeGraph(np.zeros((0, 3)), ()))


def test_zero_model_raises_not_trained():
    model = init_model(GcnConfig(input_dim=3, hidden_dims=(4,), num_classes=2, seed=0))
    zeroed = model.with_vector(np.zeros_like(model.to_vector()))
    graph = FakeGraph(np.eye(3), ((0, 1),))
    with pytest.raises(NotTrained):
        explain_prediction(zeroed, graph)


def test_edgeless_graph_explains_to_zeros():
    model, _ = _edge_sensitive_model()
    graph = FakeGraph(np.eye(3), ())
    expl = explain_prediction(model, graph)
    assert expl.edge_importance.shape == (0,)
    np.testing.assert_array_equal(expl.node_importance, np.zeros(3))
    assert expl.converged


def test_explain_is_deterministic():
    model, graph = _edge_sensitive_model()
    a = explain_prediction(model, graph)
    b = explain_prediction(model, graph)
    np.testing.assert_array_equal(a.edge_importance, b.edge_importance)


def _toy_explanation(importances):
    imp = np.asarray(importances, dtype=np.float64)
    return Explanation(
        edge_importance=imp,
        node_importance=np.zeros(0),
        target_class=0,
        converged=True,
        iterations=1,
    )


def test_extract_subgraphs_two_clusters():
    graph = FakeGraph(np.zeros((6, 2)), ((0, 1), (1, 2), (3, 4), (4, 5), (2, 3)))
    expl = _toy_explanation([0.9, 0.8, 0.7, 0.95, 0.05])
    subs = extract_subgraphs(expl, graph, threshold=0.5)
    assert len(subs) == 2
    assert subs[0].node_indices == (0, 1, 2)  # total 1.7 beats 1.65
    assert subs[1].node_indices == (3, 4, 5)
    assert subs[0].total_importance == pytest.approx(1.7)
    assert subs[0].edges == ((0, 1), (1, 2))


def test_extract_subgraphs_empty_below_threshold():
    graph = FakeGraph(np.zeros((3, 2)), ((0, 1), (1, 2)))
    subs = extract_subgraphs(_toy_explanation([0.2, 0.3]), graph, threshold=0.5)
    assert subs == []


def test_extract_subgraphs_threshold_validation():
    graph = FakeGraph(np.zeros((2, 2)), ((0, 1),))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            extract_subgraphs(_toy_explanation([0.9]), graph, threshold=bad)


LABELS = label_map_from_entries([(0, "Pupil"), (1, "Iris"), (2, "Tool")])


def test_export_dot_single_node():
    graph = FakeGraphWithClasses(np.zeros((1, 2)), (), class_ids=(2,))
    dot = export_dot(graph, label_map=LABELS)
    assert dot.splitlines() == ["graph G {", '  n0 [label="Tool"];', "}"]


def test_export_dot_penwidth_scale():
    graph = FakeGraphWithClasses(np.zeros((2, 2)), ((0, 1),), class_ids=(0, 2))
    dot = export_dot(graph, _toy_explanation([1.0]), label_map=LABELS)
    assert "penwidth=5.00" in dot
    dot_half = export_dot(graph, _toy_explanation([0.5]), label_map=LABELS)
    assert "penwidth=3.00" in dot_half
    plain = export_dot(graph, label_map=LABELS)
    assert "penwidth=1.00" in plain


def test_export_dot_matches_golden():
    from pathlib import Path

    from surgraph.dynamic_graph import WindowConfig, build_dynamic_graph
    from surgraph.ingest import SegmentationMask, default_label_map
    from surgraph.scene_graph import FeatureConfig, build_static_graph

    cfg = FeatureConfig(num_classes=17, use_temporal=True, min_segment_pixels=1)
    rows = np.array([[0, 0, 14, 14], [0, 4, 14, 14]], dtype=np.uint8)
    frames = [
        build_static_graph(SegmentationMask(4, 2, rows, f), cfg=cfg) for f in (0, 1)
    ]
    dyn = build_dynamic_graph(frames, WindowConfig(window=2, dilation=1))
    imp = np.array([round(0.1 * (i + 1), 2) for i in range(len(dyn.edges))])
    expl = Explanation(
        edge_importance=imp,
        node_importance=np.zeros(len(dyn.nodes)),
        target_class=4,
        converged=True,
        iterations=200,
    )
    dot = export_dot(dyn, expl, default_label_map())
    golden = Path(__file__).parent / "golden" / "explain_small.dot"
    assert dot == golden.read_text()


def _view_explanation_to_json(explanation, graph) -> dict:
    """``explanation_to_json`` as written against the ``nodes`` and ``edges`` views."""
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


@pytest.mark.parametrize("window", [1, 3])
def test_explanation_json_matches_view_reference(window):
    import json

    from conftest import random_mask
    from surgraph.dynamic_graph import WindowConfig, build_dynamic_graph
    from surgraph.scene_graph import FeatureConfig, build_static_graph

    rng = np.random.default_rng(window)
    cfg = FeatureConfig(num_classes=8, min_segment_pixels=1)
    frames = [
        build_static_graph(random_mask(rng, frame_index=f), cfg=cfg) for f in range(window)
    ]
    graph = frames[0] if window == 1 else build_dynamic_graph(frames, WindowConfig(window, 1))
    assert len(graph.edge_index) > 0
    expl = Explanation(
        edge_importance=rng.uniform(size=len(graph.edge_index)),
        node_importance=rng.uniform(size=graph.x.shape[0]),
        target_class=2,
        converged=True,
        iterations=10,
    )
    text = json.dumps(explanation_to_json(expl, graph), indent=2)
    assert text == json.dumps(_view_explanation_to_json(expl, graph), indent=2)


def test_explanation_json_schema():
    model, plain = _edge_sensitive_model()
    graph = FakeGraphWithClasses(plain.x, plain.edges, class_ids=(0, 1, 2))
    expl = explain_prediction(model, graph)
    data = explanation_to_json(expl, graph)
    assert data["target_class"] == 1
    assert [e["i"] for e in data["edges"]] == [0, 1]
    assert len(data["nodes"]) == 3
    assert all(0.0 <= e["importance"] <= 1.0 for e in data["edges"])


class FakeGraphWithClasses(FakeGraph):
    def __init__(self, x, edges, class_ids):
        super().__init__(x, edges)
        self.class_ids = np.asarray(class_ids, dtype=np.int64)
