import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

from surgraph.errors import (
    CorruptCheckpoint,
    DimensionMismatch,
    DuplicateEntry,
    EmptyGraph,
    LabelOutOfRange,
    OutOfRange,
    ShapeMismatch,
    VersionMismatch,
)
from surgraph.gcn import (
    DEFAULT_HIDDEN_DIMS,
    AdamHyper,
    GcnConfig,
    GcnModel,
    Gradients,
    Workspace,
    adam_step,
    backward,
    forward,
    gcn_layer_forward,
    global_add_pool,
    init_adam_state,
    init_model,
    load_checkpoint,
    loss_and_edge_gradient,
    loss_and_gradients,
    loss_and_gradients_prepared,
    normalize_adjacency,
    save_checkpoint,
    checkpoint_header,
    forward_prepared,
    zeros_like_gradients,
)
from surgraph.numerics import DENSE_NODE_LIMIT, grad_check, softmax


@dataclasses.dataclass
class FakeNode:
    features: np.ndarray


@dataclasses.dataclass
class FakeGraph:
    """Minimal stand-in exposing the node/edge protocol the model consumes."""

    x: np.ndarray
    edges: tuple

    @property
    def nodes(self):
        return [FakeNode(row) for row in self.x]

    @property
    def edge_index(self):
        return np.array([e[:2] for e in self.edges], dtype=np.int64).reshape(-1, 2)

    def feature_matrix(self):
        return self.x


def _random_graph(rng, n, d, p_edge=0.4):
    x = rng.normal(size=(n, d))
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p_edge
    )
    return FakeGraph(x, edges)


SMALL_CFG = GcnConfig(input_dim=5, hidden_dims=(6, 7), num_classes=3, seed=0)


def test_init_shapes_default_architecture():
    cfg = GcnConfig(input_dim=148, num_classes=19, seed=0)
    model = init_model(cfg)
    dims = [(w.shape[0], w.shape[1]) for w in model.weights]
    assert dims == [
        (148, 64), (64, 64), (64, 128), (128, 128),
        (128, 192), (192, 128), (128, 64), (64, 64),
    ]
    assert model.fc_weight.shape == (64, 19)
    assert model.fc_bias.shape == (19,)
    for b, w in zip(model.biases, model.weights):
        assert b.shape == (w.shape[1],)
        np.testing.assert_array_equal(b, 0.0)


def test_init_deterministic_and_bounded():
    a = init_model(SMALL_CFG)
    b = init_model(SMALL_CFG)
    for wa, wb in zip(a.parameter_arrays(), b.parameter_arrays()):
        np.testing.assert_array_equal(wa, wb)
    c = init_model(dataclasses.replace(SMALL_CFG, seed=1))
    assert not np.array_equal(a.weights[0], c.weights[0])
    for w in (*a.weights, a.fc_weight):
        bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.max(np.abs(w)) <= bound


def test_normalize_single_node():
    g = FakeGraph(np.zeros((1, 2)), ())
    np.testing.assert_allclose(normalize_adjacency(g).to_dense(), [[1.0]])


def test_normalize_two_nodes_one_edge():
    g = FakeGraph(np.zeros((2, 2)), ((0, 1),))
    np.testing.assert_allclose(normalize_adjacency(g).to_dense(), np.full((2, 2), 0.5))


def test_normalize_triangle():
    g = FakeGraph(np.zeros((3, 2)), ((0, 1), (0, 2), (1, 2)))
    np.testing.assert_allclose(
        normalize_adjacency(g).to_dense(), np.full((3, 3), 1.0 / 3.0), atol=1e-15
    )


def test_normalize_dedupes_and_accepts_kinds():
    g = FakeGraph(np.zeros((2, 2)), ((0, 1), (1, 0, "temporal"), (0, 1, "spatial")))
    np.testing.assert_allclose(normalize_adjacency(g).to_dense(), np.full((2, 2), 0.5))


def test_normalize_empty_graph():
    with pytest.raises(EmptyGraph):
        normalize_adjacency(FakeGraph(np.zeros((0, 2)), ()))


def test_normalize_rejects_edge_outside_graph():
    for edges in (((0, 2),), ((-1, 0, "spatial"),)):
        with pytest.raises(OutOfRange):
            normalize_adjacency(FakeGraph(np.zeros((2, 2)), edges))


def test_weighted_normalize_matches_dense_formula():
    rng = np.random.default_rng(5)
    for n in (4, 2 * DENSE_NODE_LIMIT):
        g = _random_graph(rng, n, 3, p_edge=min(0.4, 3.0 / n))
        w = rng.uniform(0.0, 1.0, size=len(g.edges))
        a = np.eye(n)
        for (i, j), wij in zip(g.edges, w):
            a[i, j] = a[j, i] = wij
        d = a.sum(axis=1) ** -0.5
        np.testing.assert_allclose(
            normalize_adjacency(g, w).to_dense(), d[:, None] * a * d[None, :],
            rtol=1e-14, atol=0,
        )


@pytest.mark.parametrize("n", [6, 2 * DENSE_NODE_LIMIT])
def test_unit_edge_weights_match_unweighted_bitwise(n):
    rng = np.random.default_rng(n)
    g = _random_graph(rng, n, 5, p_edge=min(0.4, 3.0 / n))
    ones = np.ones(len(g.edges))
    plain, weighted = normalize_adjacency(g), normalize_adjacency(g, ones)
    assert np.array_equal(weighted.rows, plain.rows)
    assert np.array_equal(weighted.cols, plain.cols)
    assert np.array_equal(weighted.values, plain.values)
    model = init_model(GcnConfig(input_dim=5, hidden_dims=(6, 7), num_classes=3, seed=n))
    assert loss_and_edge_gradient(model, g, 1, ones)[0] == loss_and_gradients(model, g, 1)[0]


def test_weighted_normalize_takes_edges_as_given():
    x = np.zeros((3, 2))
    for edges in (((0, 1), (1, 0)), ((0, 1), (0, 1)), ((0, 1), (2, 2))):
        with pytest.raises(DuplicateEntry):
            normalize_adjacency(FakeGraph(x, edges), np.full(2, 0.5))
    with pytest.raises(ShapeMismatch):
        normalize_adjacency(FakeGraph(x, ((0, 1),)), np.full(2, 0.5))


def _reference_normalize(graph):
    """Set-and-loop normalization, kept as the reference for the array version."""
    n = len(graph.nodes)
    pairs = set()
    for edge in graph.edges:
        i, j = int(edge[0]), int(edge[1])
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    degree = np.ones(n)
    for i, j in pairs:
        degree[i] += 1.0
        degree[j] += 1.0
    dinv = 1.0 / np.sqrt(degree)
    rows = list(range(n))
    cols = list(range(n))
    vals = (dinv * dinv).tolist()
    for i, j in sorted(pairs):
        v = dinv[i] * dinv[j]
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([v, v])
    rows, cols, vals = np.array(rows), np.array(cols), np.array(vals)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def _reference_apply(n, rows, cols, vals, x):
    """S @ x with the operator rebuilt on every call: dense below the limit, else COO to CSR."""
    if n < DENSE_NODE_LIMIT:
        dense = np.zeros((n, n))
        dense[rows, cols] = vals
        return dense @ x
    csr = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return np.asarray(csr @ x)


def _messy_graph(rng, n, m, with_kinds):
    """Random edges with self-loops, repeated and reversed edges, and isolated nodes."""
    reach = max(1, n - 3)  # the last nodes of larger graphs get no edges
    ends = rng.integers(0, reach, size=(m, 2))
    edges = [(int(i), int(j)) for i, j in ends]
    if edges:
        edges += [edges[0], edges[-1][::-1], (edges[0][0], edges[0][0])]
    if with_kinds:
        edges = [(i, j, ("spatial", "temporal")[int(rng.integers(2))]) for i, j in edges]
    return FakeGraph(rng.normal(size=(n, 4)), tuple(edges))


@pytest.mark.parametrize("with_kinds", [False, True])
@pytest.mark.parametrize("n", [1, 2, 17, 63, 64, 65, 130])
def test_normalize_and_apply_match_reference_bitwise(n, with_kinds):
    rng = np.random.default_rng(1000 * n + with_kinds)
    for m in (0, 1, n, 4 * n):
        g = _messy_graph(rng, n, m, with_kinds)
        rows, cols, vals = _reference_normalize(g)
        anorm = normalize_adjacency(g)
        assert np.array_equal(anorm.rows, rows)
        assert np.array_equal(anorm.cols, cols)
        assert np.array_equal(anorm.values, vals)
        x = rng.normal(size=(n, 9))
        assert np.array_equal(anorm.apply(x), _reference_apply(n, rows, cols, vals, x))


def test_apply_builds_no_operator(monkeypatch):
    rng = np.random.default_rng(11)
    n = 2 * DENSE_NODE_LIMIT
    g = _messy_graph(rng, n, 3 * n, with_kinds=True)
    anorm = normalize_adjacency(g)
    x = rng.normal(size=(n, 6))
    expected = _reference_apply(n, anorm.rows, anorm.cols, anorm.values, x)

    def refuse(*args, **kwargs):
        raise AssertionError("apply built a CSR matrix")

    monkeypatch.setattr("surgraph.numerics.sparse.csr_matrix", refuse)
    for _ in range(3):
        assert np.array_equal(anorm.apply(x), expected)


def test_layer_forward_matches_dense_formula():
    rng = np.random.default_rng(9)
    g = _random_graph(rng, 6, 4)
    anorm = normalize_adjacency(g)
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=5)
    out = gcn_layer_forward(g.x, anorm, w, b)
    expected = np.maximum(anorm.to_dense() @ (g.x @ w) + b, 0.0)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    linear = gcn_layer_forward(g.x, anorm, w, b, apply_relu=False)
    np.testing.assert_allclose(linear, anorm.to_dense() @ (g.x @ w) + b, atol=1e-12)


def test_global_add_pool():
    h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(global_add_pool(h), [9.0, 12.0])
    with pytest.raises(EmptyGraph):
        global_add_pool(np.zeros((0, 2)))


def test_forward_probs_sum_to_one():
    rng = np.random.default_rng(1)
    model = init_model(SMALL_CFG)
    for _ in range(5):
        g = _random_graph(rng, int(rng.integers(2, 9)), 5)
        logits, probs, pred = forward(model, g)
        assert logits.shape == probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert pred == int(np.argmax(probs))


def test_zero_model_is_uniform_and_ties_break_low():
    model = init_model(SMALL_CFG)
    zeroed = model.with_vector(np.zeros_like(model.to_vector()))
    g = _random_graph(np.random.default_rng(2), 4, 5)
    _, probs, pred = forward(zeroed, g)
    np.testing.assert_allclose(probs, 1.0 / 3.0)
    assert pred == 0


def test_forward_node_permutation_invariant():
    rng = np.random.default_rng(3)
    model = init_model(SMALL_CFG)
    g = _random_graph(rng, 7, 5)
    logits, _, _ = forward(model, g)
    perm = rng.permutation(7)
    inv = np.argsort(perm)
    pg = FakeGraph(g.x[perm], tuple((int(inv[i]), int(inv[j])) for i, j in g.edges))
    plogits, _, _ = forward(model, pg)
    np.testing.assert_allclose(logits, plogits, atol=1e-10)


def test_disjoint_duplicate_doubles_pooled_logit_shift():
    # two disconnected copies of a graph pool to exactly twice the summary
    rng = np.random.default_rng(4)
    model = init_model(SMALL_CFG)
    g = _random_graph(rng, 5, 5)
    dup_edges = g.edges + tuple((i + 5, j + 5) for i, j in g.edges)
    dup = FakeGraph(np.vstack([g.x, g.x]), dup_edges)
    logits, _, _ = forward(model, g)
    dlogits, _, _ = forward(model, dup)
    np.testing.assert_allclose(
        dlogits - model.fc_bias, 2.0 * (logits - model.fc_bias), atol=1e-9
    )


def test_backward_matches_central_differences():
    rng = np.random.default_rng(5)
    model = init_model(SMALL_CFG)
    g = _random_graph(rng, 6, 5)

    def f(vec):
        m = model.with_vector(vec)
        loss, grads = loss_and_gradients(m, g, 1)
        return loss, grads.to_vector()

    assert grad_check(f, model.to_vector()) < 1e-6


def test_confident_correct_prediction_has_tiny_gradients():
    rng = np.random.default_rng(6)
    model = init_model(SMALL_CFG)
    g = _random_graph(rng, 4, 5)
    # blow up the head so the predicted class saturates
    boosted = dataclasses.replace(model, fc_weight=model.fc_weight * 200.0)
    _, probs, pred = forward(boosted, g)
    assert probs[pred] > 1.0 - 1e-9
    loss, grads = loss_and_gradients(boosted, g, pred)
    assert loss < 1e-8
    assert np.max(np.abs(grads.fc_bias)) < 1e-8


def test_backward_on_dynamic_style_edges():
    rng = np.random.default_rng(7)
    model = init_model(SMALL_CFG)
    g = _random_graph(rng, 5, 5)
    kinds = FakeGraph(g.x, tuple((i, j, "spatial") for i, j in g.edges))

    def f(vec):
        m = model.with_vector(vec)
        loss, grads = loss_and_gradients(m, kinds, 2)
        return loss, grads.to_vector()

    assert grad_check(f, model.to_vector()) < 1e-6
    assert backward(model, kinds, 2) is not None


def test_adam_zero_gradient_is_identity():
    model = init_model(SMALL_CFG)
    state = init_adam_state(model)
    from surgraph.gcn import zeros_like_gradients

    new_model, new_state = adam_step(model, zeros_like_gradients(model), state, AdamHyper())
    np.testing.assert_array_equal(model.to_vector(), new_model.to_vector())
    assert new_state.t == 1


def test_adam_first_step_matches_scalar_oracle():
    model = init_model(SMALL_CFG)
    state = init_adam_state(model)
    rng = np.random.default_rng(8)
    g = _random_graph(rng, 5, 5)
    _, grads = loss_and_gradients(model, g, 0)
    hyper = AdamHyper(lr=0.01)
    before = model.to_vector()  # the step updates the model in place
    new_model, _ = adam_step(model, grads, state, hyper)
    gvec = grads.to_vector()
    # bias correction at t=1 collapses the update to -lr * g / (|g| + eps)
    expected = before - hyper.lr * gvec / (np.abs(gvec) + hyper.eps)
    np.testing.assert_allclose(new_model.to_vector(), expected, atol=1e-12)


def test_adam_deterministic():
    rng = np.random.default_rng(9)
    g = _random_graph(rng, 5, 5)

    def run():
        model = init_model(SMALL_CFG)
        state = init_adam_state(model)
        for step in range(3):
            _, grads = loss_and_gradients(model, g, step % 3)
            model, state = adam_step(model, grads, state, AdamHyper())
        return model.to_vector()

    np.testing.assert_array_equal(run(), run())


# --- the optimizer on flat buffers against the per-array code it replaced ----------
# _RefArrays, _RefAdamState, _ref_add_gradients, _ref_scale_gradients and
# _ref_adam_step are the per-array Gradients, AdamState, add_gradients,
# scale_gradients and adam_step that training used before the parameters,
# gradients and moments moved into flat buffers.


@dataclasses.dataclass(frozen=True)
class _RefArrays:
    weights: tuple
    biases: tuple
    fc_weight: np.ndarray
    fc_bias: np.ndarray

    def parameter_arrays(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        out.extend([self.fc_weight, self.fc_bias])
        return out

    def to_vector(self):
        return np.concatenate([a.ravel() for a in self.parameter_arrays()])


@dataclasses.dataclass(frozen=True)
class _RefAdamState:
    m: _RefArrays
    v: _RefArrays
    t: int = 0


def _ref_zeros(model):
    return _RefArrays(
        weights=tuple(np.zeros_like(w) for w in model.weights),
        biases=tuple(np.zeros_like(b) for b in model.biases),
        fc_weight=np.zeros_like(model.fc_weight),
        fc_bias=np.zeros_like(model.fc_bias),
    )


def _ref_add_gradients(a, b):
    return _RefArrays(
        weights=tuple(x + y for x, y in zip(a.weights, b.weights)),
        biases=tuple(x + y for x, y in zip(a.biases, b.biases)),
        fc_weight=a.fc_weight + b.fc_weight,
        fc_bias=a.fc_bias + b.fc_bias,
    )


def _ref_scale_gradients(g, s):
    return _RefArrays(
        weights=tuple(w * s for w in g.weights),
        biases=tuple(b * s for b in g.biases),
        fc_weight=g.fc_weight * s,
        fc_bias=g.fc_bias * s,
    )


def _ref_adam_step(model, grads, state, hyper=None):
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
    new_state = _RefAdamState(
        m=_RefArrays(mw, mb, mfw, mfb), v=_RefArrays(vw, vb, vfw, vfb), t=t
    )
    return new_model, new_state


@pytest.mark.parametrize("batch_size", [1, 3])
def test_flat_adam_matches_per_array_reference_bitwise(batch_size):
    # 7 samples: at batch size 3 the last batch of every epoch holds one
    rng = np.random.default_rng(21)
    data = [(_random_graph(rng, int(rng.integers(3, 9)), 5), int(rng.integers(0, 3))) for _ in range(7)]
    hyper = AdamHyper(lr=0.05)
    model = init_model(SMALL_CFG)
    state = init_adam_state(model)
    acc = zeros_like_gradients(model)
    total = acc.vector
    ref_model = model.with_vector(model.to_vector())
    ref_state = _RefAdamState(m=_ref_zeros(ref_model), v=_ref_zeros(ref_model))
    steps_per_epoch = -(-len(data) // batch_size)
    for epoch in range(4):
        for start in range(0, len(data), batch_size):
            batch = data[start : start + batch_size]
            total.fill(0.0)
            ref_acc = _ref_zeros(ref_model)
            for graph, label in batch:
                total += loss_and_gradients(model, graph, label)[1].vector
                ref_acc = _ref_add_gradients(ref_acc, loss_and_gradients(ref_model, graph, label)[1])
            total *= 1.0 / len(batch)
            ref_acc = _ref_scale_gradients(ref_acc, 1.0 / len(batch))
            assert np.array_equal(total, ref_acc.to_vector())
            stepped, state = adam_step(model, acc, state, hyper)
            assert stepped is model
            ref_model, ref_state = _ref_adam_step(ref_model, ref_acc, ref_state, hyper)
        assert state.t == ref_state.t == steps_per_epoch * (epoch + 1)
        assert np.array_equal(model.vector, ref_model.to_vector())
        assert np.array_equal(state.m, ref_state.m.to_vector())
        assert np.array_equal(state.v, ref_state.v.to_vector())
    # the training moved the parameters: the comparison is not of two initial models
    assert not np.array_equal(model.vector, init_model(SMALL_CFG).vector)


def test_model_arrays_are_views_of_its_vector():
    model = init_model(SMALL_CFG)
    arrays = model.parameter_arrays()
    assert all(np.shares_memory(a, model.vector) for a in arrays)
    np.testing.assert_array_equal(model.vector, np.concatenate([a.ravel() for a in arrays]))
    # with_vector and dataclasses.replace copy: stepping the original leaves them alone
    copy = model.with_vector(model.vector)
    boosted = dataclasses.replace(model, fc_weight=model.fc_weight * 2.0)
    assert not np.shares_memory(copy.vector, model.vector)
    assert not np.shares_memory(boosted.vector, model.vector)
    assert np.shares_memory(boosted.fc_weight, boosted.vector)
    np.testing.assert_array_equal(boosted.fc_weight, 2.0 * model.fc_weight)
    _, grads = loss_and_gradients(model, _random_graph(np.random.default_rng(2), 5, 5), 1)
    before = copy.to_vector()
    adam_step(model, grads, init_adam_state(model))
    assert np.array_equal(copy.vector, before)
    assert not np.array_equal(model.vector, before)
    with pytest.raises(ShapeMismatch):
        model.with_vector(model.vector[:-1])


@pytest.mark.parametrize("n", [5, DENSE_NODE_LIMIT + 6])
def test_gradients_written_in_place_match_allocated_bitwise(n):
    # the weight, bias and head gradients as the backward pass allocated them
    # before it wrote into one flat buffer
    from surgraph.gcn import Workspace, _backward_layers, _forward_cached, _head_backward

    rng = np.random.default_rng(30 + n)
    model = init_model(GcnConfig(input_dim=9, num_classes=5, seed=3))
    g = _random_graph(rng, n, 9, p_edge=min(0.4, 6.0 / n))
    anorm = normalize_adjacency(g)
    views = Workspace().views(model.shapes, n)
    _, probs, pooled = _forward_cached(model, g.x, anorm, views)
    _, dlogits = _head_backward(model, probs, 2, views.dh[-1])
    inputs = (g.x, *views.h[:-1])
    expected = [None] * (2 * len(model.weights))
    for l, dz, dm in _backward_layers(model, anorm, views):
        expected[2 * l] = inputs[l].T @ dm
        expected[2 * l + 1] = dz.sum(axis=0)
    expected += [np.outer(pooled, dlogits), dlogits.copy()]
    expected = np.concatenate([a.ravel() for a in expected])
    _, grads = loss_and_gradients(model, g, 2)
    assert np.array_equal(grads.vector, expected)
    # a reused buffer has every entry overwritten
    dirty = Gradients(np.full_like(model.vector, np.nan), model.shapes)
    _, again = loss_and_gradients_prepared(model, g.x, anorm, 2, out=dirty)
    assert again is dirty
    assert np.array_equal(dirty.vector, expected)


# Node counts that shrink and grow again, on both sides of DENSE_NODE_LIMIT
REUSE_SIZES = (150, 120, 30, 150)


def _window_case(seed, n, d=16, hidden_dims=DEFAULT_HIDDEN_DIMS):
    rng = np.random.default_rng(seed)
    model = init_model(GcnConfig(input_dim=d, hidden_dims=hidden_dims, num_classes=7, seed=seed))
    return model, _random_graph(rng, n, d, p_edge=min(0.4, 4.0 / n))


def test_one_workspace_across_graph_sizes_matches_fresh_calls_bitwise():
    model, _ = _window_case(40, 1)
    graphs = [_window_case(41 + k, n)[1] for k, n in enumerate(REUSE_SIZES)]
    workspace = Workspace()
    kept = []
    for label, g in enumerate(graphs):
        anorm = normalize_adjacency(g)
        logits, probs, pred = forward_prepared(model, g.x, anorm, workspace=workspace)
        loss, grads = loss_and_gradients_prepared(model, g.x, anorm, label, workspace=workspace)
        fresh_logits, fresh_probs, fresh_pred = forward_prepared(model, g.x, anorm)
        fresh_loss, fresh_grads = loss_and_gradients_prepared(model, g.x, anorm, label)
        assert np.array_equal(logits, fresh_logits) and np.array_equal(probs, fresh_probs)
        assert pred == fresh_pred and loss == fresh_loss
        assert np.array_equal(grads.vector, fresh_grads.vector)
        kept.append((logits, probs, grads, logits.copy(), probs.copy(), grads.to_vector()))
    # later calls write only into the workspace, never into returned arrays
    for logits, probs, grads, logits0, probs0, grads0 in kept:
        assert np.array_equal(logits, logits0) and np.array_equal(probs, probs0)
        assert np.array_equal(grads.vector, grads0)


def test_kernel_entry_points_make_no_page_faults_with_a_workspace():
    # Buffers of 100 KB and more that are allocated and freed on every call
    # come back as fresh zeroed pages; a reused workspace avoids them. The
    # count of minor faults does not depend on timing.
    resource = pytest.importorskip("resource")
    model, g = _window_case(50, 150, d=64)
    anorm = normalize_adjacency(g)
    w = np.linspace(0.1, 0.9, len(g.edges))
    workspace, grads = Workspace(), zeros_like_gradients(model)
    calls = {
        "forward_prepared": lambda: forward_prepared(model, g.x, anorm, workspace=workspace),
        "loss_and_gradients_prepared": lambda: loss_and_gradients_prepared(
            model, g.x, anorm, 3, out=grads, workspace=workspace
        ),
        "loss_and_edge_gradient": lambda: loss_and_edge_gradient(
            model, g, 3, w, workspace=workspace
        ),
    }
    for name, call in calls.items():
        for _ in range(3):
            call()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 20 * 20, f"{name}: {faults / 20:.1f} minor page faults per call"


def test_checkpoint_round_trip(tmp_path):
    model = init_model(SMALL_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, step=17, extra={"note": "x"})
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for a, b in zip(model.parameter_arrays(), loaded.parameter_arrays()):
        np.testing.assert_array_equal(a, b)
    assert checkpoint_header(path)["step"] == 17
    assert checkpoint_header(path)["extra"] == {"note": "x"}
    # saving the loaded model reproduces the file byte for byte
    again = tmp_path / "m2.ckpt"
    save_checkpoint(loaded, again, step=17, extra={"note": "x"})
    assert path.read_bytes() == again.read_bytes()


def test_failed_checkpoint_write_keeps_earlier_file(tmp_path, full_disk):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model(SMALL_CFG), path, step=1)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError):
        save_checkpoint(init_model(dataclasses.replace(SMALL_CFG, seed=5)), path, step=2)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_checkpoint_truncated(tmp_path):
    model = init_model(SMALL_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage(tmp_path):
    model = init_model(SMALL_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    model = init_model(SMALL_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = init_model(SMALL_CFG)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "damage, error",
    [
        (lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:], VersionMismatch),
        (lambda blob: blob[:20], CorruptCheckpoint),  # header cut short
        (lambda blob: blob[:8] + (3).to_bytes(4, "little") + b"[1]" + blob[15:], CorruptCheckpoint),
    ],
    ids=["version-2", "truncated-header", "non-object-header"],
)
def test_header_reader_and_loader_reject_the_same_files(tmp_path, damage, error):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model(SMALL_CFG), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(error):
        checkpoint_header(path)
    with pytest.raises(error):
        load_checkpoint(path)


def test_label_outside_classes_is_rejected():
    model = init_model(SMALL_CFG)
    g = FakeGraph(np.zeros((3, 5)), ((0, 1),))
    for label in (-1, 3):
        with pytest.raises(LabelOutOfRange):
            loss_and_gradients(model, g, label)
        with pytest.raises(LabelOutOfRange):
            loss_and_edge_gradient(model, g, label, np.ones(1))


def test_feature_dim_mismatch_at_forward():
    model = init_model(SMALL_CFG)
    g = FakeGraph(np.zeros((3, 9)), ((0, 1),))
    with pytest.raises(DimensionMismatch) as exc:
        forward(model, g)
    assert "9" in str(exc.value) and "5" in str(exc.value)
