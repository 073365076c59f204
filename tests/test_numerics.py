import math

import numpy as np
import pytest

from surgraph.errors import (
    DuplicateEntry,
    LabelOutOfRange,
    NonFiniteGradient,
    OutOfRange,
    ShapeMismatch,
)
from surgraph.numerics import (
    DENSE_NODE_LIMIT,
    DenseStack,
    SparseAdjacency,
    cross_entropy,
    grad_check,
    softmax,
)
from surgraph.pipeline import TrainConfig, build_samples
from surgraph.scene_graph import FeatureConfig
from surgraph.synth import generate_dataset, preset_distinct_tools


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_no_overflow():
    probs = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs, [1.0, 0.0])


def test_softmax_matches_naive():
    x = np.array([1.0, 2.0, 3.0])
    naive = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(softmax(x), naive, atol=1e-12)


def test_softmax_shift_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    np.testing.assert_allclose(softmax(x), softmax(x + 123.456), atol=1e-10)


def test_softmax_of_a_stack_matches_each_row_bitwise():
    rng = np.random.default_rng(3)
    for classes in range(2, 34):
        scale = rng.choice([1e-3, 1.0, 30.0, 300.0], size=(40, 1))
        logits = rng.normal(size=(40, classes)) * scale
        probs = softmax(logits)
        for row, p in zip(logits, probs):
            assert np.array_equal(p, softmax(row))
            e = np.exp(row - row.max())  # the one-row formula
            assert np.array_equal(p, e / e.sum())


def _identity(n):
    diag = np.arange(n)
    return SparseAdjacency.from_triples(n, diag, diag, np.ones(n))


def test_dense_stack_takes_dense_adjacencies_of_one_node_count():
    rng = np.random.default_rng(4)
    a = SparseAdjacency.from_triples(3, [0, 1, 1, 2], [1, 0, 1, 2], rng.normal(size=4))
    assert a.is_dense and _identity(DENSE_NODE_LIMIT - 1).is_dense
    assert not _identity(DENSE_NODE_LIMIT).is_dense
    stack = DenseStack.of([a, _identity(3), a])
    assert stack.dense.shape == (3, 3, 3)
    x = rng.normal(size=(3, 3, 4))
    product = stack.apply(x)
    for j, adjacency in enumerate([a, _identity(3), a]):
        assert np.array_equal(product[j], adjacency.apply(x[j]))
    for wrong in (x[0], x[:2], rng.normal(size=(3, 4, 4))):
        with pytest.raises(ShapeMismatch):
            stack.apply(wrong)
    with pytest.raises(ShapeMismatch, match="cannot stack"):
        DenseStack.of([a, _identity(4)])
    with pytest.raises(ShapeMismatch, match="CSR"):
        DenseStack.of([_identity(DENSE_NODE_LIMIT)])
    with pytest.raises(ShapeMismatch):
        DenseStack.of([])


def test_cross_entropy_one_hot():
    assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform():
    assert cross_entropy(np.full(4, 0.25), 2) == pytest.approx(math.log(4.0))


def test_cross_entropy_value():
    assert cross_entropy(np.array([0.7, 0.3]), 1) == pytest.approx(-math.log(0.3))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        cross_entropy(np.array([0.5, 0.5]), 2)
    with pytest.raises(LabelOutOfRange):
        cross_entropy(np.array([0.5, 0.5]), -1)


def test_grad_check_quadratic_is_tight():
    def f(theta):
        return float(np.sum(theta**2)), 2.0 * theta

    err = grad_check(f, np.array([0.3, -1.2, 2.0]))
    assert err < 1e-8


def test_grad_check_flags_wrong_gradient():
    def f(theta):
        return float(np.sum(theta**2)), np.ones_like(theta)

    err = grad_check(f, np.array([0.3, -1.2, 2.0]))
    assert err > 0.1


def test_grad_check_eps_bounds():
    def f(theta):
        return float(np.sum(theta)), np.ones_like(theta)

    with pytest.raises(ValueError):
        grad_check(f, np.zeros(2), eps=1e-8)
    with pytest.raises(ValueError):
        grad_check(f, np.zeros(2), eps=1e-2)


def test_grad_check_non_finite():
    def f(theta):
        return float(np.sum(theta)), np.full_like(theta, np.nan)

    with pytest.raises(NonFiniteGradient):
        grad_check(f, np.zeros(2))


def _random_symmetric_triples(rng, n):
    dense = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        v = float(rng.uniform(0.1, 1.0))
        dense[i, j] = v
        dense[j, i] = v
    rows, cols = np.nonzero(dense)
    return dense, rows, cols, dense[rows, cols]


def test_sparse_adjacency_matches_dense_small():
    rng = np.random.default_rng(5)
    dense, rows, cols, vals = _random_symmetric_triples(rng, 12)
    adj = SparseAdjacency.from_triples(12, rows, cols, vals)
    x = rng.normal(size=(12, 7))
    np.testing.assert_allclose(adj.apply(x), dense @ x, atol=1e-12)
    np.testing.assert_array_equal(adj.to_dense(), dense)


def test_sparse_adjacency_csr_path_above_limit():
    rng = np.random.default_rng(6)
    n = 100  # above the dense-cache cutoff, exercises the scipy path
    dense, rows, cols, vals = _random_symmetric_triples(rng, n)
    adj = SparseAdjacency.from_triples(n, rows, cols, vals)
    assert adj._dense is None
    x = rng.normal(size=(n, 5))
    np.testing.assert_allclose(adj.apply(x), dense @ x, atol=1e-10)


def test_sparse_adjacency_sorts_triples():
    adj = SparseAdjacency.from_triples(
        3, np.array([2, 0, 1]), np.array([0, 2, 1]), np.array([1.0, 2.0, 3.0])
    )
    assert adj.rows.tolist() == [0, 1, 2]
    assert adj.cols.tolist() == [2, 1, 0]


def test_sparse_adjacency_rejects_non_finite():
    with pytest.raises(NonFiniteGradient):
        SparseAdjacency.from_triples(
            2, np.array([0]), np.array([1]), np.array([np.inf])
        )


@pytest.mark.parametrize("n", [3, DENSE_NODE_LIMIT + 6])
def test_sparse_adjacency_rejects_duplicate_pairs(n):
    # Dense and CSR storage would resolve a repeated pair differently
    # (last write wins against summation), so neither may accept one.
    with pytest.raises(DuplicateEntry, match=r"\(0, 0\)"):
        SparseAdjacency.from_triples(
            n, np.array([0, 1, 0]), np.array([0, 1, 0]), np.array([1.0, 3.0, 2.0])
        )


@pytest.mark.parametrize("n", [3, DENSE_NODE_LIMIT + 6])
@pytest.mark.parametrize("bad", [-1, "n"])
def test_sparse_adjacency_rejects_index_outside_graph(n, bad):
    bad = n if bad == "n" else bad
    for rows, cols in (([0, bad], [0, 1]), ([0, 1], [bad, 1])):
        with pytest.raises(OutOfRange):
            SparseAdjacency.from_triples(n, np.array(rows), np.array(cols), np.array([1.0, 1.0]))


def test_sparse_adjacency_shape_checks():
    with pytest.raises(ShapeMismatch):
        SparseAdjacency.from_triples(2, np.array([0]), np.array([1, 0]), np.array([1.0]))
    adj = SparseAdjacency.from_triples(2, np.array([0]), np.array([1]), np.array([1.0]))
    with pytest.raises(ShapeMismatch):
        adj.apply(np.zeros((3, 2)))


def _shuffled_triples(rng, n):
    """About 4n distinct (row, col) pairs in random order, one of value exactly 0."""
    flat = rng.choice(n * n, size=4 * n, replace=False)
    rows, cols = np.divmod(flat, n)
    values = rng.normal(size=flat.size)
    values[rng.integers(flat.size)] = 0.0
    return rows, cols, values


def _arrays(adjacency):
    """Every array the adjacency holds, its operator's included, each buffer once."""
    held = [a for a in vars(adjacency).values() if isinstance(a, np.ndarray)]
    if adjacency._csr is not None:
        csr = adjacency._csr
        held += [csr.data, csr.indices, csr.indptr]
    unique = []
    for a in held:
        if not any(np.shares_memory(a, b) for b in unique):
            unique.append(a)
    return unique


@pytest.mark.parametrize("n", [DENSE_NODE_LIMIT - 1, DENSE_NODE_LIMIT, 150])
def test_sparse_adjacency_gives_back_the_lexsorted_triples_bitwise(n):
    rng = np.random.default_rng(n)
    rows, cols, values = _shuffled_triples(rng, n)
    adj = SparseAdjacency.from_triples(n, rows, cols, values)
    order = np.lexsort((cols, rows))
    dense = np.zeros((n, n))
    dense[rows, cols] = values
    for got, want in ((adj.rows, rows[order]), (adj.cols, cols[order]), (adj.values, values[order])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert adj.to_dense().tobytes() == dense.tobytes()
    assert 0.0 in adj.values and adj.values.size == rows.size


def test_csr_adjacency_is_its_only_store():
    n = DENSE_NODE_LIMIT + 6
    rows, cols, values = _shuffled_triples(np.random.default_rng(8), n)
    adj = SparseAdjacency.from_triples(n, rows, cols, values)
    assert not adj.is_dense
    assert np.shares_memory(adj.values, adj._csr.data)
    assert not [
        a for a in _arrays(adj) if a.dtype == np.int64 and a.size == adj.values.size
    ]
    assert adj._csr.indices.dtype == adj._csr.indptr.dtype == np.int32


def test_samples_of_large_windows_hold_12_bytes_an_entry_and_4_a_node(tmp_path):
    cfg = TrainConfig(
        feature_config=FeatureConfig(use_spatial=True, use_size=True, use_temporal=True),
        window=30,
        dilation=1,
    )
    _, manifest = generate_dataset(
        tmp_path, [preset_distinct_tools(n_frames=40, phase_frames=10, width=32, height=32)]
    )
    large = [s.adjacency for s in build_samples(manifest.videos, cfg)]
    large = [a for a in large if a.node_count >= DENSE_NODE_LIMIT]
    assert large
    for adj in large:
        held = sum(a.nbytes for a in _arrays(adj))
        assert held <= 12 * adj.values.size + 4 * adj.node_count + 16
