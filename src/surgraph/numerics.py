"""Dense kernels, losses, and gradient checking for the graph network.

Everything runs on float64 numpy arrays. A sparse adjacency builds its
product operator once per graph, when it is made: a dense matrix for small
graphs, kept beside the sorted triples, and a scipy CSR once graphs are
large enough for sparsity to pay off. The CSR is then the adjacency's only
store, and the triples are read off it.
Operations are pure and deterministic (fixed summation order) so repeated
runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

from .errors import (
    DuplicateEntry,
    LabelOutOfRange,
    NonFiniteGradient,
    OutOfRange,
    ShapeMismatch,
)

DENSE_NODE_LIMIT = 64


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis: shifts by the max so exp never overflows.

    Each row of a 2-d ``x`` comes out bitwise equal to that row's own softmax.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d array: sorted, each value once.

    One sort and one neighbour compare. For integers numpy 2 takes a hash
    path in ``np.unique`` that is ~10x slower on the few thousand edge
    codes of one frame.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-log p[label], with p clamped to 1e-12 so the log stays finite."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[0]:
        raise LabelOutOfRange(f"label {label} outside {probs.shape[0]} classes")
    return float(-np.log(max(probs[label], 1e-12)))


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a flat parameter vector to (loss, gradient). Each coordinate
    is perturbed by +/-eps; the relative error is |a-n|/max(|a|,|n|,1e-8).
    Raises NonFiniteGradient if either gradient goes non-finite.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    params = np.asarray(params, dtype=np.float64)
    _, analytic = f(params)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != params.shape:
        raise ShapeMismatch(f"gradient shape {analytic.shape} != params {params.shape}")
    if not np.all(np.isfinite(analytic)):
        raise NonFiniteGradient("analytic gradient has non-finite entries")

    worst = 0.0
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump.flat[i] = eps
        plus, _ = f(params + bump)
        minus, _ = f(params - bump)
        numeric = (plus - minus) / (2.0 * eps)
        if not np.isfinite(numeric):
            raise NonFiniteGradient(f"numeric gradient non-finite at index {i}")
        a = analytic.flat[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


@dataclass(frozen=True)
class SparseAdjacency:
    """Symmetric normalized adjacency: its entries in (row, col) order and its product operator.

    The operator is built once per graph, in ``from_triples``. Below
    ``DENSE_NODE_LIMIT`` nodes it is a dense matrix (its product is faster
    than CSR overhead there), kept beside the sorted triples: a dense matrix
    cannot give back an entry whose value is exactly 0. From that size on
    the scipy CSR is the only store. ``values`` is its ``data``, and
    ``rows`` and ``cols`` are derived on each read from its int32
    ``indptr`` and ``indices``, in the same order. The entries then cost 12
    bytes each plus 4 per node: about 10 KB for a 150-node window with 320
    edges (790 entries), to which int64 copies of the indices would add
    13 KB. A sample of the benchmark's 30-step windows (about 123 nodes,
    650 entries) holds 13,883 bytes in all.
    """

    node_count: int
    values: np.ndarray
    _rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cols: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)
    _csr: sparse.csr_matrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_triples(
        cls, node_count: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> "SparseAdjacency":
        """Sort the triples by (row, col) and build the product operator.

        Raises OutOfRange for an index outside [0, node_count) and
        DuplicateEntry for a (row, col) pair given twice.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ShapeMismatch("rows, cols, values must have equal length")
        if not np.all(np.isfinite(values)):
            raise NonFiniteGradient("adjacency values must be finite")
        if rows.size and (
            min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= node_count
        ):
            raise OutOfRange(f"adjacency index outside [0, {node_count})")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        repeated = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if repeated.any():
            k = int(np.argmax(repeated))
            raise DuplicateEntry(f"adjacency entry ({rows[k]}, {cols[k]}) given twice")
        if node_count < DENSE_NODE_LIMIT:
            dense = np.zeros((node_count, node_count))
            dense[rows, cols] = values
            return cls(node_count, values, _rows=rows, _cols=cols, _dense=dense)
        indptr = np.zeros(node_count + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=node_count), out=indptr[1:])
        csr = sparse.csr_matrix(
            (values, cols.astype(np.int32), indptr), shape=(node_count, node_count)
        )
        return cls(node_count, values, _csr=csr)

    @property
    def rows(self) -> np.ndarray:
        """The row of each entry, int64, in (row, col) order."""
        if self._csr is None:
            return self._rows
        return np.repeat(np.arange(self.node_count, dtype=np.int64), np.diff(self._csr.indptr))

    @property
    def cols(self) -> np.ndarray:
        """The column of each entry, int64, in (row, col) order."""
        if self._csr is None:
            return self._cols
        return self._csr.indices.astype(np.int64)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.node_count, self.node_count))
        dense[self.rows, self.cols] = self.values
        return dense

    @property
    def is_dense(self) -> bool:
        """True below ``DENSE_NODE_LIMIT`` nodes, where the operator is a dense matrix."""
        return self._dense is not None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """S @ x for a (node_count, k) feature matrix."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.node_count:
            raise ShapeMismatch(f"expected {self.node_count} rows, got {x.shape[0]}")
        if self._dense is not None:
            return self._dense @ x
        return np.asarray(self._csr @ x)


@dataclass(frozen=True)
class DenseStack:
    """B normalized adjacencies of one node count, stacked as ``dense`` (B, n, n).

    One product then serves B graphs. Each graph's slice of it is the same
    BLAS call on the same operands as its own ``SparseAdjacency.apply``, so
    the results are bitwise equal.
    """

    dense: np.ndarray

    @classmethod
    def of(cls, adjacencies) -> "DenseStack":
        """Stack adjacencies that share one node count below ``DENSE_NODE_LIMIT``.

        Raises ShapeMismatch for an empty stack, mixed node counts or an
        adjacency on the CSR path.
        """
        adjacencies = list(adjacencies)
        if not adjacencies:
            raise ShapeMismatch("a stack needs at least one adjacency")
        n = adjacencies[0].node_count
        for adjacency in adjacencies:
            if adjacency.node_count != n:
                raise ShapeMismatch(
                    f"cannot stack a {adjacency.node_count}-node adjacency with {n}-node ones"
                )
            if not adjacency.is_dense:
                raise ShapeMismatch(
                    f"a {n}-node adjacency is on the CSR path (from {DENSE_NODE_LIMIT} nodes)"
                )
        return cls(np.stack([adjacency._dense for adjacency in adjacencies]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """dense @ x for a (B, n, k) stack of feature matrices."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[:-1] != self.dense.shape[:-1]:
            raise ShapeMismatch(
                f"expected a stack of {self.dense.shape[0]} x {self.dense.shape[1]} rows, "
                f"got {x.shape[:-1]}"
            )
        return self.dense @ x
