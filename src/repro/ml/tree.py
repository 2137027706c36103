"""CART regression tree with presorted, feature-vectorized split search.

X is argsorted once per fit (:func:`presort`).  Every node carries its
rows' per-feature order, scores every candidate threshold of every
feature in one 2-D prefix-sum pass, and hands its children their orders
by a stable partition -- nothing is re-sorted below the root.  A stable
global sort restricted to a subset is that subset's stable sort, so the
splits are exactly those of sorting each node's columns afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import check_X, check_Xy

__all__ = ["DecisionTreeRegressor", "presort"]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _Presorted:
    """``X`` prepared once for every tree a fit grows on it.

    ``XT`` is the contiguous transpose and ``order`` its per-feature
    stable row order, both ``(d, n)``: row ``f`` of ``order`` lists the
    row indices sorted by ``X[:, f]``, ties in row order.  The scratch
    buffers hold the split search's ``(d, m)`` temporaries.  Nodes only
    shrink below the root, so prefix views of root-sized buffers serve
    every node of every tree; fresh temporaries of a few hundred KB per
    node would each be page-faulted anew.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.XT = np.ascontiguousarray(X.T)
        self.order = np.argsort(self.XT, axis=1, kind="stable")
        d, n = self.XT.shape
        self._idx = np.empty(d * n, dtype=np.intp)
        self._flt = np.empty((5, d * n))

    def subset(self, keep: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Ascending rows where ``keep`` holds (all if None) and their order.

        Filtering the global stable order to the kept rows gives exactly
        their own stable order.
        """
        if keep is None:
            return np.arange(self.XT.shape[1]), self.order
        order = self.order[keep[self.order]].reshape(len(self.order), -1)
        return np.flatnonzero(keep), order

    def idx(self, m: int) -> np.ndarray:
        return self._idx[: len(self.XT) * m].reshape(-1, m)

    def flt(self, k: int, m: int) -> np.ndarray:
        return self._flt[k, : len(self.XT) * m].reshape(-1, m)


def presort(X: np.ndarray) -> _Presorted:
    """Sort validated ``X`` once for any number of tree fits on it."""
    return _Presorted(X)


def _best_split(
    px: _Presorted,
    y: np.ndarray,
    ys: np.ndarray,
    order: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Return ``(feature, threshold, sse_gain)`` of the best split, or None.

    ``y`` is the full target; ``ys`` holds the node's targets in row
    order and ``order`` its ``(d, m)`` per-feature sorted row indices.
    Candidate splits between consecutive distinct values are scored by
    the SSE reduction computed from per-feature prefix sums, all
    features in one pass.  Ties keep the first minimum within a feature
    and the first feature across them.
    """
    d, n = order.shape
    if n - 2 * min_leaf + 1 <= 0:
        return None
    total_sum = ys.sum()
    total_sq = float(ys @ ys)
    base_sse = total_sq - total_sum**2 / n
    # row f of XT's flat buffer starts at f * len(y)
    starts = np.arange(0, px.XT.size, len(y))[:, None]
    flat = np.add(order, starts, out=px.idx(n))
    xs = px.XT.ravel().take(flat, out=px.flt(0, n))
    csum = y.take(order, out=px.flt(1, n))
    csq = np.square(csum, out=px.flt(2, n))
    np.cumsum(csq, axis=1, out=csq)
    np.cumsum(csum, axis=1, out=csum)
    # split after position i (1-based left size): valid i in [min_leaf, n-min_leaf]
    i = np.arange(min_leaf, n - min_leaf + 1)
    cut = slice(min_leaf - 1, n - min_leaf)
    left_sum = csum[:, cut]
    left_sq = csq[:, cut]
    # sse = left_sq - left_sum**2 / left_n + right_sq - right_sum**2 / right_n,
    # in exactly that order, in place.  Float sizes divide exactly as the
    # ints would, without a cast per call.
    sse = np.square(left_sum, out=px.flt(3, len(i)))
    sse /= i.astype(float)
    np.subtract(left_sq, sse, out=sse)
    right = np.subtract(total_sq, left_sq, out=px.flt(4, len(i)))
    sse += right
    np.subtract(total_sum, left_sum, out=right)
    np.square(right, out=right)
    right /= (n - i).astype(float)
    sse -= right
    # a split is only real where the x value changes across the boundary
    sse[xs[:, cut] >= xs[:, min_leaf : n - min_leaf + 1]] = np.inf
    k = np.argmin(sse, axis=1)
    best_sse = sse[np.arange(d), k]
    features = np.flatnonzero(np.isfinite(best_sse))
    if len(features) == 0:
        return None
    gains = base_sse - best_sse[features]
    j = int(np.argmax(gains))
    f = int(features[j])
    at = int(i[k[f]])
    thr = (xs[f, at - 1] + xs[f, at]) / 2.0
    return f, float(thr), gains[j]


class DecisionTreeRegressor:
    """Binary regression tree minimizing squared error."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self._root: _Node | None = None
        self._n_features = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree greedily."""
        X, y = check_Xy(X, y)
        return self._fit_presorted(presort(X), y)

    def _fit_presorted(
        self, px: _Presorted, y: np.ndarray, keep: np.ndarray | None = None
    ) -> "DecisionTreeRegressor":
        """Grow on the rows where ``keep`` holds (all if None).

        ``px`` is :func:`presort` of validated ``X``; a booster builds it
        once per fit and passes it to every stage.  ``y`` spans all rows.
        """
        self._n_features = len(px.XT)
        rows, order = px.subset(keep)
        self._root = self._grow(px, y, rows, order, 0)
        return self

    def _grow(
        self,
        px: _Presorted,
        y: np.ndarray,
        rows: np.ndarray,
        order: np.ndarray,
        depth: int,
    ) -> _Node:
        ys = y[rows]
        node = _Node(value=float(ys.mean()))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node
        split = _best_split(px, y, ys, order, self.min_samples_leaf)
        if split is None or split[2] <= self.min_gain:
            return node
        f, thr, _gain = split
        goes_left = px.XT[f] <= thr
        node.feature, node.threshold = f, thr
        # a boolean mask keeps each feature's order: a stable partition
        left, d = goes_left[order], len(order)
        left_rows, right_rows = rows[goes_left[rows]], rows[~goes_left[rows]]
        left_order = order[left].reshape(d, -1)
        right_order = order[~left].reshape(d, -1)
        node.left = self._grow(px, y, left_rows, left_order, depth + 1)
        node.right = self._grow(px, y, right_rows, right_order, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route rows down the tree (level-order, vectorized per node)."""
        if self._root is None:
            raise RuntimeError("model not fitted")
        X = check_X(X, self._n_features)
        out = np.empty(len(X))
        # iterative stack of (node, row indices) keeps recursion shallow
        stack: list[tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    @property
    def depth(self) -> int:
        """Realized tree depth."""

        def d(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self._root)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""

        def count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self._root)
