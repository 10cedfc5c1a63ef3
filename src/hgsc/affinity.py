"""Closed-form k-sparse affinity matrices and their Laplacians.

Each row of the affinity matrix solves a simplex-constrained quadratic
over the k nearest candidates; the per-row scale and shift follow from
the KKT conditions, so generic rows carry exactly k positive weights
summing to one. Candidate search is exact: a blocked full pairwise scan
for small inputs, and for large ones a filter-and-refine search (kd-tree
over a principal-direction projection, whose distances bound the true
ones from below) that returns the same neighbors. Most rows of that search
are settled by one projected k-nearest query; the rest query again at
double the width until they are settled. Every path ranks candidates by
the rule stated in ``_rank_pairs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags

# Inputs up to this many rows are scanned in full; above it the projected
# filter-and-refine search runs on blocks of _REFINE_BLOCK rows, in a
# space of _PROJ_RANK principal directions, and first ranks the
# k + _PROJ_EXTRA nearest projected points of each row (k+5 to k+7 measured
# fastest at n = 4k-16k: narrower leaves more rows to a wider query, wider
# costs more exact distances). The rows it leaves unresolved query again at
# double the width; when a widened round would hold more than _REFINE_BUDGET
# candidate coordinates the rows are scanned instead, which bounds the
# refine step's memory where the projection prunes poorly (the budget is
# about the size of one scanned block at n = 8000).
_SCAN_MAX_N = 1500
_PROJ_RANK = 8
_PROJ_EXTRA = 6
_REFINE_BLOCK = 1024
_REFINE_BUDGET = 1 << 23
# A scan's steps after its product run over row blocks of about this many
# bytes: the product is then its only full-size array.
_SCAN_CHUNK_BYTES = 1 << 21


class AffinityError(Exception):
    pass


@dataclass
class AffinityMatrix:
    """Row-stochastic k-sparse affinity over n nodes.

    ``indices[i]`` holds node i's k nearest candidates sorted by distance,
    ``weights[i]`` the matching weights. Rows flagged ``degenerate`` hit a
    distance tie through the (k+1)-th candidate and fall back to uniform
    weights. The sparse forms the training step multiplies by (``csr``,
    whose CSC view ``csr.T`` is S^T, and ``sym_degree``) are built on
    first use and kept with S.
    """

    n: int
    k: int
    indices: np.ndarray
    weights: np.ndarray
    degenerate: np.ndarray

    @cached_property
    def csr(self) -> csr_matrix:
        """``to_csr()``, built once per S (S is not modified once built)."""
        return self.to_csr()

    @cached_property
    def sym_degree(self) -> np.ndarray:
        """Degrees of the symmetrized part (S + S^T)/2."""
        return 0.5 * (self.row_sums() + np.bincount(self.indices.ravel(), self.weights.ravel(),
                                                    minlength=self.n))

    def to_csr(self) -> csr_matrix:
        indptr = np.arange(0, self.n * self.k + 1, self.k, dtype=np.int64)
        return csr_matrix(
            (self.weights.ravel().copy(), self.indices.ravel().copy(), indptr),
            shape=(self.n, self.n))

    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def save_tsv(self, path: str) -> None:
        """Export nonzero entries as (i, j, s_ij) triplets in row order.

        The whole file is formatted by one ``%`` over a repeated line
        template, so no Python code runs per entry.
        """
        rows, cols = np.nonzero(self.weights > 0.0)
        fields = [None] * (3 * rows.size)
        fields[0::3] = rows.tolist()
        fields[1::3] = self.indices[rows, cols].tolist()
        fields[2::3] = self.weights[rows, cols].tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(("%d\t%d\t%.17g\n" * rows.size) % tuple(fields))


def _rank_pairs(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, n_rows: int,
                k1: int):
    """The k1 nearest of each row's (col, dist) pairs, as (n_rows, k1) arrays.

    This is the one ranking rule of every search path: ascending distance,
    and an exact tie goes to the lower node index. It ranks the scan's
    pairs; the projected search ranks its candidate rows by the same rule
    through ``lexsort``. ``rows`` holds positions 0..n_rows-1; within a row
    the pairs come with ascending ``cols``, so the stable sort settles ties
    by index. A row with fewer than k1 pairs (or none) raises
    AffinityError.
    """
    counts = np.bincount(rows, minlength=n_rows)
    if (counts < k1).any():
        raise AffinityError(f"a row has fewer than {k1} candidate distances (feature overflow?)")
    # numpy radix-sorts narrow integer keys; the stable order is the same
    order = np.lexsort((dist, rows.astype(np.min_scalar_type(n_rows), copy=False)))
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k1)]
    return cols[take], dist[take]


def _scan_block(X: np.ndarray, sq: np.ndarray, rows, k1: int):
    """Exact k1-nearest candidates of X[rows] against all rows of X.

    ``rows`` is a slice or an index array. ``_knn_scan`` passes the slice
    of all rows: X[rows] is then a view of X, so numpy computes X @ X.T by
    a symmetric rank-k update, whose rounding a copied block would not
    reproduce. That product is one call and the only (rows, n) array; the
    steps after it run over row blocks of about ``_SCAN_CHUNK_BYTES``, so
    the peak is one (rows, n) array plus one block.
    Per block, the distances (|x|^2 + |y|^2) - 2 x.y are built in place
    in the product's memory, in that order, clamped at zero with the self
    match masked, and a copy of the block is partitioned for each row's
    k1-th value.
    Every column at or below a row's k1-th value is ranked, so a tie
    group at the boundary is ranked whole.
    """
    G = X[rows] @ X.T
    b, m = G.shape
    sq_rows, self_cols = sq[rows], np.arange(m)[rows]
    step = max(1, _SCAN_CHUNK_BYTES // (8 * m))
    T = np.empty((min(step, b), m))
    hits = []
    for s in range(0, b, step):
        D = G[s:s + step]
        t = T[:D.shape[0]]
        np.add.outer(sq_rows[s:s + step], sq, out=t)
        D *= 2.0
        np.subtract(t, D, out=D)
        np.maximum(D, 0.0, out=D)
        D[np.arange(D.shape[0]), self_cols[s:s + step]] = np.inf
        np.copyto(t, D)
        t.partition(k1 - 1, axis=1)
        kth = t[:, k1 - 1]
        if not np.isfinite(kth).all():
            raise AffinityError("candidate distances are not finite (feature overflow?)")
        hits.append(np.flatnonzero(D <= kth[:, None]) + s * m)
    flat = np.concatenate(hits)
    return _rank_pairs(flat // m, flat % m, G.ravel()[flat], b, k1)


def _knn_scan(X: np.ndarray, k: int):
    """Exact (k+1)-nearest candidates by one full pairwise scan."""
    sq = np.einsum("ij,ij->i", X, X)
    return _scan_block(X, sq, slice(0, X.shape[0]), k + 1)


def _knn_projected(X: np.ndarray, k: int):
    """Exact (k+1)-nearest candidates by projected filter-and-refine.

    An orthonormal projection P never lengthens a difference,
    |P(x - y)| <= |x - y|, so distances among the rows projected onto the
    top principal directions bound the true ones from below (GEMINI
    lower bounding; exactness does not depend on how good the directions
    are). Per block of rows, the k + _PROJ_EXTRA nearest projected points
    get exact distances; the (k+1)-th of them is an upper bound tau on the
    row's (k+1)-th true distance, and every point within tau lies in the
    projected ball of radius sqrt(tau) plus a rounding margin (optimal
    multi-step kNN, Seidl & Kriegel 1998). A row whose farthest projected
    candidate lies outside that ball is resolved: every point outside the
    candidate set is at least as far in projection, so the candidates hold
    every point within tau, whole tie groups included, and they are ranked
    directly, by the rule of ``_rank_pairs``. The other rows query again
    with twice as many candidates, and so on; a query of all n points
    settles every row. When a widened round would hold more than
    ``_REFINE_BUDGET`` candidate coordinates (high intrinsic dimension) the
    rows left are scanned instead.
    """
    # imported here: scipy.spatial costs ~14 MiB resident, about half of
    # it the scipy.linalg it pulls in, which small inputs never need
    from scipy.spatial import cKDTree

    n, d = X.shape
    Xc = X - X.mean(axis=0)
    C = Xc.T @ Xc
    if not np.isfinite(C).all():
        raise AffinityError("candidate distances are not finite (feature overflow?)")
    Z = Xc @ np.linalg.eigh(C)[1][:, -_PROJ_RANK:]
    tree = cKDTree(Z)
    sq = np.einsum("ij,ij->i", X, X)
    norm_max = np.sqrt(sq.max())
    idx = np.empty((n, k + 1), dtype=np.int64)
    dist = np.empty((n, k + 1), dtype=np.float64)
    for s in range(0, n, _REFINE_BLOCK):
        rows = np.arange(s, min(n, s + _REFINE_BLOCK))
        width = min(k + _PROJ_EXTRA, n)
        while rows.size:
            proj, cand = tree.query(Z[rows], k=width)
            diff = X[cand]
            diff -= X[rows, None, :]
            diff *= diff
            D0 = diff.sum(axis=2)
            D0[cand == rows[:, None]] = np.inf
            bound = np.sqrt(np.partition(D0, k, axis=1)[:, k])
            # rounding in the projection grows with |x|
            radius = bound + 1e-9 * (bound + norm_max)
            done = (proj[:, -1] > radius) | (width == n)
            cand, D0 = cand[done], D0[done]
            order = np.lexsort((cand, D0), axis=1)[:, :k + 1]
            idx[rows[done]] = np.take_along_axis(cand, order, axis=1)
            dist[rows[done]] = np.take_along_axis(D0, order, axis=1)
            rows, width = rows[~done], min(2 * width, n)
            if rows.size * width * d > _REFINE_BUDGET:
                idx[rows], dist[rows] = _scan_block(X, sq, rows, k + 1)
                break
    return idx, dist


def nearest_candidates(X: np.ndarray, k: int):
    """(k+1)-nearest neighbor search behind ``build_affinity``.

    Candidates are ranked by squared distance under the rule stated in
    ``_rank_pairs``. Self matches are excluded. Inputs of at
    most ``_SCAN_MAX_N`` rows are scanned in full; larger ones go through
    the projected filter-and-refine search, which returns the same
    neighbors.
    """
    n = X.shape[0]
    if k + 1 > n - 1:
        raise AffinityError(f"need k+1={k + 1} candidates, have {n - 1}")
    # an overflow shows as non-finite distances, which raise AffinityError
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= _SCAN_MAX_N:
            idx, dist = _knn_scan(X, k)
        else:
            idx, dist = _knn_projected(X, k)
    if not np.isfinite(dist).all():
        raise AffinityError("candidate distances are not finite (feature overflow?)")
    return idx, dist


def affinity_rows(dist: np.ndarray, k: int):
    """Closed-form simplex weights of each row from its sorted candidate distances.

    ``dist`` is (n, >= k+1). For row i with ascending distances d_1..d_{k+1}:
        alpha_i  = (k/2) d_{k+1} - (1/2) sum_{j<=k} d_j
        lambda_i = 1/k + sum_{j<=k} d_j / (2 k alpha_i)
        s_ij     = max(-d_ij / (2 alpha_i) + lambda_i, 0),  j <= k
    so each row's k weights are nonnegative and sum to one. A row with
    alpha_i <= 0 (a tie running through the (k+1)-th candidate) is
    degenerate and gets uniform weights. Returns (weights (n, k), alphas).
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[1] < k + 1:
        raise AffinityError(f"need k+1={k + 1} sorted distances per row")
    head = dist[:, :k]
    head_sum = head.sum(axis=1)
    alphas = 0.5 * k * dist[:, k] - 0.5 * head_sum
    # a degenerate row divides by alpha <= 0 here; its weights are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        lambdas = 1.0 / k + head_sum / (2.0 * k * alphas)
        weights = np.maximum(-head / (2.0 * alphas[:, None]) + lambdas[:, None], 0.0)
    weights[alphas <= 0.0] = 1.0 / k
    return weights, alphas


def build_affinity(H: np.ndarray, Y: np.ndarray | None = None, beta: float = 0.0,
                   k: int = 10) -> AffinityMatrix:
    """Row-stochastic k-sparse affinity from representations H (and Y).

    The candidate metric is |h_i - h_j|^2 + beta |y_i - y_j|^2, realized as
    squared Euclidean distance on [H, sqrt(beta) Y]. Deterministic given
    inputs; candidates rank as ``nearest_candidates`` ranks them.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise AffinityError("H must be 2-d")
    if not np.all(np.isfinite(H)):
        raise AffinityError("H contains non-finite values")
    if k < 1:
        raise AffinityError("k must be >= 1")
    if beta != 0.0 and Y is not None:
        Y = np.asarray(Y, dtype=np.float64)
        if Y.shape[0] != H.shape[0]:
            raise AffinityError("H and Y row counts differ")
        X = np.hstack([H, np.sqrt(beta) * Y])
    else:
        X = H
    idx, dist = nearest_candidates(X, k)
    weights, alphas = affinity_rows(dist, k)
    return AffinityMatrix(n=H.shape[0], k=k, indices=idx[:, :k], weights=weights,
                          degenerate=alphas <= 0.0)


def laplacian(S: AffinityMatrix) -> csr_matrix:
    """Symmetrized graph Laplacian L = D - (S + S^T)/2, with D the diagonal
    of ``S.sym_degree``, the degree the spectral gradient uses."""
    return (diags(S.sym_degree) - (S.csr + S.csr.T) * 0.5).tocsr()


def propagate(S: AffinityMatrix, H: np.ndarray) -> np.ndarray:
    """Message passing Z = S H; each row of Z mixes neighbor rows of H."""
    H = np.asarray(H, dtype=np.float64)
    if H.shape[0] != S.n:
        raise AffinityError(f"S is {S.n}x{S.n} but H has {H.shape[0]} rows")
    return S.csr @ H
