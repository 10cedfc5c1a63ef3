"""Closed-form k-sparse affinity matrices and their Laplacians.

Each row of the affinity matrix solves a simplex-constrained quadratic
over the k nearest candidates; the per-row scale and shift follow from
the KKT conditions, so generic rows carry exactly k positive weights
summing to one. Candidate search is exact: a blocked full pairwise scan
for small inputs, and for large ones a filter-and-refine search (kd-tree
over a principal-direction projection, whose distances bound the true
ones from below) that returns the same neighbors. Most rows of that search
are settled by one projected k-nearest query; only the rest query a
projected ball. Every path ranks candidates by the rule stated in
``_rank_pairs``.
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
# fastest at n = 4k-16k: narrower leaves more rows to the ball queries,
# wider costs more exact distances). The rows it leaves unresolved query
# projected balls; when those balls hold more than _REFINE_BUDGET pair
# coordinates the rows are scanned instead, which bounds the refine step's
# memory where the projection prunes poorly (the budget is about the size
# of one scanned block at n = 8000).
_SCAN_MAX_N = 1500
_PROJ_RANK = 8
_PROJ_EXTRA = 6
_REFINE_BLOCK = 1024
_REFINE_BUDGET = 1 << 23


class AffinityError(Exception):
    pass


@dataclass
class AffinityMatrix:
    """Row-stochastic k-sparse affinity over n nodes.

    ``indices[i]`` holds node i's k nearest candidates sorted by distance,
    ``weights[i]`` the matching weights. Rows flagged ``degenerate`` hit a
    distance tie through the (k+1)-th candidate and fall back to uniform
    weights. The sparse forms the training step multiplies by (``csr``,
    ``csr_t``, ``sym_degree``) are built on first use and kept with S.
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
    def csr_t(self) -> csr_matrix:
        """S^T as an explicit CSR, built once per S. Its products equal
        those of the CSC view ``csr.T`` bit for bit: both add each output
        row's terms in source-row order."""
        return self.csr.T.tocsr()

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
    and an exact tie goes to the lower node index. ``rows`` holds positions
    0..n_rows-1; within a row the pairs come with ascending ``cols``, so the
    stable sort settles ties by index. A row with fewer than k1 pairs (or
    none) raises AffinityError.
    """
    counts = np.bincount(rows, minlength=n_rows)
    if (counts < k1).any():
        raise AffinityError(f"a row has fewer than {k1} candidate distances (feature overflow?)")
    order = np.lexsort((dist, rows))
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k1)]
    return cols[take], dist[take]


def _scan_block(X: np.ndarray, sq: np.ndarray, rows, k1: int):
    """Exact k1-nearest candidates of X[rows] against all rows of X.

    ``rows`` is a slice or an index array. ``_knn_scan`` passes slices:
    when one block is all of X, numpy computes X @ X.T by a symmetric
    rank-k update, whose rounding a copied block would not reproduce.
    Every column at or below a row's k1-th value is ranked, so a tie
    group at the boundary is ranked whole.
    """
    D = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
    np.maximum(D, 0.0, out=D)
    b, m = D.shape
    D[np.arange(b), np.arange(m)[rows]] = np.inf
    kth = np.partition(D, k1 - 1, axis=1)[:, k1 - 1]
    if not np.isfinite(kth).all():
        raise AffinityError("candidate distances are not finite (feature overflow?)")
    flat = np.flatnonzero(D <= kth[:, None])
    return _rank_pairs(flat // m, flat % m, D.ravel()[flat], b, k1)


def _knn_scan(X: np.ndarray, k: int, block: int = 2048):
    """Exact (k+1)-nearest candidates by blocked full pairwise scan."""
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    idx = np.empty((n, k + 1), dtype=np.int64)
    dist = np.empty((n, k + 1), dtype=np.float64)
    for s in range(0, n, block):
        e = min(n, s + block)
        idx[s:e], dist[s:e] = _scan_block(X, sq, slice(s, e), k + 1)
    return idx, dist


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
    directly, by the rule of ``_rank_pairs``. The other rows query their
    balls and rank the exact distances on those pairs through
    ``_rank_pairs``. When those balls exceed ``_REFINE_BUDGET`` pair
    coordinates (high intrinsic dimension) the rows are scanned instead.
    """
    # imported here: scipy.spatial costs ~6 MiB that small inputs never need
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
        e = min(n, s + _REFINE_BLOCK)
        rows = np.arange(s, e)
        proj, cand = tree.query(Z[s:e], k=k + _PROJ_EXTRA)
        diff = X[cand]
        diff -= X[s:e, None, :]
        diff *= diff
        D0 = diff.sum(axis=2)
        D0[cand == rows[:, None]] = np.inf
        bound = np.sqrt(np.partition(D0, k, axis=1)[:, k])
        # rounding in the projection grows with |x|
        radius = bound + 1e-9 * (bound + norm_max)
        done = proj[:, -1] > radius
        cand, D0 = cand[done], D0[done]
        order = np.lexsort((cand, D0), axis=1)[:, :k + 1]
        idx[rows[done]] = np.take_along_axis(cand, order, axis=1)
        dist[rows[done]] = np.take_along_axis(D0, order, axis=1)
        rows, radius = rows[~done], radius[~done]
        if rows.size == 0:
            continue
        counts = tree.query_ball_point(Z[rows], radius, return_length=True)
        if counts.sum() * d > _REFINE_BUDGET:
            idx[rows], dist[rows] = _scan_block(X, sq, rows, k + 1)
            continue
        cols = np.concatenate(tree.query_ball_point(Z[rows], radius, return_sorted=True))
        pair_rows = np.repeat(np.arange(rows.size), counts)
        keep = cols != rows[pair_rows]
        pair_rows, cols = pair_rows[keep], cols[keep]
        diff = X[rows[pair_rows]]
        diff -= X[cols]
        diff *= diff
        idx[rows], dist[rows] = _rank_pairs(pair_rows, cols, diff.sum(axis=1), rows.size,
                                            k + 1)
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
    if n <= _SCAN_MAX_N:
        idx, dist = _knn_scan(X, k)
    else:
        idx, dist = _knn_projected(X, k)
    if not np.isfinite(dist).all():
        raise AffinityError("candidate distances are not finite (feature overflow?)")
    return idx, dist


def compute_alpha(d_rows: np.ndarray, k: int):
    """Per-row scale and simplex shift from sorted candidate distances.

    For row i with ascending distances d_1..d_{k+1}:
        alpha_i  = (k/2) d_{k+1} - (1/2) sum_{j<=k} d_j
        lambda_i = 1/k + sum_{j<=k} d_j / (2 k alpha_i)
    Returns (mean alpha, per-row alphas, per-row lambdas). Rows with
    alpha_i <= 0 (a tie running through the (k+1)-th candidate) get
    lambda_i = 1/k; ``solve_affinity_row`` gives them uniform weights.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    if d_rows.ndim == 1:
        d_rows = d_rows[None, :]
    if d_rows.shape[1] < k + 1:
        raise AffinityError(f"need k+1={k + 1} sorted distances per row")
    head = d_rows[:, :k]
    head_sum = head.sum(axis=1)
    alphas = 0.5 * k * d_rows[:, k] - 0.5 * head_sum
    degenerate = alphas <= 0.0
    lambdas = np.full(alphas.shape, 1.0 / k)
    ok = ~degenerate
    lambdas[ok] = 1.0 / k + head_sum[ok] / (2.0 * k * alphas[ok])
    return float(alphas.mean()), alphas, lambdas


def solve_affinity_row(d_rows: np.ndarray, alphas: np.ndarray,
                       lambdas: np.ndarray) -> np.ndarray:
    """Closed-form simplex weights s_ij = max(-d_ij / (2 alpha_i) + lambda_i, 0).

    ``d_rows`` is (n, k): each row's k nearest candidate distances. With the
    (n,) ``alphas`` and ``lambdas`` from ``compute_alpha`` each row's k
    weights are nonnegative and sum to one. alpha_i <= 0 signals a
    degenerate row and yields uniform weights over its candidates.
    """
    d_rows = np.asarray(d_rows, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.maximum(
            -d_rows / (2.0 * alphas[:, None]) + np.asarray(lambdas)[:, None], 0.0)
    weights[alphas <= 0.0] = 1.0 / d_rows.shape[1]
    return weights


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
    _, alphas, lambdas = compute_alpha(dist, k)
    return AffinityMatrix(
        n=H.shape[0], k=k, indices=idx[:, :k],
        weights=solve_affinity_row(dist[:, :k], alphas, lambdas),
        degenerate=alphas <= 0.0)


def laplacian(S: AffinityMatrix | csr_matrix) -> csr_matrix:
    """Symmetrized graph Laplacian L = D - (S + S^T)/2 with D the degree
    matrix of the symmetrized part."""
    C = S.to_csr() if isinstance(S, AffinityMatrix) else csr_matrix(S)
    W = (C + C.T) * 0.5
    deg = np.asarray(W.sum(axis=1)).ravel()
    return (diags(deg) - W).tocsr()


def propagate(S: AffinityMatrix, H: np.ndarray) -> np.ndarray:
    """Message passing Z = S H; each row of Z mixes neighbor rows of H."""
    H = np.asarray(H, dtype=np.float64)
    if H.shape[0] != S.n:
        raise AffinityError(f"S is {S.n}x{S.n} but H has {H.shape[0]} rows")
    return S.csr @ H
