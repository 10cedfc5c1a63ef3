import tracemalloc

import numpy as np
import pytest

import hgsc.affinity as aff
from hgsc.affinity import (AffinityError, AffinityMatrix, affinity_rows, build_affinity,
                           laplacian, nearest_candidates, propagate)
from hgsc.verify import component_count, qp_oracle


def brute_force_knn(X, k):
    """Independent oracle: exhaustive distance scan with index tie-break."""
    n = X.shape[0]
    idx = np.zeros((n, k + 1), dtype=np.int64)
    dist = np.zeros((n, k + 1))
    for i in range(n):
        d = np.array([np.sum((X[i] - X[j]) ** 2) for j in range(n)])
        d[i] = np.inf
        order = sorted(range(n), key=lambda j: (d[j], j))[:k + 1]
        idx[i] = order
        dist[i] = d[order]
    return idx, dist


# ------------------------------------------------------------- closed form

def test_compute_alpha_reference_row():
    # alpha = (2/2) 4 - (1 + 2)/2, lambda = 1/2 + 3/(4 alpha) = 0.8
    s, alphas = affinity_rows(np.array([[1.0, 2.0, 4.0]]), k=2)
    assert alphas[0] == pytest.approx(2.5)
    assert np.allclose(s[0], [0.6, 0.4])


def test_compute_alpha_tied_row_is_degenerate():
    for t in (0.5, 1.0, 3.0):
        s, alphas = affinity_rows(np.array([[0.0, 0.0, t]]), k=2)
        assert alphas[0] == pytest.approx(t)
        assert np.allclose(s, [[0.5, 0.5]])


def test_k1_gives_all_weight_to_nearest():
    s, _ = affinity_rows(np.array([[0.3, 0.9]]), k=1)
    assert s[0, 0] == pytest.approx(1.0)


def test_solve_affinity_row_reference():
    s, alphas = affinity_rows(np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 2.0], [3.0, 3.0, 3.0]]),
                              k=2)
    assert np.allclose(alphas, [2.5, 0.5, 0.0])
    assert np.allclose(s[0], [0.6, 0.4])
    # a candidate tied with the (k+1)-th sits on the active set's boundary
    assert np.array_equal(s[1], [1.0, 0.0])
    # a degenerate row among regular ones gets uniform weights
    assert np.array_equal(s[2], [0.5, 0.5])


def test_affinity_rows_need_k_plus_1_distances():
    for d in (np.array([[1.0, 2.0]]), np.array([1.0, 2.0, 4.0])):
        with pytest.raises(AffinityError, match="need k\\+1=3 sorted distances"):
            affinity_rows(d, k=2)


def test_closed_form_matches_qp_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        d = np.sort(rng.uniform(0, 10, size=k + int(rng.integers(1, 5))))
        s, alphas = affinity_rows(d[None, :], k)
        if alphas[0] <= 0:
            continue
        closed = np.zeros(d.size)
        closed[:k] = s[0]
        oracle = qp_oracle(d, float(alphas[0]))
        assert np.abs(closed - oracle).max() < 1e-6


def test_qp_oracle_active_set_matches():
    # the (k+1)-th candidate sits exactly on the boundary with weight 0
    d = np.array([1.0, 2.0, 4.0])
    _, alphas = affinity_rows(d[None, :], 2)
    oracle = qp_oracle(d, float(alphas[0]))
    assert oracle[2] == pytest.approx(0.0, abs=1e-12)
    assert (oracle[:2] > 0).all()


# ----------------------------------------------------------- build_affinity

def test_build_affinity_line_nearest_neighbor():
    H = np.array([[0.0], [1.0], [10.0]])
    S = build_affinity(H, k=1)
    idx_oracle, _ = brute_force_knn(H, 1)
    assert S.indices[0, 0] == idx_oracle[0, 0] == 1
    assert S.weights[0, 0] == pytest.approx(1.0)


def test_build_affinity_duplicate_rows_pick_each_other():
    H = np.array([[1.0, 2.0], [1.0, 2.0], [50.0, 50.0]])
    S = build_affinity(H, k=1)
    assert S.indices[0, 0] == 1
    assert S.indices[1, 0] == 0
    assert S.weights[0, 0] == pytest.approx(1.0)
    assert S.weights[1, 0] == pytest.approx(1.0)


def test_build_affinity_beta_respects_planted_clusters():
    rng = np.random.default_rng(5)
    n, c = 24, 3
    blocks = np.repeat(np.arange(c), n // c)
    H = rng.standard_normal((n, 4))  # uninformative features
    Y = np.eye(c)[blocks] * 10.0
    beta = 100.0
    S = build_affinity(H, Y, beta=beta, k=3)
    # oracle: exhaustive scan with inflated cross-cluster distances
    X = np.hstack([H, np.sqrt(beta) * Y])
    idx_oracle, _ = brute_force_knn(X, 3)
    assert np.array_equal(S.indices, idx_oracle[:, :3])
    for i in range(n):
        assert all(blocks[j] == blocks[i] for j in S.indices[i])


def test_build_affinity_k_too_large():
    with pytest.raises(AffinityError):
        build_affinity(np.zeros((4, 2)) + np.arange(4)[:, None], k=3)


def test_build_affinity_rejects_nonfinite():
    H = np.zeros((5, 2))
    H[0, 0] = np.nan
    with pytest.raises(AffinityError):
        build_affinity(H, k=1)


@pytest.mark.parametrize("H,Y,k,message", [
    (np.arange(5.0), None, 1, "H must be 2-d"),
    (np.arange(10.0).reshape(5, 2), None, 0, "k must be >= 1"),
    (np.arange(10.0).reshape(5, 2), np.ones((4, 2)), 1, "H and Y row counts differ"),
], ids=["H-1d", "k-below-1", "Y-rows-differ"])
def test_build_affinity_rejects_bad_arguments(H, Y, k, message):
    with pytest.raises(AffinityError, match=message):
        build_affinity(H, Y, beta=1.0, k=k)


def test_row_stochastic_and_sparsity_properties():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(8, 40))
        k = int(rng.integers(1, min(10, n - 2) + 1))
        H = rng.standard_normal((n, int(rng.integers(1, 6))))
        S = build_affinity(H, k=k)
        sums = S.row_sums()
        assert np.abs(sums - 1.0).max() < 1e-9
        assert ((S.weights >= 0) & (S.weights <= 1 + 1e-12)).all()
        assert ((S.weights > 0).sum(axis=1) == k).all()


def test_monotonicity_within_rows():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(10, 30))
        H = rng.standard_normal((n, 3))
        S = build_affinity(H, k=5)
        for i in range(n):
            d = np.array([np.sum((H[i] - H[j]) ** 2) for j in S.indices[i]])
            order = np.argsort(d)
            w = S.weights[i][order]
            assert (np.diff(w) <= 1e-12).all()


# --------------------------------------------------------------- laplacian

def test_laplacian_two_node_chain():
    S = AffinityMatrix(n=2, k=1, indices=np.array([[1], [0]]),
                       weights=np.ones((2, 1)),
                       degenerate=np.zeros(2, dtype=bool))
    L = laplacian(S).toarray()
    assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]])


def block_diagonal(blocks):
    """The affinities ``blocks`` (one k) as one block-diagonal S: each block's
    indices shifted by its offset."""
    offsets = np.cumsum([0] + [b.n for b in blocks])
    return AffinityMatrix(n=int(offsets[-1]), k=blocks[0].k,
                          indices=np.vstack([b.indices + offsets[j]
                                             for j, b in enumerate(blocks)]),
                          weights=np.vstack([b.weights for b in blocks]),
                          degenerate=np.concatenate([b.degenerate for b in blocks]))


def test_laplacian_block_structure_preserved():
    rng = np.random.default_rng(2)
    blocks = [build_affinity(rng.standard_normal((8, 2)), k=2) for _ in range(3)]
    dense_blocks = [laplacian(b).toarray() for b in blocks]
    # assemble block-diagonal S and compare
    L_big = laplacian(block_diagonal(blocks)).toarray()
    at = 0
    for b in dense_blocks:
        m = b.shape[0]
        assert np.allclose(L_big[at:at + m, at:at + m], b)
        L_big[at:at + m, at:at + m] = 0.0
        at += m
    assert np.abs(L_big).max() == 0.0


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        S = build_affinity(rng.standard_normal((20, 3)), k=4)
        L = laplacian(S).toarray()
        # direct summation oracle
        assert np.abs(L.sum(axis=1)).max() < 1e-9
        assert np.abs(L - L.T).max() < 1e-12


def test_laplacian_psd():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(10, 100))
        S = build_affinity(rng.standard_normal((n, 4)), k=5)
        w = np.linalg.eigvalsh(laplacian(S).toarray())
        assert w[0] >= -1e-8


def connected_block(rng, n, k=2):
    """Affinity over one internally connected block (by union-find check)."""
    for _ in range(50):
        S = build_affinity(rng.standard_normal((n, 2)), k=k)
        if component_count(S) == 1:
            return S
    raise AssertionError("could not draw a connected block")


def test_zero_eig_count_matches_components():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 4):
        blocks = [connected_block(rng, 10 + 3 * j) for j in range(m)]
        S_big = block_diagonal(blocks)
        w = np.linalg.eigvalsh(laplacian(S_big).toarray())
        n_zero = int((w < 1e-8).sum())
        # union-find on the assembled support
        assert n_zero == component_count(S_big) == m


# --------------------------------------------------------------- propagate

def test_propagate_identity_like():
    # test-only input: each row puts weight 1 on itself
    H = np.arange(6.0).reshape(3, 2)
    S = AffinityMatrix(n=3, k=1, indices=np.array([[0], [1], [2]]),
                       weights=np.ones((3, 1)),
                       degenerate=np.zeros(3, dtype=bool))
    assert np.allclose(propagate(S, H), H)


def test_propagate_swap():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = AffinityMatrix(n=2, k=1, indices=np.array([[1], [0]]),
                       weights=np.ones((2, 1)),
                       degenerate=np.zeros(2, dtype=bool))
    assert np.allclose(propagate(S, H), H[::-1])


def test_propagate_matches_dense_product():
    rng = np.random.default_rng(17)
    H = rng.standard_normal((15, 4))
    S = build_affinity(H, k=3)
    Z = propagate(S, H)
    assert np.abs(Z - S.to_csr().toarray() @ H).max() < 1e-10


def test_explicit_transpose_products_equal_csc_products():
    # the training step multiplies by S^T through the CSC view of the CSR
    # cached with S; its products equal an explicit CSR transpose's bit for
    # bit, as both add each output row's terms in source-row order
    rng = np.random.default_rng(23)
    n = 8000
    H = rng.standard_normal((n, 6))
    S = build_affinity(H, rng.standard_normal((n, 3)), beta=2.0, k=8)
    assert S.csr is S.csr
    explicit_t = S.to_csr().T.tocsr()
    for width in (1, 3, 160):
        V = rng.standard_normal((n, width))
        assert np.array_equal(S.csr.T @ V, explicit_t @ V)
        assert np.array_equal(S.csr @ V, S.to_csr() @ V)
    deg = 0.5 * (S.row_sums() + np.asarray(S.to_csr().sum(axis=0)).ravel())
    assert np.allclose(S.sym_degree, deg, rtol=1e-14, atol=0.0)


def test_propagate_dim_mismatch():
    S = build_affinity(np.random.default_rng(0).standard_normal((10, 2)), k=2)
    with pytest.raises(AffinityError):
        propagate(S, np.zeros((7, 2)))


# ------------------------------------------------------- candidate search

def _search_case(rng, kind, n, d):
    if kind == 0:
        return rng.standard_normal((n, d))
    if kind == 1:  # clustered
        centers = 6.0 * rng.standard_normal((4, d))
        return centers[rng.integers(4, size=n)] + rng.standard_normal((n, d))
    if kind == 2:  # heavy duplicates
        base = rng.standard_normal((max(4, n // 6), d))
        return base[rng.integers(base.shape[0], size=n)]
    if kind == 3:  # quantized coordinates: exact distance ties
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == 4:  # far from the origin: rounding grows with |x|
        return rng.standard_normal((n, d)) + 1e3
    H = rng.standard_normal((n, d))  # two-block metric [H, sqrt(beta) Y]
    return np.hstack([H, np.sqrt(5.0) * rng.random((n, 3))])


def test_projected_search_matches_brute_force():
    # The refine step measures distances by direct subtraction, as the
    # oracle does, and a ball query returns whole tie groups, so indices
    # match exactly, ties included.
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(60, 250))
        d = int(rng.integers(2, 12))
        X = _search_case(rng, trial % 6, n, d)
        k = int(rng.integers(1, 8))
        idx, dist = aff._knn_projected(X, k)
        idx_o, dist_o = brute_force_knn(X, k)
        assert np.array_equal(idx, idx_o)
        assert np.abs(dist - dist_o).max() <= 1e-10


def test_projected_search_fallback_keeps_tie_rule(monkeypatch):
    # with no refine budget every block is scanned instead
    monkeypatch.setattr(aff, "_REFINE_BUDGET", 0)
    rng = np.random.default_rng(29)
    for kind in (2, 3):
        X = _search_case(rng, kind, 90, 3)
        idx, dist = aff._knn_projected(X, 4)
        idx_o, dist_o = brute_force_knn(X, 4)
        assert np.array_equal(idx, idx_o)
        assert np.abs(dist - dist_o).max() <= 1e-10


def test_two_block_affinity_above_scan_size_matches_scan():
    rng = np.random.default_rng(37)
    n, k = 1600, 6
    assert n > aff._SCAN_MAX_N
    centers = 5.0 * rng.standard_normal((3, 4))
    H = centers[rng.integers(3, size=n)] + rng.standard_normal((n, 4))
    Y = rng.random((n, 3))
    S = build_affinity(H, Y, beta=5.0, k=k)
    X = np.hstack([H, np.sqrt(5.0) * Y])
    idx_s, dist_s = aff._knn_scan(X, k)
    idx, dist = nearest_candidates(X, k)
    assert np.array_equal(idx, idx_s)
    assert np.abs(dist - dist_s).max() <= 1e-10
    assert np.array_equal(S.indices, idx_s[:, :k])


def _clusters_with_duplicate_group(rng, n, dup):
    # clusters on a 6-dimensional subspace of 12 dimensions (learned
    # representations have low intrinsic dimension), plus dup copies of row 0
    basis = np.linalg.qr(rng.standard_normal((12, 6)))[0].T
    centers = 6.0 * rng.standard_normal((4, 6))
    X = (centers[rng.integers(4, size=n)] + rng.standard_normal((n, 6))) @ basis
    X[rng.choice(n, dup, replace=False)] = X[0]
    return X


def test_projected_search_resolves_most_rows_and_refines_the_rest(monkeypatch):
    # rows whose k + _PROJ_EXTRA projected candidates hold every point
    # within their radius are ranked directly; a duplicate group larger
    # than that cannot be, and its rows query their projected balls
    from scipy import spatial

    ball_rows = []

    class SpyTree(spatial.cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            if kwargs.get("return_length"):
                ball_rows.append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr(spatial, "cKDTree", SpyTree)
    monkeypatch.setattr(aff, "_REFINE_BLOCK", 128)
    k, n = 4, 400
    dup = k + aff._PROJ_EXTRA + 5
    X = _clusters_with_duplicate_group(np.random.default_rng(43), n, dup)
    idx, dist = aff._knn_projected(X, k)
    assert dup <= sum(ball_rows) < n // 2
    idx_o, dist_o = brute_force_knn(X, k)
    assert np.array_equal(idx, idx_o)
    assert np.abs(dist - dist_o).max() <= 1e-10


def test_over_budget_rows_are_scanned_beside_resolved_rows(monkeypatch):
    # with no refine budget the unresolved rows of a block are scanned;
    # the resolved rows of the same block keep their exact ranking
    scanned = []
    scan_block = aff._scan_block

    def spy(X, sq, rows, k1):
        scanned.extend(rows.tolist())
        return scan_block(X, sq, rows, k1)

    monkeypatch.setattr(aff, "_scan_block", spy)
    monkeypatch.setattr(aff, "_REFINE_BUDGET", 0)
    k, n = 4, 300
    assert n <= aff._REFINE_BLOCK
    X = _clusters_with_duplicate_group(np.random.default_rng(47), n, 14)
    idx, dist = aff._knn_projected(X, k)
    scanned = np.array(scanned)
    resolved = np.setdiff1d(np.arange(n), scanned)
    assert 14 <= scanned.size < n // 2
    idx_o, dist_o = brute_force_knn(X, k)
    assert np.array_equal(idx[resolved], idx_o[resolved])
    assert np.abs(dist[resolved] - dist_o[resolved]).max() <= 1e-10
    monkeypatch.setattr(aff, "_scan_block", scan_block)
    idx_s, dist_s = aff._knn_scan(X, k)
    assert np.array_equal(idx[scanned], idx_s[scanned])
    assert np.abs(dist[scanned] - dist_s[scanned]).max() <= 1e-10


def test_isotropic_high_dim_search_falls_back_and_matches_scan(monkeypatch):
    # eight projected directions bound 48 isotropic ones poorly: the balls
    # would hold nearly all pairs, so blocks are scanned instead
    scanned = []
    scan_block = aff._scan_block

    def spy(X, sq, rows, k1):
        scanned.append(rows)
        return scan_block(X, sq, rows, k1)

    monkeypatch.setattr(aff, "_scan_block", spy)
    X = np.random.default_rng(41).standard_normal((2000, 48))
    idx, dist = nearest_candidates(X, 5)
    assert scanned
    monkeypatch.setattr(aff, "_scan_block", scan_block)
    idx_s, dist_s = aff._knn_scan(X, 5)
    assert np.array_equal(idx, idx_s)
    assert np.abs(dist - dist_s).max() <= 1e-10


def test_scan_matches_brute_force_with_ties():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(8, 25))
        # quantized coordinates force exact distance ties
        X = rng.integers(0, 3, size=(n, 2)).astype(float)
        k = int(rng.integers(1, n - 2))
        idx, dist = nearest_candidates(X, k)  # n <= 1500: full scan
        idx_o, dist_o = brute_force_knn(X, k)
        assert np.array_equal(idx, idx_o)
        assert np.allclose(dist, dist_o)


def _scan_block_out_of_place(X, sq, rows, k1):
    """``_scan_block`` with its distances built by one out-of-place
    expression and partitioned into a new array: the bits the in-place
    form must keep."""
    D = sq[rows, None] + sq[None, :] - 2.0 * (X[rows] @ X.T)
    np.maximum(D, 0.0, out=D)
    b, m = D.shape
    D[np.arange(b), np.arange(m)[rows]] = np.inf
    kth = np.partition(D, k1 - 1, axis=1)[:, k1 - 1]
    flat = np.flatnonzero(D <= kth[:, None])
    return aff._rank_pairs(flat // m, flat % m, D.ravel()[flat], b, k1)


@pytest.mark.parametrize("kind", ["random", "quantized", "duplicates"])
def test_scan_block_in_place_keeps_the_bits(kind):
    rng = np.random.default_rng(61)
    # at n = 1000 both row kinds span several row blocks
    assert aff._SCAN_CHUNK_BYTES // (8 * 1000) < 400
    for n in (150, 1000):
        X = rng.standard_normal((n, 9))
        if kind == "quantized":  # multiples of 0.1: many exact and near ties
            X = np.round(X, 1)
        elif kind == "duplicates":
            X = X[rng.integers(0, n // 4, size=n)]
        sq = np.einsum("ij,ij->i", X, X)
        # the full slice takes the symmetric rank-k product, an index array
        # (the projected search's fallback) the general one
        for rows in (slice(0, n), np.sort(rng.choice(n, 2 * n // 5, replace=False))):
            idx, dist = aff._scan_block(X, sq, rows, 7)
            idx_o, dist_o = _scan_block_out_of_place(X, sq, rows, 7)
            assert np.array_equal(idx, idx_o)
            assert np.array_equal(dist, dist_o)


def test_scan_peak_memory_is_one_pairwise_array():
    """The scan holds one (n, n) product; the distance, threshold and
    partition steps run over row blocks of it."""
    n = 1000
    X = np.random.default_rng(67).standard_normal((n, 67))
    nearest_candidates(X, 6)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        nearest_candidates(X, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * n * n * 8


def _rank_oracle(pairs, n_rows, k1):
    """Per-row sorted((d, j)) over a list of (row, col, dist) pairs."""
    idx = np.zeros((n_rows, k1), dtype=np.int64)
    dist = np.zeros((n_rows, k1))
    for i in range(n_rows):
        best = sorted((d, j) for r, j, d in pairs if r == i)[:k1]
        idx[i] = [j for _, j in best]
        dist[i] = [d for d, _ in best]
    return idx, dist


def _rank_input(pairs):
    rows, cols, dist = (np.array(v) for v in zip(*pairs))
    return rows.astype(np.int64), cols.astype(np.int64), dist.astype(float)


def test_rank_pairs_matches_sorted_oracle():
    rng = np.random.default_rng(53)
    k1 = 3
    # row 2's group comes first; rows hold 3 to 9 pairs; row 0 has a
    # boundary tie group of five at 1.0, row 1 an inf pair, and row 3's
    # distances are drawn from {0, 1, 2}, so ties fall at every rank
    groups = {
        2: [(j, float(rng.random())) for j in (0, 4, 7, 9)],
        0: [(j, 1.0) for j in (1, 3, 5, 6, 8)] + [(9, 2.0), (11, 0.5)],
        1: [(0, 0.25), (2, np.inf), (5, 0.25)],
        3: [(j, float(rng.integers(0, 3))) for j in range(9)],
    }
    pairs = [(r, j, d) for r in (2, 0, 1, 3) for j, d in sorted(groups[r])]
    idx, dist = aff._rank_pairs(*_rank_input(pairs), 4, k1)
    idx_o, dist_o = _rank_oracle(pairs, 4, k1)
    assert np.array_equal(idx, idx_o)
    assert np.array_equal(dist, dist_o)
    assert idx[0].tolist() == [11, 1, 3]
    assert idx[1].tolist() == [0, 5, 2] and dist[1, 2] == np.inf
    # the row key is the narrowest unsigned type holding n_rows: uint8 up
    # to 255 rows, uint16 for the 300-row case
    for trial in range(51):
        n_rows, k1 = ((300, 3) if trial == 50 else
                      (int(rng.integers(1, 8)), int(rng.integers(1, 5))))
        pairs = [(i, int(j), float(rng.integers(0, 4)))
                 for i in range(n_rows)
                 for j in np.sort(rng.choice(40, int(rng.integers(k1, 12)), replace=False))]
        idx, dist = aff._rank_pairs(*_rank_input(pairs), n_rows, k1)
        idx_o, dist_o = _rank_oracle(pairs, n_rows, k1)
        assert np.array_equal(idx, idx_o)
        assert np.array_equal(dist, dist_o)


def test_rank_pairs_rejects_short_and_empty_rows():
    full = [(0, j, float(j)) for j in range(4)] + [(2, j, 1.0) for j in range(4)]
    with pytest.raises(AffinityError):  # row 1 has two pairs, k1 = 3
        aff._rank_pairs(*_rank_input(full + [(1, 0, 0.5), (1, 3, 0.2)]), 3, 3)
    with pytest.raises(AffinityError):  # row 1 has none
        aff._rank_pairs(*_rank_input(full), 3, 3)


@pytest.mark.parametrize("n", [40, aff._SCAN_MAX_N + 1])
def test_overflowing_features_raise(n):
    # finite features whose squared norms overflow, on the scan path
    # (n <= _SCAN_MAX_N) and on the projected path
    X = np.random.default_rng(59).choice([-1e200, 1e200], size=(n, 3))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(AffinityError, match="feature overflow"):
        nearest_candidates(X, 3)


def test_affinity_tsv_matches_per_entry_writer(tmp_path):
    rng = np.random.default_rng(3)
    n, k = 6, 3
    weights = rng.dirichlet(np.ones(k), size=n)
    weights[1] = [0.7, 0.3, 0.0]            # zero weight is skipped
    weights[2] = [1.0, 0.0, 0.0]
    weights[3] = 1.0 / 3.0                  # degenerate row: uniform
    weights[4, 2] = 1e-300
    indices = np.array([rng.permutation(n)[:k] for _ in range(n)])
    degenerate = np.zeros(n, dtype=bool)
    degenerate[3] = True
    S = AffinityMatrix(n=n, k=k, indices=indices, weights=weights, degenerate=degenerate)
    path = tmp_path / "aff.tsv"
    S.save_tsv(str(path))
    expect = []
    for i in range(n):
        for j, w in zip(indices[i], weights[i]):
            if w > 0.0:
                expect.append(f"{i}\t{j}\t{format(w, '.17g')}\n")
    assert path.read_bytes() == "".join(expect).encode("utf-8")
    assert len(expect) == n * k - 3


def test_affinity_tsv_export(tmp_path):
    S = build_affinity(np.random.default_rng(1).standard_normal((10, 3)), k=2)
    path = tmp_path / "aff.tsv"
    S.save_tsv(str(path))
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    total = np.zeros(10)
    for i, j, w in rows:
        total[int(i)] += float(w)
    assert np.abs(total - 1.0).max() < 1e-9
