import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import hgsc.evaluation as evaluation
from hgsc.evaluation import (EvalError, EvalReport, ari, complexity_measure,
                             concat_representation, evaluate, f1_scores,
                             kmeans, kmeans_cluster, linear_probe, nmi,
                             silhouette)


# ------------------------------------------------------------------ concat

def test_concat_zero_left_half():
    Z = np.zeros((4, 3))
    Zt = np.ones((4, 2))
    X = concat_representation(Z, Zt)
    assert X.shape == (4, 5)
    assert np.abs(X[:, :3]).max() == 0.0


def test_concat_duplicated_halves():
    Z = np.random.default_rng(0).standard_normal((5, 2))
    X = concat_representation(Z, Z)
    assert np.array_equal(X[:, :2], X[:, 2:])


def test_concat_slice_oracle():
    rng = np.random.default_rng(1)
    Z, Zt = rng.standard_normal((6, 3)), rng.standard_normal((6, 4))
    X = concat_representation(Z, Zt)
    for i in range(6):
        assert np.array_equal(X[i], np.concatenate([Z[i], Zt[i]]))


def test_concat_mismatch():
    with pytest.raises(EvalError):
        concat_representation(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------- f1

def brute_force_f1(y_true, y_pred, c):
    """Independent confusion-matrix oracle with explicit loops."""
    per_class = []
    for k in range(c):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == k and p == k)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != k and p == k)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == k and p != k)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    acc = sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)
    return sum(per_class) / c, acc


def test_f1_perfect_predictions():
    y = np.array([0, 1, 2, 1, 0])
    macro, micro = f1_scores(y, y, 3)
    assert macro == micro == 1.0


def test_f1_single_class_predictions_balanced():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.zeros(4, dtype=int)
    macro, micro = f1_scores(y_true, y_pred, 2)
    assert micro == pytest.approx(0.5)
    assert macro == pytest.approx((2 / 3) / 2)


def test_f1_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        c = int(rng.integers(2, 5))
        y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)
        macro, micro = f1_scores(y_true, y_pred, c)
        o_macro, o_micro = brute_force_f1(y_true, y_pred, c)
        assert macro == pytest.approx(o_macro, abs=1e-12)
        assert micro == pytest.approx(o_micro, abs=1e-12)


# -------------------------------------------------------------------- probe

def test_linear_probe_separable():
    rng = np.random.default_rng(3)
    n = 60
    labels = np.repeat([0, 1], n // 2)
    X = np.where(labels[:, None] == 0, -3.0, 3.0) + 0.3 * rng.standard_normal((n, 4))
    idx = rng.permutation(n)
    train, test = idx[:30], idx[30:]
    (macro, _), (micro, _) = linear_probe(X, labels, train, test)
    assert macro == 1.0
    assert micro == 1.0


def test_linear_probe_missing_class():
    X = np.random.default_rng(4).standard_normal((10, 3))
    labels = np.array([0] * 5 + [1] * 5)
    with pytest.raises(EvalError, match="class 1"):
        linear_probe(X, labels, np.arange(5), np.arange(5, 10))


def test_linear_probe_reports_spread():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 6))
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    (ma, ma_s), (mi, mi_s) = linear_probe(X, labels, np.arange(20), np.arange(20, 40))
    assert 0.0 <= ma <= 1.0 and 0.0 <= mi <= 1.0
    assert ma_s >= 0.0 and mi_s >= 0.0


# ------------------------------------------------------------------- kmeans

def test_kmeans_trivial_clusters():
    rng = np.random.default_rng(6)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    labels = np.repeat(np.arange(3), 10)
    X = centers[labels] + 0.2 * rng.standard_normal((30, 2))
    v_nmi, v_ari, assign = kmeans_cluster(X, labels, 3, seed=0)
    assert v_nmi == pytest.approx(1.0)
    assert v_ari == pytest.approx(1.0)


def test_kmeans_six_point_instance_matches_exhaustive():
    X = np.array([[0.0], [0.2], [0.4], [10.0], [10.2], [10.4]])
    assign, inertia = kmeans(X, 2, restarts=10, seed=1)

    # oracle: brute force over all assignments into 2 nonempty clusters
    best = None
    for mask in range(1, 2**6 - 1):
        lab = np.array([(mask >> i) & 1 for i in range(6)])
        cost = 0.0
        for j in (0, 1):
            pts = X[lab == j]
            if len(pts):
                cost += float(((pts - pts.mean(axis=0)) ** 2).sum())
        if best is None or cost < best[1]:
            best = (lab, cost)
    assert inertia == pytest.approx(best[1], abs=1e-12)
    assert nmi(assign, best[0]) == pytest.approx(1.0)


def test_kmeans_too_few_points():
    with pytest.raises(EvalError):
        kmeans(np.zeros((2, 1)), 3)


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3))
    a1, i1 = kmeans(X, 4, seed=9)
    a2, i2 = kmeans(X, 4, seed=9)
    assert np.array_equal(a1, a2) and i1 == i2


# ----------------------------------------------------------------- nmi/ari

def brute_force_nmi(a, b):
    """Dictionary-based mutual information, arithmetic normalization."""
    from collections import Counter
    from math import log
    n = len(a)
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    if len(ca) == len(cb) == 1:
        return 1.0
    mi = sum(cnt / n * log(n * cnt / (ca[x] * cb[y]))
             for (x, y), cnt in cab.items())
    ha = -sum(v / n * log(v / n) for v in ca.values())
    hb = -sum(v / n * log(v / n) for v in cb.values())
    if (ha + hb) / 2 <= 0 or mi <= 0:
        return 0.0
    return min(mi / ((ha + hb) / 2), 1.0)


def brute_force_ari(a, b):
    """Pair-counting adjusted Rand oracle."""
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            ss += sa and sb
            sd += sa and not sb
            ds += (not sa) and sb
            dd += (not sa) and (not sb)
    num = 2.0 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    return 1.0 if den == 0 else num / den


def test_nmi_identical_partitions():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(a, a) == pytest.approx(1.0)
    perm = np.array([2, 2, 0, 0, 1, 1])
    assert nmi(a, perm) == pytest.approx(1.0)


def test_nmi_single_cluster_zero():
    labels = np.array([0, 1, 0, 1])
    assert nmi(labels, np.zeros(4, dtype=int)) == 0.0


def test_nmi_two_single_cluster_labelings_agree():
    assert nmi(np.zeros(4, dtype=int), np.full(4, 3)) == 1.0


def test_nmi_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert nmi(a, b) == pytest.approx(brute_force_nmi(a.tolist(), b.tolist()),
                                          abs=1e-12)


def test_ari_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert ari(a, b) == pytest.approx(brute_force_ari(a.tolist(), b.tolist()),
                                          abs=1e-12)


def test_ari_permutation_invariant():
    rng = np.random.default_rng(10)
    a = rng.integers(0, 3, size=20)
    b = rng.integers(0, 3, size=20)
    remap = np.array([2, 0, 1])
    assert ari(a, b) == pytest.approx(ari(remap[a], b))
    assert nmi(a, b) == pytest.approx(nmi(remap[a], b))


# --------------------------------------------------------------- silhouette

def test_silhouette_two_tight_pairs():
    X = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.1]])
    assign = np.array([0, 0, 1, 1])
    s = silhouette(X, assign)
    assert s > 0.9
    # hand value for point 0: a = 0.1, b = mean of the two cross distances
    b0 = (10.0 + np.hypot(10.0, 0.1)) / 2
    expected0 = (b0 - 0.1) / b0
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    a0 = D[0, 1]
    assert (b0 - a0) / max(a0, b0) == pytest.approx(expected0)


def test_silhouette_identical_points_zero():
    X = np.ones((6, 2))
    assign = np.array([0, 0, 0, 1, 1, 1])
    assert silhouette(X, assign) == 0.0


def test_silhouette_single_cluster_error():
    with pytest.raises(EvalError):
        silhouette(np.random.default_rng(0).standard_normal((5, 2)), np.zeros(5))


def brute_force_silhouette(X, assign):
    n = X.shape[0]
    vals = []
    for i in range(n):
        own = [j for j in range(n) if assign[j] == assign[i] and j != i]
        if not own:
            vals.append(0.0)
            continue
        a = np.mean([np.linalg.norm(X[i] - X[j]) for j in own])
        b = np.inf
        for c in set(assign.tolist()) - {assign[i]}:
            others = [j for j in range(n) if assign[j] == c]
            b = min(b, np.mean([np.linalg.norm(X[i] - X[j]) for j in others]))
        m = max(a, b)
        vals.append(0.0 if m == 0 else (b - a) / m)
    return float(np.mean(vals))


def test_silhouette_matches_direct_oracle():
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(4, 12))
        c = 3 if trial % 2 else 4
        X = rng.standard_normal((n, 3))
        assign = rng.integers(0, c, size=n)
        if trial % 4 == 1:
            # duplicate points, within and across clusters
            X[n // 2:] = X[:n - n // 2]
        if trial % 5 == 2:
            # node 0 alone in a cluster of its own
            assign[assign == c - 1] = 0
            assign[0] = c - 1
        if np.unique(assign).size < 2:
            assign[0] = (assign[1] + 1) % c
        assert silhouette(X, assign) == pytest.approx(
            brute_force_silhouette(X, assign), abs=1e-12)


# --------------------------------------------------------------- complexity

def test_complexity_zero_scatter():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    assert complexity_measure(X, labels) == 0.0


def test_complexity_fixed_instance():
    # two symmetric 1-d classes: scatter 1 each, centroids at -4 and 4
    X = np.array([[-5.0], [-3.0], [3.0], [5.0]])
    labels = np.array([0, 0, 1, 1])
    got = complexity_measure(X, labels)
    assert got == pytest.approx((1.0 + 1.0) / 8.0)


def test_complexity_coincident_centroids():
    X = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(EvalError):
        complexity_measure(X, labels)


def test_complexity_translation_and_scale_invariance():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 4))
    labels = rng.integers(0, 3, size=30)
    base = complexity_measure(X, labels)
    assert complexity_measure(X + 7.5, labels) == pytest.approx(base)
    assert complexity_measure(3.0 * X, labels) == pytest.approx(base)


def test_complexity_needs_two_classes():
    with pytest.raises(EvalError):
        complexity_measure(np.zeros((4, 2)), np.zeros(4, dtype=int))


# ------------------------------------------------ whole-array vs reference
# Serial reference copies: the probe one repeat at a time, k-means on an
# (n, c, d) temporary, the silhouette on the full n x n distance matrix and
# the scatter ratio over a pair loop. The whole-array passes must agree.

def reference_linear_probe(X, labels, train_idx, test_idx, repeats=5, iters=1000,
                           lr=0.01, seed=0):
    c = int(labels.max()) + 1
    tr_labels = labels[train_idx]
    mean, std = X[train_idx].mean(axis=0), X[train_idx].std(axis=0)
    std[std == 0.0] = 1.0
    Xtr, Xte = (X[train_idx] - mean) / std, (X[test_idx] - mean) / std
    onehot = np.zeros((len(train_idx), c))
    onehot[np.arange(len(train_idx)), tr_labels] = 1.0
    macros, micros = [], []
    for rep in range(repeats):
        rng = np.random.default_rng(seed + rep)
        W = 0.01 * rng.standard_normal((X.shape[1], c))
        b = np.zeros(c)
        for _ in range(iters):
            z = Xtr @ W + b
            e = np.exp(z - z.max(axis=1, keepdims=True))
            g = (e / e.sum(axis=1, keepdims=True) - onehot) / len(train_idx)
            W -= lr * (Xtr.T @ g)
            b -= lr * g.sum(axis=0)
        ma, mi = f1_scores(labels[test_idx], np.argmax(Xte @ W + b, axis=1), c)
        macros.append(ma)
        micros.append(mi)
    return ((float(np.mean(macros)), float(np.std(macros))),
            (float(np.mean(micros)), float(np.std(micros))))


def reference_kmeans(X, c, restarts=10, seed=0, max_iter=300, reseeds=None):
    n = X.shape[0]
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1000 + r)
        centers = np.empty((c, X.shape[1]))
        centers[0] = X[rng.integers(n)]
        d2 = ((X - centers[0]) ** 2).sum(axis=1)
        for j in range(1, c):
            total = d2.sum()
            pick = rng.choice(n, p=d2 / total) if total > 0 else int(rng.integers(n))
            centers[j] = X[pick]
            d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
        assign = None
        for _ in range(max_iter):
            D = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(D, axis=1)
            mind = D[np.arange(n), new_assign]
            empties = np.nonzero(np.bincount(new_assign, minlength=c) == 0)[0]
            for empty in empties:
                far = int(np.argmax(mind))
                centers[empty] = X[far]
                mind[far] = -np.inf
                new_assign[far] = empty
            converged = assign is not None and np.array_equal(assign, new_assign)
            if reseeds is not None and empties.size:
                reseeds.append(converged)  # True: the converging step re-seeded
            if converged:
                break
            assign = new_assign
            for j in range(c):
                if (assign == j).any():
                    centers[j] = X[assign == j].mean(axis=0)
        D = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(D, axis=1)
        inertia = float(D[np.arange(n), assign].sum())
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return best


def reference_silhouette(X, assignment):
    D = cdist(X, X)
    clusters, inv = np.unique(assignment, return_inverse=True)
    n = D.shape[0]
    rows = np.arange(n)
    member = np.zeros((n, clusters.size))
    member[rows, inv] = 1.0
    sums = D @ member
    sizes = member.sum(axis=0)
    n_own = sizes[inv]
    a = sums[rows, inv] / np.maximum(n_own - 1.0, 1.0)
    means = sums / sizes
    means[rows, inv] = np.inf
    b = means.min(axis=1)
    m = np.maximum(a, b)
    return float(np.divide(b - a, m, out=np.zeros(n), where=(n_own > 1) & (m > 0.0)).mean())


def reference_complexity(O, labels):
    classes = np.unique(labels)
    mus = np.stack([O[labels == c].mean(axis=0) for c in classes])
    scat = [np.sqrt(((O[labels == c] - mus[i]) ** 2).sum(axis=1).mean())
            for i, c in enumerate(classes)]
    ratios = [max((scat[i] + scat[j]) / np.linalg.norm(mus[i] - mus[j])
                  for j in range(classes.size) if j != i)
              for i in range(classes.size)]
    return float(np.mean(ratios))


def planted_case(n, c, noise, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(c), -(-n // c))[:n]
    Z = 3.0 * np.eye(c, 8)[labels] + noise * rng.standard_normal((n, 8))
    Zt = rng.standard_normal((n, 6))
    idx = rng.permutation(n)
    return Z, Zt, labels, idx[: n // 2], idx[n // 2:]


# c = 9: numpy sums the probe's 9-wide rows pairwise, while its max is
# taken slice by slice
@pytest.mark.parametrize("n,c,noise", [(300, 3, 1.0), (500, 4, 1.5), (700, 3, 2.0),
                                       (400, 3, 50.0), (450, 9, 1.0)],
                         ids=["n300", "n500", "n700", "near-random", "c9"])
def test_whole_array_passes_match_reference(n, c, noise):
    Z, Zt, labels, train, test = planted_case(n, c, noise, seed=n)
    X = concat_representation(Z, Zt)
    assert linear_probe(X, labels, train, test, seed=2) == \
        reference_linear_probe(X, labels, train, test, seed=2)
    assigns = []
    for seed in range(3):
        got, want = kmeans(X, c, seed=seed), reference_kmeans(X, c, seed=seed)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assigns.append(got[0])
        # stopped before converging: the labels come from the last
        # step's centres
        for max_iter in (1, 2):
            got = kmeans(X, c, seed=seed, max_iter=max_iter)
            want = reference_kmeans(X, c, seed=seed, max_iter=max_iter)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    want = [reference_silhouette(X, a) for a in assigns]
    assert np.abs(silhouette(X, np.stack(assigns)) - want).max() <= 1e-12
    assert complexity_measure(X, labels) == pytest.approx(
        reference_complexity(X, labels), abs=1e-12)


def test_kmeans_matches_reference_when_reseeding_an_empty_cluster():
    # three distinct points for four clusters: steps re-seed, the
    # converging one included, whose distances kmeans keeps for the final
    # labels while the reference recomputes them
    X = np.vstack([np.zeros((30, 2)), [[5.0, 0.0]], [[5.0, 0.5]]])
    reseeds = []
    want = reference_kmeans(X, 4, seed=1, reseeds=reseeds)
    assert True in reseeds
    got = kmeans(X, 4, seed=1)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_kmeans_reuses_the_columns_of_earlier_restarts(monkeypatch):
    # well separated blobs: most restarts end at the same centres, so later
    # restarts' Lloyd steps find their columns known
    Z, Zt, _, _, _ = planted_case(400, 3, 0.5, seed=19)
    X = concat_representation(Z, Zt)
    hits = []
    real = evaluation._sq_distances

    def counting(X, centers, known):
        hits.append(sum(mu.tobytes() in known for mu in centers))
        D = real(X, centers, known)
        for j, mu in enumerate(centers):  # a copied column is the one the sum gives
            assert np.array_equal(D[:, j], ((X - mu) ** 2).sum(axis=1))
        return D

    monkeypatch.setattr(evaluation, "_sq_distances", counting)
    got, want = kmeans(X, 3, seed=4), reference_kmeans(X, 3, seed=4)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert sum(hits) >= 1


def test_silhouette_ragged_last_block(monkeypatch):
    monkeypatch.setattr(evaluation, "_SILHOUETTE_BLOCK", 7)
    rng = np.random.default_rng(16)
    X = rng.standard_normal((50, 3))
    stack = rng.integers(0, 3, size=(2, 50))
    got = silhouette(X, stack)
    for row, value in zip(stack, got):
        assert value == pytest.approx(brute_force_silhouette(X, row), abs=1e-12)
        assert silhouette(X, row) == value


def test_silhouette_memory_stays_below_the_distance_matrix():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((4000, 16))
    assign = rng.integers(0, 3, size=4000)
    tracemalloc.start()
    try:
        silhouette(X, assign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full 4000 x 4000 distance matrix alone is 122 MiB
    assert peak < 32 * 2**20


# ------------------------------------------------------------- integration

def test_evaluate_perfect_embeddings():
    rng = np.random.default_rng(13)
    n, c = 60, 3
    labels = np.repeat(np.arange(c), n // c)
    Z = np.eye(c)[labels] * 10 + 0.1 * rng.standard_normal((n, c))
    Zt = np.eye(c)[labels] * 10 + 0.1 * rng.standard_normal((n, c))
    idx = rng.permutation(n)
    report = evaluate(Z, Zt, labels, idx[:30], idx[30:], c, repeats=2, seed=0)
    assert report.macro_f1[0] == pytest.approx(1.0)
    assert report.nmi[0] == pytest.approx(1.0)
    assert report.ari[0] == pytest.approx(1.0)
    assert report.silhouette[0] > 0.8
    assert report.complexity[0] >= 0.0


def test_evaluate_silhouette_equals_per_call_values():
    # evaluate shares one distance matrix across repeats; its silhouette
    # entries must equal separate silhouette() calls on the same clusterings
    rng = np.random.default_rng(15)
    n, c, repeats = 90, 3, 4
    labels = np.repeat(np.arange(c), n // c)
    Z = 2.0 * np.eye(c)[labels] + rng.standard_normal((n, c))
    Zt = rng.standard_normal((n, 2))
    idx = rng.permutation(n)
    report = evaluate(Z, Zt, labels, idx[:45], idx[45:], c, repeats=repeats, seed=3)
    X = concat_representation(Z, Zt)
    sils = [silhouette(X, kmeans_cluster(X, labels, c, seed=3 + rep)[2])
            for rep in range(repeats)]
    assert report.silhouette == (float(np.mean(sils)), float(np.std(sils)))


def test_evaluate_scores_collapsed_kmeans_silhouette_zero(monkeypatch):
    rng = np.random.default_rng(18)
    n, c = 40, 2
    labels = np.repeat([0, 1], n // 2)
    Z = 3.0 * np.eye(c)[labels] + rng.standard_normal((n, c))
    real = evaluation.kmeans
    collapsed = lambda X, c, restarts, seed: (
        (np.zeros(len(X), dtype=int), 0.0) if seed == 1 else real(X, c, restarts, seed))
    monkeypatch.setattr(evaluation, "kmeans", collapsed)
    report = evaluate(Z, Z, labels, np.arange(0, n, 2), np.arange(1, n, 2), c,
                      repeats=2, seed=0)
    X = concat_representation(Z, Z)
    kept = silhouette(X, real(X, c, 10, 0)[0])
    assert report.silhouette == (float(np.mean([kept, 0.0])), float(np.std([kept, 0.0])))


def serial_evaluate(Z, Zt, labels, train, test, c, repeats, seed):
    """evaluate's steps one after another on this thread."""
    X = concat_representation(Z, Zt)
    ma, mi = linear_probe(X, labels, train, test, repeats=repeats, seed=seed)
    nmis, aris, sils = [], [], []
    for rep in range(repeats):
        n_, a_, assign = kmeans_cluster(X, labels, c, restarts=10, seed=seed + rep)
        nmis.append(n_)
        aris.append(a_)
        sils.append(silhouette(X, assign) if np.unique(assign).size > 1 else 0.0)
    agg = lambda xs: (float(np.mean(xs)), float(np.std(xs)))
    return EvalReport(macro_f1=ma, micro_f1=mi, nmi=agg(nmis), ari=agg(aris),
                      silhouette=agg(sils),
                      complexity=(complexity_measure(X, labels), 0.0))


def rounded_case():
    # few distinct feature values: duplicate rows, ties and repeated centres
    Z, Zt, labels, train, test = planted_case(300, 3, 1.0, seed=20)
    return np.round(Z), np.round(Zt), labels, train, test


@pytest.mark.parametrize("make,c", [
    (lambda: planted_case(300, 3, 1.0, seed=300), 3),
    (lambda: planted_case(400, 3, 50.0, seed=400), 3),
    (lambda: planted_case(450, 9, 1.0, seed=450), 9),
    (rounded_case, 3)], ids=["n300", "near-random", "c9", "rounded"])
def test_evaluate_equals_the_serial_composition(make, c):
    Z, Zt, labels, train, test = make()
    got = evaluate(Z, Zt, labels, train, test, c, repeats=3, seed=2)
    assert got == serial_evaluate(Z, Zt, labels, train, test, c, repeats=3, seed=2)


def test_evaluate_equals_the_serial_composition_with_a_collapsed_repeat(monkeypatch):
    Z, Zt, labels, train, test = planted_case(200, 2, 1.0, seed=21)
    real = evaluation.kmeans
    collapsed = lambda X, c, restarts, seed: (
        (np.zeros(len(X), dtype=int), 0.0) if seed == 1 else real(X, c, restarts, seed))
    monkeypatch.setattr(evaluation, "kmeans", collapsed)
    got = evaluate(Z, Zt, labels, train, test, 2, repeats=2, seed=0)
    assert got.silhouette[1] > 0.0  # one repeat scored 0, the other did not
    assert got == serial_evaluate(Z, Zt, labels, train, test, 2, repeats=2, seed=0)


def _no_test_nodes(labels, train, test):
    return np.concatenate([train, test]), test[:0]


def _class_missing_from_training(labels, train, test):
    return train[labels[train] != 1], test


@pytest.mark.parametrize("split,message", [
    (_no_test_nodes, "no test nodes"), (_class_missing_from_training, "class 1")])
def test_evaluate_raises_the_probe_error_and_leaves_no_thread(split, message):
    Z, Zt, labels, train, test = planted_case(120, 3, 1.0, seed=22)
    before = threading.active_count()
    with pytest.raises(EvalError, match=message):
        evaluate(Z, Zt, labels, *split(labels, train, test), 3, repeats=2)
    assert threading.active_count() == before


def test_evaluate_joins_its_worker_when_clustering_fails():
    # k-means raises while the probe's descent runs beside it
    Z, Zt, labels, train, test = planted_case(60, 3, 1.0, seed=23)
    before = threading.active_count()
    with pytest.raises(EvalError, match="cannot form 61 clusters"):
        evaluate(Z, Zt, labels, train, test, 61, repeats=2)
    assert threading.active_count() == before
    evaluate(Z, Zt, labels, train, test, 3, repeats=2)
    assert threading.active_count() == before


def test_eval_report_tsv(tmp_path):
    rng = np.random.default_rng(14)
    n = 30
    labels = np.repeat([0, 1], 15)
    Z = np.where(labels[:, None] == 0, -4.0, 4.0) + rng.standard_normal((n, 3))
    report = evaluate(Z, Z, labels, np.arange(0, n, 2), np.arange(1, n, 2),
                      2, repeats=2, seed=1)
    path = tmp_path / "report.tsv"
    report.to_tsv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "metric\tmean\tstd"
    assert len(lines) == 7
    assert len(report.summary().splitlines()) == 6
