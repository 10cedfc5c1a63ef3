"""Downstream evaluation of learned representations.

Linear probe classification (macro/micro F1), k-means clustering scored
by NMI and adjusted Rand index, silhouette, and a Davies-Bouldin-style
scatter/separation diagnostic, each one whole-array pass: the probe's
repeats descend side by side, and neither k-means nor the silhouette
holds an (n, c, d) or n x n temporary. k-means computes each centre's
distances once per set of centres: the seeding's columns serve the first
Lloyd step, and the last step's serve the final labels. Within one call,
a Lloyd step whose centre ended an earlier restart copies that centre's
column instead of recomputing it. ``evaluate`` uses two threads:
``linear_probe`` runs on one worker thread while the calling thread does
k-means, the silhouette and the scatter diagnostic, so a bad split's
error is raised after the clustering; every public function called
directly runs on the calling thread. Each thread writes only its own
arrays, so the results do not depend on the scheduling. The probe and
k-means are pinned implementations (full-batch gradient descent, Lloyd
with k-means++) so results are comparable across runs and platforms.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np


class EvalError(Exception):
    pass


@dataclass
class EvalReport:
    """Each metric is (mean, std) over evaluation repeats."""

    macro_f1: tuple[float, float]
    micro_f1: tuple[float, float]
    nmi: tuple[float, float]
    ari: tuple[float, float]
    silhouette: tuple[float, float]
    complexity: tuple[float, float]

    def to_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("metric\tmean\tstd\n")
            for f in fields(self):
                m, s = getattr(self, f.name)
                fh.write(f"{f.name}\t{m:.6f}\t{s:.6f}\n")

    def summary(self) -> str:
        lines = []
        for f in fields(self):
            m, s = getattr(self, f.name)
            lines.append(f"{f.name:12s} {m:7.4f} +/- {s:.4f}")
        return "\n".join(lines)


def concat_representation(Z: np.ndarray, Zt: np.ndarray) -> np.ndarray:
    """Row-wise concatenation [Z | Zt]."""
    Z, Zt = np.asarray(Z), np.asarray(Zt)
    if Z.shape[0] != Zt.shape[0]:
        raise EvalError(f"row counts differ: {Z.shape[0]} vs {Zt.shape[0]}")
    return np.hstack([Z, Zt])


def f1_scores(y_true: np.ndarray, y_pred: np.ndarray, c: int):
    """Macro and micro F1 over classes 0..c-1 (absent classes score 0)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    conf = np.zeros((c, c), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    prec = np.divide(tp, tp + fp, out=np.zeros(c), where=(tp + fp) > 0)
    rec = np.divide(tp, tp + fn, out=np.zeros(c), where=(tp + fn) > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(c), where=(prec + rec) > 0)
    macro = float(f1.mean())
    micro = float(tp.sum() / conf.sum())
    return macro, micro


def linear_probe(X: np.ndarray, labels: np.ndarray, train_idx: np.ndarray,
                 test_idx: np.ndarray, repeats: int = 5, iters: int = 1000,
                 lr: float = 0.01, seed: int = 0):
    """Multinomial logistic regression on frozen features.

    Full-batch gradient descent with a fixed iteration count; inputs are
    standardized on training statistics. The repeats descend side by side
    as column blocks of one (d, repeats*c) weight matrix, block r seeded by
    ``default_rng(seed + r)``; returns ((macro mean, std), (micro mean, std)).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if len(test_idx) == 0:
        raise EvalError("the split has no test nodes")
    c = int(labels.max()) + 1
    tr_labels = labels[train_idx]
    absent = np.flatnonzero(np.bincount(tr_labels, minlength=c) == 0)
    if absent.size:
        raise EvalError(f"class {absent[0]} absent from training split")
    Xtr = X[train_idx]
    mean = Xtr.mean(axis=0)
    std = Xtr.std(axis=0)
    std[std == 0.0] = 1.0
    Xtr -= mean
    Xtr /= std
    Xte = (X[test_idx] - mean) / std
    onehot = np.eye(c)[tr_labels][:, None, :]
    W = np.hstack([0.01 * np.random.default_rng(seed + r).standard_normal((X.shape[1], c))
                   for r in range(repeats)])
    b = np.zeros(repeats * c)
    n_tr = len(Xtr)
    for _ in range(iters):
        z = (Xtr @ W + b).reshape(n_tr, -1, c)
        # max is exact, so c - 1 elementwise passes give z.max(axis=2)'s
        # bits without a reduction over the short axis; the sum below keeps
        # its reduction, whose pairwise order slices would not reproduce
        zmax = z[..., 0]
        for j in range(1, c):
            zmax = np.maximum(zmax, z[..., j])
        e = np.exp(z - zmax[..., None])
        g = (e / e.sum(axis=2, keepdims=True) - onehot).reshape(n_tr, -1) / n_tr
        W -= lr * (Xtr.T @ g)
        b -= lr * g.sum(axis=0)
    pred = np.argmax((Xte @ W + b).reshape(len(Xte), -1, c), axis=2)
    macros, micros = np.array([f1_scores(labels[test_idx], p, c) for p in pred.T]).T
    return ((float(np.mean(macros)), float(np.std(macros))),
            (float(np.mean(micros)), float(np.std(micros))))


def _sq_distances(X: np.ndarray, centers: np.ndarray, known: dict) -> np.ndarray:
    """(n, c) squared distances from the rows of X to the centres, one
    centre at a time: no (n, c, d) temporary. A centre whose bytes key
    ``known`` takes that column: it is what the sum would give."""
    D = np.empty((X.shape[0], len(centers)))
    for j, mu in enumerate(centers):
        col = known.get(mu.tobytes())
        D[:, j] = ((X - mu) ** 2).sum(axis=1) if col is None else col
    return D


def _kmeans_pp_init(X: np.ndarray, c: int, rng: np.random.Generator):
    """k-means++ centres and their (n, c) squared distances, each column
    computed once: the seeding keeps a running minimum over them."""
    n = X.shape[0]
    centers = np.empty((c, X.shape[1]))
    D = np.empty((n, c))
    centers[0] = X[rng.integers(n)]
    d2 = D[:, 0] = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        total = d2.sum()
        pick = rng.choice(n, p=d2 / total) if total > 0 else int(rng.integers(n))
        centers[j] = X[pick]
        D[:, j] = col = ((X - centers[j]) ** 2).sum(axis=1)
        d2 = np.minimum(d2, col)
    return centers, D


def kmeans(X: np.ndarray, c: int, restarts: int = 10, seed: int = 0,
           max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding; best inertia wins.

    Empty clusters are re-seeded at the point farthest from its assigned
    centroid. Deterministic given the seed. Returns (labels, inertia).
    Each set of centres has its distances computed once: the seeding's
    serve the first step, and each step's serve the next step or, after
    the last, the final labels and inertia. Restarts often converge to the
    same centres, so the columns of every centre that ended a restart are
    kept, keyed by its bytes, and a later Lloyd step copies them.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < c:
        raise EvalError(f"cannot form {c} clusters from {n} points")
    rows = np.arange(n)
    best = None
    known = {}  # at most restarts * c columns
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1000 + r)
        centers, D = _kmeans_pp_init(X, c, rng)
        assign = None
        for _ in range(max_iter):
            new_assign = np.argmin(D, axis=1)
            mind = D[rows, new_assign]
            for empty in np.flatnonzero(np.bincount(new_assign, minlength=c) == 0):
                far = int(np.argmax(mind))
                centers[empty] = X[far]
                mind[far] = -np.inf
                new_assign[far] = empty
            # a re-seed in the step that converges moves no centre: its
            # cluster held just the point it is re-seeded at, so D holds
            if assign is not None and np.array_equal(assign, new_assign):
                break
            assign = new_assign
            for j in np.unique(assign):
                centers[j] = X[assign == j].mean(axis=0)
            D = _sq_distances(X, centers, known)
        for j, mu in enumerate(centers):
            known.setdefault(mu.tobytes(), D[:, j])
        assign = np.argmin(D, axis=1)
        inertia = float(D[rows, assign].sum())
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return best


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float counts of each (label in a, label in b) pair."""
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    pairs = np.bincount(ia * ub.size + ib, minlength=ua.size * ub.size)
    return pairs.reshape(ua.size, ub.size).astype(np.float64)


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization."""
    cont = _contingency(a, b)
    if cont.shape == (1, 1):
        return 1.0
    n = cont.sum()
    pa = cont.sum(axis=1) / n
    pb = cont.sum(axis=0) / n
    pij = cont / n
    mask = pij > 0
    mi = float((pij[mask] * (np.log(pij[mask]) -
                             np.log(np.outer(pa, pb)[mask]))).sum())
    ha = float(-(pa * np.log(pa)).sum())
    hb = float(-(pb * np.log(pb)).sum())
    denom = 0.5 * (ha + hb)
    if denom <= 0 or mi <= 0:
        return 0.0
    return min(mi / denom, 1.0)


def ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index under the permutation model."""
    cont = _contingency(a, b)
    comb2 = lambda x: x * (x - 1.0) / 2.0
    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(cont.sum())
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def kmeans_cluster(X: np.ndarray, labels: np.ndarray, c: int,
                   restarts: int = 10, seed: int = 0):
    """Cluster and score against ground truth: returns (nmi, ari, assignment)."""
    assign, _ = kmeans(X, c, restarts=restarts, seed=seed)
    return nmi(labels, assign), ari(labels, assign), assign


# rows of the distance matrix that silhouette holds at once
_SILHOUETTE_BLOCK = 256


def silhouette(X: np.ndarray, assignment: np.ndarray):
    """Mean silhouette (b - a)/max(a, b) under the Euclidean metric.

    ``assignment`` is one (n,) clustering, scored as a float, or a
    (repeats, n) stack, scored as a (repeats,) array in the same pass.
    Exact distances (by subtraction) are taken ``_SILHOUETTE_BLOCK`` rows
    at a time, once for all repeats; each repeat's per-cluster distance
    sums come from the block's product with that repeat's own 0/1
    membership matrix. Nodes in a singleton cluster, and nodes with
    a = b = 0, score 0.
    """
    # imported here: scipy.spatial costs ~14 MiB resident, about half of
    # it the scipy.linalg it pulls in, which importing hgsc and
    # training should not pay
    from scipy.spatial.distance import cdist

    X = np.asarray(X, dtype=np.float64)
    stack = np.atleast_2d(assignment)
    repeats, n = stack.shape
    invs = [np.unique(row, return_inverse=True)[1] for row in stack]
    if min(inv.max() for inv in invs) < 1:
        raise EvalError("silhouette needs at least 2 clusters")
    members = []
    for inv in invs:
        member = np.zeros((n, inv.max() + 1))
        member[np.arange(n), inv] = 1.0
        members.append(member)
    sizes = [member.sum(axis=0) for member in members]
    n_own = [size[inv] for size, inv in zip(sizes, invs)]
    scores = np.zeros((repeats, n))
    for lo in range(0, n, _SILHOUETTE_BLOCK):
        blk = slice(lo, lo + _SILHOUETTE_BLOCK)
        D = cdist(X[blk], X)
        rows = np.arange(len(D))
        for r in range(repeats):
            sums = D @ members[r]
            own = invs[r][blk]
            a = sums[rows, own] / np.maximum(n_own[r][blk] - 1.0, 1.0)
            means = sums / sizes[r]
            means[rows, own] = np.inf
            b = means.min(axis=1)
            m = np.maximum(a, b)
            np.divide(b - a, m, out=scores[r, blk], where=(n_own[r][blk] > 1) & (m > 0.0))
    return float(scores.mean()) if np.ndim(assignment) == 1 else scores.mean(axis=1)


def complexity_measure(O: np.ndarray, labels: np.ndarray) -> float:
    """Scatter-to-separation ratio over class pairs; lower is better.

    C = (1/K) sum_i max_{j != i} (S_i + S_j) / M_ij with S_i the root mean
    squared deviation from the class centroid and M_ij the centroid
    distance. Coincident centroids are an error.
    """
    O = np.asarray(O, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise EvalError("complexity measure needs at least 2 classes")
    mus = np.stack([O[labels == c].mean(axis=0) for c in classes])
    scat = np.array([
        np.sqrt(((O[labels == c] - mus[i]) ** 2).sum(axis=1).mean())
        for i, c in enumerate(classes)])
    sep = np.linalg.norm(mus[:, None, :] - mus[None, :, :], axis=2)
    np.fill_diagonal(sep, np.inf)
    if (sep == 0.0).any():
        i, j = np.argwhere(sep == 0.0)[0]
        raise EvalError(f"coincident centroids for classes {classes[i]} and {classes[j]}")
    return float(((scat[:, None] + scat[None, :]) / sep).max(axis=1).mean())


def evaluate(Z: np.ndarray, Zt: np.ndarray, labels: np.ndarray,
             train_idx: np.ndarray, test_idx: np.ndarray, c: int,
             repeats: int = 5, seed: int = 0) -> EvalReport:
    """Full downstream evaluation on [Z | Zt]."""
    X = concat_representation(Z, Zt)
    # the probe runs on a worker while this thread clusters, so a split
    # error (no test nodes, a class absent from training) surfaces from its
    # future after the clustering, and a clustering error is raised before
    # it; the with block joins the worker however this thread leaves it
    with ThreadPoolExecutor(max_workers=1) as pool:
        probe = pool.submit(linear_probe, X, labels, train_idx, test_idx, repeats, seed=seed)
        nmis, aris, assigns = map(np.array, zip(*[
            kmeans_cluster(X, labels, c, restarts=10, seed=seed + rep)
            for rep in range(repeats)]))
        # a repeat whose k-means collapsed to one cluster scores silhouette 0
        split = np.array([np.unique(a).size > 1 for a in assigns])
        sils = np.zeros(repeats)
        if split.any():
            sils[split] = silhouette(X, assigns[split])
        comp = complexity_measure(X, labels)
        ma, mi = probe.result()
    agg = lambda xs: (float(np.mean(xs)), float(np.std(xs)))
    return EvalReport(macro_f1=ma, micro_f1=mi, nmi=agg(nmis), ari=agg(aris),
                      silhouette=agg(sils), complexity=(comp, 0.0))
