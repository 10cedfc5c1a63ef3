"""Downstream evaluation of learned representations.

Linear probe classification (macro/micro F1), k-means clustering scored
by NMI and adjusted Rand index, silhouette, and a Davies-Bouldin-style
scatter/separation diagnostic. The probe and k-means are pinned
implementations (full-batch gradient descent, Lloyd with k-means++) so
results are comparable across runs and platforms.
"""

from __future__ import annotations

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
    Z = np.asarray(Z)
    Zt = np.asarray(Zt)
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(X: np.ndarray, labels: np.ndarray, train_idx: np.ndarray,
                 test_idx: np.ndarray, repeats: int = 5, iters: int = 1000,
                 lr: float = 0.01, seed: int = 0):
    """Multinomial logistic regression on frozen features.

    Full-batch gradient descent with a fixed iteration count; inputs are
    standardized on training statistics. The initialization is reseeded
    per repeat; returns ((macro mean, std), (micro mean, std)).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    c = int(labels.max()) + 1
    tr_labels = labels[train_idx]
    present = np.bincount(tr_labels, minlength=c)
    if (present == 0).any():
        missing = int(np.argmax(present == 0))
        raise EvalError(f"class {missing} absent from training split")
    mean = X[train_idx].mean(axis=0)
    std = X[train_idx].std(axis=0)
    std[std == 0.0] = 1.0
    Xtr = (X[train_idx] - mean) / std
    Xte = (X[test_idx] - mean) / std
    onehot = np.zeros((len(train_idx), c))
    onehot[np.arange(len(train_idx)), tr_labels] = 1.0
    macros, micros = [], []
    for rep in range(repeats):
        rng = np.random.default_rng(seed + rep)
        W = 0.01 * rng.standard_normal((X.shape[1], c))
        b = np.zeros(c)
        for _ in range(iters):
            probs = _softmax(Xtr @ W + b)
            g = (probs - onehot) / len(train_idx)
            W -= lr * (Xtr.T @ g)
            b -= lr * g.sum(axis=0)
        pred = np.argmax(Xte @ W + b, axis=1)
        ma, mi = f1_scores(labels[test_idx], pred, c)
        macros.append(ma)
        micros.append(mi)
    return ((float(np.mean(macros)), float(np.std(macros))),
            (float(np.mean(micros)), float(np.std(micros))))


def _kmeans_pp_init(X: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((c, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            pick = rng.choice(n, p=probs)
        else:
            pick = int(rng.integers(n))
        centers[j] = X[pick]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(X: np.ndarray, c: int, restarts: int = 10, seed: int = 0,
           max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding; best inertia wins.

    Empty clusters are re-seeded at the point farthest from its assigned
    centroid. Deterministic given the seed. Returns (labels, inertia).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < c:
        raise EvalError(f"cannot form {c} clusters from {n} points")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed * 1000 + r)
        centers = _kmeans_pp_init(X, c, rng)
        assign = None
        for _ in range(max_iter):
            D = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(D, axis=1)
            mind = D[np.arange(n), new_assign]
            counts = np.bincount(new_assign, minlength=c)
            for empty in np.nonzero(counts == 0)[0]:
                far = int(np.argmax(mind))
                centers[empty] = X[far]
                mind[far] = -np.inf
                new_assign[far] = empty
            if assign is not None and np.array_equal(assign, new_assign):
                break
            assign = new_assign
            for j in range(c):
                members = assign == j
                if members.any():
                    centers[j] = X[members].mean(axis=0)
        D = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(D, axis=1)
        inertia = float(D[np.arange(n), assign].sum())
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return best


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    ulab_a, ia = np.unique(a, return_inverse=True)
    ulab_b, ib = np.unique(b, return_inverse=True)
    if ulab_a.size == 1 and ulab_b.size == 1:
        return 1.0
    cont = np.zeros((ulab_a.size, ulab_b.size))
    np.add.at(cont, (ia, ib), 1.0)
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
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    cont = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(cont, (ia, ib), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(n)
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


def silhouette(X: np.ndarray, assignment: np.ndarray) -> float:
    """Mean silhouette (b - a)/max(a, b) under the Euclidean metric.

    Distances are exact (by subtraction); every node's per-cluster distance
    sums come from one product with the 0/1 membership matrix. Nodes in a
    singleton cluster, and nodes with a = b = 0, score 0.
    """
    return _silhouette(_distances(X), assignment)


def _distances(X: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix of the rows of X, by subtraction."""
    # imported here: scipy.spatial costs ~6 MiB resident, which importing
    # hgsc and training should not pay
    from scipy.spatial.distance import cdist

    X = np.asarray(X, dtype=np.float64)
    return cdist(X, X)


def _silhouette(D: np.ndarray, assignment: np.ndarray) -> float:
    """Mean silhouette from the (n, n) distance matrix D."""
    clusters, inv = np.unique(np.asarray(assignment), return_inverse=True)
    if clusters.size < 2:
        raise EvalError("silhouette needs at least 2 clusters")
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
    scores = np.divide(b - a, m, out=np.zeros(n), where=(n_own > 1) & (m > 0.0))
    return float(scores.mean())


def complexity_measure(O: np.ndarray, labels: np.ndarray) -> float:
    """Scatter-to-separation ratio over class pairs; lower is better.

    C = (1/K) sum_i max_{j != i} (S_i + S_j) / M_ij with S_i the root mean
    squared deviation from the class centroid and M_ij the centroid
    distance. Coincident centroids are an error.
    """
    O = np.asarray(O, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    k = classes.size
    if k < 2:
        raise EvalError("complexity measure needs at least 2 classes")
    mus = np.stack([O[labels == c].mean(axis=0) for c in classes])
    scat = np.array([
        np.sqrt(((O[labels == c] - mus[i]) ** 2).sum(axis=1).mean())
        for i, c in enumerate(classes)])
    ratios = np.zeros(k)
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            sep = np.linalg.norm(mus[i] - mus[j])
            if sep == 0.0:
                raise EvalError(f"coincident centroids for classes {classes[i]} and {classes[j]}")
            worst = max(worst, (scat[i] + scat[j]) / sep)
        ratios[i] = worst
    return float(ratios.mean())


def evaluate(Z: np.ndarray, Zt: np.ndarray, labels: np.ndarray,
             train_idx: np.ndarray, test_idx: np.ndarray, c: int,
             repeats: int = 5, seed: int = 0) -> EvalReport:
    """Full downstream evaluation on [Z | Zt]."""
    X = concat_representation(Z, Zt)
    (ma, mi) = linear_probe(X, labels, train_idx, test_idx, repeats=repeats, seed=seed)
    D = _distances(X)  # one matrix scores every repeat's silhouette
    nmis, aris, sils = [], [], []
    for rep in range(repeats):
        v_nmi, v_ari, assign = kmeans_cluster(X, labels, c, restarts=10, seed=seed + rep)
        nmis.append(v_nmi)
        aris.append(v_ari)
        sils.append(_silhouette(D, assign) if np.unique(assign).size > 1 else 0.0)
    comp = complexity_measure(X, labels)
    agg = lambda xs: (float(np.mean(xs)), float(np.std(xs)))
    return EvalReport(macro_f1=ma, micro_f1=mi, nmi=agg(nmis), ari=agg(aris),
                      silhouette=agg(sils), complexity=(comp, 0.0))
