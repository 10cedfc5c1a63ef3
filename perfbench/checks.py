"""Output checks. Each returns None when the output is right, else a reason.

They run outside the timed region; a failed check marks its operation as
failed, which feeds ``failed``/``ok_frac``.
"""

from __future__ import annotations

import math

import numpy as np

# criterion 2: |row sum - 1| bound; criterion 9 and eval-cli: quality floors
ROW_SUM_TOL = 1e-9
MIN_INTRA_MASS = 0.95
MIN_NMI = 0.9
MIN_MACRO_F1 = 0.9
EVAL_METRICS = ("macro_f1", "micro_f1", "nmi", "ari", "silhouette", "complexity")


def affinity_problem(S, k: int) -> str | None:
    """S must be row-stochastic with exactly k positive weights per row."""
    n = S.n
    if S.indices.shape != (n, k) or S.weights.shape != (n, k):
        return f"S has shape {S.indices.shape}/{S.weights.shape}, want ({n}, {k})"
    w = S.weights
    if not np.isfinite(w).all() or (w < 0).any():
        return "S has negative or non-finite weights"
    worst = float(np.abs(w.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOL:
        return f"S row sums off by {worst:.3e}"
    bad = int(((w > 0).sum(axis=1) != k).sum())
    if bad:
        return f"{bad} rows of S lack {k}-point support"
    idx = S.indices
    if idx.min() < 0 or idx.max() >= n:
        return "S has out-of-range neighbor indices"
    if (idx == np.arange(n)[:, None]).any():
        return "S has self neighbors"
    srt = np.sort(idx, axis=1)
    if (srt[:, 1:] == srt[:, :-1]).any():
        return "S has repeated neighbors in a row"
    return None


def brute_force_neighbors(X: np.ndarray, i: int, k: int):
    """k nearest rows to row i by exact squared distance, ties to lower index."""
    diff = X - X[i]
    d = np.einsum("ij,ij->i", diff, diff)
    d[i] = np.inf
    order = np.lexsort((np.arange(X.shape[0]), d))[:k]
    return order, d


def neighbor_problem(X: np.ndarray, S, rows) -> str | None:
    """Sampled rows of S must hold the exact k nearest neighbors on X.

    A row passes when it equals the brute-force row. Otherwise it passes
    only if, position by position, its exact distances equal the
    brute-force ones to within rounding: the program ranks by expanded
    distances, which may order a near-tie differently.
    """
    for i in rows:
        want, d = brute_force_neighbors(X, int(i), S.k)
        got = S.indices[i]
        if np.array_equal(got, want):
            continue
        tol = 1e-9 * max(1.0, float(X[i] @ X[i]), float(d[want[-1]]))
        if np.abs(d[got] - d[want]).max() > tol:
            return f"row {int(i)}: neighbors {got.tolist()} != brute force {want.tolist()}"
    return None


def sample_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(count, n), replace=False))


def intra_mass(S, labels: np.ndarray) -> float:
    """Mean affinity weight that stays inside a node's own planted block."""
    same = labels[S.indices] == labels[:, None]
    return float((S.weights * same).sum() / S.n)


def planted_problem(intra: float, nmi: float) -> str | None:
    if intra < MIN_INTRA_MASS or nmi < MIN_NMI:
        return (f"planted result intra mass {intra:.3f} (need >= {MIN_INTRA_MASS}), "
                f"NMI {nmi:.3f} (need >= {MIN_NMI})")
    return None


def eval_report_problem(path: str) -> str | None:
    """eval_report.tsv must list every metric, finite, at planted-data quality."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        return f"cannot read eval report: {e}"
    if not lines or lines[0] != "metric\tmean\tstd":
        return "eval report has no header"
    values = {}
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 3:
            return f"malformed eval report line {line!r}"
        try:
            mean, std = float(parts[1]), float(parts[2])
        except ValueError:
            return f"non-numeric eval report line {line!r}"
        if not (math.isfinite(mean) and math.isfinite(std)):
            return f"non-finite eval metric {parts[0]}"
        values[parts[0]] = mean
    missing = [m for m in EVAL_METRICS if m not in values]
    if missing:
        return f"eval report lacks {missing}"
    if values["macro_f1"] < MIN_MACRO_F1 or values["nmi"] < MIN_NMI:
        return (f"eval macro-F1 {values['macro_f1']:.3f} / NMI {values['nmi']:.3f} "
                f"below planted-data level")
    return None
