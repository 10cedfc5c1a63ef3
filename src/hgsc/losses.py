"""Training objective: spectral term, dual consistency terms, and their sum.

Every loss returns its value together with analytic gradients for the
matrix inputs that carry gradient. Hard cluster indicators are constants
in all backward passes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .affinity import AffinityMatrix

log = logging.getLogger(__name__)

ENTROPY_EPS = 1e-8


@dataclass
class LossReport:
    """Scalars of one objective evaluation; total = l_sp + mu*l_nc + delta*l_cc.

    A report holds no arrays: ``fit`` keeps one per epoch, and the loss
    gradients stay in the ``TrainStepper`` cache that the backward frees.
    """

    l_sp: float
    l_nc: float
    l_cc: float
    total: float
    entropy: float

    def row(self, epoch: int) -> str:
        return (f"{epoch}\t{self.l_sp:.12g}\t{self.l_nc:.12g}\t{self.l_cc:.12g}"
                f"\t{self.total:.12g}\t{self.entropy:.12g}")

    LOG_HEADER = "epoch\tl_sp\tl_nc\tl_cc\ttotal\tentropy"


def assignment_entropy(Y: np.ndarray):
    """Entropy of the clamped column means of Y, with its gradient."""
    n = Y.shape[0]
    p = Y.mean(axis=0)
    clamped = p < ENTROPY_EPS
    pc = np.maximum(p, ENTROPY_EPS)
    h = float(-(pc * np.log(pc)).sum())
    # zero gradient through clamped columns
    dh_dp = np.where(clamped, 0.0, -(np.log(pc) + 1.0))
    grad_Y = np.broadcast_to(dh_dp / n, Y.shape)
    return h, grad_Y


def spectral_loss(S: AffinityMatrix, Y: np.ndarray, gamma: float):
    """Affinity-weighted assignment smoothness minus entropy regularizer.

    value = (1/n^2) sum_ij s_ij |y_i - y_j|^2 - gamma H(Y). The first term
    equals (2/n^2) Tr(Y^T L Y) with L = D - (S + S^T)/2, so its gradient is
    (4/n^2) L Y, applied here without building L.
    Returns (value, grad_Y, entropy).
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = S.n
    if Y.shape[0] != n:
        raise ValueError(f"Y has {Y.shape[0]} rows, affinity is over {n} nodes")
    diff = Y[:, None, :] - Y[S.indices]
    smooth = float((S.weights * np.einsum("ikc,ikc->ik", diff, diff)).sum()) / n**2
    grad = (4.0 / n**2) * (S.sym_degree[:, None] * Y - 0.5 * (S.csr @ Y + S.csr.T @ Y))
    h, grad_h = assignment_entropy(Y)
    value = smooth - gamma * h
    grad = grad - gamma * grad_h
    return value, grad, h


def node_consistency(Q: np.ndarray, Qt: np.ndarray, eta: float):
    """Frobenius alignment plus log-sum-exp decorrelation.

    value = |Q - Qt|_F^2 + eta log sum_ij exp(C_ij), C = Q^T Q + Qt^T Qt.
    The log-sum-exp is max-shifted. Returns (value, grad_Q, grad_Qt).
    """
    Q = np.asarray(Q, dtype=np.float64)
    Qt = np.asarray(Qt, dtype=np.float64)
    if Q.shape != Qt.shape:
        raise ValueError(f"shape mismatch: {Q.shape} vs {Qt.shape}")
    Rdiff = Q - Qt
    fro = float((Rdiff * Rdiff).sum())
    C = Q.T @ Q + Qt.T @ Qt
    cmax = C.max()
    E = np.exp(C - cmax)
    Z = E.sum()
    lse = float(cmax + np.log(Z))
    W = E / Z
    Wsym = W + W.T
    Rdiff *= 2.0  # the Frobenius term's gradient in Q; its negation is Qt's
    grad_Qt = eta * (Qt @ Wsym) - Rdiff
    Rdiff += eta * (Q @ Wsym)
    return fro + eta * lse, Rdiff, grad_Qt


def _cluster_means(V: np.ndarray, yhat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(c, d) means of the rows of V per cluster, c = ``counts.size``; an
    empty cluster's row is 0 (its sum divided by max(count, 1)).

    Each sum adds its rows in row order, as ``np.add.at`` does, so the
    sums are bitwise the same.
    """
    sums = np.stack([V[yhat == j].sum(axis=0) for j in range(counts.size)])
    sums /= np.maximum(counts, 1)[:, None]
    return sums


def cluster_pool(Q: np.ndarray, yhat: np.ndarray, c: int):
    """Average-pool rows of Q by cluster indicator.

    An indicator outside [0, c) raises ValueError. Empty clusters yield a
    zero row; their count stays zero and a warning is logged. Returns
    (Qhat, counts).
    """
    Q = np.asarray(Q, dtype=np.float64)
    yhat = np.asarray(yhat)
    if yhat.min(initial=0) < 0 or yhat.max(initial=0) >= c:
        raise ValueError("cluster indicator out of range")
    counts = np.bincount(yhat, minlength=c).astype(np.int64)
    if not counts.all():
        log.warning("empty clusters: %s", np.nonzero(counts == 0)[0].tolist())
    return _cluster_means(Q, yhat, counts), counts


def cluster_consistency(Qt: np.ndarray, Qhat: np.ndarray, yhat: np.ndarray,
                        counts: np.ndarray):
    """Squared alignment of each row of Qt to its cluster centroid.

    value = sum_i |qt_i - qhat_{y_i}|^2, with ``(Qhat, counts)`` from
    ``cluster_pool`` over the same ``yhat``, which is constant. Returns
    (value, grad_Qt, grad_pool): row j of grad_pool is the gradient reaching
    each row of Q pooled into centroid j, since qhat_j is their mean.
    """
    Qt = np.asarray(Qt, dtype=np.float64)
    Qhat = np.asarray(Qhat, dtype=np.float64)
    yhat = np.asarray(yhat)
    diff = Qt - Qhat[yhat]
    value = float((diff * diff).sum())
    diff *= 2.0  # grad_Qt; negation is exact, so grad_pool is the mean of -diff bit for bit
    return value, diff, -_cluster_means(diff, yhat, counts)


def total_objective(l_sp: float, l_nc: float, l_cc: float,
                    mu: float, delta: float) -> float:
    return l_sp + mu * l_nc + delta * l_cc


def write_log(path: str, reports: list[tuple[int, LossReport]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LossReport.LOG_HEADER + "\n")
        for epoch, rep in reports:
            fh.write(rep.row(epoch) + "\n")
