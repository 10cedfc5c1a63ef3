import logging

import numpy as np
import pytest

from hgsc.affinity import AffinityMatrix, build_affinity, laplacian
from hgsc.losses import (LossReport, cluster_consistency, cluster_pool,
                         node_consistency, spectral_loss, total_objective,
                         write_log)


def pair_affinity():
    """Two nodes, each row weight 1 on the other."""
    return AffinityMatrix(n=2, k=1, indices=np.array([[1], [0]]),
                          weights=np.ones((2, 1)),
                          degenerate=np.zeros(2, dtype=bool))


def spectral_first_term_oracle(S, Y):
    """Direct summation of (1/n^2) sum_ij s_ij |y_i - y_j|^2."""
    n = S.n
    total = 0.0
    for i in range(n):
        for j, w in zip(S.indices[i], S.weights[i]):
            total += w * np.sum((Y[i] - Y[j]) ** 2)
    return total / n**2


# ------------------------------------------------------------ spectral loss

def test_spectral_identical_rows_zero_first_term():
    S = build_affinity(np.random.default_rng(0).standard_normal((8, 2)), k=2)
    Y = np.tile([1.0, 2.0, 3.0], (8, 1))
    value, _, h = spectral_loss(S, Y, gamma=0.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_spectral_reference_two_nodes():
    S = pair_affinity()
    Y = np.eye(2)
    for gamma in (0.0, 0.7, 2.0):
        value, _, h = spectral_loss(S, Y, gamma)
        assert h == pytest.approx(np.log(2.0))
        assert value == pytest.approx(1.0 - gamma * np.log(2.0))


def test_spectral_uniform_columns_max_entropy():
    rng = np.random.default_rng(1)
    n, c = 9, 3
    Y = rng.standard_normal((n, c))
    Y = Y - Y.mean(axis=0) + 1.0 / c  # every column mean exactly 1/c
    S = build_affinity(rng.standard_normal((n, 2)), k=2)
    _, _, h = spectral_loss(S, Y, gamma=1.0)
    assert h == pytest.approx(np.log(3.0))


def test_spectral_trace_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(6, 64))
        c = int(rng.integers(1, 6))
        S = build_affinity(rng.standard_normal((n, 3)), k=min(4, n - 2))
        Y = rng.standard_normal((n, c))
        value, _, _ = spectral_loss(S, Y, gamma=0.0)
        L = laplacian(S).toarray()
        assert abs(value - 2.0 / n**2 * np.trace(Y.T @ L @ Y)) < 1e-9
        assert abs(value - spectral_first_term_oracle(S, Y)) < 1e-9
        assert value >= 0.0


def test_spectral_gradient_fd():
    rng = np.random.default_rng(3)
    n, c = 7, 3
    S = build_affinity(rng.standard_normal((n, 2)), k=2)
    Y = rng.standard_normal((n, c)) + 0.5
    gamma = 0.8
    _, grad, _ = spectral_loss(S, Y, gamma)
    h = 1e-6
    for _ in range(25):
        i, j = rng.integers(n), rng.integers(c)
        orig = Y[i, j]
        Y[i, j] = orig + h
        f_plus, _, _ = spectral_loss(S, Y, gamma)
        Y[i, j] = orig - h
        f_minus, _, _ = spectral_loss(S, Y, gamma)
        Y[i, j] = orig
        fd = (f_plus - f_minus) / (2 * h)
        assert abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6) < 1e-4


def test_spectral_entropy_clamp_handles_negative_columns():
    S = pair_affinity()
    Y = np.array([[-1.0, 1.0], [-1.0, 1.0]])  # first column mean negative
    value, grad, h = spectral_loss(S, Y, gamma=1.0)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad[:, 0], 0.0)  # clamped column carries no gradient


def test_spectral_rejects_y_of_another_row_count():
    with pytest.raises(ValueError, match="Y has 3 rows, affinity is over 2 nodes"):
        spectral_loss(pair_affinity(), np.ones((3, 2)), gamma=1.0)


# --------------------------------------------------------- node consistency

def test_node_consistency_zero_inputs():
    Q = np.zeros((5, 2))
    for eta in (0.5, 1.0, 3.0):
        value, gQ, gQt = node_consistency(Q, Q, eta)
        assert value == pytest.approx(eta * np.log(4.0))


def test_node_consistency_equal_inputs_first_term_zero():
    rng = np.random.default_rng(4)
    Q = rng.standard_normal((6, 3))
    value, _, _ = node_consistency(Q, Q.copy(), eta=0.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_node_consistency_matches_brute_force():
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((3, 2))
    Qt = rng.standard_normal((3, 2))
    eta = 0.9
    value, _, _ = node_consistency(Q, Qt, eta)
    # brute-force double loop oracle
    fro = sum((Q[i, j] - Qt[i, j]) ** 2 for i in range(3) for j in range(2))
    C = Q.T @ Q + Qt.T @ Qt
    lse = np.log(sum(np.exp(C[i, j]) for i in range(2) for j in range(2)))
    assert abs(value - (fro + eta * lse)) < 1e-9


def test_node_consistency_gradient_fd():
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((4, 3))
    Qt = rng.standard_normal((4, 3))
    eta = 0.7
    _, gQ, gQt = node_consistency(Q, Qt, eta)
    h = 1e-6
    for M, G in ((Q, gQ), (Qt, gQt)):
        for _ in range(15):
            i, j = rng.integers(4), rng.integers(3)
            orig = M[i, j]
            M[i, j] = orig + h
            f_plus = node_consistency(Q, Qt, eta)[0]
            M[i, j] = orig - h
            f_minus = node_consistency(Q, Qt, eta)[0]
            M[i, j] = orig
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - G[i, j]) / max(abs(fd), abs(G[i, j]), 1e-6) < 1e-4


def test_node_consistency_lse_stable_for_large_values():
    Q = np.full((4, 2), 40.0)
    value, _, _ = node_consistency(Q, Q, eta=1.0)
    assert np.isfinite(value)


def test_node_consistency_shape_mismatch():
    with pytest.raises(ValueError):
        node_consistency(np.zeros((3, 2)), np.zeros((3, 3)), 1.0)


# -------------------------------------------------------------- pooling

def test_cluster_pool_mean():
    Q = np.array([[1.0, 0.0], [0.0, 1.0]])
    Qhat, counts = cluster_pool(Q, np.array([0, 0]), c=1)
    assert np.allclose(Qhat[0], [0.5, 0.5])
    assert counts.tolist() == [2]


def test_cluster_pool_single_cluster_column_mean():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((6, 3))
    Qhat, _ = cluster_pool(Q, np.zeros(6, dtype=int), c=1)
    assert np.allclose(Qhat[0], Q.mean(axis=0))


def test_cluster_pool_matches_group_by_oracle():
    rng = np.random.default_rng(8)
    Q = rng.standard_normal((20, 4))
    yhat = rng.integers(0, 5, size=20)
    Qhat, counts = cluster_pool(Q, yhat, c=5)
    groups = {}
    for i, y in enumerate(yhat):
        groups.setdefault(int(y), []).append(Q[i])
    for j in range(5):
        if j in groups:
            assert np.abs(Qhat[j] - np.mean(groups[j], axis=0)).max() < 1e-12
        else:
            assert np.array_equal(Qhat[j], np.zeros(4))


def test_cluster_pool_empty_cluster_flagged(caplog):
    Q = np.ones((3, 2))
    with caplog.at_level(logging.WARNING, logger="hgsc.losses"):
        Qhat, counts = cluster_pool(Q, np.zeros(3, dtype=int), c=2)
    assert counts.tolist() == [3, 0]
    assert np.array_equal(Qhat[1], np.zeros(2))
    assert any("empty clusters" in r.message for r in caplog.records)


def test_cluster_sums_equal_add_at_bitwise():
    # the loss values feed finite-difference checks that hinge on single
    # ulps, so the per-cluster sums must round exactly as np.add.at does
    rng = np.random.default_rng(9)
    for n, c in ((300, 3), (8000, 3), (50, 6)):
        Q = 1e3 * rng.standard_normal((n, 5))
        yhat = rng.integers(0, c - 1, size=n)  # cluster c-1 stays empty
        Qt = Q + rng.standard_normal((n, 5))
        ref = np.zeros((c, 5))
        np.add.at(ref, yhat, Q)
        counts = np.bincount(yhat, minlength=c)
        ref[:-1] /= counts[:-1, None]
        Qhat, counts = cluster_pool(Q, yhat, c)
        assert np.array_equal(Qhat, ref)
        ref_grad = np.zeros((c, 5))
        np.add.at(ref_grad, yhat, -2.0 * (Qt - ref[yhat]))
        ref_grad[:-1] /= counts[:-1, None]
        _, _, grad_pool = cluster_consistency(Qt, Qhat, yhat, counts)
        assert np.array_equal(grad_pool, ref_grad)
        assert not grad_pool[-1].any()


def test_cluster_pool_indicator_out_of_range():
    for yhat in ([0, -1], [0, 2]):
        with pytest.raises(ValueError, match="cluster indicator out of range"):
            cluster_pool(np.zeros((2, 2)), np.array(yhat), c=2)


# ------------------------------------------------------ cluster consistency

def test_cluster_consistency_zero_when_aligned():
    Qhat = np.array([[1.0, 2.0], [3.0, 4.0]])
    yhat = np.array([0, 1, 1])
    Qt = Qhat[yhat]
    value, _, _ = cluster_consistency(Qt, Qhat, yhat, np.array([1, 2]))
    assert value == pytest.approx(0.0, abs=1e-15)


def test_cluster_consistency_single_node():
    value, _, _ = cluster_consistency(
        np.array([[1.0, 0.0]]), np.zeros((1, 2)), np.array([0]), np.array([1]))
    assert value == pytest.approx(1.0)


def test_cluster_consistency_matches_loop_oracle():
    rng = np.random.default_rng(9)
    Qt = rng.standard_normal((10, 3))
    Qhat = rng.standard_normal((4, 3))
    yhat = rng.integers(0, 4, size=10)
    value, _, _ = cluster_consistency(Qt, Qhat, yhat, np.bincount(yhat, minlength=4))
    oracle = sum(np.sum((Qt[i] - Qhat[yhat[i]]) ** 2) for i in range(10))
    assert abs(value - oracle) < 1e-9


def test_cluster_consistency_gradient_fd():
    # Q reaches the value through its pooled centroids; a row of Q gets the
    # pooled gradient of its own cluster
    rng = np.random.default_rng(10)
    Q = rng.standard_normal((6, 2))
    Qt = rng.standard_normal((6, 2))
    yhat = rng.integers(0, 3, size=6)

    def term():
        Qhat, counts = cluster_pool(Q, yhat, 3)
        return cluster_consistency(Qt, Qhat, yhat, counts)

    _, gQt, g_pool = term()
    h = 1e-6
    for M, G in ((Qt, gQt), (Q, g_pool[yhat])):
        flat, gflat = M.ravel(), G.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = term()[0]
            flat[idx] = orig - h
            f_minus = term()[0]
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6) < 1e-4


# ---------------------------------------------------------- total objective

def test_total_objective_weights():
    assert total_objective(1.0, 2.0, 3.0, 0.0, 0.0) == 1.0
    assert total_objective(1.0, 2.0, 3.0, 0.5, 2.0) == 8.0


def test_total_objective_scale_in_mu():
    base = total_objective(1.0, 2.0, 3.0, 1.0, 1.0)
    doubled = total_objective(1.0, 2.0, 3.0, 2.0, 1.0)
    assert doubled - base == pytest.approx(2.0)


def test_loss_report_row_and_log(tmp_path):
    rep = LossReport(l_sp=1.0, l_nc=2.0, l_cc=3.0, total=6.0, entropy=0.5)
    assert rep.total == rep.l_sp + 1.0 * rep.l_nc + 1.0 * rep.l_cc
    path = tmp_path / "log.tsv"
    write_log(str(path), [(1, rep), (2, rep)])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("epoch\t")
    assert len(lines) == 3
