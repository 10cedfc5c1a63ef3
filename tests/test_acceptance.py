"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Criterion 11 needs a converted ACM-style dataset directory
(environment variable ACM_DATA_DIR) and is skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from hgsc.affinity import build_affinity, laplacian
from hgsc.encoders import orthogonal_layer
from hgsc.evaluation import kmeans_cluster, concat_representation, linear_probe
from hgsc.graph import build_neighborhoods, load_graph
from hgsc.losses import spectral_loss
from hgsc.synth import SynthSpec, generate
from hgsc.trainer import (TrainConfig, TrainState, build_stack, fit, represent,
                          train_epoch)
from hgsc.verify import (check_qp_agreement, component_count, enumerate_partitions,
                         gradient_check, kyfan_check, ratiocut_check,
                         zero_eig_count)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_closed_form_vs_qp_oracle():
    t0 = time.perf_counter()
    disc = check_qp_agreement(1000, seed=7)
    dt = time.perf_counter() - t0
    report(1, disc <= 1e-6 and dt < 10.0,
           f"max entry gap {disc:.3e} <= 1e-6 over 1000 rows in {dt:.1f}s")


def test_criterion_02_row_stochastic_sparsity():
    rng = np.random.default_rng(0)
    worst_sum, bad_counts = 0.0, 0
    for seed in range(500):
        r = np.random.default_rng(seed)
        n = int(r.integers(8, 40))
        k = int(r.integers(1, min(10, n - 2) + 1))
        H = r.standard_normal((n, int(r.integers(1, 6))))
        S = build_affinity(H, k=k)
        worst_sum = max(worst_sum, float(np.abs(S.row_sums() - 1.0).max()))
        bad_counts += int(((S.weights > 0).sum(axis=1) != k).sum())
    del rng
    report(2, worst_sum <= 1e-9 and bad_counts == 0,
           f"max |rowsum-1| {worst_sum:.2e}, rows with wrong support {bad_counts}, 500 seeds")


def test_criterion_03_orthogonal_layer():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 150))
        c = int(rng.integers(1, min(8, n) + 1))
        P = rng.standard_normal((n, c))
        Y, _ = orthogonal_layer(P)
        worst = max(worst, float(np.abs(Y.T @ Y / n - np.eye(c)).max()))
    report(3, worst < 1e-6, f"max |Y^T Y / n - I| = {worst:.2e} over 200 matrices")


def connected_affinity(rng, n, k):
    for _ in range(80):
        S = build_affinity(rng.standard_normal((n, 2)), k=k)
        if component_count(S) == 1:
            return S
    raise AssertionError("no connected block found")


def test_criterion_04_zero_eigenvalue_multiplicity():
    rng = np.random.default_rng(2)
    results = []
    for m in range(1, 6):
        blocks = [connected_affinity(rng, int(rng.integers(30, 100)), 4)
                  for _ in range(m)]
        n_tot = sum(b.n for b in blocks)
        assert n_tot <= 500
        L = np.zeros((n_tot, n_tot))
        at = 0
        for b in blocks:
            d = laplacian(b).toarray()
            L[at:at + b.n, at:at + b.n] = d
            at += b.n
        results.append((m, zero_eig_count(L, 1e-8)))
    ok = all(count == m for m, count in results)
    report(4, ok, f"block counts {results}")


def test_criterion_05_kyfan_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        c = int(rng.integers(1, min(5, n) + 1))
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        L = np.diag(W.sum(axis=1)) - W
        worst = max(worst, kyfan_check(L, c))
    report(5, worst < 1e-8, f"max discrepancy {worst:.2e} over 100 Laplacians")


def test_criterion_06_ratiocut_trace_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    n_checked = 0
    for n in range(2, 9):
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        for partition in enumerate_partitions(n, 3):
            trace, cut = ratiocut_check(W, partition)
            worst = max(worst, abs(trace - cut))
            n_checked += 1
    report(6, worst < 1e-10,
           f"max |trace - cut| = {worst:.2e} over {n_checked} partitions, n <= 8")


def test_criterion_07_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(20):
        for term in ("spectral", "node", "cluster", "total"):
            worst = max(worst, gradient_check(term, seed=2000 + 31 * s))
    dt = time.perf_counter() - t0
    report(7, worst < 1e-4 and dt < 120.0,
           f"max rel err {worst:.2e} over 20 seeds x 4 terms in {dt:.0f}s")


def test_criterion_08_spectral_trace_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(8, 64))
        c = int(rng.integers(1, 6))
        S = build_affinity(rng.standard_normal((n, 3)), k=min(5, n - 2))
        Y = rng.standard_normal((n, c))
        value, _, _ = spectral_loss(S, Y, gamma=0.0)
        L = laplacian(S).toarray()
        worst = max(worst, abs(value - 2.0 / n**2 * np.trace(Y.T @ L @ Y)))
    report(8, worst < 1e-9, f"max |sum form - trace form| = {worst:.2e}")


PLANTED = dict(n=300, c=3, feature_dim=16, aux_count=150, aux_feature_dim=8,
               relations=2, edges_per_node=5, separation=7.5, noise=0.9)
PLANTED_CFG = dict(c=3, d1=64, d2=16, k=6, mu=0.01, delta=0.01, beta=5.0,
                   gamma=1e-2, lr=1e-2, max_epochs=400, patience=60)


def test_criterion_09_planted_partition_end_to_end():
    t0 = time.perf_counter()
    intras, nmis, comps = [], [], []
    for seed in range(5):
        g = generate(SynthSpec(seed=seed, **PLANTED))
        nb = build_neighborhoods(g)
        cfg = TrainConfig(seed=seed, **PLANTED_CFG)
        result = fit(g, cfg, nb)
        S = result.S
        labels = g.labels
        intra = sum(S.weights[i][labels[S.indices[i]] == labels[i]].sum()
                    for i in range(S.n)) / S.n
        intras.append(intra)
        _, _, Z, Zt = represent(result.stack, g, nb, cfg, S)[0]
        v_nmi, _, _ = kmeans_cluster(concat_representation(Z, Zt), labels, 3, seed=0)
        nmis.append(v_nmi)
        comps.append(zero_eig_count(laplacian(S).toarray(), 1e-6))
    dt = time.perf_counter() - t0
    n_three = sum(1 for c in comps if c == 3)
    detail = (f"intra mass min {min(intras):.3f} (need >= 0.95), "
              f"kmeans NMI min {min(nmis):.3f} (need >= 0.9), "
              f"components {comps} -> {n_three}/5 equal 3 (need >= 4), {dt:.0f}s")
    ok = (min(intras) >= 0.95 and min(nmis) >= 0.9 and n_three >= 4
          and dt < 300.0)
    report(9, ok, detail)


SCALING = dict(c=3, feature_dim=3, aux_feature_dim=4, relations=2,
               edges_per_node=12, separation=10.0, noise=1.0)
SCALING_CFG = dict(c=3, d1=160, d2=96, k=8, mu=0.01, delta=0.01, beta=0.0,
                   gamma=1e-2, lr=1e-2, patience=60)


def median_epoch_seconds(n, epochs=5):
    g = generate(SynthSpec(n=n, aux_count=n // 2, seed=0, **SCALING))
    nb = build_neighborhoods(g)
    cfg = TrainConfig(seed=0, max_epochs=epochs + 1, **SCALING_CFG)
    stack = build_stack(g, nb, cfg)
    state = TrainState()
    train_epoch(state, g, nb, stack, cfg)  # warmup (allocations, BLAS)
    times = []
    for _ in range(epochs):
        t0 = time.perf_counter()
        train_epoch(state, g, nb, stack, cfg)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_criterion_10_epoch_scaling():
    t4 = median_epoch_seconds(4000)
    t8 = median_epoch_seconds(8000)
    ratio = t8 / t4
    report(10, ratio <= 2.5,
           f"median epoch 4k={t4:.3f}s 8k={t8:.3f}s ratio={ratio:.2f} (need <= 2.5)")


def test_criterion_11_acm_reproduction():
    data_dir = os.environ.get("ACM_DATA_DIR")
    if not data_dir:
        pytest.skip("criterion 11 (soft): set ACM_DATA_DIR to a converted "
                    "ACM dataset directory to run the dataset-scale check")
    g = load_graph(data_dir)
    nb = build_neighborhoods(g)
    cfg = TrainConfig(c=3, d1=512, d2=64, k=10, mu=0.01, delta=0.01, beta=1.0,
                      gamma=1e-2, lr=1e-2, max_epochs=200, patience=30, seed=0)
    t0 = time.perf_counter()
    result = fit(g, cfg, nb)
    train_time = time.perf_counter() - t0
    _, _, Z, Zt = represent(result.stack, g, nb, cfg, result.S)[0]
    X = concat_representation(Z, Zt)
    (macro, _), _ = linear_probe(X, g.labels, g.train_idx, g.test_idx, seed=0)
    report(11, train_time < 3600.0 and macro >= 0.89,
           f"train time {train_time:.0f}s (< 3600), macro-F1 {macro:.3f} (>= 0.890)")
