import os

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from hgsc.encoders import (DenseLayer, EncoderConfigError,
                           RankDeficientError, _relation_input, cluster_assign,
                           hetero_encode, hetero_backward, orthogonal_backward,
                           orthogonal_layer)
from hgsc.graph import (HeteroGraph, Relation, RelationNeighborhood,
                        build_neighborhoods)
from hgsc.synth import SynthSpec, generate
from hgsc.trainer import (TrainConfig, build_stack, load_checkpoint,
                          save_checkpoint)


def make_layer(W, b=None, activation="relu"):
    layer = DenseLayer(W.shape[0], W.shape[1], activation)
    layer.W = np.asarray(W, dtype=np.float64)
    layer.b = np.zeros(W.shape[1]) if b is None else np.asarray(b, dtype=np.float64)
    layer.zero_grads()
    return layer


def gram_schmidt(P):
    """Independent QR oracle (classical Gram-Schmidt, positive diagonal)."""
    Q = np.zeros_like(P, dtype=np.float64)
    for j in range(P.shape[1]):
        v = P[:, j].astype(np.float64)
        for i in range(j):
            v = v - (P[:, j] @ Q[:, i]) * Q[:, i]
        Q[:, j] = v / np.linalg.norm(v)
    return Q


# ------------------------------------------------------------- dense layer

def test_dense_layer_zero_weights():
    X = np.random.default_rng(1).standard_normal((4, 3))
    out, _ = make_layer(np.zeros((3, 2))).forward(X)
    assert np.array_equal(out, np.zeros((4, 2)))


def test_mlp_dim_mismatch():
    with pytest.raises(EncoderConfigError):
        make_layer(np.eye(3)).forward(np.zeros((2, 4)))


def test_dense_layer_rejects_unknown_activation():
    with pytest.raises(EncoderConfigError, match="unknown activation 'tanh'"):
        DenseLayer(3, 2, "tanh")


def test_dense_layer_backward_rejects_gradient_of_another_shape():
    layer = make_layer(np.eye(3))
    _, cache = layer.forward(np.ones((2, 3)))
    with pytest.raises(EncoderConfigError, match="upstream gradient shape"):
        layer.backward(cache, np.ones((2, 2)))


# -------------------------------------------------------- orthogonal layer

def test_orthogonal_layer_orthonormal_input():
    P = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    Y, R = orthogonal_layer(P)
    assert np.allclose(R, np.eye(2), atol=1e-12)
    assert np.allclose(Y, 2.0 * P, atol=1e-12)
    assert np.allclose(Y.T @ Y, 4.0 * np.eye(2), atol=1e-10)


def test_orthogonal_layer_reference_matrix():
    P = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    Y, R = orthogonal_layer(P)
    n = 4
    assert np.abs(Y.T @ Y - n * np.eye(2)).max() < 1e-6 * n
    # Gram-Schmidt oracle: Y / sqrt(n) equals the orthonormal factor
    Q = gram_schmidt(P)
    assert np.allclose(Y / np.sqrt(n), Q, atol=1e-10)


def test_orthogonal_layer_duplicate_columns():
    P = np.ones((5, 2))
    with pytest.raises(RankDeficientError):
        orthogonal_layer(P)


def test_orthogonal_layer_span_preserved():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, c = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        P = rng.standard_normal((n, c))
        Y, _ = orthogonal_layer(P)
        # projection of Y onto span(P) leaves no residual
        Qp, _ = np.linalg.qr(P)
        resid = Y - Qp @ (Qp.T @ Y)
        assert np.abs(resid).max() < 1e-8
        assert np.abs(Y.T @ Y / n - np.eye(c)).max() < 1e-6


def test_orthogonal_layer_equals_p_times_r_inverse():
    rng = np.random.default_rng(5)
    flipped = np.abs(rng.standard_normal((10, 3))) + 0.2
    flipped[:, 1] *= -1.0
    cases = [rng.standard_normal((int(rng.integers(4, 40)), int(rng.integers(1, 6))))
             for _ in range(10)] + [flipped]
    for P in cases:
        Y, R = orthogonal_layer(P)
        # Y = sqrt(n) P R^-1, i.e. R^T Y^T = sqrt(n) P^T
        ref = np.sqrt(P.shape[0]) * np.linalg.solve(R.T, P.T).T
        assert np.abs(Y - ref).max() <= 1e-12 * np.abs(ref).max()
    # the flipped column's raw QR factor had a negative sum
    assert (np.linalg.qr(flipped)[0].sum(axis=0) < 0.0).any()


def check_orthogonal_backward(P, rng, h=1e-6):
    """orthogonal_backward against central differences of orthogonal_layer
    for the linear functional <W, Y>; returns the analytic gradient."""
    W = rng.standard_normal(P.shape)
    _, R = orthogonal_layer(P)
    d_P = orthogonal_backward(W, P, R)
    for idx in np.ndindex(*P.shape):
        Pp, Pm = P.copy(), P.copy()
        Pp[idx] += h
        Pm[idx] -= h
        fd = ((W * orthogonal_layer(Pp)[0]).sum()
              - (W * orthogonal_layer(Pm)[0]).sum()) / (2 * h)
        assert abs(fd - d_P[idx]) < 1e-6 * max(1.0, abs(fd))
    # Y does not change when a column of P is rescaled
    scale_dirs = (d_P * P).sum(axis=0)
    assert np.abs(scale_dirs).max() < 1e-10 * np.abs(d_P).max() * np.abs(P).max()
    return d_P


def test_orthogonal_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n, c = int(rng.integers(4, 15)), int(rng.integers(2, 5))
        check_orthogonal_backward(rng.standard_normal((n, c)), rng)


def test_orthogonal_backward_single_column():
    rng = np.random.default_rng(12)
    P = rng.standard_normal((9, 1)) + 0.3
    check_orthogonal_backward(P, rng)
    # c = 1: Y = sqrt(n) P / r with r = +-|P|, so the gradient is the
    # upstream one with its component along Y removed, over r
    G = rng.standard_normal(P.shape)
    Y, R = orthogonal_layer(P)
    root_n = np.sqrt(P.shape[0])
    q = Y / root_n
    expected = root_n * (G - q * float(q[:, 0] @ G[:, 0])) / R[0, 0]
    assert np.allclose(orthogonal_backward(G, P, R), expected, atol=1e-12)


def test_orthogonal_backward_through_sign_flip():
    rng = np.random.default_rng(13)
    P = np.abs(rng.standard_normal((10, 3))) + 0.2
    P[:, 1] *= -1.0
    Q_raw, _ = np.linalg.qr(P)
    Y, R = orthogonal_layer(P)
    # at least one column of the raw factor points away from a nonnegative
    # sum, so the canonicalization flipped it
    assert (Q_raw.sum(axis=0) < 0.0).any()
    assert (Y.sum(axis=0) >= 0.0).all()
    check_orthogonal_backward(P, rng)


# ----------------------------------------------------------- cluster assign

def test_cluster_assign_block_constant():
    blocks = np.repeat(np.arange(3), 4)
    H = np.eye(3)[blocks] * np.array([2.0, 1.0, 3.0])[blocks][:, None]
    p = make_layer(np.eye(3))
    assign, _ = cluster_assign(p, H)
    for b in range(3):
        members = assign.yhat[blocks == b]
        assert (members == members[0]).all()
    n = H.shape[0]
    assert np.abs(assign.Y.T @ assign.Y - n * np.eye(3)).max() < 1e-6 * n


def test_cluster_assign_single_cluster():
    H = np.abs(np.random.default_rng(4).standard_normal((6, 2))) + 0.1
    p = make_layer(np.array([[1.0], [1.0]]))
    assign, _ = cluster_assign(p, H)
    assert (assign.yhat == 0).all()
    col = assign.Y[:, 0]
    P = np.maximum(H @ p.W + p.b, 0)[:, 0]
    assert np.allclose(col, np.sqrt(6) * P / np.linalg.norm(P))


def test_cluster_assign_identity():
    c = 4
    H = np.eye(c)
    p = make_layer(np.eye(c))
    assign, _ = cluster_assign(p, H)
    assert np.allclose(assign.Y, np.sqrt(c) * np.eye(c))
    assert assign.yhat.tolist() == list(range(c))


def test_cluster_assign_argmax_tie_breaks_low():
    Y = np.array([[0.5, 0.5], [0.2, 0.7]])
    assert np.argmax(Y, axis=1).tolist() == [0, 1]


# ------------------------------------------------------------ hetero encode

def small_graph(seed=0, relations=2):
    spec = SynthSpec(n=10, c=2, feature_dim=4, aux_count=6, aux_feature_dim=3,
                     relations=relations, edges_per_node=2, seed=seed)
    g = generate(spec)
    return g, build_neighborhoods(g)


def make_stack(g, nb, d1=5, d2=3, c=2, seed=0):
    # k = 3 fits every graph here (build_stack needs k <= n - 2); no test
    # that calls this builds an affinity from it
    return build_stack(g, nb, TrainConfig(c=c, d1=d1, d2=d2, k=3, seed=seed))


def test_relation_input_rows_and_cache():
    rng = np.random.default_rng(5)
    n, m = 9, 6
    g = HeteroGraph(
        node_types=["t", "a"], counts={"t": n, "a": m},
        features={"t": rng.standard_normal((n, 2)), "a": rng.standard_normal((m, 3))},
        relations=[Relation("ta", "t", "a", np.array([[0, 1], [0, 4], [2, 4], [5, 0]]))],
        target_type="t", labels=np.zeros(n, dtype=np.int64),
        train_idx=np.arange(n), test_idx=np.empty(0, dtype=np.int64))
    nb = build_neighborhoods(g)
    A = nb.entries["ta"][1]
    B, X_n = _relation_input(nb, g.features, "ta", d1=3)
    assert B.shape == (n, 2 + 3 + 2) and X_n is None
    for i in range(n):
        nbrs = A.indices[A.indptr[i]:A.indptr[i + 1]]
        want = np.concatenate([g.features["t"][i], g.features["a"][nbrs].sum(axis=0),
                               [1.0, len(nbrs)]])
        assert np.allclose(B[i], want, rtol=0, atol=1e-15)
    # neighbor features wider than d1 are left out of B and returned apart
    B_wide, X_n = _relation_input(nb, g.features, "ta", d1=2)
    assert np.array_equal(B_wide, B[:, [0, 1, 5, 6]]) and X_n is g.features["a"]
    # built once while the feature arrays stay the same, rebuilt for new ones
    assert _relation_input(nb, g.features, "ta", d1=3)[0] is B
    features = dict(g.features, a=2.0 * g.features["a"])
    B2, _ = _relation_input(nb, features, "ta", d1=3)
    assert np.array_equal(B2[:, 2:5], 2.0 * B[:, 2:5])


def test_hetero_encode_empty_neighborhood():
    g, nb = small_graph()
    # disconnect node 0 everywhere
    entries = {}
    for name, (nbr_type, A) in nb.entries.items():
        A = A.copy()
        A.data[A.indptr[0]:A.indptr[1]] = 0.0
        A.eliminate_zeros()
        assert A.indptr[1] == 0
        entries[name] = (nbr_type, A)
    nb = RelationNeighborhood(nb.target_type, nb.n, entries)
    stack = make_stack(g, nb)
    Zt, _ = hetero_encode(stack, g, nb)
    f0 = g.features[g.target_type][0] @ stack.f_theta[g.target_type].W \
        + stack.f_theta[g.target_type].b
    expect = np.zeros(stack.d1)
    for name in sorted(nb.entries):
        comb = stack.combiners[name]
        expect += np.maximum(np.concatenate([f0, np.zeros(stack.d1)]) @ comb.W + comb.b, 0)
    expect /= len(nb.entries)
    assert np.allclose(Zt[0], expect, atol=1e-12)


def test_hetero_encode_single_neighbor_concat():
    g, nb = small_graph(relations=1)
    name = next(iter(nb.entries))
    nbr_type, A = nb.entries[name]
    # node 0's only neighbor is node 1; every other node has none
    indptr = np.r_[0, np.ones(nb.n, dtype=np.int64)]
    A = csr_matrix(([1.0], [1], indptr), shape=A.shape)
    nb = RelationNeighborhood(nb.target_type, nb.n, {name: (nbr_type, A)})
    stack = make_stack(g, nb)
    Zt, _ = hetero_encode(stack, g, nb)
    ft = stack.f_theta
    self_part = g.features[g.target_type][0] @ ft[g.target_type].W + ft[g.target_type].b
    nbr_part = g.features[nbr_type][1] @ ft[nbr_type].W + ft[nbr_type].b
    comb = stack.combiners[name]
    expect = np.maximum(np.concatenate([self_part, nbr_part]) @ comb.W + comb.b, 0)
    assert np.allclose(Zt[0], expect, atol=1e-12)


def test_hetero_encode_identical_relations_average():
    g, nb = small_graph(relations=2)
    names = sorted(nb.entries)
    # same neighbor structure and same neighbor type for both relations
    src = nb.entries[names[0]]
    nb = RelationNeighborhood(nb.target_type, nb.n,
                              {names[0]: src, names[1]: (src[0], src[1].copy())})
    stack = make_stack(g, nb)
    # identical combiner parameters make the relation terms equal
    # written through the views: a reassigned attribute would leave the
    # stack's parameter buffer behind
    stack.combiners[names[1]].W[...] = stack.combiners[names[0]].W
    stack.combiners[names[1]].b[...] = stack.combiners[names[0]].b
    Zt, _ = hetero_encode(stack, g, nb)
    single = dict(nb.entries)
    del single[names[1]]
    nb_single = RelationNeighborhood(nb.target_type, nb.n, single)
    stack_single = make_stack(g, nb_single)
    for k, v in stack_single.named_params().items():
        v[...] = stack.named_params()[k]
    Zt_single, _ = hetero_encode(stack_single, g, nb_single)
    assert np.allclose(Zt, Zt_single, atol=1e-12)


def test_hetero_encode_missing_projection_is_config_error(tmp_path):
    # a stack saved without rel1's combiner and ctx1's projection does not
    # load for a graph that has them
    cfg = TrainConfig(c=2, d1=5, d2=3, k=3)
    g, nb = small_graph(relations=1)
    path = str(tmp_path / "one_relation.ckpt")
    save_checkpoint(path, build_stack(g, nb, cfg), cfg)
    g, nb = small_graph(relations=2)
    with pytest.raises(EncoderConfigError, match=r"relations .*'rel1', 'ctx1'"):
        load_checkpoint(path, g, nb)


def test_build_stack_needs_a_relation_on_the_target_type():
    g, nb = small_graph()
    nb = RelationNeighborhood(nb.target_type, nb.n, {})
    with pytest.raises(EncoderConfigError, match="no relations touch the target type"):
        build_stack(g, nb, TrainConfig(c=2))


@pytest.mark.parametrize("cfg,message", [
    (dict(c=11, d1=11, k=3), "c must be <= the 10 target nodes, got c=11"),
    (dict(c=2, k=9), "k must be <= n - 2 = 8 for the 10 target nodes, got k=9"),
])
def test_build_stack_rejects_settings_the_graph_cannot_honour(cfg, message):
    g, nb = small_graph()
    with pytest.raises(EncoderConfigError) as err:
        build_stack(g, nb, TrainConfig(**cfg))
    assert str(err.value) == message
    build_stack(g, nb, TrainConfig(c=10, d1=10, k=8))  # both at their bound


# ------------------------------------------------ shared projection head

def test_project_identity():
    M = np.abs(np.random.default_rng(5).standard_normal((6, 3)))
    q = make_layer(np.eye(3))
    out, _ = q.forward(M)
    assert np.array_equal(out, M)


def test_project_shared_parameters():
    rng = np.random.default_rng(6)
    q = DenseLayer(3, 2, "relu", rng)
    A = np.abs(rng.standard_normal((4, 3)))
    B = np.abs(rng.standard_normal((4, 3)))
    out_a, _ = q.forward(A)
    out_b, _ = q.forward(B)
    q.W[0, 0] += 0.5
    out_a2, _ = q.forward(A)
    out_b2, _ = q.forward(B)
    assert not np.allclose(out_a, out_a2)
    assert not np.allclose(out_b, out_b2)


def test_project_matches_oracle():
    rng = np.random.default_rng(7)
    q = DenseLayer(4, 3, "none", rng)
    M = rng.standard_normal((5, 4))
    out, _ = q.forward(M)
    assert np.abs(out - (M @ q.W + q.b)).max() < 1e-10


# ---------------------------------------------------------------- backward

def test_linear_backward_column_sums():
    # loss = sum of outputs -> weight gradient is the column sums of input
    rng = np.random.default_rng(8)
    X = rng.standard_normal((7, 3))
    layer = DenseLayer(3, 2, "none", rng)
    out, cache = layer.forward(X)
    layer.backward(cache, np.ones_like(out))
    assert np.allclose(layer.gw, np.tile(X.sum(axis=0)[:, None], (1, 2)))
    assert np.allclose(layer.gb, np.full(2, 7.0))


def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(9)
    layer = DenseLayer(3, 2, "relu", rng)
    out, cache = layer.forward(rng.standard_normal((5, 3)))
    g_in = layer.backward(cache, np.zeros_like(out))
    assert np.abs(layer.gw).max() == 0.0
    assert np.abs(layer.gb).max() == 0.0
    assert np.abs(g_in).max() == 0.0


def test_dense_backward_skips_unused_input_gradient():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((9, 4))
    grad = rng.standard_normal((9, 3))
    layer = DenseLayer(4, 3, "relu", rng)
    layer.b[:] = rng.standard_normal(3)
    out, cache = layer.forward(X)
    g_in = layer.backward(cache, grad)
    full = (layer.gw.copy(), layer.gb.copy())
    layer.zero_grads()
    assert layer.backward(cache, grad, input_grad=False) is None
    assert np.array_equal(layer.gw, full[0]) and np.array_equal(layer.gb, full[1])
    # the cache holds the input and a boolean mask, not the pre-activation
    X_c, mask = cache
    assert X_c is X and mask.dtype == bool
    pre = X @ layer.W + layer.b
    assert np.array_equal(mask, pre > 0.0)
    assert np.array_equal(out, np.maximum(pre, 0.0))
    assert np.array_equal(g_in, (grad * (pre > 0.0)) @ layer.W.T)


def test_dense_layer_fd_gradient():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 4))
    T = rng.standard_normal((6, 3))
    layer = DenseLayer(4, 3, "relu", rng)

    def loss():
        out, cache = layer.forward(X)
        return 0.5 * float(((out - T) ** 2).sum()), out, cache

    base, out, cache = loss()
    layer.zero_grads()
    layer.backward(cache, out - T)
    h = 1e-6
    for arr, grad in ((layer.W, layer.gw), (layer.b, layer.gb)):
        flat, gflat = arr.ravel(), grad.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = loss()[0]
            flat[idx] = orig - h
            f_minus = loss()[0]
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6) < 1e-4


def test_hetero_backward_fd():
    g, nb = small_graph(seed=3)
    stack = make_stack(g, nb, seed=3)
    W_loss = np.random.default_rng(11).standard_normal((nb.n, stack.d1))

    def loss_value():
        Zt, cache = hetero_encode(stack, g, nb)
        return float((Zt * W_loss).sum()), cache

    base, cache = loss_value()
    stack.zero_grads()
    hetero_backward(stack, cache, W_loss)
    grads = {k: v.copy() for k, v in stack.named_grads().items()}
    params = stack.named_params()
    h = 1e-6
    for name in ("f_theta.ctx0.W", "f_theta.item.W", "combiner.rel0.W", "combiner.rel1.b"):
        flat = params[name].ravel()
        gflat = grads[name].ravel()
        rng = np.random.default_rng(12)
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = loss_value()[0]
            flat[idx] = orig - h
            f_minus = loss_value()[0]
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-6) < 1e-4


def reference_encode(stack, g, nb):
    """The unfolded encoder: project every type, aggregate the projected
    neighbor rows, concatenate and run each relation's combiner."""
    proj = {}

    def project(t):
        if t not in proj:
            proj[t] = stack.f_theta[t].forward(g.features[t])
        return proj[t][0]

    F_t = project(stack.target_type)
    rel = {}
    total = np.zeros((nb.n, stack.d1))
    for name in sorted(nb.entries):
        nbr_type, A = nb.entries[name]
        agg = A @ project(nbr_type)
        out, cache = stack.combiners[name].forward(np.hstack([F_t, agg]))
        total += out
        rel[name] = (nbr_type, cache)
    return total / len(rel), (proj, rel)


def reference_backward(stack, nb, cache, grad_Zt):
    proj, rel = cache
    d1 = stack.d1
    grad_F = {t: np.zeros_like(val[0]) for t, val in proj.items()}
    for name, (nbr_type, comb_cache) in rel.items():
        g_concat = stack.combiners[name].backward(comb_cache, grad_Zt / len(rel))
        grad_F[stack.target_type] += g_concat[:, :d1]
        grad_F[nbr_type] += nb.entries[name][1].T @ g_concat[:, d1:]
    for t, gF in grad_F.items():
        stack.f_theta[t].backward(proj[t][1], gF)


def random_relation_graph(rng, d1):
    """Target type "item" with a target->target relation, a narrow "ctx"
    neighbor type (f <= d1), a one-hot "tag" type (f > d1) linked from the
    aux side, and target nodes that have no neighbor in any relation."""
    n, m_ctx, m_tag = int(rng.integers(12, 30)), int(rng.integers(3, 9)), d1 + 7
    lonely = rng.choice(n, size=3, replace=False)
    linked = np.setdiff1d(np.arange(n), lonely)

    def edges(src_pool, dst_count, count):
        e = np.column_stack([rng.choice(src_pool, count), rng.integers(0, dst_count, count)])
        return np.unique(e, axis=0)

    it = edges(linked, n, 3 * n)
    it = it[(it[:, 0] != it[:, 1]) & ~np.isin(it[:, 1], lonely)]
    ic = edges(linked, m_ctx, 2 * n)
    ti = edges(np.arange(m_tag), n, 2 * n)
    ti = ti[~np.isin(ti[:, 1], lonely)]
    g = HeteroGraph(
        node_types=["item", "ctx", "tag"],
        counts={"item": n, "ctx": m_ctx, "tag": m_tag},
        features={"item": rng.standard_normal((n, 5)),
                  "ctx": rng.standard_normal((m_ctx, 3)),
                  "tag": np.eye(m_tag)},
        relations=[Relation("it", "item", "item", it), Relation("ic", "item", "ctx", ic),
                   Relation("ti", "tag", "item", ti)],
        target_type="item", labels=np.zeros(n, dtype=np.int64),
        train_idx=np.arange(0), test_idx=np.arange(0))
    g.validate()
    return g, build_neighborhoods(g), lonely


def test_folded_encoder_matches_unfolded_formulas():
    rng = np.random.default_rng(21)
    d1 = 6
    for trial in range(10):
        g, nb, lonely = random_relation_graph(rng, d1)
        assert sorted(nb.entries) == ["ic", "it", "ti"]
        for _, A in nb.entries.values():
            assert np.all(np.diff(A.indptr)[lonely] == 0)
        stack = make_stack(g, nb, d1=d1, seed=trial)
        for p in stack.named_params().values():  # biases start at zero
            p += 0.3 * rng.standard_normal(p.shape)
        grad_Zt = rng.standard_normal((nb.n, d1))

        Zt, cache = hetero_encode(stack, g, nb)
        stack.zero_grads()
        hetero_backward(stack, cache, grad_Zt)
        got = {k: v.copy() for k, v in stack.named_grads().items()}
        # the one-hot type takes the sparse branch, the others the dense one
        assert {name: X_n is None for name, (_, _, _, X_n, _) in cache.items()} == {
            "it": True, "ic": True, "ti": False}

        Zt_ref, ref_cache = reference_encode(stack, g, nb)
        stack.zero_grads()
        reference_backward(stack, nb, ref_cache, grad_Zt)
        assert np.abs(Zt - Zt_ref).max() <= 1e-12 * np.abs(Zt_ref).max()
        for name, ref in stack.named_grads().items():
            if name.startswith(("g_phi", "p_phi", "q_gamma")):
                continue
            assert np.abs(ref).max() > 0.0, name
            assert np.abs(got[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


class ParentStep:
    """The training step as it was when every relu layer cached its float
    pre-activation and the loss gradients travelled in the report: kept
    here as the bitwise reference for the memory-lean step."""

    @staticmethod
    def dense_forward(layer, X):
        Z = X @ layer.W + layer.b
        return (np.maximum(Z, 0.0) if layer.activation == "relu" else Z), (X, Z)

    @staticmethod
    def dense_backward(layer, cache, grad_out):
        X, Z = cache
        g = grad_out * (Z > 0.0) if layer.activation == "relu" else grad_out
        layer.gw += X.T @ g
        layer.gb += g.sum(axis=0)
        return g @ layer.W.T

    @staticmethod
    def hetero_forward(stack, g, nb):
        from hgsc.encoders import _fold, _relation_input
        names = sorted(nb.entries)
        pre, inputs, Zt = {}, {}, None
        for name in names:
            nbr_type, A = nb.entries[name]
            X_n = g.features[nbr_type]
            aggregate = X_n.shape[1] <= stack.d1
            T, M_n = _fold(stack, name, nbr_type, aggregate)
            B, _ = _relation_input(nb, g.features, name, stack.d1)
            inputs[name] = (B, aggregate)
            pre[name] = B @ T
            if not aggregate:
                pre[name] += A @ (X_n @ M_n)
            out = np.maximum(pre[name], 0.0)
            if Zt is None:
                Zt = out
            else:
                Zt += out
        Zt /= len(names)
        return Zt, (pre, inputs, names)

    @staticmethod
    def hetero_backward(stack, g, nb, cache, grad_Zt):
        pre, inputs, names = cache
        d1 = stack.d1
        f_t = stack.f_theta[stack.target_type]
        k_t = f_t.in_dim
        for name in names:
            nbr_type, A = nb.entries[name]
            f_n, comb = stack.f_theta[nbr_type], stack.combiners[name]
            W_c1, W_c2 = comb.W[:d1], comb.W[d1:]
            B, aggregate = inputs[name]
            g_r = grad_Zt * (pre[name] > 0.0)
            G = B.T @ g_r / len(names)
            G_t, g_1, g_deg = G[:k_t], G[-2], G[-1]
            if aggregate:
                G_n = G[k_t:-2]
            else:
                X_n = g.features[nbr_type]
                G_n = X_n.T @ (A.T @ g_r) / len(names)
            comb.gw[:d1] += f_t.W.T @ G_t + np.outer(f_t.b, g_1)
            comb.gw[d1:] += f_n.W.T @ G_n + np.outer(f_n.b, g_deg)
            comb.gb += g_1
            f_t.gw += G_t @ W_c1.T
            f_t.gb += g_1 @ W_c1.T
            f_n.gw += G_n @ W_c2.T
            f_n.gb += g_deg @ W_c2.T

    @classmethod
    def step(cls, stack, g, nb, cfg, S):
        from hgsc import affinity as aff
        from hgsc.losses import (cluster_consistency, cluster_pool,
                                 node_consistency, spectral_loss)
        H, c_g = cls.dense_forward(stack.g_phi, g.features[stack.target_type])
        P, c_p = cls.dense_forward(stack.p_phi, H)
        Y, R = orthogonal_layer(P)
        yhat = np.argmax(Y, axis=1)
        _, g_Y, _ = spectral_loss(S, Y, cfg.gamma)
        Z = S.to_csr() @ H
        Zt, c_h = cls.hetero_forward(stack, g, nb)
        Q, c_q1 = cls.dense_forward(stack.q_gamma, Z)
        Qt, c_q2 = cls.dense_forward(stack.q_gamma, Zt)
        _, g_Q_nc, g_Qt_nc = node_consistency(Q, Qt, cfg.eta)
        Qhat, counts = cluster_pool(Q, yhat, cfg.c)
        _, g_Qt_cc, g_pool = cluster_consistency(Qt, Qhat, yhat, counts)
        w_sp, w_nc, w_cc = 1.0, cfg.mu, cfg.delta
        d_Q = w_nc * g_Q_nc
        d_Qt = w_nc * g_Qt_nc + w_cc * g_Qt_cc
        d_Q = d_Q + w_cc * g_pool[yhat]
        stack.zero_grads()
        d_Z = cls.dense_backward(stack.q_gamma, c_q1, d_Q)
        d_Zt = cls.dense_backward(stack.q_gamma, c_q2, d_Qt)
        cls.hetero_backward(stack, g, nb, c_h, d_Zt)
        d_H = S.to_csr().T @ d_Z
        d_P = orthogonal_backward(w_sp * g_Y, c_p[1], R)
        d_H = d_H + cls.dense_backward(stack.p_phi, c_p, d_P)
        cls.dense_backward(stack.g_phi, c_g, d_H)
        return {k: v.copy() for k, v in stack.named_grads().items()}


def test_training_step_matches_parent_formulas_bitwise():
    from hgsc.trainer import TrainConfig, TrainStepper
    rng = np.random.default_rng(31)
    for trial in range(6):
        g, nb, _ = random_relation_graph(rng, d1=6)
        cfg = TrainConfig(c=3, d1=6, d2=4, k=3, beta=2.0, gamma=0.3, eta=0.8,
                          mu=0.7, delta=1.3, seed=trial)
        stack = make_stack(g, nb, d1=cfg.d1, d2=cfg.d2, c=cfg.c, seed=trial)
        for p in stack.named_params().values():  # biases start at zero
            p += 0.3 * rng.standard_normal(p.shape)
        stepper = TrainStepper(stack, g, nb, cfg)
        stepper.forward()
        ref = ParentStep.step(stack, g, nb, cfg, stepper.S)
        assert {name: X_n is None
                for name, (_, _, _, X_n, _) in stepper._cache["c_h"].items()} == {
            "it": True, "ic": True, "ti": False}
        got = stepper.backward()
        assert sorted(got) == sorted(ref)
        for name in ref:
            assert np.array_equal(got[name], ref[name]), (trial, name)
        assert all(np.abs(ref[f"combiner.{r}.W"]).max() > 0.0 for r in ("it", "ic", "ti"))


# ------------------------------------------------------------- stack state

def test_stack_determinism():
    g, nb = small_graph()
    s1 = make_stack(g, nb, seed=77)
    s2 = make_stack(g, nb, seed=77)
    for k, v in s1.named_params().items():
        assert np.array_equal(v, s2.named_params()[k])
    s3 = make_stack(g, nb, seed=78)
    assert any(not np.array_equal(v, s3.named_params()[k])
               for k, v in s1.named_params().items())


def test_checkpoint_round_trip(tmp_path):
    g, nb = small_graph()
    cfg = TrainConfig(c=2, d1=5, d2=3, k=4, mu=0.25, seed=5)
    stack = build_stack(g, nb, cfg)
    # parameters the seed does not give, so the load must write every one
    stack.params[:] = np.random.default_rng(1).standard_normal(stack.params.size)
    path = str(tmp_path / "ckpt")
    save_checkpoint(path, stack, cfg)
    assert os.listdir(tmp_path) == ["ckpt"]
    loaded, loaded_cfg = load_checkpoint(path, g, nb)
    assert loaded_cfg == cfg
    assert np.array_equal(loaded.params, stack.params)
    assert (loaded.target_type, loaded.relations, loaded.feature_dims) == \
        (stack.target_type, stack.relations, stack.feature_dims)


def _offset(view, buf):
    """Element offset of ``view``'s first entry inside the flat ``buf``."""
    return (view.__array_interface__["data"][0]
            - buf.__array_interface__["data"][0]) // buf.itemsize


@pytest.mark.parametrize("kind", ["params", "grads"])
def test_named_views_tile_the_flat_buffer(kind):
    g, nb = small_graph()
    stack = make_stack(g, nb)
    buf = getattr(stack, kind)
    named = stack.named_params() if kind == "params" else stack.named_grads()
    attrs = ("W", "b") if kind == "params" else ("gw", "gb")
    at = 0
    for name, layer in stack._layers():
        for suffix, attr in zip(("W", "b"), attrs):
            view = named[f"{name}.{suffix}"]
            assert view is getattr(layer, attr)
            assert np.shares_memory(view, buf) and view.flags.c_contiguous
            assert _offset(view, buf) == at
            at += view.size
    assert at == buf.size and len(named) == 2 * len(list(stack._layers()))


def test_flat_buffers_drive_the_layers():
    g, nb = small_graph()
    stack = make_stack(g, nb)
    saved = stack.snapshot()
    assert not np.shares_memory(saved, stack.params)
    stack.params[:] = 0.5
    assert np.all(stack.g_phi.W == 0.5) and np.all(stack.combiners["rel1"].b == 0.5)
    stack.grads[:] = 1.0
    stack.zero_grads()
    assert not stack.q_gamma.gw.any()
    stack.set_params(saved)
    assert np.array_equal(stack.params, saved)


def test_per_array_checkpoint_loads_bitwise(tmp_path):
    """A checkpoint holding one ``param:<name>`` array per layer entry, as
    the per-array stack wrote it, loads into the views bit for bit."""
    import json

    g, nb = small_graph()
    stack = make_stack(g, nb, seed=5)
    rng = np.random.default_rng(9)
    written = {k: rng.standard_normal(v.shape) for k, v in stack.named_params().items()}
    arrays = {f"param:{k}": written[k] for k in reversed(list(written))}
    arrays["version"] = np.array(1)
    arrays["config_json"] = np.array('{"c": 2, "d1": 5, "d2": 3, "k": 3}')
    arrays["stack_json"] = np.array(json.dumps({
        "target_type": stack.target_type, "relations": stack.relations,
        "dims": [stack.d1, stack.d2, stack.c], "feature_dims": stack.feature_dims}))
    path = str(tmp_path / "per_array.ckpt")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    loaded, _ = load_checkpoint(path, g, nb)
    for k, v in written.items():
        assert np.array_equal(loaded.named_params()[k], v)
    assert np.array_equal(loaded.params, np.concatenate([v.ravel() for v in written.values()]))
