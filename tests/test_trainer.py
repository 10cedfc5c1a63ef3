import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse import identity

import hgsc
from hgsc.graph import build_neighborhoods, read_fields, write_fields
from hgsc.synth import SynthSpec, generate
from hgsc.trainer import (AdamState, NumericalDivergence, StepStateError,
                          TrainConfig, TrainState, TrainStepper, build_stack,
                          fit, optimizer_step, train_epoch)
from hgsc.verify import component_count


def toy_setup(n=12, seed=0, **cfg_kw):
    spec = SynthSpec(n=n, c=2, feature_dim=4, aux_count=8, aux_feature_dim=3,
                     relations=2, edges_per_node=2, seed=seed)
    g = generate(spec)
    nb = build_neighborhoods(g)
    defaults = dict(c=2, d1=6, d2=4, k=3, seed=seed, max_epochs=5, patience=30)
    defaults.update(cfg_kw)
    cfg = TrainConfig(**defaults)
    return g, nb, cfg


# ------------------------------------------------------------------- adam

def test_adam_zero_gradient_fresh_state():
    p = np.array([1.0, -2.0])
    state = AdamState()
    optimizer_step(p, np.zeros(2), state, lr=0.1)
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_scalar_recurrence_oracle():
    p = np.array([0.0])
    state = AdamState()
    # hand-rolled scalar oracle of the update recurrence
    m = v = 0.0
    w_ref = 0.0
    for t in range(1, 6):
        optimizer_step(p, np.array([1.0]), state, lr=0.1)
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        w_ref -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p[0] == pytest.approx(w_ref, abs=1e-15)
    # the very first step is ~ -lr
    state2 = AdamState()
    p2 = np.array([0.0])
    optimizer_step(p2, np.array([1.0]), state2, lr=0.1)
    assert p2[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_identical_tensors_identical_updates():
    rng = np.random.default_rng(0)
    g = rng.standard_normal(6)
    p = np.ones(12)
    optimizer_step(p, np.concatenate([g, g]), AdamState(), lr=0.05)
    assert np.array_equal(p[:6], p[6:])


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        optimizer_step(np.zeros(3), np.zeros(2), AdamState(), 0.1)


# ------------------------------------------------------------ train_epoch

def test_zero_learning_rate_keeps_parameters():
    g, nb, cfg = toy_setup(lr=0.0, max_epochs=3)
    stack = build_stack(g, nb, cfg)
    before = {k: v.copy() for k, v in stack.named_params().items()}
    state = TrainState()
    reports = [train_epoch(state, g, nb, stack, cfg) for _ in range(3)]
    for k, v in stack.named_params().items():
        assert np.array_equal(v, before[k])
    assert reports[0].total == reports[1].total == reports[2].total


@pytest.mark.parametrize("aux_count", [40, 6], ids=["wide", "narrow"])
def test_sparse_identity_features_fit_like_a_dense_identity(aux_count):
    # a featureless type's sparse identity trains to the dense identity's
    # bits, wider than d1 (applied through A_r) and narrower (in B_r)
    spec = SynthSpec(n=30, c=2, feature_dim=4, aux_count=aux_count, aux_feature_dim=3,
                     relations=2, edges_per_node=2, seed=3)
    cfg = TrainConfig(c=2, d1=8, d2=4, k=3, seed=0, max_epochs=6, patience=6)
    params = []
    for eye in (np.eye, lambda m: identity(m, format="csr")):
        g = generate(spec)
        g.features.update(ctx0=eye(aux_count), ctx1=eye(aux_count))
        params.append(fit(g, cfg).stack.params.tobytes())
    assert params[0] == params[1]


def test_seeded_epoch_is_bit_identical():
    runs = []
    for _ in range(2):
        g, nb, cfg = toy_setup(seed=5)
        stack = build_stack(g, nb, cfg)
        state = TrainState()
        rep = train_epoch(state, g, nb, stack, cfg)
        runs.append((rep, {k: v.copy() for k, v in stack.named_params().items()}))
    r1, p1 = runs[0]
    r2, p2 = runs[1]
    assert (r1.l_sp, r1.l_nc, r1.l_cc, r1.total) == (r2.l_sp, r2.l_nc, r2.l_cc, r2.total)
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_objective_trend_quadratic_only():
    # mu = delta = gamma = 0 with a frozen affinity: the spectral smoothness
    # term alone should trend monotonically down at a small learning rate
    g, nb, cfg = toy_setup(n=8, mu=0.0, delta=0.0, gamma=0.0, lr=1e-3,
                           max_epochs=50, rebuild_period=10_000, k=2)
    result = fit(g, cfg, nb)
    totals = [rep.total for _, rep in result.log]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-6


def test_report_terms_sum_to_total():
    g, nb, cfg = toy_setup(mu=0.7, delta=1.3)
    result = fit(g, cfg, nb)
    for _, rep in result.log:
        assert rep.total == pytest.approx(
            rep.l_sp + cfg.mu * rep.l_nc + cfg.delta * rep.l_cc, abs=1e-12)


def test_affinity_constant_between_rebuilds():
    g, nb, cfg = toy_setup(max_epochs=6, rebuild_period=3)
    stack = build_stack(g, nb, cfg)
    state = TrainState()
    seen = []
    for _ in range(6):
        train_epoch(state, g, nb, stack, cfg)
        seen.append(state.S)
    assert seen[0] is seen[1] is seen[2]
    assert seen[3] is seen[4] is seen[5]
    assert seen[0] is not seen[3]


def test_divergence_names_term():
    # blow up the shared projection head so a consistency term overflows
    # while the affinity distances stay finite
    g, nb, cfg = toy_setup()
    stack = build_stack(g, nb, cfg)
    stack.q_gamma.W *= 1e160
    state = TrainState()
    with np.errstate(all="ignore"), pytest.raises(NumericalDivergence) as err:
        train_epoch(state, g, nb, stack, cfg)
    assert err.value.term in ("l_sp", "l_nc", "l_cc", "total")


def test_backward_without_forward_is_state_error():
    g, nb, cfg = toy_setup()
    stack = build_stack(g, nb, cfg)
    stepper = TrainStepper(stack, g, nb, cfg)
    with pytest.raises(StepStateError):
        stepper.backward()
    stepper.forward()
    stepper.backward()
    with pytest.raises(StepStateError):
        stepper.backward()


def test_cluster_head_gradient_has_no_scale_component():
    # Y depends on the column space of P = H W + b only, so the exact QR
    # backward leaves no gradient along any column scaling (W[:, j], b[j])
    g, nb, cfg = toy_setup(n=16, seed=4, c=3, gamma=0.5, mu=0.3, delta=0.7)
    stack = build_stack(g, nb, cfg)
    stack.p_phi.b[:] = np.random.default_rng(4).standard_normal(cfg.c)
    stepper = TrainStepper(stack, g, nb, cfg)
    stepper.forward()
    grads = stepper.backward()
    for j in range(cfg.c):
        u = np.append(stack.p_phi.W[:, j], stack.p_phi.b[j])
        gu = np.append(grads["p_phi.W"][:, j], grads["p_phi.b"][j])
        assert np.linalg.norm(gu) > 0.0
        assert abs(gu @ u) <= 1e-10 * np.linalg.norm(gu) * np.linalg.norm(u)


def test_rebuild_epoch_runs_g_phi_once(monkeypatch):
    # the forward builds S from its own H, and on the first epoch (no
    # previous Y) from its own QR; g_phi's input gradient (n x f_t) is read
    # by nothing, so it is not computed
    import hgsc.encoders
    g, nb, cfg = toy_setup(beta=1.0, rebuild_period=2)
    stack = build_stack(g, nb, cfg)
    layer = stack.g_phi
    calls = {"forward": 0, "backward": [], "qr": 0}
    qr = hgsc.encoders.orthogonal_layer

    def counted_qr(P):
        calls["qr"] += 1
        return qr(P)

    monkeypatch.setattr(hgsc.encoders, "orthogonal_layer", counted_qr)

    def forward(X):
        calls["forward"] += 1
        return type(layer).forward(layer, X)

    def backward(*args, **kwargs):
        out = type(layer).backward(layer, *args, **kwargs)
        calls["backward"].append(out)
        return out

    layer.forward, layer.backward = forward, backward
    state = TrainState()
    for epoch in range(1, 5):
        rebuilt = state.S
        train_epoch(state, g, nb, stack, cfg)
        assert (state.S is not rebuilt) == (epoch % 2 == 1)
        assert calls["forward"] == calls["qr"] == epoch
    assert calls["backward"] == [None] * 4


def test_affinity_sparse_forms_built_once_per_s(monkeypatch):
    from hgsc.affinity import AffinityMatrix
    g, nb, cfg = toy_setup(rebuild_period=3)
    stack = build_stack(g, nb, cfg)
    built = []
    to_csr = AffinityMatrix.to_csr
    monkeypatch.setattr(AffinityMatrix, "to_csr",
                        lambda S: built.append(S) or to_csr(S))
    state = TrainState()
    for _ in range(6):
        train_epoch(state, g, nb, stack, cfg)
    # spectral_loss, propagate and the backward share one CSR per rebuild
    assert len(built) == 2 and built[0] is not built[1]


def test_fit_log_holds_no_arrays():
    # fit keeps one report per epoch: arrays there would grow with
    # max_epochs (n x d2 gradients per epoch)
    g, nb, cfg = toy_setup(max_epochs=4)
    result = fit(g, cfg, nb)
    assert len(result.log) == 4

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            return 1
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(arrays(v) for v in obj)
        return 0

    for _, rep in result.log:
        assert arrays(vars(rep)) == 0


def test_reuse_epoch_transient_memory_bound():
    # one reuse epoch on the criterion-10 spec: the caches hold relu masks
    # and the backward frees what it has consumed, so the transient peak
    # stays under 10 arrays of n x d1 doubles (it was 14.4 when every relu
    # layer kept its float pre-activation)
    import tracemalloc
    n = 2000
    g = generate(SynthSpec(n=n, c=3, feature_dim=3, aux_count=n // 2, aux_feature_dim=4,
                           relations=2, edges_per_node=12, separation=10.0, noise=1.0,
                           seed=0))
    nb = build_neighborhoods(g)
    cfg = TrainConfig(c=3, d1=160, d2=96, k=8, beta=5.0, gamma=1e-2, mu=0.01,
                      delta=0.01, lr=1e-2, rebuild_period=5, seed=0)
    stack = build_stack(g, nb, cfg)
    state = TrainState()
    for _ in range(2):
        train_epoch(state, g, nb, stack, cfg)
    tracemalloc.start()
    try:
        train_epoch(state, g, nb, stack, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * cfg.d1 * 8


# -------------------------------------------------------------------- fit

def test_constant_objective_stops_after_patience():
    g, nb, cfg = toy_setup(lr=0.0, max_epochs=100, patience=7)
    result = fit(g, cfg, nb)
    assert len(result.log) == 1 + cfg.patience
    assert result.best_epoch == 1


def test_max_epochs_bound():
    g, nb, cfg = toy_setup(max_epochs=5, patience=30)
    result = fit(g, cfg, nb)
    assert len(result.log) == 5


def test_fit_returns_best_parameters():
    g, nb, cfg = toy_setup(max_epochs=20, patience=30, lr=5e-3)
    result = fit(g, cfg, nb)
    totals = [rep.total for _, rep in result.log]
    best = min(totals)
    assert result.log[result.best_epoch - 1][1].total == best
    # re-running the forward with the returned parameters and the stored
    # affinity reproduces the best objective
    stepper = TrainStepper(result.stack, g, nb, cfg)
    rep = stepper.forward(result.S)
    assert rep.total == pytest.approx(best, rel=1e-9)


def test_fit_determinism_full_log():
    g1, nb1, cfg1 = toy_setup(seed=9, max_epochs=6)
    g2, nb2, cfg2 = toy_setup(seed=9, max_epochs=6)
    log1 = [(e, r.total) for e, r in fit(g1, cfg1, nb1).log]
    log2 = [(e, r.total) for e, r in fit(g2, cfg2, nb2).log]
    assert log1 == log2


def test_import_and_fit_load_neither_scipy_linalg_nor_spatial():
    # numpy and scipy each load their own OpenBLAS; training calls only
    # numpy's, and scipy.spatial (~6 MiB resident) is left to large-n kNN
    # and evaluation
    code = (
        "import sys, hgsc\n"
        "from hgsc.synth import SynthSpec, generate\n"
        "g = generate(SynthSpec(n=300, c=3, aux_count=150, seed=0))\n"
        "hgsc.fit(g, hgsc.TrainConfig(c=3, max_epochs=3, seed=0),"
        " hgsc.build_neighborhoods(g))\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.spatial')"
        " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hgsc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.strip() == "[]"


def test_fit_planted_partition_small():
    spec = SynthSpec(n=60, c=3, feature_dim=8, aux_count=30, aux_feature_dim=6,
                     relations=2, edges_per_node=3, separation=8.0, seed=1)
    g = generate(spec)
    nb = build_neighborhoods(g)
    cfg = TrainConfig(c=3, d1=24, d2=8, k=4, mu=0.01, delta=0.01, beta=5.0,
                      gamma=1e-2, lr=1e-2, max_epochs=60, patience=30, seed=1)
    result = fit(g, cfg, nb)
    S = result.S
    labels = g.labels
    intra = 0.0
    for i in range(S.n):
        same = labels[S.indices[i]] == labels[i]
        intra += S.weights[i][same].sum()
    assert intra / S.n > 0.9


# ------------------------------------------------------------ config file

def read_config(path):
    """The config in a key<TAB>value file, read as ``train --config`` reads it."""
    return TrainConfig.from_dict(read_fields(str(path), TrainConfig.__dataclass_fields__))


def test_config_round_trip(tmp_path):
    cfg = TrainConfig(c=4, d1=32, d2=16, k=7, beta=0.5, mu=2.0, delta=0.25,
                      lr=3e-3, max_epochs=11, patience=4, seed=3,
                      rebuild_period=2)
    path = tmp_path / "cfg.tsv"
    write_fields(str(path), cfg)
    cfg2 = read_config(path)
    assert cfg == cfg2


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(c=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(c=2, patience=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(c=2, mu=-1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(c=2, lr=-0.1).validate()


def test_config_from_dict_drops_retired_key_and_rejects_unknown():
    cfg = TrainConfig.from_dict({"c": 3, "k": 5, "knn_method": "pruned"})
    assert cfg == TrainConfig(c=3, k=5)
    for value in (True, "True"):
        assert TrainConfig.from_dict({"c": 3, "cc_pool_grad": value}) == TrainConfig(c=3)
    for value in (False, "False"):
        with pytest.raises(ValueError, match="cc_pool_grad"):
            TrainConfig.from_dict({"c": 3, "cc_pool_grad": value})
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"c": 3, "knn_metod": "scan"})
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"k": 5})
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"c": 3, "patience": 0})


@pytest.mark.parametrize("key,value", [("c", "x"), ("c", True), ("k", 2.5),
                                       ("seed", 1.0), ("lr", "0.1"), ("mu", False),
                                       ("beta", None)])
def test_config_from_dict_rejects_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' must be"):
        TrainConfig.from_dict({"c": 3, key: value})


def test_config_from_dict_accepts_an_int_in_a_float_field():
    cfg = TrainConfig.from_dict({"c": 3, "lr": 1, "grad_clip": 0})
    assert cfg == TrainConfig(c=3, lr=1.0, grad_clip=0.0)


def test_config_tsv_with_retired_key_loads(tmp_path):
    path = tmp_path / "cfg.tsv"
    path.write_text("# a comment line\nc\t2\n\nk\t4\nknn_method\tpruned\n")
    assert read_config(path) == TrainConfig(c=2, k=4)
    path.write_text("c\t2\nbogus\t1\n")
    with pytest.raises(ValueError):
        read_config(path)
