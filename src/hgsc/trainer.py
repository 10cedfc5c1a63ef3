"""Alternating training loop: closed-form affinity, then a gradient step.

Within an epoch the affinity matrix is a constant; it is rebuilt from the
current representations only at rebuild boundaries. Parameters follow
adaptive-moment updates with bias correction and a global-norm gradient
clip. Early stopping tracks the best total objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import affinity as aff
from .encoders import (EncoderStack, cluster_assign, hetero_encode,
                       hetero_backward, orthogonal_backward)
from .graph import HeteroGraph, RelationNeighborhood, build_neighborhoods
from .losses import (LossReport, cluster_consistency, cluster_pool,
                     node_consistency, spectral_loss, total_objective)


class NumericalDivergence(Exception):
    """A loss term became non-finite; carries the term name."""

    def __init__(self, term: str, epoch: int):
        super().__init__(f"{term} diverged at epoch {epoch}")
        self.term = term
        self.epoch = epoch


class StepStateError(Exception):
    """Backward requested without a matching forward."""


@dataclass
class TrainConfig:
    c: int
    d1: int = 64
    d2: int = 32
    k: int = 10
    beta: float = 1.0
    gamma: float = 1.0
    eta: float = 1.0
    mu: float = 1.0
    delta: float = 1.0
    lr: float = 1e-3
    max_epochs: int = 500
    patience: int = 30
    seed: int = 0
    rebuild_period: int = 1
    grad_clip: float = 5.0

    def validate(self) -> None:
        for name in ("c", "d1", "d2", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.rebuild_period < 1:
            raise ValueError("rebuild_period must be >= 1")
        for name in ("beta", "gamma", "eta", "mu", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def to_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, v in asdict(self).items():
                fh.write(f"{k}\t{v}\n")

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        """Validated config from a key/value mapping (a TSV file, the JSON
        stored in a checkpoint, a sweep cell).

        Two retired keys are dropped: ``knn_method`` chose between
        candidate searches that all returned the same exact neighbors, and
        ``cc_pool_grad`` is accepted only as true, the one setting still
        implemented (the cluster-consistency gradient always flows through
        the pooled centroids). Any other unknown key, a missing ``c`` or an
        invalid value is a ValueError.
        """
        values = dict(values)
        values.pop("knn_method", None)
        pool_grad = values.pop("cc_pool_grad", True)
        if pool_grad not in (True, "True", "true", "1"):
            raise ValueError(f"cc_pool_grad={pool_grad!r} is no longer supported: "
                             "the cluster-consistency gradient always flows "
                             "through the pooled centroids")
        for key in values:
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown config key {key!r}")
        try:
            cfg = cls(**values)
        except TypeError as e:
            raise ValueError(f"incomplete config: {e}") from e
        cfg.validate()
        return cfg

    @classmethod
    def from_tsv(cls, path: str) -> "TrainConfig":
        values = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, val = line.split("\t")
                known = key in cls.__dataclass_fields__
                values[key] = _parse_field(key, val) if known else val
        return cls.from_dict(values)


def _parse_field(key: str, val: str):
    kind = TrainConfig.__dataclass_fields__[key].type
    if kind == "int":
        return int(val)
    if kind == "float":
        return float(val)
    return val


class AdamState:
    """Per-parameter first/second moments, decay 0.9/0.999, eps 1e-8."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def optimizer_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   state: AdamState, lr: float) -> None:
    """One adaptive-moment update, in place, deterministic given state."""
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class TrainStepper:
    """One full forward/backward of the objective with S held fixed.

    Memory contract: the forward's cache holds what the backward needs (the
    layers' inputs, relu masks rather than pre-activations, and the loss
    gradients); the returned ``LossReport`` holds scalars only. The
    backward pops each cache entry and drops each upstream gradient as soon
    as it has been used, so activations are released in reverse order.
    """

    def __init__(self, stack: EncoderStack, g: HeteroGraph,
                 nb: RelationNeighborhood, cfg: TrainConfig):
        self.stack = stack
        self.g = g
        self.nb = nb
        self.cfg = cfg
        self._cache = None

    def forward(self, S: aff.AffinityMatrix, yhat: np.ndarray | None = None,
                semantic: tuple | None = None) -> LossReport:
        """Evaluate the objective. The hard indicators are constants of the
        backward pass; ``yhat`` fixes them (gradient checks), otherwise they
        are the argmax of the current assignment. ``semantic`` is the
        (H, cache) pair of ``g_phi.forward`` on the current parameters when
        the caller has already computed it (an affinity rebuild).
        """
        stack, cfg = self.stack, self.cfg
        if semantic is None:
            semantic = stack.g_phi.forward(self.g.features[stack.target_type])
        H, c_g = semantic
        assign, c_p = cluster_assign(stack.p_phi, H)
        if yhat is None:
            yhat = assign.yhat
        l_sp, g_Y, entropy = spectral_loss(S, assign.Y, cfg.gamma)
        Z = aff.propagate(S, H)
        Zt, c_h = hetero_encode(stack, self.g, self.nb)
        Q, c_q1 = stack.q_gamma.forward(Z)
        Qt, c_q2 = stack.q_gamma.forward(Zt)
        l_nc, g_Q_nc, g_Qt_nc = node_consistency(Q, Qt, cfg.eta)
        Qhat, counts = cluster_pool(Q, yhat, cfg.c)
        del Q  # nothing else holds it: freed before the cluster term's temporaries
        l_cc, g_Qt_cc, g_Qhat = cluster_consistency(Qt, Qhat, yhat)
        total = total_objective(l_sp, l_nc, l_cc, cfg.mu, cfg.delta)
        self._cache = {
            "S": S, "c_g": c_g, "c_p": c_p, "c_h": c_h,
            "c_q1": c_q1, "c_q2": c_q2, "assign": assign, "yhat": yhat,
            "counts": counts,
            "grads": {"Y": g_Y, "Q_nc": g_Q_nc, "Qt_nc": g_Qt_nc,
                      "Qt_cc": g_Qt_cc, "Qhat": g_Qhat},
        }
        return LossReport(l_sp=l_sp, l_nc=l_nc, l_cc=l_cc, total=total, entropy=entropy)

    def backward(self, weights: tuple[float, float, float] | None = None
                 ) -> dict[str, np.ndarray]:
        """Backpropagate w_sp*l_sp + w_nc*l_nc + w_cc*l_cc into the parameters.

        ``weights`` defaults to (1, mu, delta), the total objective.
        """
        if self._cache is None:
            raise StepStateError("backward called without a pending forward")
        cache, cfg, stack = self._cache, self.cfg, self.stack
        self._cache = None
        w_sp, w_nc, w_cc = weights if weights is not None else (1.0, cfg.mu, cfg.delta)
        g = cache.pop("grads")
        counts, g_Qhat = cache.pop("counts"), g.pop("Qhat")
        per_row = np.zeros_like(g_Qhat)
        nonempty = counts > 0
        per_row[nonempty] = g_Qhat[nonempty] / counts[nonempty, None]
        d_Q = w_nc * g.pop("Q_nc")
        d_Q += w_cc * per_row[cache.pop("yhat")]
        d_Qt = w_nc * g.pop("Qt_nc")
        d_Qt += w_cc * g.pop("Qt_cc")
        stack.zero_grads()
        d_Z = stack.q_gamma.backward(cache.pop("c_q1"), d_Q)
        del d_Q
        d_Zt = stack.q_gamma.backward(cache.pop("c_q2"), d_Qt)
        del d_Qt
        hetero_backward(stack, cache.pop("c_h"), d_Zt)
        del d_Zt
        d_H = cache.pop("S").csr_t @ d_Z
        del d_Z
        c_p, P = cache.pop("c_p")
        d_P = orthogonal_backward(w_sp * g.pop("Y"), P, cache.pop("assign").R)
        d_H += stack.p_phi.backward(c_p, d_P)
        del c_p, d_P
        stack.g_phi.backward(cache.pop("c_g"), d_H, input_grad=False)
        return {k: v.copy() for k, v in stack.named_grads().items()}


@dataclass
class TrainState:
    epoch: int = 0
    best_total: float = np.inf
    since_improve: int = 0
    adam: AdamState = field(default_factory=AdamState)
    S: aff.AffinityMatrix | None = None
    last_Y: np.ndarray | None = None
    best_params: dict | None = None
    best_S: aff.AffinityMatrix | None = None
    log: list = field(default_factory=list)


def rebuild_affinity(stack: EncoderStack, g: HeteroGraph, cfg: TrainConfig,
                     last_Y: np.ndarray | None,
                     H: np.ndarray | None = None) -> aff.AffinityMatrix:
    """Closed-form affinity from current H and the latest assignment.

    ``H`` is g_phi's output on the current parameters; it is computed here
    when not given.
    """
    if H is None:
        H, _ = stack.g_phi.forward(g.features[stack.target_type])
    Y = last_Y
    if Y is None and cfg.beta != 0.0:
        assign, _ = cluster_assign(stack.p_phi, H)
        Y = assign.Y
    return aff.build_affinity(H, Y, beta=cfg.beta, k=cfg.k)


def train_epoch(state: TrainState, g: HeteroGraph, nb: RelationNeighborhood,
                stack: EncoderStack, cfg: TrainConfig) -> LossReport:
    """One epoch: optional affinity rebuild, forward, backward, update."""
    state.epoch += 1
    semantic = None
    if state.S is None or (state.epoch - 1) % cfg.rebuild_period == 0:
        # the rebuild's H and g_phi cache serve the forward too
        semantic = stack.g_phi.forward(g.features[stack.target_type])
        state.S = rebuild_affinity(stack, g, cfg, state.last_Y, semantic[0])
    stepper = TrainStepper(stack, g, nb, cfg)
    report = stepper.forward(state.S, semantic=semantic)
    del semantic  # the stepper's cache holds what the backward needs
    for term, value in (("l_sp", report.l_sp), ("l_nc", report.l_nc),
                        ("l_cc", report.l_cc), ("total", report.total)):
        if not np.isfinite(value):
            raise NumericalDivergence(term, state.epoch)
    state.last_Y = stepper._cache["assign"].Y.copy()
    grads = stepper.backward()
    clip_gradients(grads, cfg.grad_clip)
    optimizer_step(stack.named_params(), grads, state.adam, cfg.lr)
    return report


@dataclass
class FitResult:
    stack: EncoderStack
    S: aff.AffinityMatrix
    log: list
    best_epoch: int


def fit(g: HeteroGraph, cfg: TrainConfig,
        nb: RelationNeighborhood | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0) -> FitResult:
    """Run the training loop with early stopping on the total objective.

    Stops once the objective has not improved for ``cfg.patience``
    consecutive epochs or at ``cfg.max_epochs``. The returned stack holds
    the parameters of the best epoch; the affinity matrix is the one in
    effect at that epoch. With ``checkpoint_every`` > 0 a snapshot is
    written to ``<checkpoint_dir>/epoch_<n>.ckpt`` every that many epochs.
    """
    cfg.validate()
    if nb is None:
        nb = build_neighborhoods(g)
    feature_dims = {t: g.features[t].shape[1] for t in g.node_types}
    relations = [(name, nb.entries[name][0]) for name in sorted(nb.entries)]
    stack = EncoderStack(feature_dims, g.target_type, relations,
                         d1=cfg.d1, d2=cfg.d2, c=cfg.c, seed=cfg.seed)
    state = TrainState()
    best_epoch = 0
    while state.epoch < cfg.max_epochs:
        pre_step = stack.snapshot()
        report = train_epoch(state, g, nb, stack, cfg)
        state.log.append((state.epoch, report))
        if checkpoint_every > 0 and checkpoint_dir is not None \
                and state.epoch % checkpoint_every == 0:
            import os
            stack.save(os.path.join(checkpoint_dir, f"epoch_{state.epoch}.ckpt"))
        if report.total < state.best_total:
            # the report was measured before the update, so the matching
            # parameters are the pre-step ones
            state.best_total = report.total
            state.since_improve = 0
            state.best_params = pre_step
            state.best_S = state.S
            best_epoch = state.epoch
        else:
            state.since_improve += 1
            if state.since_improve >= cfg.patience:
                break
    if state.best_params is not None:
        stack.set_params(state.best_params)
    return FitResult(stack=stack, S=state.best_S, log=state.log, best_epoch=best_epoch)
