"""Alternating training loop: closed-form affinity, then a gradient step.

An epoch is one forward and backward. At rebuild boundaries the forward
rebuilds the affinity matrix from its own H and the last assignment; in
between S is a constant. Parameters follow adaptive-moment updates with
bias correction and a global-norm gradient clip. ``fit`` early-stops on
the best total objective.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import affinity as aff
from .encoders import (EncoderConfigError, EncoderStack, cluster_assign,
                       hetero_encode, hetero_backward, orthogonal_backward)
from .graph import HeteroGraph, RelationNeighborhood, build_neighborhoods, from_fields
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
        for name in ("c", "d1", "d2", "k", "patience", "max_epochs", "rebuild_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # p_phi's bias starts at zero, so the first P = H W_p (H is n x d1)
        # has rank <= d1 and its QR fails for every c > d1
        if self.c > self.d1:
            raise ValueError(f"c must be <= d1, got c={self.c} and d1={self.d1}")
        if not self.grad_clip >= 0:  # nan too: it would silently never clip
            raise ValueError("grad_clip must be >= 0 (0 disables the clip)")
        for name in ("lr", "beta", "gamma", "eta", "mu", "delta"):
            if not 0.0 <= getattr(self, name) < np.inf:  # nan fails too
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def from_dict(cls, values: dict) -> "TrainConfig":
        """Config from a key/value dict (a TSV file's values merged with the
        CLI's flags, a checkpoint's JSON, a sweep cell), checked by
        ``graph.from_fields``. Two retired keys are dropped: ``knn_method``
        chose between searches that all returned the same exact neighbors,
        and ``cc_pool_grad`` is accepted only as true, the one setting
        still implemented (the cluster-consistency gradient always flows
        through the pooled centroids).
        """
        if not isinstance(values, dict):
            raise ValueError(f"a config is a key/value mapping, not {values!r}")
        values = dict(values)
        values.pop("knn_method", None)
        pool_grad = values.pop("cc_pool_grad", True)
        if pool_grad not in (True, "True", "true", "1"):
            raise ValueError(f"cc_pool_grad={pool_grad!r} is no longer supported: "
                             "the cluster-consistency gradient always flows "
                             "through the pooled centroids")
        return from_fields(cls, values, "config")


CHECKPOINT_VERSION = 1


def build_stack(g: HeteroGraph, nb: RelationNeighborhood,
                cfg: TrainConfig) -> EncoderStack:
    """The encoder stack for graph ``g``: one combiner per relation in
    ``nb`` and one input projection per type they join, initialized from
    ``cfg.seed``."""
    if not nb.entries:
        raise EncoderConfigError(f"no relations touch the target type {g.target_type!r}")
    feature_dims = {t: g.features[t].shape[1] for t in g.node_types}
    relations = [(name, nb.entries[name][0]) for name in sorted(nb.entries)]
    return EncoderStack(feature_dims, g.target_type, relations,
                        d1=cfg.d1, d2=cfg.d2, c=cfg.c, seed=cfg.seed)


def _stack_json(stack: EncoderStack) -> str:
    return json.dumps({"target_type": stack.target_type, "relations": stack.relations,
                       "dims": [stack.d1, stack.d2, stack.c],
                       "feature_dims": stack.feature_dims})


def save_checkpoint(path: str, stack: EncoderStack, cfg: TrainConfig) -> None:
    """Write ``stack``'s parameters and ``cfg`` to ``path`` (an .npz archive).

    Entries: ``version``; ``config_json``, the config; ``stack_json``, what
    the stack was built for (target type, (relation, neighbor type) pairs,
    [d1, d2, c] and each node type's feature width); and one
    ``param:<layer>.<W|b>`` array per parameter.
    """
    arrays = {f"param:{k}": v for k, v in stack.named_params().items()}
    arrays["version"] = np.array(CHECKPOINT_VERSION)
    arrays["config_json"] = np.array(json.dumps(asdict(cfg)))
    arrays["stack_json"] = np.array(_stack_json(stack))
    # write through a handle so the exact path is kept (numpy would
    # otherwise append .npz)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str, g: HeteroGraph, nb: RelationNeighborhood
                    ) -> tuple[EncoderStack, TrainConfig]:
    """The stack and config saved at ``path``, rebuilt for graph ``g`` as
    ``fit`` builds them. The stored stack_json must match the rebuilt stack
    (feature widths: of the types it records), the ``param:`` entries its
    names and shapes. A file that is not a readable .npz archive, a missing
    or non-scalar entry, a JSON entry that does not parse, an invalid config
    (``TrainConfig.from_dict``), another version or a difference raises
    EncoderConfigError naming it.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise EncoderConfigError(f"checkpoint {path} is a single array, not an .npz archive")
        with data:
            arrays = {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, ValueError, EOFError) as e:
        raise EncoderConfigError(f"checkpoint {path} is not a readable .npz archive: {e}")
    scalars = {}
    for key, parse in (("version", int), ("config_json", json.loads),
                       ("stack_json", json.loads)):
        if key not in arrays:
            raise EncoderConfigError(f"checkpoint {path} has no {key!r} entry")
        if arrays[key].shape != ():
            raise EncoderConfigError(f"checkpoint {path} has a non-scalar {key!r} entry")
        try:
            scalars[key] = parse(str(arrays[key]))
        except ValueError as e:
            raise EncoderConfigError(f"checkpoint {path} has a malformed {key!r} entry: {e}")
    version = scalars["version"]
    if version != CHECKPOINT_VERSION:
        raise EncoderConfigError(f"checkpoint {path} has unsupported version {version}")
    try:
        cfg = TrainConfig.from_dict(scalars["config_json"])
    except ValueError as e:
        raise EncoderConfigError(f"checkpoint {path} has an invalid config: {e}")
    saved = scalars["stack_json"]
    entries = {k.removeprefix("param:"): v for k, v in arrays.items()
               if k.startswith("param:")}
    if not (isinstance(saved, dict) and isinstance(saved.get("feature_dims"), dict)):
        raise EncoderConfigError(f"checkpoint {path} has a malformed 'stack_json' entry")
    stack = build_stack(g, nb, cfg)
    ours = json.loads(_stack_json(stack))  # as stored: tuples read back as lists
    ours["feature_dims"] = {t: ours["feature_dims"].get(t) for t in saved["feature_dims"]}
    for key, want in ours.items():
        if saved.get(key) != want:
            raise EncoderConfigError(f"checkpoint {path} does not fit the graph: {key} "
                                     f"{saved.get(key)!r} in it, {want!r} for the graph")
    params = stack.named_params()
    for name in sorted(params.keys() | entries.keys()):
        got = entries[name].shape if name in entries else "no entry"
        want = params[name].shape if name in params else "no such parameter"
        if got != want:
            raise EncoderConfigError(
                f"checkpoint entry param:{name}: got {got}, expected {want}")
        params[name][...] = entries[name]
    return stack, cfg


class AdamState:
    """First/second moments of the flat parameter vector, decay 0.9/0.999,
    eps 1e-8; the moments start at zero on the first step."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0


def optimizer_step(params: np.ndarray, grads: np.ndarray,
                   state: AdamState, lr: float) -> None:
    """One adaptive-moment update of the flat ``params``, in place,
    deterministic given state."""
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    params -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class TrainStepper:
    """One full forward/backward of the objective; ``S`` and ``Y`` are the
    affinity and assignment of the last forward.

    Memory contract: the forward's cache holds what the backward needs (the
    layers' inputs, relu masks rather than pre-activations, R and the loss
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
        self.S = self.Y = self._cache = None

    def forward(self, S: aff.AffinityMatrix | None = None,
                last_Y: np.ndarray | None = None,
                yhat: np.ndarray | None = None) -> LossReport:
        """Evaluate the objective on ``represent(..., S, last_Y)``. The hard
        indicators are constants of the backward pass; ``yhat`` fixes them
        (gradient checks), otherwise they are the argmax of the assignment.
        """
        stack, cfg = self.stack, self.cfg
        (assign, S, Z, Zt), (c_g, c_p, c_h) = represent(stack, self.g, self.nb,
                                                        cfg, S, last_Y)
        self.S, self.Y = S, assign.Y
        if yhat is None:
            yhat = assign.yhat
        l_sp, g_Y, entropy = spectral_loss(S, assign.Y, cfg.gamma)
        Q, c_q1 = stack.q_gamma.forward(Z)
        Qt, c_q2 = stack.q_gamma.forward(Zt)
        l_nc, g_Q_nc, g_Qt_nc = node_consistency(Q, Qt, cfg.eta)
        Qhat, counts = cluster_pool(Q, yhat, cfg.c)
        del Q  # nothing else holds it: freed before the cluster term's temporaries
        l_cc, g_Qt_cc, g_pool = cluster_consistency(Qt, Qhat, yhat, counts)
        total = total_objective(l_sp, l_nc, l_cc, cfg.mu, cfg.delta)
        self._cache = {
            "c_g": c_g, "c_p": c_p, "c_h": c_h,
            "c_q1": c_q1, "c_q2": c_q2, "R": assign.R, "yhat": yhat,
            "grads": {"Y": g_Y, "Q_nc": g_Q_nc, "Qt_nc": g_Qt_nc,
                      "Qt_cc": g_Qt_cc, "pool": g_pool},
        }
        return LossReport(l_sp=l_sp, l_nc=l_nc, l_cc=l_cc, total=total, entropy=entropy)

    def backward(self, weights: tuple[float, float, float] | None = None
                 ) -> dict[str, np.ndarray]:
        """Backpropagate w_sp*l_sp + w_nc*l_nc + w_cc*l_cc into the parameters.

        ``weights`` defaults to (1, mu, delta), the total objective. Returns
        the layers' own gradient arrays, valid until the next backward.
        """
        if self._cache is None:
            raise StepStateError("backward called without a pending forward")
        cache, cfg, stack = self._cache, self.cfg, self.stack
        self._cache = None
        w_sp, w_nc, w_cc = weights if weights is not None else (1.0, cfg.mu, cfg.delta)
        g = cache.pop("grads")
        d_Q = w_nc * g.pop("Q_nc")
        # the c centroid rows are scaled by w_cc, not the n rows gathered from them
        d_Q += (w_cc * g.pop("pool"))[cache.pop("yhat")]
        d_Qt = w_nc * g.pop("Qt_nc")
        d_Qt += w_cc * g.pop("Qt_cc")
        stack.zero_grads()
        d_Z = stack.q_gamma.backward(cache.pop("c_q1"), d_Q)
        del d_Q
        d_Zt = stack.q_gamma.backward(cache.pop("c_q2"), d_Qt)
        del d_Qt
        hetero_backward(stack, cache.pop("c_h"), d_Zt)
        del d_Zt
        d_H = self.S.csr.T @ d_Z
        del d_Z
        c_p, P = cache.pop("c_p")
        d_P = orthogonal_backward(w_sp * g.pop("Y"), P, cache.pop("R"))
        d_H += stack.p_phi.backward(c_p, d_P)
        del c_p, d_P
        stack.g_phi.backward(cache.pop("c_g"), d_H, input_grad=False)
        return stack.named_grads()


@dataclass
class TrainState:
    """What one epoch hands the next."""

    epoch: int = 0
    adam: AdamState = field(default_factory=AdamState)
    S: aff.AffinityMatrix | None = None
    last_Y: np.ndarray | None = None


def rebuild_affinity(H: np.ndarray, Y: np.ndarray,
                     cfg: TrainConfig) -> aff.AffinityMatrix:
    """The closed-form affinity from g_phi's output H and assignment Y."""
    return aff.build_affinity(H, Y, beta=cfg.beta, k=cfg.k)


def represent(stack: EncoderStack, g: HeteroGraph, nb: RelationNeighborhood,
              cfg: TrainConfig, S: aff.AffinityMatrix | None = None,
              last_Y: np.ndarray | None = None):
    """The stack's representations of ``g``: the cluster assignment, the
    affinity S, Z = SH and the relation encoder's Zt.

    Without ``S`` it is rebuilt from this forward's H and ``last_Y``
    (default: this forward's Y). Returns ``((assign, S, Z, Zt), (c_g, c_p,
    c_h))``; the second part holds the caches the backward needs, so a
    caller that runs no backward takes ``[0]`` and lets them go.
    """
    H, c_g = stack.g_phi.forward(g.features[stack.target_type])
    assign, c_p = cluster_assign(stack.p_phi, H)
    if S is None:
        S = rebuild_affinity(H, assign.Y if last_Y is None else last_Y, cfg)
    Z = aff.propagate(S, H)
    Zt, c_h = hetero_encode(stack, g, nb)
    return (assign, S, Z, Zt), (c_g, c_p, c_h)


def train_epoch(state: TrainState, g: HeteroGraph, nb: RelationNeighborhood,
                stack: EncoderStack, cfg: TrainConfig) -> LossReport:
    """One epoch: forward (rebuilding S at a boundary), backward, update."""
    state.epoch += 1
    rebuild = state.S is None or (state.epoch - 1) % cfg.rebuild_period == 0
    stepper = TrainStepper(stack, g, nb, cfg)
    report = stepper.forward(None if rebuild else state.S, state.last_Y)
    for term, value in (("l_sp", report.l_sp), ("l_nc", report.l_nc),
                        ("l_cc", report.l_cc), ("total", report.total)):
        if not np.isfinite(value):
            raise NumericalDivergence(term, state.epoch)
    state.S, state.last_Y = stepper.S, stepper.Y
    clip_gradients(stepper.backward(), cfg.grad_clip)
    optimizer_step(stack.params, stack.grads, state.adam, cfg.lr)
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
    consecutive epochs or at ``cfg.max_epochs``. The log and the best epoch
    are kept here, not in ``TrainState``. The returned stack holds the
    parameters of the best epoch; the affinity matrix is the one in effect
    at that epoch. With ``checkpoint_every`` > 0 a snapshot, with the
    config like ``best.ckpt``, is written to ``<checkpoint_dir>/epoch_<n>.ckpt``
    every that many epochs.
    """
    cfg.validate()
    if nb is None:
        nb = build_neighborhoods(g)
    stack = build_stack(g, nb, cfg)
    state = TrainState()
    log = []
    best_total, best_epoch = np.inf, 0
    while state.epoch < cfg.max_epochs and state.epoch - best_epoch < cfg.patience:
        pre_step = stack.snapshot()
        report = train_epoch(state, g, nb, stack, cfg)
        log.append((state.epoch, report))
        if checkpoint_every > 0 and checkpoint_dir is not None \
                and state.epoch % checkpoint_every == 0:
            save_checkpoint(os.path.join(checkpoint_dir, f"epoch_{state.epoch}.ckpt"),
                            stack, cfg)
        if report.total < best_total:
            # the report was measured before the update, so the matching
            # parameters are the pre-step ones
            best_total, best_epoch = report.total, state.epoch
            best_params, best_S = pre_step, state.S
    # the first epoch always improves on inf: a non-finite total raises
    stack.set_params(best_params)
    return FitResult(stack=stack, S=best_S, log=log, best_epoch=best_epoch)
