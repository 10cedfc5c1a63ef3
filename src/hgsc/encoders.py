"""Differentiable building blocks with hand-written backward passes.

The stack covers the semantic encoder, the cluster projection head with
its QR orthogonal layer, the shared projection head, and the per-type /
per-relation heterogeneous encoder. Forward calls return explicit caches;
backward calls consume a cache and accumulate parameter gradients on the
layer, so one layer can serve several forward passes per step (the shared
projection head needs this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RankDeficientError(Exception):
    """Orthogonal layer input lost full column rank."""


class EncoderConfigError(Exception):
    pass


def scaled_uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class DenseLayer:
    """Affine map with an activation tag; gradients accumulate in gw/gb.

    Activations: "relu" or "none". The cluster head stays
    linear: a relu there can zero out a whole column of the assignment
    matrix and make the QR step rank deficient.

    Memory contract: the forward applies relu in place and caches only its
    input and, for relu, the boolean mask ``pre > 0`` (an eighth of the
    float pre-activation); the pre-activation itself is not kept.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        if activation not in ("relu", "none"):
            raise EncoderConfigError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.W = scaled_uniform_init(rng, in_dim, out_dim)
        self.b = np.zeros(out_dim)
        self.activation = activation
        self.gw = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    @property
    def in_dim(self) -> int:
        return self.W.shape[0]

    @property
    def out_dim(self) -> int:
        return self.W.shape[1]

    def forward(self, X: np.ndarray):
        """Return (out, cache); cache = (X, relu mask or None)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.in_dim:
            raise EncoderConfigError(
                f"layer expects (*, {self.in_dim}) input, got {X.shape}")
        out = X @ self.W
        out += self.b
        mask = None
        if self.activation == "relu":
            mask = out > 0.0
            np.maximum(out, 0.0, out=out)
        return out, (X, mask)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """Accumulate gw/gb; return the input gradient, or None when
        ``input_grad`` is False (its n x in_dim product is then skipped)."""
        X, mask = cache
        if grad_out.shape != (X.shape[0], self.out_dim):
            raise EncoderConfigError(
                f"upstream gradient shape {grad_out.shape} != output "
                f"{(X.shape[0], self.out_dim)}")
        g = grad_out * mask if mask is not None else grad_out
        self.gw += X.T @ g
        self.gb += g.sum(axis=0)
        return g @ self.W.T if input_grad else None

    def zero_grads(self) -> None:
        self.gw[:] = 0.0
        self.gb[:] = 0.0


def orthogonal_layer(P: np.ndarray):
    """Map P to Y = sqrt(n) P R^-1 with R from the QR factorization of P.

    Y satisfies Y^T Y = n I and spans the same columns as P. The signs of
    R's rows are chosen so that every column of Y has a nonnegative sum.
    Since P R^-1 is the QR's own Q (up to those signs), Y is taken from Q
    and no triangular solve runs. Raises ``RankDeficientError`` when the
    smallest singular value of P (equal to that of the c x c factor R)
    falls below 1e-8 times the largest. Only numpy.linalg is called: numpy
    and scipy each load their own OpenBLAS, and a scipy.linalg call made
    between numpy BLAS calls measured ~2 ms against ~0.1 ms (n = 300,
    2 cores, 2 BLAS threads).
    """
    P = np.asarray(P, dtype=np.float64)
    n, c = P.shape
    if n < c:
        raise RankDeficientError(f"need at least {c} rows, got {n}")
    Q, R = np.linalg.qr(P)
    svals = np.linalg.svd(R, compute_uv=False)
    if svals[-1] <= 1e-8 * svals[0]:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise RankDeficientError(
            f"projection matrix is rank deficient (condition ~ {cond:.3e})")
    # sign freedom of the factorization: orient each column of Y toward a
    # nonnegative sum so the assignment columns stay probability-like and
    # the entropy regularizer keeps a live gradient on every column
    sign = np.where(Q.sum(axis=0) < 0.0, -1.0, 1.0)
    return np.sqrt(n) * (Q * sign), R * sign[:, None]


def orthogonal_backward(grad_Y: np.ndarray, P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Exact gradient through P -> Y = sqrt(n) Q, where P = QR (thin QR).

    ``R`` is the sign-canonicalized factor returned by ``orthogonal_layer``
    for this P. Y depends only on the column space of P, so the result is
    orthogonal to every column-scaling direction: d_P[:, j] . P[:, j] = 0.
    The two c x c solves use numpy.linalg, not scipy.linalg, for the
    reason given in ``orthogonal_layer``: the training step calls only
    numpy's BLAS.
    """
    n = P.shape[0]
    Q = np.linalg.solve(R.T, P.T).T  # P R^-1
    G = np.sqrt(n) * grad_Y
    B = G.T @ Q
    low = np.tril(B, -1)
    M = low + low.T + np.diag(np.diag(B))
    return np.linalg.solve(R, (G - Q @ M).T).T  # (G - Q M) R^-T


@dataclass
class ClusterAssignment:
    """Orthogonalized assignment Y (Y^T Y = n I), argmax indicators, R factor."""

    Y: np.ndarray
    yhat: np.ndarray
    R: np.ndarray


def cluster_assign(p_head: DenseLayer, H: np.ndarray):
    """Cluster assignment from representations: P = p(H) (linear head), then QR.

    Returns (ClusterAssignment, cache) with cache = (the head's cache, P):
    the head caches no output, and ``orthogonal_backward`` needs P.
    """
    P, cache = p_head.forward(H)
    Y, R = orthogonal_layer(P)
    yhat = np.argmax(Y, axis=1)
    return ClusterAssignment(Y=Y, yhat=yhat, R=R), (cache, P)


class EncoderStack:
    """All trainable parameters plus the wiring between them.

    Layers: ``g_phi`` (target features -> d1), ``p_phi`` (d1 -> c),
    ``q_gamma`` (d1 -> d2), one input projection per node type and one
    combiner (2 d1 -> d1) per relation. Initialization order is fixed, so
    a seed fully determines every parameter. The projections and combiners
    are stored and checkpointed as separate layers, but ``hetero_encode``
    never runs them one by one: it folds each relation's maps into one
    small matrix per step, applied to graph constants built once per graph
    and relation (see ``hetero_encode``).

    Every parameter lives in one flat float64 array ``params`` and every
    gradient in ``grads``, both in ``_layers()`` order (W then b per
    layer); each layer's ``W``, ``b``, ``gw`` and ``gb`` is a reshaped view
    into them. Write layers in place (``layer.W[...] = ...``): assigning a
    new array to the attribute detaches the layer from the buffers.
    """

    def __init__(self, feature_dims: dict[str, int], target_type: str,
                 relations: list[tuple[str, str]], d1: int, d2: int, c: int,
                 seed: int = 0):
        rng = np.random.default_rng(seed)
        self.target_type = target_type
        self.relations = list(relations)
        self.d1, self.d2, self.c = d1, d2, c
        self.feature_dims = dict(feature_dims)
        self.g_phi = DenseLayer(feature_dims[target_type], d1, "relu", rng)
        self.p_phi = DenseLayer(d1, c, "none", rng)
        self.q_gamma = DenseLayer(d1, d2, "relu", rng)
        self.f_theta: dict[str, DenseLayer] = {}
        for t in sorted({target_type} | {t for _, t in relations}):
            self.f_theta[t] = DenseLayer(feature_dims[t], d1, "none", rng)
        self.combiners: dict[str, DenseLayer] = {}
        for name, _ in sorted(relations):
            self.combiners[name] = DenseLayer(2 * d1, d1, "relu", rng)
        size = sum(layer.W.size + layer.b.size for _, layer in self._layers())
        self.params, self.grads = np.empty(size), np.zeros(size)
        self._named_params, self._named_grads = {}, {}
        at = 0
        for name, layer in self._layers():
            for a, ga in (("W", "gw"), ("b", "gb")):
                init = getattr(layer, a)
                end = at + init.size
                p = self.params[at:end].reshape(init.shape)
                p[...] = init
                g = self.grads[at:end].reshape(init.shape)
                setattr(layer, a, p)
                setattr(layer, ga, g)
                self._named_params[f"{name}.{a}"] = p
                self._named_grads[f"{name}.{a}"] = g
                at = end

    def _layers(self):
        yield "g_phi", self.g_phi
        yield "p_phi", self.p_phi
        yield "q_gamma", self.q_gamma
        for t in sorted(self.f_theta):
            yield f"f_theta.{t}", self.f_theta[t]
        for r in sorted(self.combiners):
            yield f"combiner.{r}", self.combiners[r]

    def named_params(self) -> dict[str, np.ndarray]:
        """``<layer>.W`` / ``<layer>.b`` -> the layer's view into ``params``."""
        return self._named_params

    def named_grads(self) -> dict[str, np.ndarray]:
        """The same names -> the views into ``grads``."""
        return self._named_grads

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def set_params(self, flat: np.ndarray) -> None:
        """Overwrite every parameter from a flat array like ``snapshot()``'s."""
        self.params[...] = flat

    def snapshot(self) -> np.ndarray:
        return self.params.copy()


def _relation_input(nb, features: dict[str, np.ndarray], name: str, d1: int):
    """Constant left factor B_r of relation ``name`` and its wide X_n.

    B_r = [X_t | A_r X_n | 1 | deg_r]: X_t and X_n are the target and
    neighbor features, A_r the relation's matrix in ``nb.entries`` and
    deg_r its row sums (neighbor counts). Neighbor features wider than d1
    (such as synthesized one-hot ones) are not densified: their block is
    left out and X_n is returned for the caller to apply A_r sparsely;
    otherwise the second value is None. Built on first use and kept in
    ``nb.cache`` for as long as the same feature arrays are passed.
    """
    nbr_type, A = nb.entries[name]
    x_tgt, x_nbr = features[nb.target_type], features[nbr_type]
    wide = x_nbr.shape[1] > d1
    hit = nb.cache.get((name, wide))
    if hit is None or hit[0] is not x_tgt or hit[1] is not x_nbr:
        deg = np.diff(A.indptr).astype(np.float64)[:, None]
        blocks = [x_tgt] if wide else [x_tgt, A @ x_nbr]
        hit = (x_tgt, x_nbr, np.hstack(blocks + [np.ones_like(deg), deg]))
        nb.cache[(name, wide)] = hit
    return hit[2], x_nbr if wide else None


def _fold(stack: EncoderStack, name: str, nbr_type: str, aggregate: bool):
    """Right factor T_r of relation ``name``'s pre-activation B_r T_r.

    Rows: [W_t W_c1; W_n W_c2; b_t W_c1 + b_c; b_n W_c2], matching the
    column blocks of ``_relation_input``; without ``aggregate`` the
    W_n W_c2 block is returned apart instead of stacked.
    """
    d1 = stack.d1
    f_t = stack.f_theta[stack.target_type]
    f_n = stack.f_theta[nbr_type]
    comb = stack.combiners[name]
    W_c1, W_c2 = comb.W[:d1], comb.W[d1:]
    M_n = f_n.W @ W_c2
    rows = [f_t.W @ W_c1, M_n] if aggregate else [f_t.W @ W_c1]
    return np.vstack(rows + [f_t.b @ W_c1 + comb.b, f_n.b @ W_c2]), M_n


def hetero_encode(stack: EncoderStack, g, nb):
    """Relation-wise neighbor aggregation into n x d1 representations.

    Per relation: project the target row and the summed neighbor rows with
    the per-type linear maps, concatenate, squash through the relation's
    combiner, then average over relations. Everything before the
    combiner's relu is linear, so each relation's pre-activation is
    computed as one product B_r T_r: B_r holds only graph constants and is
    built once per graph and relation (``_relation_input``), and T_r is a
    small (f_t + f_n + 2) x d1 matrix folded from the weights (``_fold``).
    Wide neighbor features are applied as A_r (X_n (W_n W_c2)) instead.

    The cache maps each relation name, in sorted order, to the record
    (neighbor type, A_r, B_r, wide X_n or None, relu mask): all the
    backward reads. Memory contract: relu is applied in place and the
    record keeps the boolean mask ``pre > 0``, not the float pre-activation.
    """
    records = {}
    Zt = None
    for name in sorted(nb.entries):
        nbr_type, A = nb.entries[name]
        B, X_n = _relation_input(nb, g.features, name, stack.d1)
        T, M_n = _fold(stack, name, nbr_type, X_n is None)
        out = B @ T
        if X_n is not None:
            out += A @ (X_n @ M_n)
        records[name] = (nbr_type, A, B, X_n, out > 0.0)
        np.maximum(out, 0.0, out=out)
        if Zt is None:
            Zt = out
        else:
            Zt += out
        del out
    Zt /= len(records)
    return Zt, records


def hetero_backward(stack: EncoderStack, cache, grad_Zt: np.ndarray) -> None:
    """Backward pass mirroring ``hetero_encode``; accumulates layer grads.

    Per relation, one B_r^T g_r product reduces the n rows to an
    (f_t + f_n + 2) x d1 matrix; the ``f_theta`` and ``combiner``
    gradients follow from it by small products with the weights. Only one
    relation's n x d1 gradient g_r is alive at a time.
    """
    d1 = stack.d1
    f_t = stack.f_theta[stack.target_type]
    k_t = f_t.in_dim
    for name, (nbr_type, A, B, X_n, mask) in cache.items():
        f_n, comb = stack.f_theta[nbr_type], stack.combiners[name]
        W_c1, W_c2 = comb.W[:d1], comb.W[d1:]
        # the 1/R of the relation average is applied to the reduced rows
        g_r = grad_Zt * mask
        G = B.T @ g_r / len(cache)
        G_t, g_1, g_deg = G[:k_t], G[-2], G[-1]
        if X_n is None:
            G_n = G[k_t:-2]
        else:
            G_n = X_n.T @ (A.T @ g_r) / len(cache)
        del g_r
        comb.gw[:d1] += f_t.W.T @ G_t + np.outer(f_t.b, g_1)
        comb.gw[d1:] += f_n.W.T @ G_n + np.outer(f_n.b, g_deg)
        comb.gb += g_1
        f_t.gw += G_t @ W_c1.T
        f_t.gb += g_1 @ W_c1.T
        f_n.gw += G_n @ W_c2.T
        f_n.gb += g_deg @ W_c2.T
