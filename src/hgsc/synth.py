"""Planted-partition heterogeneous graph generator for tests and demos.

Target nodes fall into c balanced blocks with block-separated Gaussian
features. Auxiliary node types mirror the block structure; each relation
links a target node mostly to same-block auxiliary nodes, with a small
cross-block edge rate. Everything is a deterministic function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import HeteroGraph, Relation, from_fields, read_fields


@dataclass
class SynthSpec:
    n: int = 300
    c: int = 3
    feature_dim: int = 16
    aux_count: int = 150
    aux_feature_dim: int = 8
    relations: int = 2
    edges_per_node: int = 5
    separation: float = 8.0
    noise: float = 1.0
    cross_edge_rate: float = 0.05
    train_frac: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.c < 1 or self.n < self.c:
            raise ValueError("need n >= c >= 1")
        if not (0.0 <= self.cross_edge_rate <= 1.0):
            raise ValueError("cross_edge_rate must be in [0, 1]")
        if not (0.0 < self.train_frac < 1.0):
            raise ValueError("train_frac must be in (0, 1)")
        for name in ("relations", "aux_count", "feature_dim", "aux_feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.edges_per_node < 0:
            raise ValueError("edges_per_node must be >= 0")
        for name in ("separation", "noise"):
            if not 0.0 <= getattr(self, name) < np.inf:  # nan fails too
                raise ValueError(f"{name} must be finite and >= 0")

    @classmethod
    def from_tsv(cls, path: str) -> "SynthSpec":
        """The spec in a ``key<TAB>value`` file; every rejection names ``path``."""
        values = read_fields(path, cls.__dataclass_fields__)
        try:
            return from_fields(cls, values, "generator")
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _blocked_features(rng, count: int, dim: int, c: int,
                      separation: float, noise: float) -> tuple[np.ndarray, np.ndarray]:
    means = separation * rng.standard_normal((c, dim)) / np.sqrt(dim)
    blocks = np.minimum(np.arange(count) * c // count, c - 1)
    feats = means[blocks] + noise * rng.standard_normal((count, dim))
    return feats, blocks


def generate(spec: SynthSpec) -> HeteroGraph:
    """Build a planted-partition heterogeneous graph from the spec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    target = "item"
    feats_t, blocks_t = _blocked_features(
        rng, spec.n, spec.feature_dim, spec.c, spec.separation, spec.noise)

    node_types = [target]
    counts = {target: spec.n}
    features = {target: feats_t}
    relations = []
    for r in range(spec.relations):
        aux = f"ctx{r}"
        node_types.append(aux)
        counts[aux] = spec.aux_count
        feats_a, blocks_a = _blocked_features(
            rng, spec.aux_count, spec.aux_feature_dim, spec.c,
            spec.separation, spec.noise)
        features[aux] = feats_a
        # blocks are contiguous index ranges: the block index is monotone
        start = np.searchsorted(blocks_a, np.arange(spec.c + 1))
        size = np.diff(start)
        src = np.repeat(np.arange(spec.n), spec.edges_per_node)
        pick_b = blocks_t[src]
        if spec.c > 1:
            cross = rng.random(src.size) < spec.cross_edge_rate
            other = rng.integers(spec.c - 1, size=int(cross.sum()))
            pick_b[cross] = other + (other >= pick_b[cross])
        keep = size[pick_b] > 0  # an empty aux block takes no edge
        src, pick_b = src[keep], pick_b[keep]
        dst = start[pick_b] + rng.integers(size[pick_b])
        keys = np.unique(src * spec.aux_count + dst)
        edges = np.column_stack((keys // spec.aux_count, keys % spec.aux_count))
        relations.append(Relation(f"rel{r}", target, aux, edges))

    train = []
    for b in range(spec.c):
        perm = rng.permutation(np.flatnonzero(blocks_t == b))
        cut = max(1, int(round(spec.train_frac * perm.size)))
        train.append(perm[:cut])
    train = np.sort(np.concatenate(train))

    return HeteroGraph(
        node_types=node_types,
        counts=counts,
        features=features,
        relations=relations,
        target_type=target,
        labels=blocks_t,
        train_idx=train,
        test_idx=np.setdiff1d(np.arange(spec.n), train),
    )
