"""Planted-partition heterogeneous graph generator for tests and demos.

Target nodes fall into c balanced blocks with block-separated Gaussian
features. Auxiliary node types mirror the block structure; each relation
links a target node mostly to same-block auxiliary nodes, with a small
cross-block edge rate. Everything is a deterministic function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import HeteroGraph, Relation, read_fields


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
        if self.relations < 1:
            raise ValueError("need at least one relation")
        if not (0.0 <= self.cross_edge_rate <= 1.0):
            raise ValueError("cross_edge_rate must be in [0, 1]")
        if not (0.0 < self.train_frac < 1.0):
            raise ValueError("train_frac must be in (0, 1)")

    @classmethod
    def from_tsv(cls, path: str) -> "SynthSpec":
        kwargs = read_fields(path, cls.__dataclass_fields__)
        for key in kwargs:
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown generator key {key!r}")
        spec = cls(**kwargs)
        spec.validate()
        return spec


def _block_of(i: int, total: int, c: int) -> int:
    return min(i * c // total, c - 1)


def _blocked_features(rng, count: int, dim: int, c: int,
                      separation: float, noise: float) -> tuple[np.ndarray, np.ndarray]:
    means = separation * rng.standard_normal((c, dim)) / np.sqrt(dim)
    blocks = np.array([_block_of(i, count, c) for i in range(count)])
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
        members = [np.nonzero(blocks_a == b)[0] for b in range(spec.c)]
        edges = []
        for i in range(spec.n):
            b = blocks_t[i]
            for _ in range(spec.edges_per_node):
                if spec.c > 1 and rng.random() < spec.cross_edge_rate:
                    other = int(rng.integers(spec.c - 1))
                    pick_b = other + (other >= b)
                else:
                    pick_b = b
                pool = members[pick_b]
                if pool.size == 0:
                    continue
                edges.append((i, int(pool[rng.integers(pool.size)])))
        edges = np.unique(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=0)
        relations.append(Relation(f"rel{r}", target, aux, edges))

    train, test = [], []
    for b in range(spec.c):
        idx = np.nonzero(blocks_t == b)[0]
        perm = rng.permutation(idx)
        cut = max(1, int(round(spec.train_frac * idx.size)))
        train.extend(perm[:cut].tolist())
        test.extend(perm[cut:].tolist())

    g = HeteroGraph(
        node_types=node_types,
        counts=counts,
        features=features,
        relations=relations,
        target_type=target,
        labels=blocks_t.astype(np.int64),
        train_idx=np.array(sorted(train), dtype=np.int64),
        test_idx=np.array(sorted(test), dtype=np.int64),
    )
    g.validate()
    return g
