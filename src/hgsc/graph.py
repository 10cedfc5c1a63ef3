"""Typed heterogeneous graphs: loading, validation, saving, neighborhoods.

On-disk dataset layout (all files UTF-8, tab-separated, LF endings,
0-based indices):

    meta.tsv               tagged rows:
                             node <type> <count> <feature_dim>
                             edge <relation> <src_type> <dst_type>
                             target <type>
    features_<type>.tsv    one row per node of that type, real-valued
    edges_<relation>.tsv   two integer columns: src dst
    labels.tsv             target node index, integer class id
    split.tsv              target node index, "train" or "test"

Non-target types may omit their features file; features are then
synthesized at load time as one-hot rows (see ``load_graph``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


class GraphFormatError(Exception):
    """A dataset file is missing or cannot be parsed."""


class GraphValidationError(Exception):
    """Parsed data violates a graph invariant."""


@dataclass
class Relation:
    """A directed typed edge set; ``edges`` is an (m, 2) int array."""

    name: str
    src_type: str
    dst_type: str
    edges: np.ndarray


@dataclass
class HeteroGraph:
    node_types: list[str]
    counts: dict[str, int]
    features: dict[str, np.ndarray]
    relations: list[Relation]
    target_type: str
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_target(self) -> int:
        return self.counts[self.target_type]

    def validate(self) -> None:
        if self.target_type not in self.node_types:
            raise GraphValidationError(f"unknown target type {self.target_type!r}")
        for t in self.node_types:
            feats = self.features[t]
            if feats.shape[0] != self.counts[t]:
                raise GraphValidationError(
                    f"type {t!r}: {feats.shape[0]} feature rows for {self.counts[t]} nodes")
            if not np.all(np.isfinite(feats)):
                raise GraphValidationError(f"type {t!r}: non-finite feature values")
        for rel in self.relations:
            for side, t in (("src", rel.src_type), ("dst", rel.dst_type)):
                if t not in self.counts:
                    raise GraphValidationError(f"relation {rel.name!r}: unknown {side} type {t!r}")
            if rel.edges.size:
                col = rel.edges[:, 0]
                bad = (col < 0) | (col >= self.counts[rel.src_type])
                if bad.any():
                    e = rel.edges[np.argmax(bad)]
                    raise GraphValidationError(
                        f"relation {rel.name!r}: edge ({e[0]}, {e[1]}) src index out of range")
                col = rel.edges[:, 1]
                bad = (col < 0) | (col >= self.counts[rel.dst_type])
                if bad.any():
                    e = rel.edges[np.argmax(bad)]
                    raise GraphValidationError(
                        f"relation {rel.name!r}: edge ({e[0]}, {e[1]}) dst index out of range")
            if rel.src_type == self.target_type and rel.dst_type == self.target_type:
                loops = rel.edges[:, 0] == rel.edges[:, 1]
                if loops.any():
                    i = int(rel.edges[np.argmax(loops), 0])
                    raise GraphValidationError(
                        f"relation {rel.name!r}: self-loop on target node {i}")
        n = self.n_target
        if self.labels.shape != (n,):
            raise GraphValidationError(
                f"expected one label per target node ({n}), got {self.labels.shape}")
        if self.labels.min() < 0:
            raise GraphValidationError("negative class id in labels")
        for name, idx in (("train", self.train_idx), ("test", self.test_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise GraphValidationError(f"{name} split index out of range")
        overlap = np.intersect1d(self.train_idx, self.test_idx)
        if overlap.size:
            raise GraphValidationError(f"train/test overlap at node {int(overlap[0])}")


@dataclass
class RelationNeighborhood:
    """Per-relation one-hop neighbor lists indexed by target node.

    ``entries`` maps relation name to (neighbor type, list of sorted,
    deduplicated index arrays; one array per target node). Each relation's
    aggregation matrix and encoder input are built on first use and cached.
    """

    target_type: str
    n: int
    entries: dict[str, tuple[str, list[np.ndarray]]]
    counts: dict[str, int]
    _agg_cache: dict = field(default_factory=dict, repr=False)

    def aggregation_matrix(self, name: str):
        """Sparse (n x n_neighbor_type) 0/1 matrix summing neighbor rows."""
        from scipy.sparse import csr_matrix

        if name not in self._agg_cache:
            nbr_type, lists = self.entries[name]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([len(a) for a in lists])
            indices = np.concatenate(lists) if indptr[-1] else np.empty(0, dtype=np.int64)
            data = np.ones(indptr[-1], dtype=np.float64)
            self._agg_cache[name] = csr_matrix(
                (data, indices, indptr), shape=(self.n, max(self.counts[nbr_type], 1)))
        return self._agg_cache[name]

    def combiner_input(self, name: str, features: dict[str, np.ndarray],
                       aggregate: bool) -> np.ndarray:
        """Constant left factor B = [X_t | A X_n | 1 | deg] of relation ``name``.

        X_t and X_n are the target and neighbor features, A is
        ``aggregation_matrix(name)`` and deg its row sums (neighbor counts).
        With ``aggregate`` False the A X_n block is left out and the caller
        applies A sparsely. Built on first use and cached per relation for as
        long as the same feature arrays are passed.
        """
        nbr_type = self.entries[name][0]
        x_tgt, x_nbr = features[self.target_type], features[nbr_type]
        key = (name, aggregate)
        hit = self._agg_cache.get(key)
        if hit is None or hit[0] is not x_tgt or hit[1] is not x_nbr:
            A = self.aggregation_matrix(name)
            deg = np.diff(A.indptr).astype(np.float64)[:, None]
            blocks = [x_tgt, A @ x_nbr] if aggregate else [x_tgt]
            hit = (x_tgt, x_nbr, np.hstack(blocks + [np.ones_like(deg), deg]))
            self._agg_cache[key] = hit
        return hit[2]


def _read_rows(path: str) -> list[list[str]]:
    if not os.path.isfile(path):
        raise GraphFormatError(f"missing file: {path}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                rows.append(line.split("\t"))
    return rows


def load_graph(path: str) -> HeteroGraph:
    """Load and validate a dataset directory.

    A non-target node type without a features file gets one-hot features
    (the identity matrix over its nodes).
    """
    meta = _read_rows(os.path.join(path, "meta.tsv"))
    node_types: list[str] = []
    counts: dict[str, int] = {}
    dims: dict[str, int] = {}
    rel_decls: list[tuple[str, str, str]] = []
    target_type = None
    for row in meta:
        tag = row[0]
        if tag == "node":
            _, name, count, dim = row
            node_types.append(name)
            counts[name] = int(count)
            dims[name] = int(dim)
        elif tag == "edge":
            _, name, src, dst = row
            rel_decls.append((name, src, dst))
        elif tag == "target":
            target_type = row[1]
        else:
            raise GraphFormatError(f"meta.tsv: unknown row tag {tag!r}")
    if target_type is None:
        raise GraphFormatError("meta.tsv: no target row")

    features = {}
    for t in node_types:
        fpath = os.path.join(path, f"features_{t}.tsv")
        if os.path.isfile(fpath):
            feats = np.loadtxt(fpath, delimiter="\t", ndmin=2, dtype=np.float64)
            if counts[t] == 0:
                feats = feats.reshape(0, dims[t])
        elif t != target_type:
            feats = np.eye(counts[t], dtype=np.float64)
        else:
            raise GraphFormatError(f"missing file: {fpath}")
        features[t] = feats

    relations = []
    for name, src, dst in rel_decls:
        epath = os.path.join(path, f"edges_{name}.tsv")
        rows = _read_rows(epath)
        if rows:
            edges = np.array([[int(r[0]), int(r[1])] for r in rows], dtype=np.int64)
            edges = np.unique(edges, axis=0)
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        relations.append(Relation(name, src, dst, edges))

    n = counts[target_type]
    labels = np.full(n, -1, dtype=np.int64)
    for r in _read_rows(os.path.join(path, "labels.tsv")):
        i, cls = int(r[0]), int(r[1])
        if i < 0 or i >= n:
            raise GraphValidationError(f"labels.tsv: node index {i} out of range")
        if cls < 0:
            raise GraphValidationError(f"labels.tsv: negative class id for node {i}")
        labels[i] = cls
    if (labels < 0).any():
        missing = int(np.argmax(labels < 0))
        raise GraphValidationError(f"labels.tsv: no label for target node {missing}")

    train, test = [], []
    for r in _read_rows(os.path.join(path, "split.tsv")):
        i, part = int(r[0]), r[1]
        if part == "train":
            train.append(i)
        elif part == "test":
            test.append(i)
        else:
            raise GraphFormatError(f"split.tsv: unknown split {part!r}")

    g = HeteroGraph(
        node_types=node_types,
        counts=counts,
        features=features,
        relations=relations,
        target_type=target_type,
        labels=labels,
        train_idx=np.array(sorted(train), dtype=np.int64),
        test_idx=np.array(sorted(test), dtype=np.int64),
    )
    g.validate()
    return g


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_graph(g: HeteroGraph, path: str) -> None:
    """Write a graph in the on-disk layout; inverse of ``load_graph``."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta.tsv"), "w", encoding="utf-8") as fh:
        for t in g.node_types:
            fh.write(f"node\t{t}\t{g.counts[t]}\t{g.features[t].shape[1]}\n")
        for rel in g.relations:
            fh.write(f"edge\t{rel.name}\t{rel.src_type}\t{rel.dst_type}\n")
        fh.write(f"target\t{g.target_type}\n")
    for t in g.node_types:
        with open(os.path.join(path, f"features_{t}.tsv"), "w", encoding="utf-8") as fh:
            for row in g.features[t]:
                fh.write("\t".join(_fmt(v) for v in row) + "\n")
    for rel in g.relations:
        with open(os.path.join(path, f"edges_{rel.name}.tsv"), "w", encoding="utf-8") as fh:
            for s, d in rel.edges:
                fh.write(f"{s}\t{d}\n")
    with open(os.path.join(path, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i, cls in enumerate(g.labels):
            fh.write(f"{i}\t{cls}\n")
    with open(os.path.join(path, "split.tsv"), "w", encoding="utf-8") as fh:
        for i in g.train_idx:
            fh.write(f"{i}\ttrain\n")
        for i in g.test_idx:
            fh.write(f"{i}\ttest\n")


def build_neighborhoods(g: HeteroGraph) -> RelationNeighborhood:
    """Collect one-hop neighbor lists per relation, indexed by target node.

    Relation direction is normalized: whichever endpoint is the target type
    indexes the list, the other endpoint supplies the neighbors. Relations
    not touching the target type are skipped. Lists are deduplicated and
    sorted ascending; empty lists are kept.
    """
    n = g.n_target
    entries: dict[str, tuple[str, list[np.ndarray]]] = {}
    for rel in g.relations:
        touches_src = rel.src_type == g.target_type
        touches_dst = rel.dst_type == g.target_type
        if not (touches_src or touches_dst):
            continue
        edges = np.asarray(rel.edges, dtype=np.int64)
        tgt, nbr = [], []
        if touches_src:
            nbr_type = rel.dst_type
            tgt.append(edges[:, 0])
            nbr.append(edges[:, 1])
        if touches_dst:
            nbr_type = rel.src_type
            tgt.append(edges[:, 1])
            nbr.append(edges[:, 0])
        tgt, nbr = np.concatenate(tgt), np.concatenate(nbr)
        # one sorted key per distinct (target, neighbor) pair
        m = int(nbr.max()) + 1 if nbr.size else 1
        keys = np.unique(tgt * m + nbr)
        tgt, nbr = keys // m, keys % m
        bounds = np.searchsorted(tgt, np.arange(n + 1)).tolist()
        lists = [nbr[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        entries[rel.name] = (nbr_type, lists)
    return RelationNeighborhood(
        target_type=g.target_type, n=n, entries=entries, counts=dict(g.counts))
