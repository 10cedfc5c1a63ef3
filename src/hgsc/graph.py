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

Edges, labels and split are read by their first two columns; later fields
are ignored and an empty edges file is a relation without edges. A short or
unparsable row, a features file not ``feature_dim`` wide, a negative node
count or feature_dim, a second meta.tsv row for a node type, a relation or
the target, a target type without a node row, or a node listed twice in
labels.tsv or twice under one part of split.tsv raises ``GraphFormatError``
naming the file. Non-target types may omit their features file if their
feature_dim is 0 or their count; their features are then one-hot rows,
held as a sparse identity matrix, and ``save_graph`` writes no features
file for them (see ``load_graph``).
"""

from __future__ import annotations

import dataclasses
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse


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
            if not np.all(np.isfinite(feats.data if issparse(feats) else feats)):
                raise GraphValidationError(f"type {t!r}: non-finite feature values")
        for rel in self.relations:
            for side, t in (("src", rel.src_type), ("dst", rel.dst_type)):
                if t not in self.counts:
                    raise GraphValidationError(f"relation {rel.name!r}: unknown {side} type {t!r}")
            for col, side, t in ((0, "src", rel.src_type), (1, "dst", rel.dst_type)):
                bad = (rel.edges[:, col] < 0) | (rel.edges[:, col] >= self.counts[t])
                if bad.any():
                    e = rel.edges[np.argmax(bad)]
                    raise GraphValidationError(
                        f"relation {rel.name!r}: edge ({e[0]}, {e[1]}) {side} index out of range")
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
    """Per-relation one-hop neighborhoods of the target nodes.

    ``entries`` maps relation name to (neighbor type, A), where A is the
    (n x n_neighbor_type) CSR 0/1 matrix whose row i marks the distinct
    neighbors of target node i, so A X sums neighbor rows. ``cache`` holds
    what the relation encoder derives from them (``encoders._relation_input``).
    """

    target_type: str
    n: int
    entries: dict[str, tuple[str, csr_matrix]]
    cache: dict = field(default_factory=dict, repr=False)


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    """The non-blank lines of a TSV file as (line number, fields)."""
    if not os.path.isfile(path):
        raise GraphFormatError(f"missing file: {path}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line:
                rows.append((lineno, line.split("\t")))
    return rows


def _read_table(path: str, **kwargs) -> np.ndarray:
    """A TSV table as a 2-d array (``np.loadtxt`` with ``kwargs``).

    A missing file, a row of another width or a value that does not parse
    raises GraphFormatError naming the file.
    """
    if not os.path.isfile(path):
        raise GraphFormatError(f"missing file: {path}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file has no rows
            return np.loadtxt(path, delimiter="\t", ndmin=2, encoding="utf-8", **kwargs)
    except ValueError as e:
        raise GraphFormatError(f"malformed file {path}: {e}") from None


def _read_pairs(path: str, dtype=np.int64) -> np.ndarray:
    """The first two columns of a TSV table as an (m, 2) array; an empty
    file gives shape (0, 2)."""
    return _read_table(path, dtype=dtype, comments=None, usecols=(0, 1))


def _sorted_once(path: str, idx: np.ndarray, where: str) -> np.ndarray:
    """``idx`` sorted; a node listed twice raises GraphFormatError naming
    ``path`` and the node."""
    idx = np.sort(idx)
    twice = idx[1:][idx[1:] == idx[:-1]]
    if twice.size:
        raise GraphFormatError(f"{path}: node {int(twice[0])} is listed twice{where}")
    return idx


# fields per meta.tsv row, by tag
_META_WIDTH = {"node": 4, "edge": 4, "target": 2}


def load_graph(path: str) -> HeteroGraph:
    """Load and validate a dataset directory.

    A non-target node type without a features file gets one-hot features:
    the identity matrix over its nodes, as a scipy CSR matrix. Every error
    names the file it was found in; an error of ``HeteroGraph.validate``
    names ``path``.
    """
    meta_path = os.path.join(path, "meta.tsv")
    node_types: list[str] = []
    counts: dict[str, int] = {}
    dims: dict[str, int] = {}
    node_lines: dict[str, int] = {}
    rel_decls: list[tuple[str, str, str]] = []
    target_type = None
    declared = set()
    for lineno, row in _read_rows(meta_path):
        tag = row[0]
        try:
            if tag not in _META_WIDTH:
                raise ValueError(f"unknown row tag {tag!r}")
            if len(row) != _META_WIDTH[tag]:
                raise ValueError(f"a {tag} row has {_META_WIDTH[tag]} fields, "
                                 f"got {len(row)}")
            name = "" if tag == "target" else row[1]
            if (tag, name) in declared:
                raise ValueError(f"a second {tag} row" + (name and f" for {name!r}"))
            declared.add((tag, name))
            if tag == "node":
                _, name, count, dim = row
                counts[name], dims[name], node_lines[name] = int(count), int(dim), lineno
                if min(counts[name], dims[name]) < 0:
                    raise ValueError(f"a node row's count and feature_dim must be >= 0, "
                                     f"got {count} and {dim}")
                node_types.append(name)
            elif tag == "edge":
                rel_decls.append(tuple(row[1:]))
            else:
                target_type = row[1]
        except ValueError as e:
            raise GraphFormatError(f"{meta_path}, line {lineno}: {e}") from None
    if target_type is None:
        raise GraphFormatError(f"{meta_path}: no target row")
    if target_type not in counts:
        raise GraphFormatError(f"{meta_path}: target type {target_type!r} has no node row")

    features = {}
    for t in node_types:
        fpath = os.path.join(path, f"features_{t}.tsv")
        if os.path.isfile(fpath):
            feats = _read_table(fpath, dtype=np.float64)
            if feats.size == 0:
                feats = feats.reshape(0, dims[t])
            elif feats.shape[1] != dims[t]:
                raise GraphFormatError(
                    f"{fpath}: type {t!r} declares feature_dim {dims[t]} in meta.tsv, "
                    f"the file has {feats.shape[1]} columns")
        elif t != target_type:
            if dims[t] not in (0, counts[t]):
                raise GraphFormatError(
                    f"{meta_path}, line {node_lines[t]}: type {t!r} has no features file, "
                    f"so its feature_dim must be 0 or its count {counts[t]}, got {dims[t]}")
            feats = identity(counts[t], format="csr")
        else:
            raise GraphFormatError(f"missing file: {fpath}")
        features[t] = feats

    relations = []
    for name, src, dst in rel_decls:
        edges = _read_pairs(os.path.join(path, f"edges_{name}.tsv"))
        relations.append(Relation(name, src, dst, np.unique(edges, axis=0)))

    n = counts[target_type]
    labels_path = os.path.join(path, "labels.tsv")
    node, cls = _read_pairs(labels_path).T
    bad = (node < 0) | (node >= n) | (cls < 0)
    if bad.any():
        i = int(node[np.argmax(bad)])
        if i < 0 or i >= n:
            raise GraphValidationError(f"{labels_path}: node index {i} out of range")
        raise GraphValidationError(f"{labels_path}: negative class id for node {i}")
    _sorted_once(labels_path, node, "")
    labels = np.full(n, -1, dtype=np.int64)
    labels[node] = cls
    if (labels < 0).any():
        missing = int(np.argmax(labels < 0))
        raise GraphValidationError(f"{labels_path}: no label for target node {missing}")

    split_path = os.path.join(path, "split.tsv")
    node, part = _read_pairs(split_path, dtype=str).T
    unknown = (part != "train") & (part != "test")
    if unknown.any():
        raise GraphFormatError(
            f"{split_path}: unknown split {str(part[np.argmax(unknown)])!r}")
    try:
        # parsed from Python strings, so the error quotes 'x', not np.str_('x')
        node = np.asarray(node.tolist(), dtype=np.int64)
    except ValueError as e:
        raise GraphFormatError(f"malformed file {split_path}: {e}") from None

    g = HeteroGraph(
        node_types=node_types,
        counts=counts,
        features=features,
        relations=relations,
        target_type=target_type,
        labels=labels,
        train_idx=_sorted_once(split_path, node[part == "train"], " under 'train'"),
        test_idx=_sorted_once(split_path, node[part == "test"], " under 'test'"),
    )
    try:
        g.validate()
    except GraphValidationError as e:
        raise GraphValidationError(f"{path}: {e}") from None
    return g


def save_graph(g: HeteroGraph, path: str) -> None:
    """Write a graph in the on-disk layout; inverse of ``load_graph``.

    A sparse features matrix is a featureless type's identity: no features
    file is written for it, and meta.tsv declares its count as its width.
    """
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta.tsv"), "w", encoding="utf-8") as fh:
        for t in g.node_types:
            fh.write(f"node\t{t}\t{g.counts[t]}\t{g.features[t].shape[1]}\n")
        for rel in g.relations:
            fh.write(f"edge\t{rel.name}\t{rel.src_type}\t{rel.dst_type}\n")
        fh.write(f"target\t{g.target_type}\n")
    for t in g.node_types:
        if not issparse(g.features[t]):
            np.savetxt(os.path.join(path, f"features_{t}.tsv"), g.features[t],
                       fmt="%.17g", delimiter="\t")
    for rel in g.relations:
        np.savetxt(os.path.join(path, f"edges_{rel.name}.tsv"), rel.edges,
                   fmt="%d", delimiter="\t")
    np.savetxt(os.path.join(path, "labels.tsv"),
               np.column_stack([np.arange(g.labels.size), g.labels]), fmt="%d", delimiter="\t")
    with open(os.path.join(path, "split.tsv"), "w", encoding="utf-8") as fh:
        np.savetxt(fh, g.train_idx, fmt="%d\ttrain")
        np.savetxt(fh, g.test_idx, fmt="%d\ttest")


def field_type(f) -> type:
    """int for a dataclass field annotated ``int``, else float."""
    return int if f.type == "int" else float


def read_fields(path: str, fields: dict) -> dict:
    """The ``key<TAB>value`` lines of a config or generator-spec file; a
    key in ``fields`` (a ``__dataclass_fields__``) has its value parsed by
    ``field_type``, any other keeps its text. Blank and '#' lines are
    skipped; a line without two fields or with an unparsable value raises
    ValueError naming the file and line.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, val = line.split("\t")
                values[key] = field_type(fields[key])(val) if key in fields else val
            except ValueError as e:
                raise ValueError(f"{path}, line {lineno}: {e}") from None
    return values


def from_fields(cls, values: dict, what: str):
    """A validated ``cls`` (a dataclass with ``validate()``) from ``values``.
    An unknown key, a value of the wrong type (a bool or a string anywhere,
    a non-integer in an int field; an int in a float field is fine), a
    missing field or a value ``validate`` rejects is a ValueError, whose
    text names the kind of input, ``what`` ("config", "generator")."""
    for key, value in values.items():
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown {what} key {key!r}")
        kind = field_type(cls.__dataclass_fields__[key])
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ValueError(f"{what} key {key!r} must be {kind.__name__}, got {value!r}")
    try:
        obj = cls(**values)
    except TypeError as e:
        raise ValueError(f"incomplete {what}: {e}") from e
    obj.validate()
    return obj


def write_fields(path: str, obj) -> None:
    """Write a dataclass as ``key<TAB>value`` lines, in field order; the
    inverse of ``read_fields``."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(obj):
            fh.write(f"{f.name}\t{getattr(obj, f.name)}\n")


def build_neighborhoods(g: HeteroGraph) -> RelationNeighborhood:
    """One CSR neighborhood matrix per relation, rows indexed by target node.

    Relation direction is normalized: whichever endpoint is the target type
    indexes the rows, the other endpoint supplies the neighbors. Relations
    not touching the target type are skipped. Each row holds its distinct
    neighbors in ascending order; a target node without neighbors has an
    empty row.
    """
    n = g.n_target
    entries: dict[str, tuple[str, csr_matrix]] = {}
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
        indptr = np.searchsorted(tgt, np.arange(n + 1))
        A = csr_matrix((np.ones(nbr.size), nbr, indptr), shape=(n, g.counts[nbr_type]))
        entries[rel.name] = (nbr_type, A)
    return RelationNeighborhood(target_type=g.target_type, n=n, entries=entries)
