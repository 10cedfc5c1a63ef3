import numpy as np
import pytest

from hgsc.graph import (GraphFormatError, GraphValidationError, HeteroGraph,
                        Relation, build_neighborhoods, load_graph, save_graph)


def neighbor_rows(nb, name):
    """Each target node's neighbor indices: the rows of the relation's CSR."""
    A = nb.entries[name][1]
    return [A.indices[a:b] for a, b in zip(A.indptr[:-1], A.indptr[1:])]


def write_dataset(tmp_path, meta, files):
    (tmp_path / "meta.tsv").write_text(meta)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    return str(tmp_path)


def minimal_dataset(tmp_path):
    return write_dataset(
        tmp_path,
        "node\tpaper\t3\t2\ntarget\tpaper\n",
        {
            "features_paper.tsv": "1\t0\n0\t1\n0.5\t0.5\n",
            "labels.tsv": "0\t0\n1\t1\n2\t0\n",
            "split.tsv": "0\ttrain\n1\ttest\n",
        })


def star_dataset(tmp_path, edges="0\t0\n0\t1\n"):
    return write_dataset(
        tmp_path,
        "node\tpaper\t2\t2\nnode\tauthor\t3\t1\nedge\tpa\tpaper\tauthor\ntarget\tpaper\n",
        {
            "features_paper.tsv": "1\t0\n0\t1\n",
            "features_author.tsv": "1\n2\n3\n",
            "edges_pa.tsv": edges,
            "labels.tsv": "0\t0\n1\t1\n",
            "split.tsv": "0\ttrain\n1\ttest\n",
        })


def test_load_degenerate_no_edges(tmp_path):
    g = load_graph(minimal_dataset(tmp_path))
    assert g.n_target == 3
    assert g.labels.tolist() == [0, 1, 0]
    nb = build_neighborhoods(g)
    assert nb.entries == {}


def test_load_star_graph(tmp_path):
    g = load_graph(star_dataset(tmp_path))
    nb = build_neighborhoods(g)
    assert nb.entries["pa"][0] == "author"
    lists = neighbor_rows(nb, "pa")
    assert lists[0].tolist() == [0, 1]
    assert lists[1].tolist() == []


def test_duplicate_edges_deduplicated(tmp_path):
    g = load_graph(star_dataset(tmp_path, edges="0\t0\n0\t0\n0\t1\n"))
    nb = build_neighborhoods(g)
    lists = neighbor_rows(nb, "pa")
    # oracle: set construction
    assert lists[0].tolist() == sorted({0, 0, 1})


def test_edge_out_of_range(tmp_path):
    path = star_dataset(tmp_path, edges="0\t3\n")
    with pytest.raises(GraphValidationError, match=r"\(0, 3\)"):
        load_graph(path)


def test_edge_src_out_of_range(tmp_path):
    path = star_dataset(tmp_path, edges="2\t0\n")
    with pytest.raises(GraphValidationError, match=r"\(2, 0\) src index out of range"):
        load_graph(path)


def test_missing_file_names_it(tmp_path):
    path = minimal_dataset(tmp_path)
    (tmp_path / "labels.tsv").unlink()
    with pytest.raises(GraphFormatError, match="labels.tsv"):
        load_graph(path)


@pytest.mark.parametrize("name", ["edges_pa.tsv", "labels.tsv", "split.tsv"])
def test_one_column_row_names_the_file(tmp_path, name):
    path = star_dataset(tmp_path)
    (tmp_path / name).write_text("0\n")
    with pytest.raises(GraphFormatError, match=name):
        load_graph(path)


def test_short_features_row_names_the_file(tmp_path):
    path = star_dataset(tmp_path)
    (tmp_path / "features_paper.tsv").write_text("1\t0\n0\n")
    with pytest.raises(GraphFormatError, match="malformed file .*features_paper.tsv"):
        load_graph(path)


def test_features_width_must_match_declared_dim(tmp_path):
    # meta.tsv declares author 1 wide; a features file of width 2 is an
    # error, while a type without a file still gets one-hot rows
    path = star_dataset(tmp_path)
    (tmp_path / "features_author.tsv").write_text("1\t2\n3\t4\n5\t6\n")
    with pytest.raises(GraphFormatError,
                       match=r"features_author.tsv: type 'author' declares "
                             r"feature_dim 1 in meta.tsv, the file has 2 columns"):
        load_graph(path)


def test_empty_edges_file_and_extra_fields(tmp_path):
    # an empty edges file is a relation without edges; fields after the
    # second column are ignored
    path = star_dataset(tmp_path, edges="")
    (tmp_path / "labels.tsv").write_text("0\t0\tnote\n1\t1\t\n")
    g = load_graph(path)
    assert g.relations[0].edges.shape == (0, 2)
    assert g.labels.tolist() == [0, 1]
    A = build_neighborhoods(g).entries["pa"][1]
    assert A.shape == (2, 3) and A.nnz == 0


def test_missing_label_rejected(tmp_path):
    path = write_dataset(
        tmp_path,
        "node\tpaper\t2\t1\ntarget\tpaper\n",
        {
            "features_paper.tsv": "1\n2\n",
            "labels.tsv": "0\t0\n",
            "split.tsv": "0\ttrain\n",
        })
    with pytest.raises(GraphValidationError, match="no label"):
        load_graph(path)


def test_negative_label_rejected(tmp_path):
    path = minimal_dataset(tmp_path)
    (tmp_path / "labels.tsv").write_text("0\t0\n1\t-1\n2\t0\n")
    with pytest.raises(GraphValidationError, match="negative"):
        load_graph(path)


def three_node_graph(**changes):
    """A valid one-type graph built by hand, with ``changes`` applied."""
    fields = dict(node_types=["t"], counts={"t": 3}, features={"t": np.zeros((3, 1))},
                  relations=[], target_type="t", labels=np.zeros(3, dtype=np.int64),
                  train_idx=np.arange(2), test_idx=np.array([2]))
    return HeteroGraph(**{**fields, **changes})


# load_graph checks these itself before validate runs
@pytest.mark.parametrize("changes,message", [
    (dict(target_type="x"), "unknown target type 'x'"),
    (dict(labels=np.zeros(2, dtype=np.int64)),
     r"expected one label per target node \(3\), got \(2,\)"),
    (dict(labels=np.array([0, -1, 0])), "negative class id in labels"),
], ids=["unknown-target", "label-shape", "negative-class"])
def test_validate_rejects_hand_built_graph(changes, message):
    three_node_graph().validate()
    with pytest.raises(GraphValidationError, match=message):
        three_node_graph(**changes).validate()


def test_split_overlap_rejected(tmp_path):
    path = minimal_dataset(tmp_path)
    (tmp_path / "split.tsv").write_text("0\ttrain\n0\ttest\n")
    with pytest.raises(GraphValidationError, match="overlap"):
        load_graph(path)


def test_target_self_loop_rejected(tmp_path):
    path = write_dataset(
        tmp_path,
        "node\tpaper\t2\t1\nedge\tpp\tpaper\tpaper\ntarget\tpaper\n",
        {
            "features_paper.tsv": "1\n2\n",
            "edges_pp.tsv": "0\t0\n",
            "labels.tsv": "0\t0\n1\t1\n",
            "split.tsv": "0\ttrain\n",
        })
    with pytest.raises(GraphValidationError, match="self-loop"):
        load_graph(path)


def test_missing_aux_features_synthesized(tmp_path):
    path = star_dataset(tmp_path)
    (tmp_path / "features_author.tsv").unlink()
    meta = (tmp_path / "meta.tsv").read_text()
    # a type without a features file declares width 0 or its one-hot width
    for dim in (0, 3):
        (tmp_path / "meta.tsv").write_text(meta.replace("author\t3\t1", f"author\t3\t{dim}"))
        g = load_graph(path)
        assert np.array_equal(g.features["author"].toarray(), np.eye(3))


def test_missing_aux_features_with_another_width_rejected(tmp_path):
    path = star_dataset(tmp_path)
    (tmp_path / "features_author.tsv").unlink()
    with pytest.raises(GraphFormatError) as err:
        load_graph(path)
    assert str(err.value) == (
        f"{tmp_path / 'meta.tsv'}, line 2: type 'author' has no features file, "
        "so its feature_dim must be 0 or its count 3, got 1")


def test_features_file_of_a_type_without_nodes_loads(tmp_path):
    path = star_dataset(tmp_path)
    with open(tmp_path / "meta.tsv", "a") as fh:
        fh.write("node\tvenue\t0\t4\n")
    (tmp_path / "features_venue.tsv").write_text("")
    g = load_graph(path)
    assert g.counts["venue"] == 0 and g.features["venue"].shape == (0, 4)


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    g = HeteroGraph(
        node_types=["t", "a"],
        counts={"t": 4, "a": 3},
        features={"t": rng.standard_normal((4, 3)), "a": rng.standard_normal((3, 2))},
        relations=[Relation("ta", "t", "a",
                            np.array([[0, 1], [2, 2], [3, 0]], dtype=np.int64))],
        target_type="t",
        labels=np.array([0, 1, 1, 0]),
        train_idx=np.array([0, 2]),
        test_idx=np.array([1, 3]),
    )
    g.validate()
    out = tmp_path / "ds"
    save_graph(g, str(out))
    g2 = load_graph(str(out))
    assert g2.node_types == g.node_types
    assert g2.counts == g.counts
    for t in g.node_types:
        assert np.array_equal(g2.features[t], g.features[t])
    assert np.array_equal(g2.relations[0].edges, g.relations[0].edges)
    assert np.array_equal(g2.labels, g.labels)
    assert np.array_equal(g2.train_idx, g.train_idx)
    assert np.array_equal(g2.test_idx, g.test_idx)


def test_neighborhood_sizes_sum_to_edge_count(tmp_path):
    rng = np.random.default_rng(7)
    edges = rng.integers(0, [5, 4], size=(30, 2))
    edges = np.unique(edges, axis=0)
    lines = "".join(f"{s}\t{d}\n" for s, d in edges)
    path = write_dataset(
        tmp_path,
        "node\tt\t5\t1\nnode\ta\t4\t1\nedge\tr\tt\ta\ntarget\tt\n",
        {
            "features_t.tsv": "1\n2\n3\n4\n5\n",
            "features_a.tsv": "1\n2\n3\n4\n",
            "edges_r.tsv": lines,
            "labels.tsv": "".join(f"{i}\t0\n" for i in range(5)),
            "split.tsv": "0\ttrain\n1\ttest\n",
        })
    g = load_graph(path)
    nb = build_neighborhoods(g)
    lists = neighbor_rows(nb, "r")
    assert sum(len(x) for x in lists) == len(edges)


def test_direction_normalized_to_target(tmp_path):
    # same relation written author -> paper; lists still indexed by paper
    path = write_dataset(
        tmp_path,
        "node\tpaper\t2\t1\nnode\tauthor\t2\t1\nedge\tap\tauthor\tpaper\ntarget\tpaper\n",
        {
            "features_paper.tsv": "1\n2\n",
            "features_author.tsv": "1\n2\n",
            "edges_ap.tsv": "0\t1\n1\t1\n",
            "labels.tsv": "0\t0\n1\t1\n",
            "split.tsv": "0\ttrain\n",
        })
    g = load_graph(path)
    nb = build_neighborhoods(g)
    assert nb.entries["ap"][0] == "author"
    lists = neighbor_rows(nb, "ap")
    assert lists[0].tolist() == []
    assert lists[1].tolist() == [0, 1]


def test_neighborhoods_match_set_reference():
    # duplicate edges, both directions of a relation, a target -> target
    # relation and target nodes without neighbors
    rng = np.random.default_rng(11)
    n, m = 40, 25
    ta = rng.integers(0, [n - 5, m], size=(120, 2))  # targets >= n-5 unlinked
    at = rng.integers(0, [m, n - 5], size=(90, 2))
    tt = rng.integers(0, n - 5, size=(80, 2))
    tt = tt[tt[:, 0] != tt[:, 1]]
    g = HeteroGraph(
        node_types=["t", "a"], counts={"t": n, "a": m},
        features={"t": np.zeros((n, 1)), "a": np.zeros((m, 1))},
        relations=[Relation("ta", "t", "a", np.vstack([ta, ta[:30]])),
                   Relation("at", "a", "t", at),
                   Relation("tt", "t", "t", np.vstack([tt, tt[:, ::-1]])),
                   Relation("aa", "a", "a", np.array([[0, 1]]))],
        target_type="t", labels=np.zeros(n, dtype=np.int64),
        train_idx=np.arange(n), test_idx=np.empty(0, dtype=np.int64))
    g.validate()
    nb = build_neighborhoods(g)
    assert sorted(nb.entries) == ["at", "ta", "tt"]
    for rel in g.relations[:3]:
        ref = [set() for _ in range(n)]
        for s, d in rel.edges:
            if rel.src_type == "t":
                ref[s].add(int(d))
            if rel.dst_type == "t":
                ref[d].add(int(s))
        nbr_type, A = nb.entries[rel.name]
        assert nbr_type == ("t" if rel.name == "tt" else "a")
        assert A.shape == (n, g.counts[nbr_type])
        assert A.dtype == np.float64 and np.all(A.data == 1.0)
        lists = neighbor_rows(nb, rel.name)
        for got, want in zip(lists, ref):
            assert np.issubdtype(got.dtype, np.integer)
            assert got.tolist() == sorted(want)
        assert all(lists[i].size == 0 for i in range(n - 5, n))
