import numpy as np
import pytest

from hgsc.synth import SynthSpec, generate

PLANTED = dict(n=300, c=3, feature_dim=16, aux_count=150, aux_feature_dim=8,
               relations=2, edges_per_node=5, separation=7.5, noise=0.9)


def aux_blocks(spec):
    return np.array([min(i * spec.c // spec.aux_count, spec.c - 1)
                     for i in range(spec.aux_count)])


def reference_edges(rng, spec, blocks_t, blocks_a):
    """The per-edge loop the generator used before it drew whole arrays:
    the reference its edge distribution is compared with."""
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
    return np.unique(np.array(edges, dtype=np.int64).reshape(-1, 2), axis=0)


def edge_stats(edges, blocks_t, blocks_a, aux_count):
    """(cross-block share, edge count, std of the aux nodes' degrees)."""
    cross = np.mean(blocks_t[edges[:, 0]] != blocks_a[edges[:, 1]])
    degree = np.bincount(edges[:, 1], minlength=aux_count)
    return cross, len(edges), degree.std()


@pytest.mark.parametrize("kw", [
    {},
    dict(n=40, c=5, aux_count=3),
    dict(n=20, c=1, cross_edge_rate=1.0),
    dict(n=30, c=3, edges_per_node=0),
], ids=["planted", "aux-lt-c", "c1", "no-edges"])
def test_edges_sorted_unique_in_range(kw):
    spec = SynthSpec(**{**PLANTED, **kw})
    g = generate(spec)
    for rel in g.relations:
        e = rel.edges
        assert e.dtype == np.int64 and e.shape == (len(e), 2)
        assert np.all((e[:, 0] >= 0) & (e[:, 0] < spec.n))
        assert np.all((e[:, 1] >= 0) & (e[:, 1] < spec.aux_count))
        keys = e[:, 0] * spec.aux_count + e[:, 1]
        assert np.all(np.diff(keys) > 0)
        assert (len(e) == 0) == (spec.edges_per_node == 0)


def test_draws_into_empty_aux_blocks_are_dropped():
    # 3 aux nodes in 5 blocks: blocks 2 and 4 hold none
    spec = SynthSpec(n=50, c=5, aux_count=3, cross_edge_rate=0.0, seed=4)
    g = generate(spec)
    blocks_a = aux_blocks(spec)
    assert set(blocks_a) == {0, 1, 3}
    for rel in g.relations:
        src, dst = rel.edges.T
        # without cross draws every edge stays in its block, and targets
        # whose block is empty get none rather than a redirected pick
        assert np.array_equal(g.labels[src], blocks_a[dst])
        assert set(g.labels[src]) == {0, 1, 3}


def test_one_block_makes_no_cross_edges():
    spec = SynthSpec(n=30, c=1, aux_count=7, cross_edge_rate=1.0, seed=2)
    g = generate(spec)
    assert not g.labels.any()
    for rel in g.relations:
        assert np.array_equal(np.unique(rel.edges[:, 0]), np.arange(spec.n))


def test_same_seed_same_graph():
    spec = SynthSpec(**PLANTED, seed=11)
    a, b = generate(spec), generate(spec)
    for t in a.node_types:
        assert np.array_equal(a.features[t], b.features[t])
    for ra, rb in zip(a.relations, b.relations):
        assert np.array_equal(ra.edges, rb.edges)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert np.array_equal(a.test_idx, b.test_idx)
    c = generate(SynthSpec(**PLANTED, seed=12))
    assert not np.array_equal(a.relations[0].edges, c.relations[0].edges)


def test_edge_distribution_matches_per_edge_reference():
    spec = SynthSpec(**PLANTED)
    blocks_a = aux_blocks(spec)
    ours, ref = [], []
    for seed in range(100):
        g = generate(SynthSpec(**PLANTED, seed=seed))
        assert np.array_equal(g.labels, [min(i * spec.c // spec.n, spec.c - 1)
                                         for i in range(spec.n)])
        rng = np.random.default_rng(10_000 + seed)
        for rel in g.relations:
            ours.append(edge_stats(rel.edges, g.labels, blocks_a, spec.aux_count))
            ref.append(edge_stats(reference_edges(rng, spec, g.labels, blocks_a),
                                  g.labels, blocks_a, spec.aux_count))
    ours, ref = np.mean(ours, axis=0), np.mean(ref, axis=0)
    # about five standard errors of the difference of 200 relations' means
    assert abs(ours[0] - ref[0]) < 0.003
    assert abs(ours[1] - ref[1]) < 3.0
    assert abs(ours[2] - ref[2]) < 0.1
    print(f"cross share / edges per relation / aux-degree std: "
          f"{ours[0]:.4f} / {ours[1]:.1f} / {ours[2]:.3f} against the loop's "
          f"{ref[0]:.4f} / {ref[1]:.1f} / {ref[2]:.3f}")
