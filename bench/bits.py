"""Print digests of hgsc's training and search outputs, one line per case.

Run on two source trees and compare the output to show that a change
leaves the bits alone:

    python3 bench/bits.py --src path/to/tree/src

The cases use the benchmark's configurations, copied from
perfbench/workloads.py so that the digests stay put when the benchmark
changes: the criterion-9 planted fit, the criterion-10 config at 4k and 8k, reuse-8k,
an ACM-shaped candidate search, and ``hgsc train`` plus ``hgsc eval`` on the
eval-cli dataset. Digests are the first 16 hex digits of SHA-256. They hold
for one machine and one BLAS thread count: the scan's product rounds
differently with 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

PLANTED = dict(c=3, feature_dim=16, aux_feature_dim=8, relations=2,
               edges_per_node=5, separation=7.5, noise=0.9)
PLANTED_CFG = dict(c=3, d1=64, d2=16, k=6, mu=0.01, delta=0.01, beta=5.0,
                   gamma=1e-2, lr=1e-2)
SCALING = dict(c=3, feature_dim=3, aux_feature_dim=4, relations=2,
               edges_per_node=12, separation=10.0, noise=1.0)
SCALING_CFG = dict(c=3, d1=160, d2=96, k=8, mu=0.01, delta=0.01,
                   gamma=1e-2, lr=1e-2, patience=60)


def digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for a in arrays_or_bytes:
        h.update(a if isinstance(a, bytes) else a.tobytes())
    return h.hexdigest()[:16]


def planted_fit():
    from hgsc import graph, synth, trainer
    g = synth.generate(synth.SynthSpec(n=300, aux_count=150, seed=0, **PLANTED))
    cfg = trainer.TrainConfig(seed=0, max_epochs=200, patience=200, **PLANTED_CFG)
    result = trainer.fit(g, cfg, graph.build_neighborhoods(g))
    return f"sum={float(result.stack.params.sum()).hex()} best_epoch={result.best_epoch}"


def epochs(n: int, epochs: int, **cfg_kw):
    """Parameters and S after ``epochs`` calls of ``train_epoch`` from seed 0."""
    from hgsc import graph, synth, trainer
    from hgsc.encoders import EncoderStack
    g = synth.generate(synth.SynthSpec(n=n, aux_count=n // 2, seed=0, **SCALING))
    nb = graph.build_neighborhoods(g)
    cfg = trainer.TrainConfig(seed=0, max_epochs=10**6, **cfg_kw, **SCALING_CFG)
    dims = {t: g.features[t].shape[1] for t in g.node_types}
    rels = [(name, nb.entries[name][0]) for name in sorted(nb.entries)]
    stack = EncoderStack(dims, g.target_type, rels, cfg.d1, cfg.d2, cfg.c, cfg.seed)
    state = trainer.TrainState()
    for _ in range(epochs):
        trainer.train_epoch(state, g, nb, stack, cfg)
    return (f"params={digest(stack.params)} "
            f"S={digest(state.S.indices, state.S.weights)}")


def acm_search():
    import numpy as np
    from hgsc.affinity import nearest_candidates
    X = np.random.default_rng(0).standard_normal((3025, 515))
    idx, dist = nearest_candidates(X, 10)
    return f"idx={digest(idx)} dist={digest(dist)}"


def eval_cli():
    """``hgsc train`` (10 epochs) and ``hgsc eval`` on the eval-cli dataset."""
    from hgsc import cli, graph, synth
    with tempfile.TemporaryDirectory() as base:
        data, run, out = (os.path.join(base, name) for name in ("data", "run", "eval"))
        graph.save_graph(synth.generate(
            synth.SynthSpec(n=1000, aux_count=500, seed=0, **PLANTED)), data)
        flags = ["train", "--data", data, "--out", run, "--seed", "0",
                 "--max-epochs", "10", "--patience", "10"]
        for key, val in PLANTED_CFG.items():
            flags += [f"--{key}", str(val)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(flags) or cli.main(
                ["eval", "--data", data, "--checkpoint",
                 os.path.join(run, "best.ckpt"), "--out", out])
        if rc:
            return f"exit {rc}"
        files = [os.path.join(run, name)
                 for name in ("training_log.tsv", "affinity.tsv", "embeddings.tsv")]
        files.append(os.path.join(out, "eval_report.tsv"))
        return " ".join(f"{os.path.basename(p)}={digest(open(p, 'rb').read())}"
                        for p in files)


CASES = [
    ("planted-fit", planted_fit),
    ("criterion10-4k-6ep", lambda: epochs(4000, 6, beta=0.0, rebuild_period=1)),
    ("criterion10-8k-6ep", lambda: epochs(8000, 6, beta=0.0, rebuild_period=1)),
    ("reuse-8k-10ep", lambda: epochs(8000, 10, beta=5.0, rebuild_period=5)),
    ("acm-shape-knn", acm_search),
    ("eval-cli", eval_cli),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", required=True, help="the src directory of the tree to digest")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    for name, case in CASES:
        print(f"{name}\t{case()}", flush=True)


if __name__ == "__main__":
    main()
