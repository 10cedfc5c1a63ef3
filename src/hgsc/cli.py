"""Command-line entry point: prepare, train, eval, verify, sweep, export.

Every command records a run manifest before long work starts and writes
plain TSV outputs. Exit codes: 0 success, 1 validation or usage error,
2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields, asdict

import numpy as np

from . import affinity as aff
from .encoders import (EncoderConfigError, EncoderStack, RankDeficientError,
                       cluster_assign, hetero_encode)
from .evaluation import EvalError, evaluate
from .graph import (GraphFormatError, GraphValidationError, build_neighborhoods,
                    field_type, load_graph, save_graph, write_fields)
from .losses import write_log
from .synth import SynthSpec, generate
from .trainer import NumericalDivergence, TrainConfig, fit, rebuild_affinity
from .verify import run_suite, write_results

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _limit_threads() -> None:
    """Cap BLAS threads at $SCHOOL_THREADS; warn when that cannot be done."""
    cap = os.environ.get("SCHOOL_THREADS")
    if not cap:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=int(cap))
    except ImportError:
        print("warning: SCHOOL_THREADS is ignored: threadpoolctl is not "
              "installed (set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before "
              "start-up instead)", file=sys.stderr)
    except ValueError:
        print(f"warning: SCHOOL_THREADS={cap!r} is not an integer; ignored",
              file=sys.stderr)


def _hash_inputs(paths: list[str]) -> str:
    """Digest of what the inputs hold, not where they live: a directory's files
    by relative path and bytes (its run-time manifest.tsv skipped), a file's bytes."""
    h = hashlib.sha256()
    for p in paths:
        if p is None:
            continue
        if os.path.isdir(p):
            files = sorted(
                (os.path.relpath(os.path.join(root, f), p), os.path.join(root, f))
                for root, _, names in os.walk(p) for f in names if f != "manifest.tsv")
        elif os.path.isfile(p):
            files = [("", p)]
        else:
            continue
        for rel, path in files:
            h.update(rel.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    dataset: str
    config: str
    seed: int
    input_hash: str
    started: str
    outputs: str
    finished: str = ""


def _manifest(command: str, out_dir: str, dataset: str, config_repr: str,
              seed: int, inputs: list[str], outputs: list[str]) -> RunManifest:
    os.makedirs(out_dir, exist_ok=True)
    man = RunManifest(
        command=command, dataset=dataset or "", config=config_repr, seed=seed,
        input_hash=_hash_inputs(inputs),
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
        outputs=",".join(outputs))
    write_fields(os.path.join(out_dir, "manifest.tsv"), man)
    return man


def _finish(man: RunManifest, out_dir: str) -> None:
    man.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    write_fields(os.path.join(out_dir, "manifest.tsv"), man)


def _load_config(args) -> TrainConfig:
    if args.config:
        cfg = TrainConfig.from_tsv(args.config)
    else:
        cfg = TrainConfig(c=2)
    for f in fields(TrainConfig):
        val = getattr(args, f.name)
        if val is not None:
            setattr(cfg, f.name, val)
    cfg.validate()
    return cfg


def _write_embeddings(path: str, Z: np.ndarray, Zt: np.ndarray) -> None:
    np.savetxt(path, np.hstack([Z, Zt]), fmt="%.10g", delimiter="\t")


def _forward_representations(stack: EncoderStack, g, nb, cfg: TrainConfig):
    """Best-parameter representations: H, Y, S, Z = SH, and hetero Zt."""
    H, _ = stack.g_phi.forward(g.features[stack.target_type])
    assign, _ = cluster_assign(stack.p_phi, H)
    S = rebuild_affinity(H, assign.Y, cfg)
    Z = aff.propagate(S, H)
    Zt, _ = hetero_encode(stack, g, nb)
    return H, assign, S, Z, Zt


def cmd_prepare(args) -> int:
    out = args.out
    if os.path.isdir(args.source):
        g = load_graph(args.source)
        man = _manifest("prepare", out, args.source, "copy", 0,
                        [args.source], ["dataset"])
        save_graph(g, out)
    else:
        spec = SynthSpec.from_tsv(args.source)
        if args.seed is not None:
            spec.seed = args.seed
        man = _manifest("prepare", out, args.source, str(asdict(spec)), spec.seed,
                        [args.source], ["dataset"])
        g = generate(spec)
        save_graph(g, out)
    _finish(man, out)
    print(f"wrote dataset: {out} ({g.n_target} target nodes, "
          f"{len(g.relations)} relations)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = args.out
    man = _manifest("train", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.config],
                    ["best.ckpt", "training_log.tsv", "affinity.tsv",
                     "embeddings.tsv", "config.tsv"])
    g = load_graph(args.data)
    nb = build_neighborhoods(g)
    result = fit(g, cfg, nb, checkpoint_dir=out,
                 checkpoint_every=args.checkpoint_every or 0)
    write_fields(os.path.join(out, "config.tsv"), cfg)
    result.stack.save(os.path.join(out, "best.ckpt"), json.dumps(asdict(cfg)))
    write_log(os.path.join(out, "training_log.tsv"), result.log)
    _, _, S, Z, Zt = _forward_representations(result.stack, g, nb, cfg)
    S.save_tsv(os.path.join(out, "affinity.tsv"))
    _write_embeddings(os.path.join(out, "embeddings.tsv"), Z, Zt)
    _finish(man, out)
    last = result.log[-1]
    print(f"trained {len(result.log)} epochs (best epoch {result.best_epoch}, "
          f"objective {result.log[result.best_epoch - 1][1].total:.6g}); "
          f"final {last[1].total:.6g}")
    return EXIT_OK


def _load_checkpoint(path: str):
    if not os.path.isfile(path):
        raise GraphFormatError(f"missing checkpoint: {path}")
    stack, config_json = EncoderStack.load(path)
    cfg = TrainConfig.from_dict(json.loads(config_json))
    return stack, cfg


def _check_compat(stack: EncoderStack, g) -> None:
    for t, dim in stack.feature_dims.items():
        if t not in g.features:
            raise GraphValidationError(f"checkpoint/config mismatch: no node type {t!r}")
        if g.features[t].shape[1] != dim:
            raise GraphValidationError(
                f"checkpoint/config mismatch: type {t!r} has feature dim "
                f"{g.features[t].shape[1]}, checkpoint expects {dim}")


def cmd_eval(args) -> int:
    g = load_graph(args.data)
    stack, cfg = _load_checkpoint(args.checkpoint)
    _check_compat(stack, g)
    out = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    man = _manifest("eval", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.checkpoint], ["eval_report.tsv"])
    nb = build_neighborhoods(g)
    _, _, _, Z, Zt = _forward_representations(stack, g, nb, cfg)
    report = evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cfg.c, seed=cfg.seed)
    report.to_tsv(os.path.join(out, "eval_report.tsv"))
    print(report.summary())
    _finish(man, out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.scale not in ("small", "full"):
        raise UsageError(f"unknown scale {args.scale!r} (use small or full)")
    results = run_suite(scale=args.scale, seed=args.seed or 0)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_results(results, os.path.join(args.out, "verification.tsv"))
    hard_fail = False
    for r in results:
        print(r.row())
        if not r.passed:
            hard_fail = True
    return EXIT_VERIFY if hard_fail else EXIT_OK


def _parse_grid(text: str) -> list[float]:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = float(tok)
        if v not in vals:
            vals.append(v)
    if not vals:
        raise UsageError("empty sweep grid")
    return vals


def _run_sweep_cell(packed) -> tuple:
    """One sweep cell as a standalone unit (usable from a worker process)."""
    i, data_dir, cell_dir, cfg_dict = packed
    cell_cfg = TrainConfig.from_dict(cfg_dict)
    g = load_graph(data_dir)
    nb = build_neighborhoods(g)
    os.makedirs(cell_dir, exist_ok=True)
    result = fit(g, cell_cfg, nb)
    result.stack.save(os.path.join(cell_dir, "best.ckpt"),
                      json.dumps(cfg_dict))
    write_log(os.path.join(cell_dir, "training_log.tsv"), result.log)
    _, _, _, Z, Zt = _forward_representations(result.stack, g, nb, cell_cfg)
    report = evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cell_cfg.c,
                      seed=cell_cfg.seed)
    report.to_tsv(os.path.join(cell_dir, "eval_report.tsv"))
    return i, report.macro_f1[0], report.macro_f1[1]


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    mus = _parse_grid(args.mu_grid) if args.mu_grid is not None else [cfg.mu]
    deltas = _parse_grid(args.delta_grid) if args.delta_grid is not None else [cfg.delta]
    ks = ([int(v) for v in _parse_grid(args.k_grid)]
          if args.k_grid is not None else [cfg.k])
    betas = _parse_grid(args.beta_grid) if args.beta_grid is not None else [cfg.beta]
    cells = [(m, d, k, b) for m in mus for d in deltas for k in ks for b in betas]
    if not cells:
        raise UsageError("empty sweep grid")
    out = args.out
    man = _manifest("sweep", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.config], ["summary.tsv"])
    jobs = max(1, args.jobs or 1)
    packed = []
    for i, (m, d, k, b) in enumerate(cells):
        cell_cfg = {**asdict(cfg), "mu": m, "delta": d, "k": k, "beta": b}
        cell_dir = os.path.join(out, f"cell_{i:03d}_mu{m:g}_delta{d:g}_k{k}_beta{b:g}")
        packed.append((i, args.data, cell_dir, cell_cfg))
    if jobs == 1:
        results = [_run_sweep_cell(p) for p in packed]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_sweep_cell, packed))
    results.sort(key=lambda r: r[0])
    with open(os.path.join(out, "summary.tsv"), "w", encoding="utf-8") as fh:
        fh.write("cell\tmu\tdelta\tk\tbeta\tmacro_f1_mean\tmacro_f1_std\n")
        for (i, macro, macro_std), (m, d, k, b) in zip(results, cells):
            fh.write(f"{i}\t{m}\t{d}\t{k}\t{b}\t{macro}\t{macro_std}\n")
            print(f"cell {i}: mu={m:g} delta={d:g} k={k} beta={b:g} "
                  f"macro_f1={macro:.4f}")
    _finish(man, out)
    return EXIT_OK


def cmd_export(args) -> int:
    g = load_graph(args.data)
    stack, cfg = _load_checkpoint(args.checkpoint)
    _check_compat(stack, g)
    out = args.out
    man = _manifest("export", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.checkpoint],
                    ["embeddings.tsv", "affinity.tsv", "assignments.tsv"])
    nb = build_neighborhoods(g)
    _, assign, S, Z, Zt = _forward_representations(stack, g, nb, cfg)
    _write_embeddings(os.path.join(out, "embeddings.tsv"), Z, Zt)
    S.save_tsv(os.path.join(out, "affinity.tsv"))
    np.savetxt(os.path.join(out, "assignments.tsv"),
               np.column_stack([np.arange(assign.yhat.size), assign.yhat]),
               fmt="%d", delimiter="\t")
    _finish(man, out)
    print(f"exported embeddings, affinity, assignments to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="hgsc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="generate or normalize a dataset directory")
    sp.add_argument("--source", required=True,
                    help="synthetic generator spec (TSV) or existing dataset dir")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_prepare)

    def add_train_flags(q):
        q.add_argument("--data", required=True)
        q.add_argument("--config")
        q.add_argument("--out", required=True)
        for f in fields(TrainConfig):
            q.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=field_type(f))
        q.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)

    sp = sub.add_parser("train", help="fit the model and write run artifacts")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify", help="run the numerical verification suite")
    sp.add_argument("--scale", default="small")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="grid sweep over mu/delta (and k, beta)")
    add_train_flags(sp)
    sp.add_argument("--jobs", type=int, default=1,
                    help="run sweep cells in this many worker processes")
    sp.add_argument("--mu-grid", dest="mu_grid")
    sp.add_argument("--delta-grid", dest="delta_grid")
    sp.add_argument("--k-grid", dest="k_grid")
    sp.add_argument("--beta-grid", dest="beta_grid")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("export", help="export embeddings/affinity from a checkpoint")
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    _limit_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphFormatError, GraphValidationError, EvalError, EncoderConfigError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalDivergence, RankDeficientError, aff.AffinityError,
            FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
