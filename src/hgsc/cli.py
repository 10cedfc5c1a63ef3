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
from .encoders import EncoderConfigError, RankDeficientError
from .evaluation import EvalError, evaluate
from .graph import (GraphFormatError, build_neighborhoods, field_type, load_graph,
                    read_fields, save_graph, write_fields)
from .losses import write_log
from .synth import SynthSpec, generate
from .trainer import (NumericalDivergence, TrainConfig, fit, load_checkpoint,
                      represent, save_checkpoint)
from .verify import run_suite, write_results

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

# input files are hashed in reads of this many bytes, so a manifest's
# memory does not grow with the dataset
_HASH_CHUNK = 1 << 20


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
        limit = int(cap)  # parsed first: a bad value is named whatever is installed
        import threadpoolctl
    except ValueError:
        print(f"warning: SCHOOL_THREADS={cap!r} is not an integer; ignored",
              file=sys.stderr)
    except ImportError:
        print("warning: SCHOOL_THREADS is ignored: threadpoolctl is not "
              "installed (set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before "
              "start-up instead)", file=sys.stderr)
    else:
        threadpoolctl.threadpool_limits(limits=limit)


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
                for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
                    h.update(chunk)
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


def _manifest_path(out_dir: str, command: str) -> str:
    """eval writes next to the checkpoint by default, so it records its own
    manifest and leaves the training run's in place."""
    name = "eval_manifest.tsv" if command == "eval" else "manifest.tsv"
    return os.path.join(out_dir, name)


def _manifest(command: str, out_dir: str, dataset: str, config_repr: str,
              seed: int, inputs: list[str], outputs: list[str]) -> RunManifest:
    os.makedirs(out_dir, exist_ok=True)
    man = RunManifest(
        command=command, dataset=dataset or "", config=config_repr, seed=seed,
        input_hash=_hash_inputs(inputs),
        started=time.strftime("%Y-%m-%dT%H:%M:%S"),
        outputs=",".join(outputs))
    write_fields(_manifest_path(out_dir, command), man)
    return man


def _finish(man: RunManifest, out_dir: str) -> None:
    man.finished = time.strftime("%Y-%m-%dT%H:%M:%S")
    write_fields(_manifest_path(out_dir, man.command), man)


def _load_config(args) -> TrainConfig:
    """The config file's values (c = 2 without a file) under the flags given."""
    known = TrainConfig.__dataclass_fields__
    values = read_fields(args.config, known) if args.config else {"c": 2}
    values.update((k, v) for k, v in vars(args).items() if k in known and v is not None)
    return TrainConfig.from_dict(values)


def _write_embeddings(path: str, Z: np.ndarray, Zt: np.ndarray) -> None:
    np.savetxt(path, np.hstack([Z, Zt]), fmt="%.10g", delimiter="\t")


def cmd_prepare(args) -> int:
    out = args.out
    if os.path.isdir(args.source):
        if args.seed is not None:
            raise UsageError(f"--seed applies to a generator spec; {args.source} "
                             "is a dataset directory, which is copied as it is")
        g, config, seed = load_graph(args.source), "copy", 0
    else:
        spec = SynthSpec.from_tsv(args.source)
        if args.seed is not None:
            spec.seed = args.seed
        g, config, seed = generate(spec), json.dumps(asdict(spec)), spec.seed
    man = _manifest("prepare", out, args.source, config, seed, [args.source], ["dataset"])
    save_graph(g, out)
    _finish(man, out)
    print(f"wrote dataset: {out} ({g.n_target} target nodes, "
          f"{len(g.relations)} relations)")
    return EXIT_OK


def _fit_and_save(data_dir: str, cfg: TrainConfig, out: str, checkpoint_every: int):
    """Fit on ``data_dir``, write best.ckpt and training_log.tsv to ``out``, and
    return (graph, FitResult, the best epoch's representation)."""
    g = load_graph(data_dir)
    nb = build_neighborhoods(g)
    os.makedirs(out, exist_ok=True)
    result = fit(g, cfg, nb, checkpoint_dir=out, checkpoint_every=checkpoint_every)
    save_checkpoint(os.path.join(out, "best.ckpt"), result.stack, cfg)
    write_log(os.path.join(out, "training_log.tsv"), result.log)
    # outputs hold what training measured: the best epoch's S, not a rebuild
    return g, result, represent(result.stack, g, nb, cfg, result.S)[0]


def _represent_checkpoint(command: str, args, outputs: list[str]):
    """Load ``args.checkpoint`` against ``args.data`` and start the command's
    manifest; return (manifest, out dir, graph, config, representation)."""
    g = load_graph(args.data)
    nb = build_neighborhoods(g)
    stack, cfg = load_checkpoint(args.checkpoint, g, nb)
    out = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    man = _manifest(command, out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.checkpoint], outputs)
    # a checkpoint stores no S: represent rebuilds it from this forward's H and Y
    return man, out, g, cfg, represent(stack, g, nb, cfg)[0]


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = args.out
    man = _manifest("train", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.config],
                    ["best.ckpt", "training_log.tsv", "affinity.tsv",
                     "embeddings.tsv", "config.tsv"])
    _, result, (_, S, Z, Zt) = _fit_and_save(args.data, cfg, out, args.checkpoint_every or 0)
    write_fields(os.path.join(out, "config.tsv"), cfg)
    S.save_tsv(os.path.join(out, "affinity.tsv"))
    _write_embeddings(os.path.join(out, "embeddings.tsv"), Z, Zt)
    _finish(man, out)
    last = result.log[-1]
    print(f"trained {len(result.log)} epochs (best epoch {result.best_epoch}, "
          f"objective {result.log[result.best_epoch - 1][1].total:.6g}); "
          f"final {last[1].total:.6g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    man, out, g, cfg, (_, _, Z, Zt) = _represent_checkpoint("eval", args, ["eval_report.tsv"])
    report = evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cfg.c, seed=cfg.seed)
    report.to_tsv(os.path.join(out, "eval_report.tsv"))
    print(report.summary())
    _finish(man, out)
    return EXIT_OK


def cmd_verify(args) -> int:
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


def _parse_grid(text: str, kind=float) -> list:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = kind(tok)
        except ValueError:
            raise UsageError(f"sweep grid value {tok!r} does not parse as "
                             f"{kind.__name__}") from None
        if v not in vals:
            vals.append(v)
    if not vals:
        raise UsageError("empty sweep grid")
    return vals


def _run_sweep_cell(packed) -> tuple:
    """One sweep cell as a standalone unit (usable from a worker process)."""
    i, data_dir, cell_dir, cell_cfg, checkpoint_every = packed
    g, _, (_, _, Z, Zt) = _fit_and_save(data_dir, cell_cfg, cell_dir, checkpoint_every)
    report = evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cell_cfg.c,
                      seed=cell_cfg.seed)
    report.to_tsv(os.path.join(cell_dir, "eval_report.tsv"))
    return i, report.macro_f1[0], report.macro_f1[1]


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    mus = _parse_grid(args.mu_grid) if args.mu_grid is not None else [cfg.mu]
    deltas = _parse_grid(args.delta_grid) if args.delta_grid is not None else [cfg.delta]
    ks = _parse_grid(args.k_grid, int) if args.k_grid is not None else [cfg.k]
    betas = _parse_grid(args.beta_grid) if args.beta_grid is not None else [cfg.beta]
    cells = [(m, d, k, b) for m in mus for d in deltas for k in ks for b in betas]
    out = args.out
    # every cell's config is validated before anything is written or trained
    packed = [(i, args.data,
               os.path.join(out, f"cell_{i:03d}_mu{m:g}_delta{d:g}_k{k}_beta{b:g}"),
               TrainConfig.from_dict({**asdict(cfg), "mu": m, "delta": d, "k": k,
                                      "beta": b}),
               args.checkpoint_every or 0)
              for i, (m, d, k, b) in enumerate(cells)]
    man = _manifest("sweep", out, args.data, json.dumps(asdict(cfg)), cfg.seed,
                    [args.data, args.config], ["summary.tsv"])
    # an executor forks all its workers at its first submit, so never
    # more than there are cells
    jobs = min(args.jobs, len(packed))
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
    man, out, _, _, (assign, S, Z, Zt) = _represent_checkpoint(
        "export", args, ["embeddings.tsv", "affinity.tsv", "assignments.tsv"])
    _write_embeddings(os.path.join(out, "embeddings.tsv"), Z, Zt)
    S.save_tsv(os.path.join(out, "affinity.tsv"))
    np.savetxt(os.path.join(out, "assignments.tsv"),
               np.column_stack([np.arange(assign.yhat.size), assign.yhat]),
               fmt="%d", delimiter="\t")
    _finish(man, out)
    print(f"exported embeddings, affinity, assignments to {out}")
    return EXIT_OK


def _at_least(low: int):
    """An argparse type: an int that is ``low`` or more."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


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
        q.add_argument("--checkpoint-every", dest="checkpoint_every", type=_at_least(0))

    sp = sub.add_parser("train", help="fit the model and write run artifacts")
    add_train_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify", help="run the numerical verification suite")
    sp.add_argument("--scale", default="small", choices=("small", "full"))
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="grid sweep over mu/delta (and k, beta)")
    add_train_flags(sp)
    sp.add_argument("--jobs", type=_at_least(1), default=1,
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
    except (GraphFormatError, EvalError, EncoderConfigError, ValueError, OSError) as e:
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
