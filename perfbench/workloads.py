"""The four benchmark workloads and the loop that measures one of them.

Each workload is a closed loop in one process: set up (several times, the
median is ``setup_s``), warm up, then run operations back to back until
the time budget is spent. Every operation's outputs are checked outside
its timed interval; an operation whose check fails counts as failed.

End-to-end metrics share one set of names across workloads; what each
one times is listed per workload in README.md (``op_s`` is ``fit_s`` on
planted-fit, ``epoch_s.8k`` on scale-epochs, and so on). The per-workload
names from the benchmark's definition are reported alongside, ungated.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import resource
import tempfile
import time
from collections import defaultdict

import numpy as np

from hgsc import affinity as aff
from hgsc import cli, encoders, graph, synth, trainer
# names bound here stay unwrapped: checks call them outside the spans
from hgsc.affinity import propagate
from hgsc.encoders import EncoderStack, cluster_assign, hetero_encode
from hgsc.evaluation import concat_representation, kmeans_cluster
from hgsc.synth import SynthSpec

import checks
from tracer import Target, Tracer

clock = time.perf_counter

# criterion 9 (planted partition) and criterion 10 (epoch scaling) settings
PLANTED = dict(c=3, feature_dim=16, aux_feature_dim=8, relations=2,
               edges_per_node=5, separation=7.5, noise=0.9)
PLANTED_CFG = dict(c=3, d1=64, d2=16, k=6, mu=0.01, delta=0.01, beta=5.0,
                   gamma=1e-2, lr=1e-2)
SCALING = dict(c=3, feature_dim=3, aux_feature_dim=4, relations=2,
               edges_per_node=12, separation=10.0, noise=1.0)
SCALING_CFG = dict(c=3, d1=160, d2=96, k=8, mu=0.01, delta=0.01,
                   gamma=1e-2, lr=1e-2, patience=60)

# rows per S compared against the brute-force kNN
KNN_SAMPLE = 32

# gated end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "ref_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "1",
}

# spans installed in traced runs: span name -> (owner, attribute)
SPANS = {
    "affinity.nearest_candidates": ("hgsc.affinity", "nearest_candidates"),
    "affinity.build_affinity": ("hgsc.affinity", "build_affinity"),
    "affinity.laplacian": ("hgsc.affinity", "laplacian"),
    "affinity.propagate": ("hgsc.affinity", "propagate"),
    "affinity.to_csr": (aff.AffinityMatrix, "to_csr"),
    "encoders.dense_forward": (encoders.DenseLayer, "forward"),
    "encoders.dense_backward": (encoders.DenseLayer, "backward"),
    "encoders.orthogonal_layer": ("hgsc.encoders", "orthogonal_layer"),
    "encoders.orthogonal_backward": ("hgsc.encoders", "orthogonal_backward"),
    "encoders.cluster_assign": ("hgsc.encoders", "cluster_assign"),
    "encoders.hetero_encode": ("hgsc.encoders", "hetero_encode"),
    "encoders.hetero_backward": ("hgsc.encoders", "hetero_backward"),
    "losses.spectral_loss": ("hgsc.losses", "spectral_loss"),
    "losses.node_consistency": ("hgsc.losses", "node_consistency"),
    "losses.cluster_pool": ("hgsc.losses", "cluster_pool"),
    "losses.cluster_consistency": ("hgsc.losses", "cluster_consistency"),
    "trainer.train_epoch": ("hgsc.trainer", "train_epoch"),
    "trainer.rebuild_affinity": ("hgsc.trainer", "rebuild_affinity"),
    "trainer.forward": (trainer.TrainStepper, "forward"),
    "trainer.backward": (trainer.TrainStepper, "backward"),
    "trainer.clip_gradients": ("hgsc.trainer", "clip_gradients"),
    "trainer.optimizer_step": ("hgsc.trainer", "optimizer_step"),
    "evaluation.evaluate": ("hgsc.evaluation", "evaluate"),
    "evaluation.linear_probe": ("hgsc.evaluation", "linear_probe"),
    "evaluation.kmeans_cluster": ("hgsc.evaluation", "kmeans_cluster"),
    "evaluation.silhouette": ("hgsc.evaluation", "silhouette"),
    "evaluation.complexity_measure": ("hgsc.evaluation", "complexity_measure"),
    "graph.load_graph": ("hgsc.graph", "load_graph"),
    "graph.save_graph": ("hgsc.graph", "save_graph"),
    "graph.build_neighborhoods": ("hgsc.graph", "build_neighborhoods"),
    "synth.generate": ("hgsc.synth", "generate"),
    "cli.cmd_eval": ("hgsc.cli", "cmd_eval"),
}
# the only spans recorded during the traced set-up
SETUP_SPANS = ("synth.generate", "graph.save_graph", "graph.build_neighborhoods",
               "graph.load_graph")

# per-layer metrics: name -> unit (self times, then counts)
PER_LAYER = {f"{span}_s": "s" for span in SPANS}
PER_LAYER.update({
    "affinity.to_csr_calls": "count",
    "affinity.laplacian_calls": "count",
    "affinity.rebuilds": "count",
    "affinity.degenerate_rows": "count",
    "affinity.neighbor_churn": "1",
    "losses.empty_clusters": "count",
    "trainer.grad_norm_preclip": "1",
    "trainer.clipped_steps": "count",
    "trace.overhead_frac": "1",
    "trace.covered_frac": "1",
})


def _median(xs) -> float:
    return float(np.median(xs))


class Workload:
    """Base: subclasses define setup, warmup, op and the metric summary."""

    name = ""
    setup_reps = 3
    trace_ops = 1
    min_ops = 1

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer: Tracer | None = None      # set while a traced pass runs
        self.probe_tracer = Tracer()           # times probes() in every run
        self.churn: list[float] = []           # per rebuild, see neighbor_churn

    @contextlib.contextmanager
    def timed(self, key: str):
        """Time one interval into samples[key]; mark it for an active tracer."""
        start = clock()
        yield
        end = clock()
        self.samples[key].append(end - start)
        self.samples["_timed"].append(end - start)
        if self.tracer is not None:
            self.tracer.regions.append(("timed", start, end))

    def probes(self) -> list[Target]:
        """Functions timed in every run (not only traced ones)."""
        return []

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        pass

    def op(self) -> list[str | None]:
        """One operation; returns one check result per sub-operation."""
        raise NotImplementedError

    def summary(self) -> tuple[float, float, dict]:
        """(op_s, ref_s, per-workload named metrics with units)."""
        raise NotImplementedError

    def units(self, calls: dict) -> int:
        """What per-layer counts are divided by: epochs in the traced region."""
        return calls.get("trainer.train_epoch", 0)


class PlantedFit(Workload):
    """Criterion-9 graph and config; one ``fit`` of a fixed epoch count."""

    name = "planted-fit"
    setup_reps = 10
    trace_ops = 2
    # set-up takes 15-25 ms of pure Python, whose speed on a shared host
    # swings by half within seconds; more reps spread over the run steady
    # the median
    setup_reps_per_op = 5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.epochs = 200 if size == "full" else 40
        self.epoch_S: list = []

    def probes(self):
        return [Target("trainer.train_epoch", "hgsc.trainer", "train_epoch",
                       keep=lambda args, kwargs, out: self.epoch_S.append(args[0].S))]

    def setup(self):
        self.g = synth.generate(SynthSpec(n=300, aux_count=150, seed=self.seed, **PLANTED))
        self.nb = graph.build_neighborhoods(self.g)

    def config(self, epochs: int):
        # patience >= max_epochs: the epoch count never depends on roundoff
        return trainer.TrainConfig(seed=self.seed, max_epochs=epochs,
                                   patience=epochs, **PLANTED_CFG)

    def warmup(self):
        # the first epochs in a process run several times slower
        trainer.fit(self.g, self.config(self.epochs // 4), self.nb)

    def op(self):
        self.epoch_S = []
        mark = len(self.probe_tracer.spans)
        cfg = self.config(self.epochs)
        with self.timed("fit"):
            result = trainer.fit(self.g, cfg, self.nb)
        self.samples["epoch"].extend(
            e - s for name, s, e, _ in self.probe_tracer.spans[mark:]
            if name == "trainer.train_epoch")
        for S in self.epoch_S:
            problem = checks.affinity_problem(S, cfg.k)
            if problem:
                return [problem]
        self.churn += [neighbor_churn(a, b) for a, b in zip(self.epoch_S, self.epoch_S[1:])]
        S, g = result.S, self.g
        H, _ = result.stack.g_phi.forward(g.features[g.target_type])
        Zt, _ = hetero_encode(result.stack, g, self.nb)
        X = concat_representation(propagate(S, H), Zt)
        nmi, _, _ = kmeans_cluster(X, g.labels, cfg.c, seed=0)
        for _ in range(self.setup_reps_per_op):
            start = clock()
            self.setup()
            self.samples["setup"].append(clock() - start)
        return [checks.planted_problem(checks.intra_mass(S, g.labels), nmi)]

    def summary(self):
        fit_s = _median(self.samples["fit"])
        epochs_ms = 1e3 * np.asarray(self.samples["epoch"])
        named = {
            "fit_s": (fit_s, "s"),
            "epoch_ms.p50": (float(np.percentile(epochs_ms, 50)), "ms"),
            "epoch_ms.p90": (float(np.percentile(epochs_ms, 90)), "ms"),
            "epoch_count": (float(epochs_ms.size), "count"),
        }
        return fit_s, float(np.percentile(epochs_ms, 50)) / 1e3, named


class _EpochRunner:
    """One graph, encoder stack and training state driven epoch by epoch.

    ``freeze`` saves the parameters and training state; ``rewind`` returns
    to them. Timed epochs are replays from one frozen state, so every run
    times the same work: left to train on, epochs slow down as the
    representation changes, and the run's median would depend on how many
    epochs fit in its time budget.
    """

    def __init__(self, n: int, seed: int, cfg):
        self.g = synth.generate(SynthSpec(n=n, aux_count=n // 2, seed=seed, **SCALING))
        self.nb = graph.build_neighborhoods(self.g)
        self.cfg = cfg
        dims = {t: self.g.features[t].shape[1] for t in self.g.node_types}
        rels = [(name, self.nb.entries[name][0]) for name in sorted(self.nb.entries)]
        self.stack = EncoderStack(dims, self.g.target_type, rels,
                                  cfg.d1, cfg.d2, cfg.c, cfg.seed)
        self.state = trainer.TrainState()
        self.rng = np.random.default_rng(seed)
        self.churn: list[float] = []

    def freeze(self) -> None:
        self._frozen = (self.stack.snapshot(), copy.deepcopy(self.state))

    def rewind(self) -> None:
        params, state = self._frozen
        self.stack.set_params(params)
        self.state = copy.deepcopy(state)

    def rebuilds_next(self) -> bool:
        return self.state.S is None or self.state.epoch % self.cfg.rebuild_period == 0

    def metric_space(self) -> np.ndarray:
        """The points the next rebuild searches: [H] or [H, sqrt(beta) Y]."""
        H, _ = self.stack.g_phi.forward(self.g.features[self.g.target_type])
        if self.cfg.beta == 0.0:
            return H
        Y = self.state.last_Y
        if Y is None:
            Y = cluster_assign(self.stack.p_phi, H)[0].Y
        return np.hstack([H, np.sqrt(self.cfg.beta) * Y])

    def epoch(self, timed) -> str | None:
        """Run one epoch inside ``timed``; check a rebuilt S afterwards."""
        X = self.metric_space() if self.rebuilds_next() else None
        before = self.state.S
        with timed:
            trainer.train_epoch(self.state, self.g, self.nb, self.stack, self.cfg)
        if X is None:
            return None
        S = self.state.S
        if before is not None:
            self.churn.append(neighbor_churn(before, S))
        return (checks.affinity_problem(S, self.cfg.k)
                or checks.neighbor_problem(
                    X, S, checks.sample_rows(S.n, KNN_SAMPLE, self.rng)))


class ScaleEpochs(Workload):
    """Criterion-10 spec and config at two sizes; an operation replays the
    second epoch at each size."""

    name = "scale-epochs"
    trace_ops = 3
    min_ops = 3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.sizes = {"4k": 4000, "8k": 8000} if size == "full" else {"4k": 400, "8k": 800}

    def setup(self):
        cfg = trainer.TrainConfig(seed=self.seed, beta=0.0, rebuild_period=1,
                                  max_epochs=10**6, **SCALING_CFG)
        self.runners = {label: _EpochRunner(n, self.seed, cfg)
                        for label, n in self.sizes.items()}
        for r in self.runners.values():
            r.churn = self.churn

    def warmup(self):
        for r in self.runners.values():
            r.epoch(contextlib.nullcontext())
            r.freeze()

    def op(self):
        results = []
        for label, r in self.runners.items():
            r.rewind()
            results.append(r.epoch(self.timed(label)))
        return results

    def summary(self):
        t4, t8 = _median(self.samples["4k"]), _median(self.samples["8k"])
        named = {
            "epoch_s.4k": (t4, "s"),
            "epoch_s.8k": (t8, "s"),
            "epoch_scaling_ratio": (t8 / t4, "1"),
        }
        return t8, t4, named


class Reuse8k(Workload):
    """Scaling spec at 8k with beta=5 and S rebuilt every 5 epochs; an
    operation replays the second rebuild period (epochs 6-10)."""

    name = "reuse-8k"
    trace_ops = 2
    min_ops = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n = 8000 if size == "full" else 800

    def setup(self):
        cfg = trainer.TrainConfig(seed=self.seed, beta=5.0, rebuild_period=5,
                                  max_epochs=10**6, **SCALING_CFG)
        self.runner = _EpochRunner(self.n, self.seed, cfg)
        self.runner.churn = self.churn

    def warmup(self):
        r = self.runner
        for _ in range(r.cfg.rebuild_period):
            r.epoch(contextlib.nullcontext())
        r.freeze()

    def op(self):
        r = self.runner
        r.rewind()
        results = []
        for _ in range(r.cfg.rebuild_period):
            key = "rebuild" if r.rebuilds_next() else "reuse"
            results.append(r.epoch(self.timed(key)))
        return results

    def summary(self):
        rebuild, reuse = _median(self.samples["rebuild"]), _median(self.samples["reuse"])
        named = {"epoch_s.rebuild": (rebuild, "s"), "epoch_s.reuse": (reuse, "s")}
        return rebuild, reuse, named


class EvalCli(Workload):
    """``hgsc eval`` through ``cli.main`` on a planted TSV dataset."""

    name = "eval-cli"
    min_ops = 3

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        # n=1000: silhouette still takes ~80% of the command, and a run
        # holds four commands, so its median is steadier than at n=1500
        self.n = 1000 if size == "full" else 300
        self.train_epochs = 10 if size == "full" else 5

    def probes(self):
        return [Target("evaluation.evaluate", "hgsc.evaluation", "evaluate")]

    def setup(self):
        base = tempfile.mkdtemp(prefix="eval-", dir=self.workdir)
        self.data = os.path.join(base, "data")
        self.run = os.path.join(base, "run")
        self.out = os.path.join(base, "eval")
        g = synth.generate(SynthSpec(n=self.n, aux_count=self.n // 2, seed=self.seed,
                                     **PLANTED))
        graph.save_graph(g, self.data)
        flags = ["train", "--data", self.data, "--out", self.run,
                 "--seed", str(self.seed), "--max-epochs", str(self.train_epochs),
                 "--patience", str(self.train_epochs)]
        for key, val in PLANTED_CFG.items():
            flags += [f"--{key}", str(val)]
        rc = _quiet(cli.main, flags)
        if rc != 0:
            raise RuntimeError(f"hgsc train exited {rc} during set-up")

    def op(self):
        report = os.path.join(self.out, "eval_report.tsv")
        if os.path.exists(report):
            os.remove(report)
        mark = len(self.probe_tracer.spans)
        argv = ["eval", "--data", self.data, "--checkpoint",
                os.path.join(self.run, "best.ckpt"), "--out", self.out]
        with self.timed("eval"):
            rc = _quiet(cli.main, argv)
        self.samples["evaluate"].extend(
            e - s for _, s, e, _ in self.probe_tracer.spans[mark:])
        if rc != 0:
            return [f"hgsc eval exited {rc}"]
        return [checks.eval_report_problem(report)]

    def summary(self):
        eval_s = _median(self.samples["eval"])
        return eval_s, _median(self.samples["evaluate"]), {"eval_s": (eval_s, "s")}

    def units(self, calls):
        return calls.get("cli.cmd_eval", 0)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


WORKLOADS = {w.name: w for w in (PlantedFit, ScaleEpochs, Reuse8k, EvalCli)}


# -- measurement ---------------------------------------------------------

def _run_ops(w: Workload, count: int | None, seconds: float):
    """Run ops until ``count`` are done, or the budget is spent (at least
    ``min_ops``). Returns (attempted, failures, timed seconds)."""
    attempted, failures = 0, []
    timed_before = sum(w.samples["_timed"])
    deadline = clock() + seconds
    ops = 0
    while True:
        try:
            results = w.op()
        except Exception as e:  # a raising operation counts as failed
            results = [f"{type(e).__name__}: {e}"]
        ops += 1
        attempted += len(results)
        failures += [r for r in results if r]
        if count is not None:
            if ops >= count:
                break
        elif ops >= w.min_ops and clock() >= deadline:
            break
    return attempted, failures, sum(w.samples["_timed"]) - timed_before


def neighbor_churn(prev, cur) -> float:
    """Share of rows whose neighbor set differs between two affinities."""
    return float((np.sort(prev.indices, axis=1)
                  != np.sort(cur.indices, axis=1)).any(axis=1).mean())


def _health(built: list, pools: list, clips: list, units: int) -> dict:
    per = max(units, 1)
    return {
        "affinity.degenerate_rows": float(np.mean([S.degenerate.sum() for S in built]))
        if built else 0.0,
        "losses.empty_clusters": float(np.mean([(c == 0).sum() for c in pools]))
        if pools else 0.0,
        "trainer.grad_norm_preclip": float(np.mean([n for n, _ in clips])) if clips else 0.0,
        "trainer.clipped_steps": sum(1 for n, cap in clips if cap > 0 and n > cap) / per,
    }


def _span_targets(names, built, pools, clips) -> list[Target]:
    keeps = {
        "affinity.build_affinity": lambda a, kw, out: built.append(out),
        "losses.cluster_pool": lambda a, kw, out: pools.append(out[1]),
        "trainer.clip_gradients": lambda a, kw, out: clips.append(
            (float(out), float(a[1] if len(a) > 1 else kw["max_norm"]))),
    }
    return [Target(n, *SPANS[n], keep=keeps.get(n)) for n in names]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: str) -> dict:
    """Run one workload in this process and return its result record."""
    w = WORKLOADS[name](seed, size, workdir)
    tracer = Tracer()
    kept = ([], [], [])          # built S, cluster_pool counts, clip results
    setup_times = []
    if trace:
        with tracer.region("setup"), tracer:
            tracer.install(_span_targets(SETUP_SPANS, *kept))
            w.setup()
    else:
        for _ in range(w.setup_reps if size == "full" else 2):
            start = clock()
            w.setup()
            setup_times.append(clock() - start)
    with w.probe_tracer:
        w.probe_tracer.install(w.probes())
        w.warmup()
        if trace:
            attempted, failures, plain_s, traced_s = _traced_pass(w, tracer, kept)
        else:
            attempted, failures, _ = _run_ops(w, None, seconds)

    if trace:
        values = _per_layer(w, tracer, kept)
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}
        named = {}
    else:
        op_s, ref_s, named_values = w.summary()
        values = {
            "setup_s": _median(setup_times + w.samples["setup"]),
            "op_s": op_s,
            "ref_s": ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
        named_values.update({
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MiB"),
            "failed_frac": (len(failures) / attempted, "1"),
        })
        named = {k: {"value": float(v), "unit": u} for k, (v, u) in named_values.items()}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "attempted": attempted, "failed": len(failures),
        "failures": failures[:5], "metrics": metrics, "named": named,
    }


def _traced_pass(w: Workload, tracer: Tracer, kept):
    """``trace_ops`` plain operations alternating with as many traced ones,
    so drift hits both alike. Returns (attempted, failures, plain s, traced s)."""
    attempted, failures, plain_s, traced_s = 0, [], 0.0, 0.0
    for _ in range(w.trace_ops):
        n, f, dt = _run_ops(w, 1, 0.0)
        attempted, failures, plain_s = attempted + n, failures + f, plain_s + dt
        w.tracer = tracer
        try:
            with tracer:
                tracer.install(_span_targets(SPANS, *kept))
                n, f, dt = _run_ops(w, 1, 0.0)
        finally:
            w.tracer = None
        attempted, failures, traced_s = attempted + n, failures + f, traced_s + dt
    return attempted, failures, plain_s, traced_s


def _per_layer(w: Workload, tracer: Tracer, kept) -> dict:
    timed = [(s, e) for label, s, e in tracer.regions if label == "timed"]
    traced = [(s, e) for _, s, e in tracer.regions]
    self_s = _over(tracer.self_times, traced)
    calls = _over(tracer.calls, timed)
    units = w.units(calls)
    per = max(units, 1)
    values = {f"{span}_s": self_s.get(span, 0.0) for span in SPANS}
    values.update({
        "affinity.to_csr_calls": calls.get("affinity.to_csr", 0) / per,
        "affinity.laplacian_calls": calls.get("affinity.laplacian", 0) / per,
        "affinity.rebuilds": calls.get("affinity.build_affinity", 0) / per,
        "trace.covered_frac": sum(tracer.covered(s, e) for s, e in timed)
        / sum(e - s for s, e in timed),
    })
    values.update(_health(*kept, units))
    values["affinity.neighbor_churn"] = float(np.mean(w.churn)) if w.churn else 0.0
    return values


def _over(fn, regions) -> dict:
    total: dict = defaultdict(float)
    for s, e in regions:
        for k, v in fn(s, e).items():
            total[k] += v
    return dict(total)
