"""Tests for the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/tests/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

from hgsc import affinity as aff  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_all(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
         "--size", "smoke", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, key):
    spec = _spec()
    want = {m["name"]: m["unit"] for m in spec[key]}
    results = _run_all(trace)
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, name
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, name
        assert all(np.isfinite(v["value"]) for v in res["metrics"].values()), name
    if trace:
        for name, res in results.items():
            assert res["metrics"]["trace.covered_frac"]["value"] >= 0.9, name


def test_spec_matches_code():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _affinity(n=60, k=5, seed=0):
    H = np.random.default_rng(seed).standard_normal((n, 4))
    return H, aff.build_affinity(H, k=k)


def test_checks_accept_program_output():
    H, S = _affinity()
    assert checks.affinity_problem(S, S.k) is None
    assert checks.neighbor_problem(H, S, range(S.n)) is None


def test_corrupted_affinity_is_a_failure():
    _, S = _affinity()
    S.weights[3] *= 1.5
    assert "row sums" in checks.affinity_problem(S, S.k)


def test_wrong_neighbor_row_is_a_failure():
    H, S = _affinity()
    far = int(np.argmax(((H - H[7]) ** 2).sum(axis=1)))
    S.indices[7, -1] = far
    assert checks.neighbor_problem(H, S, [7]) is not None
    assert checks.affinity_problem(S, S.k) is None


def _corrupting(mutate):
    original = aff.build_affinity

    def build(*args, **kwargs):
        S = original(*args, **kwargs)
        mutate(S)
        return S

    return original, build


def _far_last_neighbor(S):
    """Swap each row's last neighbor for a distant node; S stays well formed."""
    for i in range(S.n):
        j = (i + S.n // 2) % S.n
        while j == i or j in S.indices[i]:
            j = (j + 1) % S.n
        S.indices[i, -1] = j


@pytest.mark.parametrize("mutate", [
    lambda S: S.weights.__imul__(1.01),
    _far_last_neighbor,
], ids=["row-sums", "neighbor-row"])
def test_failed_check_counts_against_ok_frac(tmp_path, mutate):
    original, build = _corrupting(mutate)
    aff.build_affinity = build
    try:
        rec = workloads.measure("scale-epochs", 0, 0.05, False, "smoke", str(tmp_path))
    finally:
        aff.build_affinity = original
    assert rec["failed"] == rec["attempted"] > 0
    assert rec["metrics"]["ok_frac"]["value"] == 0.0


def _bound_attributes():
    """Every (holder, attribute) through which hgsc code reaches a span target."""
    found = {}
    for owner, attr in workloads.SPANS.values():
        holder = sys.modules[owner] if isinstance(owner, str) else owner
        found[(id(holder), attr)] = (holder, attr, getattr(holder, attr))
        if isinstance(owner, str):
            for key, mod in list(sys.modules.items()):
                if key.startswith("hgsc") and getattr(mod, attr, None) is getattr(holder, attr):
                    found[(id(mod), attr)] = (mod, attr, getattr(mod, attr))
    return found


def test_wrappers_restored_after_traced_run(tmp_path):
    before = _bound_attributes()
    rec = workloads.measure("eval-cli", 0, 0.05, True, "smoke", str(tmp_path))
    assert rec["metrics"]["cli.cmd_eval_s"]["value"] > 0
    for holder, attr, fn in before.values():
        assert getattr(holder, attr) is fn, (holder, attr)
        assert not hasattr(fn, "__wrapped__"), (holder, attr)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_times_plus_uncovered_sum_to_span_total():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    ns = type(sys)("fake_mod")
    ns.leaf = lambda: clock() and None
    ns.mid = lambda: (ns.leaf(), ns.leaf(), clock())
    ns.top = lambda: (ns.mid(), ns.leaf())
    sys.modules["fake_mod"] = ns
    try:
        tracer.install([Target("leaf", "fake_mod", "leaf"), Target("mid", "fake_mod", "mid"),
                        Target("top", "fake_mod", "top")], package="fake_mod")
        with tracer.region("timed"):
            ns.top()
            clock()            # time outside every span
            ns.leaf()
        tracer.restore()
    finally:
        del sys.modules["fake_mod"]
    (_, start, end), = tracer.regions
    self_s = tracer.self_times(start, end)
    uncovered = (end - start) - tracer.covered(start, end)
    assert uncovered > 0
    assert sum(self_s.values()) + uncovered == pytest.approx(end - start, abs=1e-12)
    assert tracer.calls(start, end) == {"top": 1, "mid": 1, "leaf": 4}
    assert all(v > 0 for v in self_s.values())


def test_real_trace_covers_timed_region(tmp_path):
    rec = workloads.measure("planted-fit", 0, 0.05, True, "smoke", str(tmp_path))
    m = rec["metrics"]
    assert 0.9 <= m["trace.covered_frac"]["value"] <= 1.0
    assert m["affinity.to_csr_calls"]["value"] > 0
    assert m["trainer.train_epoch_s"]["value"] > 0
