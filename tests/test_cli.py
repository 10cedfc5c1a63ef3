import builtins
import json
import os
import shutil

import numpy as np
import pytest

import hgsc.cli as cli
from hgsc.graph import load_graph, write_fields
from hgsc.synth import SynthSpec
from hgsc.verify import VerificationResult


@pytest.fixture()
def synth_spec_file(tmp_path):
    spec = SynthSpec(n=24, c=2, feature_dim=5, aux_count=10, aux_feature_dim=4,
                     relations=2, edges_per_node=2, separation=6.0, seed=0)
    path = tmp_path / "spec.tsv"
    write_fields(str(path), spec)
    return str(path)


@pytest.fixture()
def dataset(tmp_path, synth_spec_file):
    out = str(tmp_path / "data")
    assert cli.main(["prepare", "--source", synth_spec_file, "--out", out]) == 0
    return out


def train_args(dataset, out, extra=()):
    return ["train", "--data", dataset, "--out", out, "--c", "2", "--d1", "8",
            "--d2", "4", "--k", "3", "--max-epochs", "5", "--patience", "30",
            "--seed", "1", *extra]


def test_prepare_creates_valid_dataset(dataset):
    g = load_graph(dataset)
    assert g.n_target == 24
    assert len(g.relations) == 2
    assert os.path.isfile(os.path.join(dataset, "manifest.tsv"))


def test_prepare_is_deterministic(tmp_path, synth_spec_file):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert cli.main(["prepare", "--source", synth_spec_file, "--out", out1]) == 0
    assert cli.main(["prepare", "--source", synth_spec_file, "--out", out2]) == 0
    for name in ("meta.tsv", "features_item.tsv", "edges_rel0.tsv",
                 "labels.tsv", "split.tsv"):
        with open(os.path.join(out1, name)) as f1, open(os.path.join(out2, name)) as f2:
            assert f1.read() == f2.read()


def test_prepare_missing_source(tmp_path):
    rc = cli.main(["prepare", "--source", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_USAGE


def test_train_writes_artifacts(tmp_path, dataset):
    out = str(tmp_path / "run")
    assert cli.main(train_args(dataset, out)) == 0
    log = open(os.path.join(out, "training_log.tsv")).read().splitlines()
    assert len(log) == 6  # header + 5 epochs
    for name in ("best.ckpt.npz", "best.ckpt", "affinity.tsv", "embeddings.tsv",
                 "config.tsv", "manifest.tsv"):
        if os.path.isfile(os.path.join(out, name)):
            break
    else:
        raise AssertionError("no checkpoint found")
    assert os.path.isfile(os.path.join(out, "embeddings.tsv"))
    assert os.path.isfile(os.path.join(out, "affinity.tsv"))
    manifest = open(os.path.join(out, "manifest.tsv")).read()
    assert "finished\t2" in manifest  # completion timestamp recorded
    emb = np.loadtxt(os.path.join(out, "embeddings.tsv"))
    assert emb.shape == (24, 16)  # [Z | Zt] with d1 = 8


def test_train_deterministic_logs(tmp_path, dataset):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(train_args(dataset, out1)) == 0
    assert cli.main(train_args(dataset, out2)) == 0
    log1 = open(os.path.join(out1, "training_log.tsv")).read()
    log2 = open(os.path.join(out2, "training_log.tsv")).read()
    assert log1 == log2


def checkpoint_path(run_dir):
    for name in ("best.ckpt.npz", "best.ckpt"):
        p = os.path.join(run_dir, name)
        if os.path.isfile(p):
            return p
    raise AssertionError("checkpoint missing")


def test_eval_reports_metrics(tmp_path, dataset):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data", dataset, "--checkpoint",
                   checkpoint_path(run), "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "eval_report.tsv")).read().splitlines()
    assert lines[0] == "metric\tmean\tstd"
    metrics = {row.split("\t")[0]: float(row.split("\t")[1]) for row in lines[1:]}
    assert 0.0 <= metrics["macro_f1"] <= 1.0
    assert -1.0 <= metrics["ari"] <= 1.0


def test_eval_missing_checkpoint(tmp_path, dataset):
    rc = cli.main(["eval", "--data", dataset, "--checkpoint",
                   str(tmp_path / "missing.npz")])
    assert rc == cli.EXIT_USAGE


def test_eval_checkpoint_mismatch(tmp_path, dataset, synth_spec_file):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    spec = SynthSpec(n=20, c=2, feature_dim=9, aux_count=10, aux_feature_dim=4,
                     relations=2, edges_per_node=2, seed=0)
    spec_path = tmp_path / "spec2.tsv"
    write_fields(str(spec_path), spec)
    other = str(tmp_path / "data2")
    assert cli.main(["prepare", "--source", str(spec_path), "--out", other]) == 0
    rc = cli.main(["eval", "--data", other, "--checkpoint", checkpoint_path(run)])
    assert rc == cli.EXIT_USAGE


def _rewrite_checkpoint_config(path, **changes):
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    cfg = json.loads(str(arrays["config_json"]))
    cfg.update(changes)
    arrays["config_json"] = np.array(json.dumps(cfg))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_eval_accepts_retired_knn_method_key(tmp_path, dataset):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    # older checkpoints store both retired keys; cc_pool_grad only as true
    _rewrite_checkpoint_config(ckpt, knn_method="pruned", cc_pool_grad=True)
    out = str(tmp_path / "eval")
    assert cli.main(["eval", "--data", dataset, "--checkpoint", ckpt,
                     "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "eval_report.tsv"))


def test_eval_rejects_invalid_checkpoint_config(tmp_path, dataset, capsys):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    _rewrite_checkpoint_config(ckpt, patience=0)
    rc = cli.main(["eval", "--data", dataset, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "eval")])
    assert rc == cli.EXIT_USAGE
    assert "patience" in capsys.readouterr().err


def test_train_rejects_cc_pool_grad_false(tmp_path, dataset, capsys):
    config = tmp_path / "cfg.tsv"
    config.write_text("c\t2\ncc_pool_grad\tFalse\n")
    rc = cli.main(train_args(dataset, str(tmp_path / "run"),
                             ["--config", str(config)]))
    assert rc == cli.EXIT_USAGE
    assert "cc_pool_grad" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--k", "--d1", "--d2"])
def test_train_rejects_nonpositive_sizes(tmp_path, dataset, capsys, flag):
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), [flag, "0"]))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {flag[2:]} must be >= 1\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--k", "23", "need k+1=24 candidates"),
    ("--c", "30", "need at least 30 rows"),
], ids=["k23", "c30"])
def test_train_numerical_failure_exits_2(tmp_path, dataset, capsys, flag, value, message):
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), [flag, value]))
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err


def test_train_one_column_edge_row_exits_1(tmp_path, dataset, capsys):
    path = os.path.join(dataset, "edges_rel0.tsv")
    with open(path, "w") as fh:
        fh.write("0\n")
    rc = cli.main(train_args(dataset, str(tmp_path / "run")))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "edges_rel0.tsv" in err


def test_train_short_features_row_exits_1(tmp_path, dataset, capsys):
    path = os.path.join(dataset, "features_item.tsv")
    with open(path) as fh:
        first = fh.readline()
    with open(path, "w") as fh:
        fh.write(first + "0.5\n")
    rc = cli.main(train_args(dataset, str(tmp_path / "run")))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: malformed file ") and path in err


@pytest.mark.parametrize("tag,bad", [
    ("node", lambda row: row[:3]),
    ("node", lambda row: [row[0], row[1], "x", row[3]]),
    ("target", lambda row: row[:1]),
], ids=["node-3-field", "node-not-int", "bare-target"])
def test_bad_meta_row_exits_1(tmp_path, dataset, capsys, tag, bad):
    path = os.path.join(dataset, "meta.tsv")
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    lineno = next(i for i, row in enumerate(rows, 1) if row[0] == tag)
    rows[lineno - 1] = bad(rows[lineno - 1])
    with open(path, "w") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)
    rc = cli.main(train_args(dataset, str(tmp_path / "run")))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line {lineno}: ") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["seed\t3\t4", "seed", "seed\tx"],
                         ids=["3-field", "1-field", "not-int"])
@pytest.mark.parametrize("command", ["train", "prepare"])
def test_bad_key_value_line_exits_1(tmp_path, dataset, capsys, command, line):
    path = tmp_path / "settings.tsv"
    path.write_text(f"c\t2\n{line}\n")
    if command == "train":
        argv = train_args(dataset, str(tmp_path / "run"), ["--config", str(path)])
    else:
        argv = ["prepare", "--source", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 2: ") and err.count("\n") == 1


def test_every_config_field_round_trips_through_its_flag():
    from dataclasses import fields

    from hgsc.trainer import TrainConfig

    want, argv = {}, ["train", "--data", "d", "--out", "o"]
    for i, f in enumerate(fields(TrainConfig)):
        want[f.name] = 3 + i if f.type == "int" else 0.5 + i
        argv += ["--" + f.name.replace("_", "-"), str(want[f.name])]
    assert {"--max-epochs", "--rebuild-period", "--grad-clip"} <= set(argv)
    cfg = cli._load_config(cli.build_parser().parse_args(argv))
    for name, value in want.items():
        got = getattr(cfg, name)
        assert got == value and type(got) is type(value), name


@pytest.mark.parametrize("command", ["eval", "export"])
def test_unsupported_checkpoint_version_exits_1(tmp_path, dataset, capsys, command):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    with np.load(ckpt) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["version"] = np.array(99)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    rc = cli.main([command, "--data", dataset, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert "version 99" in capsys.readouterr().err


def test_eval_split_without_test_nodes_exits_1(tmp_path, dataset, capsys):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    split = os.path.join(dataset, "split.tsv")
    with open(split) as fh:
        rows = [line.split("\t")[0] for line in fh if line.strip()]
    with open(split, "w") as fh:
        fh.writelines(f"{node}\ttrain\n" for node in rows)
    rc = cli.main(["eval", "--data", dataset, "--checkpoint", checkpoint_path(run),
                   "--out", str(tmp_path / "eval")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and "no test nodes" in err


def _drop_g_phi_w(arrays):
    del arrays["param:g_phi.W"]
    return "param:g_phi.W"


def _add_unknown(arrays):
    arrays["param:bogus.W"] = np.zeros((2, 2))
    return "param:bogus.W"


def _one_value_bias(arrays):
    arrays["param:g_phi.b"] = np.array([0.5])
    return "param:g_phi.b"


@pytest.mark.parametrize("edit", [_drop_g_phi_w, _add_unknown, _one_value_bias],
                         ids=["missing", "unknown", "one-value"])
def test_eval_rejects_mismatched_checkpoint_params(tmp_path, dataset, capsys, edit):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    with np.load(ckpt) as data:
        arrays = {name: data[name] for name in data.files}
    entry = edit(arrays)
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    rc = cli.main(["eval", "--data", dataset, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "eval")])
    assert rc == cli.EXIT_USAGE
    assert entry in capsys.readouterr().err


def test_input_hash_depends_on_contents_not_location(tmp_path, dataset):
    copy = str(tmp_path / "elsewhere" / "copy")
    shutil.copytree(dataset, copy)
    with open(os.path.join(copy, "manifest.tsv"), "a") as fh:
        fh.write("started\tanother time\n")
    assert cli._hash_inputs([copy]) == cli._hash_inputs([dataset])
    labels = os.path.join(copy, "labels.tsv")
    with open(labels, "rb") as fh:
        raw = bytearray(fh.read())
    raw[-2] = ord("0") if raw[-2] != ord("0") else ord("1")
    with open(labels, "wb") as fh:
        fh.write(raw)
    assert cli._hash_inputs([copy]) != cli._hash_inputs([dataset])


def test_school_threads_warns_without_threadpoolctl(monkeypatch, capsys):
    real_import = builtins.__import__

    def no_threadpoolctl(name, *args, **kwargs):
        if name == "threadpoolctl":
            raise ImportError(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_threadpoolctl)
    monkeypatch.setenv("SCHOOL_THREADS", "1")
    cli._limit_threads()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "SCHOOL_THREADS" in err and "threadpoolctl" in err
    monkeypatch.delenv("SCHOOL_THREADS")
    cli._limit_threads()
    assert capsys.readouterr().err == ""


def test_export_writes_files(tmp_path, dataset):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    out = str(tmp_path / "exp")
    rc = cli.main(["export", "--data", dataset, "--checkpoint",
                   checkpoint_path(run), "--out", out])
    assert rc == 0
    for name in ("embeddings.tsv", "affinity.tsv", "assignments.tsv", "manifest.tsv"):
        assert os.path.isfile(os.path.join(out, name))


def test_verify_exit_codes(tmp_path, monkeypatch):
    ok = [VerificationResult("a", True, 0.0, 1.0, "x")]
    bad = [VerificationResult("a", False, 2.0, 1.0, "x")]
    monkeypatch.setattr(cli, "run_suite", lambda scale, seed: ok)
    out = str(tmp_path / "v")
    assert cli.main(["verify", "--scale", "small", "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "verification.tsv"))
    monkeypatch.setattr(cli, "run_suite", lambda scale, seed: bad)
    assert cli.main(["verify", "--scale", "small"]) == cli.EXIT_VERIFY


def test_verify_bad_scale():
    assert cli.main(["verify", "--scale", "bogus"]) == cli.EXIT_USAGE


def test_usage_error_exit_code():
    assert cli.main(["train", "--data"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_sweep_grid(tmp_path, dataset):
    out = str(tmp_path / "sweep")
    rc = cli.main(["sweep", "--data", dataset, "--out", out, "--c", "2",
                   "--d1", "8", "--d2", "4", "--k", "3", "--max-epochs", "3",
                   "--seed", "1", "--mu-grid", "0.1,1.0,0.1",
                   "--delta-grid", "0.5,2.0"])
    assert rc == 0
    cells = [d for d in os.listdir(out) if d.startswith("cell_")]
    assert len(cells) == 4  # duplicated mu value deduplicated: 2 x 2
    summary = open(os.path.join(out, "summary.tsv")).read().splitlines()
    assert len(summary) == 5
    # summary agrees with the per-cell reports
    for row in summary[1:]:
        parts = row.split("\t")
        cell_dir = sorted(cells)[int(parts[0])]
        report = open(os.path.join(out, cell_dir, "eval_report.tsv")).read()
        macro = [ln for ln in report.splitlines() if ln.startswith("macro_f1")][0]
        assert abs(float(macro.split("\t")[1]) - float(parts[5])) < 5e-7


def test_train_rerun_is_idempotent(tmp_path, dataset):
    out = str(tmp_path / "run")
    assert cli.main(train_args(dataset, out)) == 0
    first = {}
    for name in ("training_log.tsv", "embeddings.tsv", "affinity.tsv", "best.ckpt"):
        with open(os.path.join(out, name), "rb") as fh:
            first[name] = fh.read()
    assert cli.main(train_args(dataset, out)) == 0
    for name, blob in first.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == blob


def test_sweep_parallel_jobs_match_sequential(tmp_path, dataset):
    seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
    base = ["sweep", "--data", dataset, "--c", "2", "--d1", "8", "--d2", "4",
            "--k", "3", "--max-epochs", "3", "--seed", "1",
            "--mu-grid", "0.1,1.0"]
    assert cli.main(base + ["--out", seq]) == 0
    assert cli.main(base + ["--out", par, "--jobs", "2"]) == 0
    with open(os.path.join(seq, "summary.tsv")) as f1, \
            open(os.path.join(par, "summary.tsv")) as f2:
        assert f1.read() == f2.read()


def test_periodic_checkpoints(tmp_path, dataset):
    out = str(tmp_path / "run")
    rc = cli.main(train_args(dataset, out, extra=("--checkpoint-every", "2")))
    assert rc == 0
    from hgsc.encoders import EncoderStack
    for name in ("epoch_2.ckpt", "epoch_4.ckpt", "best.ckpt"):
        path = os.path.join(out, name)
        assert os.path.isfile(path)
        EncoderStack.load(path)


def test_sweep_empty_grid(tmp_path, dataset):
    rc = cli.main(["sweep", "--data", dataset, "--out", str(tmp_path / "s"),
                   "--c", "2", "--mu-grid", ""])
    assert rc == cli.EXIT_USAGE
