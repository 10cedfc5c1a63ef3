import builtins
import hashlib
import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

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


BAD_SPEC_VALUES = [
    ("aux_count", "0", "aux_count must be >= 1"),
    ("feature_dim", "0", "feature_dim must be >= 1"),
    ("aux_feature_dim", "0", "aux_feature_dim must be >= 1"),
    ("relations", "0", "relations must be >= 1"),
    ("edges_per_node", "-2", "edges_per_node must be >= 0"),
    ("separation", "nan", "separation must be finite and >= 0"),
    ("separation", "-1", "separation must be finite and >= 0"),
    ("noise", "inf", "noise must be finite and >= 0"),
    ("noise", "nan", "noise must be finite and >= 0"),
    ("n", "1", "need n >= c >= 1"),
    ("cross_edge_rate", "1.5", "cross_edge_rate must be in [0, 1]"),
    ("cross_edge_rate", "-0.5", "cross_edge_rate must be in [0, 1]"),
    ("train_frac", "0", "train_frac must be in (0, 1)"),
    ("train_frac", "1", "train_frac must be in (0, 1)"),
    ("colour", "red", "unknown generator key 'colour'"),
]


@pytest.mark.parametrize("key,value,message", BAD_SPEC_VALUES,
                         ids=[f"{key}-{value}" for key, value, _ in BAD_SPEC_VALUES])
def test_prepare_rejects_invalid_spec_value(tmp_path, synth_spec_file, capsys, key, value,
                                            message):
    path = str(tmp_path / "bad.tsv")
    shutil.copy(synth_spec_file, path)
    with open(path, "a") as fh:  # a later line for a key replaces the earlier one
        fh.write(f"{key}\t{value}\n")
    out = str(tmp_path / "out")
    assert cli.main(["prepare", "--source", path, "--out", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


def test_prepare_missing_source(tmp_path):
    rc = cli.main(["prepare", "--source", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_USAGE


def dataset_files(path):
    """A dataset directory's files and their bytes, its run manifest left out."""
    return {f.name: f.read_bytes()
            for f in sorted(Path(path).iterdir()) if f.name != "manifest.tsv"}


def manifest_fields(path):
    with open(os.path.join(path, "manifest.tsv")) as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh)


def test_prepare_copies_a_dataset_directory(tmp_path, dataset):
    out = str(tmp_path / "copy")
    assert cli.main(["prepare", "--source", dataset, "--out", out]) == 0
    assert dataset_files(out) == dataset_files(dataset)
    assert manifest_fields(out)["config"] == "copy"


def test_prepare_round_trips_a_featureless_type(tmp_path, dataset):
    # ctx0 loses its features file and declares width 0: its features are
    # an implicit identity, and a copy writes no features file for it either
    os.remove(os.path.join(dataset, "features_ctx0.tsv"))
    meta = Path(dataset, "meta.tsv")
    meta.write_text(meta.read_text().replace("node\tctx0\t10\t4", "node\tctx0\t10\t0"))
    out = str(tmp_path / "copy")
    assert cli.main(["prepare", "--source", dataset, "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "features_ctx0.tsv"))
    g, g2 = load_graph(dataset), load_graph(out)
    assert g2.counts == g.counts
    for t in g.node_types:
        a, b = g.features[t], g2.features[t]
        assert type(a) is type(b)
        assert np.array_equal(getattr(a, "toarray", lambda: a)(),
                              getattr(b, "toarray", lambda: b)())
    assert np.array_equal(g.features["ctx0"].toarray(), np.eye(10))


def test_prepare_seed_with_a_dataset_directory_exits_1(tmp_path, dataset, capsys):
    out = str(tmp_path / "copy")
    rc = cli.main(["prepare", "--source", dataset, "--out", out, "--seed", "5"])
    assert rc == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_prepare_manifest_records_the_spec_as_json(dataset, synth_spec_file):
    config = json.loads(manifest_fields(dataset)["config"])
    assert SynthSpec(**config) == SynthSpec.from_tsv(synth_spec_file)


def test_prepare_seed_overrides_the_spec(tmp_path, dataset, synth_spec_file):
    out = str(tmp_path / "seeded")
    assert cli.main(["prepare", "--source", synth_spec_file, "--out", out,
                     "--seed", "7"]) == 0
    assert manifest_fields(out)["seed"] == "7"
    spec = SynthSpec.from_tsv(synth_spec_file)
    spec.seed = 7
    path = str(tmp_path / "spec7.tsv")
    write_fields(path, spec)
    ref = str(tmp_path / "ref")
    assert cli.main(["prepare", "--source", path, "--out", ref]) == 0
    assert dataset_files(out) == dataset_files(ref) != dataset_files(dataset)


@pytest.mark.parametrize("name,edit,message", [
    ("features_item.tsv", lambda text: "nan" + text[text.index("\t"):],
     "{bad}: type 'item': non-finite feature values"),
    ("features_ctx0.tsv", lambda text: text + text.splitlines(True)[0],
     "{bad}: type 'ctx0': 11 feature rows for 10 nodes"),
    ("split.tsv", lambda text: text + "3\tvalid\n", "{bad}/split.tsv: unknown split 'valid'"),
    ("split.tsv", lambda text: text + "24\ttest\n", "{bad}: test split index out of range"),
    ("meta.tsv", lambda text: text.replace("target\titem\n", ""),
     "{bad}/meta.tsv: no target row"),
    ("meta.tsv", lambda text: text.replace("target\titem\n", "target\tpaper\n"),
     "{bad}/meta.tsv: target type 'paper' has no node row"),
    ("meta.tsv", lambda text: text.replace("edge\trel0\titem\tctx0\n",
                                           "edge\trel0\titem\tctxX\n"),
     "{bad}: relation 'rel0': unknown dst type 'ctxX'"),
    # the prepared meta.tsv has 6 rows, so an appended row is line 7
    ("meta.tsv", lambda text: text + "edge\trel0\titem\tctx1\n",
     "{bad}/meta.tsv, line 7: a second edge row for 'rel0'"),
    ("meta.tsv", lambda text: text + "node\tctx0\t10\t4\n",
     "{bad}/meta.tsv, line 7: a second node row for 'ctx0'"),
    ("meta.tsv", lambda text: text + "target\tctx0\n",
     "{bad}/meta.tsv, line 7: a second target row"),
    ("meta.tsv", lambda text: text + "weight\tctx0\n",
     "{bad}/meta.tsv, line 7: unknown row tag 'weight'"),
    ("meta.tsv", lambda text: text.replace("node\tctx0\t10\t4", "node\tctx0\t-3\t4"),
     "{bad}/meta.tsv, line 2: a node row's count and feature_dim must be >= 0, got -3 and 4"),
    ("meta.tsv", lambda text: text.replace("node\tctx0\t10\t4", "node\tctx0\t10\t-4"),
     "{bad}/meta.tsv, line 2: a node row's count and feature_dim must be >= 0, got 10 and -4"),
    ("meta.tsv", lambda text: text.replace("node\tctx0\t10\t4", "node\tctx0\t0\t4"),
     "{bad}: type 'ctx0': 10 feature rows for 0 nodes"),
    ("meta.tsv", lambda text: None, "missing file: {bad}/meta.tsv"),
    ("features_item.tsv", lambda text: None, "missing file: {bad}/features_item.tsv"),
    ("labels.tsv", lambda text: text + "24\t0\n",
     "{bad}/labels.tsv: node index 24 out of range"),
    ("split.tsv", lambda text: text + "x\ttrain\n",
     "malformed file {bad}/split.tsv: invalid literal for int() with base 10: 'x'"),
    ("labels.tsv", lambda text: text + "0\t2\n", "{bad}/labels.tsv: node 0 is listed twice"),
    # the prepared split.tsv lists the train nodes 3 and 8 first
    ("split.tsv", lambda text: text + "".join(text.splitlines(True)[:2]),
     "{bad}/split.tsv: node 3 is listed twice under 'train'"),
])
def test_load_graph_errors_exit_1_with_their_message(tmp_path, dataset, capsys,
                                                     name, edit, message):
    """``edit`` maps the file's text to its new text, or to None to delete
    it; ``{bad}`` in ``message`` is the edited dataset's directory."""
    bad = str(tmp_path / "bad")
    shutil.copytree(dataset, bad)
    path = os.path.join(bad, name)
    with open(path) as fh:
        text = edit(fh.read())
    if text is None:
        os.remove(path)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    out = str(tmp_path / "out")
    assert cli.main(["prepare", "--source", bad, "--out", out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.format(bad=bad)}\n"
    assert not os.path.exists(out)


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


def test_eval_checkpoint_mismatch(tmp_path, dataset, synth_spec_file, capsys):
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
    assert "does not fit the graph: feature_dims" in capsys.readouterr().err


def _edit_meta(data, edit):
    """Rewrite ``data``'s meta.tsv through ``edit`` (fields -> fields or None)."""
    path = os.path.join(data, "meta.tsv")
    with open(path) as fh:
        rows = [edit(line.rstrip("\n").split("\t")) for line in fh if line.strip()]
    with open(path, "w") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows if row is not None)


def _drop_rel1(data):
    _edit_meta(data, lambda row: None if row[:2] == ["edge", "rel1"] else row)
    return "relations"


def _repoint_rel1(data):
    # ctx0 and ctx1 hold the same number of nodes, so rel1's edges stay valid
    _edit_meta(data, lambda row: row[:3] + ["ctx0"] if row[:2] == ["edge", "rel1"] else row)
    return "relations"


def _target_ctx0(data):
    _edit_meta(data, lambda row: ["target", "ctx0"] if row[0] == "target" else row)
    n = 10  # aux_count of the fixture spec
    with open(os.path.join(data, "labels.tsv"), "w") as fh:
        fh.writelines(f"{i}\t{i % 2}\n" for i in range(n))
    with open(os.path.join(data, "split.tsv"), "w") as fh:
        fh.writelines(f"{i}\t{'train' if i < 6 else 'test'}\n" for i in range(n))
    return "target_type"


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("edit", [_drop_rel1, _repoint_rel1, _target_ctx0],
                         ids=["no-rel1", "rel1-to-ctx0", "target-ctx0"])
def test_checkpoint_on_another_graph_exits_1(tmp_path, dataset, capsys, command, edit):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    other = str(tmp_path / "other")
    shutil.copytree(dataset, other)
    what = edit(other)
    capsys.readouterr()
    rc = cli.main([command, "--data", other, "--checkpoint", checkpoint_path(run),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"does not fit the graph: {what}" in err
    if what == "relations":
        assert "'rel1'" in err


@pytest.mark.parametrize("entry", ["version", "config_json", "stack_json"])
def test_checkpoint_without_entry_exits_1(tmp_path, dataset, capsys, entry):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    with np.load(ckpt) as data:
        arrays = {name: data[name] for name in data.files if name != entry}
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    rc = cli.main(["eval", "--data", dataset, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "eval")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"no {entry!r} entry" in err


def _non_scalar_version(path):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["version"] = np.array([1, 1])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _truncated(path):
    with open(path, "rb") as fh:
        head = fh.read()[:-200]
    with open(path, "wb") as fh:
        fh.write(head)


def _plain_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(4.0))


def _set_entry(path, key, text):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[key] = np.array(text)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _config_list(path):
    _set_entry(path, "config_json", "[1, 2]")


def _config_string_c(path):
    _rewrite_checkpoint_config(path, c="x")


def _config_not_json(path):
    _set_entry(path, "config_json", "{c: 2}")


def _stack_not_json(path):
    _set_entry(path, "stack_json", "{target_type")


def _stack_not_object(path):
    _set_entry(path, "stack_json", "[1]")


@pytest.mark.parametrize("corrupt", [_non_scalar_version, _truncated, _plain_npy,
                                     _config_list, _config_string_c, _config_not_json,
                                     _stack_not_json, _stack_not_object],
                         ids=["non-scalar-version", "truncated", "plain-npy",
                              "config-list", "config-string-c", "config-not-json",
                              "stack-not-json", "stack-not-object"])
def test_malformed_checkpoint_file_exits_1(tmp_path, dataset, capsys, corrupt):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    corrupt(ckpt)
    capsys.readouterr()
    rc = cli.main(["eval", "--data", dataset, "--checkpoint", ckpt,
                   "--out", str(tmp_path / "eval")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt} ") and err.count("\n") == 1


def test_train_without_a_relation_on_the_target_exits_1(tmp_path, dataset, capsys):
    # the only relation joins ctx0 and ctx1; none reaches the target type
    _edit_meta(dataset, lambda row: (None if row[:2] == ["edge", "rel1"] else
                                     ["edge", "rel0", "ctx0", "ctx1"]
                                     if row[:2] == ["edge", "rel0"] else row))
    with open(os.path.join(dataset, "edges_rel0.tsv"), "w") as fh:
        fh.write("0\t1\n2\t3\n")
    capsys.readouterr()
    rc = cli.main(train_args(dataset, str(tmp_path / "run")))
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: no relations touch the target type 'item'\n"


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


def test_train_rejects_more_clusters_than_d1(tmp_path, dataset, capsys):
    # P = H W_p has rank <= d1, so the QR step would fail at the first epoch
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), ["--c", "9"]))
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: c must be <= d1, got c=9 and d1=8\n"


@pytest.mark.parametrize("flags,message", [
    (["--k", "23"], "k must be <= n - 2 = 22 for the 24 target nodes, got k=23"),
    # c > n with c <= d1, which the config check would reject first
    (["--c", "30", "--d1", "32"], "c must be <= the 24 target nodes, got c=30"),
], ids=["k23", "c30"])
def test_train_settings_the_graph_cannot_honour_exit_1(tmp_path, dataset, capsys, flags,
                                                       message):
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), flags))
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_cell_the_graph_cannot_honour_exits_1(tmp_path, dataset, capsys):
    rc = cli.main(["sweep", "--data", dataset, "--out", str(tmp_path / "sweep"),
                   "--c", "2", "--d1", "8", "--d2", "4", "--max-epochs", "2",
                   "--k-grid", "23"])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: k must be <= n - 2 = 22 for the 24 target nodes, got k=23\n")


def test_train_numerical_failure_exits_2(tmp_path, dataset, capsys):
    # finite features whose squared distances overflow: one stderr line,
    # no numpy warning before it
    path = os.path.join(dataset, "features_item.tsv")
    np.savetxt(path, 1e200 * np.loadtxt(path, delimiter="\t"), fmt="%.17g", delimiter="\t")
    rc = cli.main(train_args(dataset, str(tmp_path / "run")))
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "not finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("dim", [4, 0], ids=["features_file", "no_features_file"])
def test_relation_to_a_type_without_nodes_trains(tmp_path, dataset, dim):
    with open(os.path.join(dataset, "meta.tsv"), "a") as fh:
        fh.write(f"node\tvenue\t0\t{dim}\nedge\trelv\titem\tvenue\n")
    Path(dataset, "edges_relv.tsv").write_text("")
    if dim:
        Path(dataset, "features_venue.tsv").write_text("")
    out = str(tmp_path / "run")
    assert cli.main(train_args(dataset, out)) == 0
    assert cli.main(["eval", "--data", dataset, "--checkpoint",
                     os.path.join(out, "best.ckpt")]) == 0


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


def test_flags_override_the_config_file_before_the_one_validation(tmp_path, capsys):
    from hgsc.trainer import TrainConfig

    path = tmp_path / "cfg.tsv"
    path.write_text("c\t3\nk\t4\nlr\tnan\n")
    argv = ["train", "--data", "d", "--out", "o", "--config", str(path)]
    parse = cli.build_parser().parse_args
    assert cli._load_config(parse(argv + ["--lr", "0.01"])) == TrainConfig(c=3, k=4, lr=0.01)
    with pytest.raises(ValueError, match="^lr must be finite and >= 0$"):
        cli._load_config(parse(argv))
    path.write_text("k\t4\n")  # a config file names c; only no file means c = 2
    with pytest.raises(ValueError, match="^incomplete config"):
        cli._load_config(parse(argv))


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
    assert f"checkpoint {ckpt} has unsupported version 99" in capsys.readouterr().err


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
    # a path that is not there, like an absent optional input, adds nothing
    assert cli._hash_inputs([copy, str(tmp_path / "absent")]) == cli._hash_inputs([copy])
    # files are read in chunks; the digest is the whole-file one
    with open(os.path.join(copy, "big.bin"), "wb") as fh:
        fh.write(np.random.default_rng(0).bytes(2 * cli._HASH_CHUNK + 17))
    whole = hashlib.sha256()
    for name in sorted(os.listdir(copy)):
        if name != "manifest.tsv":
            whole.update(name.encode())
            with open(os.path.join(copy, name), "rb") as fh:
                whole.update(fh.read())
    assert cli._hash_inputs([copy]) == whole.hexdigest()
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


@pytest.mark.parametrize("installed", [False, True])
def test_school_threads_names_a_value_that_is_not_an_integer(monkeypatch, capsys,
                                                            installed):
    real_import = builtins.__import__
    applied = []
    fake = SimpleNamespace(threadpool_limits=lambda limits: applied.append(limits))

    def fake_import(name, *args, **kwargs):
        if name == "threadpoolctl":
            if not installed:
                raise ImportError(name)
            return fake
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", fake_import)
    monkeypatch.setenv("SCHOOL_THREADS", "x")
    cli._limit_threads()
    assert capsys.readouterr().err == ("warning: SCHOOL_THREADS='x' is not an "
                                       "integer; ignored\n")
    assert applied == []
    monkeypatch.setenv("SCHOOL_THREADS", "1")
    cli._limit_threads()
    assert (capsys.readouterr().err == "") == installed
    assert applied == ([1] if installed else [])


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


@pytest.mark.parametrize("jobs,cells,workers", [(64, "0.1,1.0", 2), (8, "0.1", None)])
def test_sweep_starts_at_most_one_worker_per_cell(tmp_path, dataset, monkeypatch,
                                                  jobs, cells, workers):
    import concurrent.futures

    seen = []

    class InlineExecutor:
        """Records max_workers and runs the cells on this thread."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    assert cli.main(["sweep", "--data", dataset, "--out", str(tmp_path / "sweep"),
                     "--c", "2", "--d1", "8", "--d2", "4", "--k", "3",
                     "--max-epochs", "2", "--mu-grid", cells, "--jobs", str(jobs)]) == 0
    assert seen == ([] if workers is None else [workers])


def test_periodic_checkpoints(tmp_path, dataset):
    out = str(tmp_path / "run")
    rc = cli.main(train_args(dataset, out, extra=("--checkpoint-every", "2")))
    assert rc == 0
    from hgsc.graph import build_neighborhoods
    from hgsc.trainer import TrainConfig, load_checkpoint
    g = load_graph(dataset)
    nb = build_neighborhoods(g)
    for name in ("epoch_2.ckpt", "epoch_4.ckpt", "best.ckpt"):
        path = os.path.join(out, name)
        assert os.path.isfile(path)
        _, cfg = load_checkpoint(path, g, nb)
        assert cfg == TrainConfig(c=2, d1=8, d2=4, k=3, max_epochs=5, patience=30, seed=1)
    # a snapshot carries the run's config, so it evaluates like best.ckpt
    rc = cli.main(["eval", "--data", dataset, "--checkpoint",
                   os.path.join(out, "epoch_2.ckpt"), "--out", str(tmp_path / "eval")])
    assert rc == 0


def test_sweep_writes_periodic_checkpoints_in_each_cell(tmp_path, dataset):
    base = ["sweep", "--data", dataset, "--c", "2", "--d1", "8", "--d2", "4",
            "--k", "3", "--max-epochs", "4", "--patience", "30", "--seed", "1",
            "--mu-grid", "0.1,1.0"]
    every, default = str(tmp_path / "every"), str(tmp_path / "default")
    assert cli.main(base + ["--out", every, "--checkpoint-every", "2"]) == 0
    assert cli.main(base + ["--out", default]) == 0
    for out, want in ((every, ["epoch_2.ckpt", "epoch_4.ckpt"]), (default, [])):
        cells = sorted(d for d in os.listdir(out) if d.startswith("cell_"))
        assert len(cells) == 2
        for cell in cells:
            snapshots = sorted(f for f in os.listdir(os.path.join(out, cell))
                               if f.startswith("epoch_"))
            assert snapshots == want


def test_train_files_hold_the_affinity_training_used(tmp_path, dataset):
    from hgsc.graph import build_neighborhoods
    from hgsc.trainer import TrainConfig, fit, represent
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    g = load_graph(dataset)
    nb = build_neighborhoods(g)
    cfg = TrainConfig(c=2, d1=8, d2=4, k=3, max_epochs=5, patience=30, seed=1)
    result = fit(g, cfg, nb)
    expected = str(tmp_path / "affinity.tsv")
    result.S.save_tsv(expected)
    with open(expected) as f1, open(os.path.join(run, "affinity.tsv")) as f2:
        assert f1.read() == f2.read()
    _, _, Z, Zt = represent(result.stack, g, nb, cfg, result.S)[0]
    expected = str(tmp_path / "embeddings.tsv")
    cli._write_embeddings(expected, Z, Zt)
    with open(expected) as f1, open(os.path.join(run, "embeddings.tsv")) as f2:
        assert f1.read() == f2.read()


def test_sweep_cell_scores_the_affinity_training_used(tmp_path, dataset):
    from hgsc.evaluation import evaluate
    from hgsc.graph import build_neighborhoods
    from hgsc.trainer import fit, load_checkpoint, represent
    out = str(tmp_path / "sweep")
    assert cli.main(["sweep", "--data", dataset, "--out", out, "--c", "2",
                     "--d1", "8", "--d2", "4", "--k", "3", "--max-epochs", "5",
                     "--seed", "1"]) == 0
    (cell,) = [os.path.join(out, d) for d in os.listdir(out) if d.startswith("cell_")]
    g = load_graph(dataset)
    nb = build_neighborhoods(g)
    _, cfg = load_checkpoint(os.path.join(cell, "best.ckpt"), g, nb)
    result = fit(g, cfg, nb)
    _, _, Z, Zt = represent(result.stack, g, nb, cfg, result.S)[0]
    expected = str(tmp_path / "eval_report.tsv")
    evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cfg.c, seed=cfg.seed).to_tsv(expected)
    with open(expected) as f1, open(os.path.join(cell, "eval_report.tsv")) as f2:
        assert f1.read() == f2.read()


def test_eval_keeps_the_training_manifest(tmp_path, dataset):
    run = str(tmp_path / "run")
    assert cli.main(train_args(dataset, run)) == 0
    with open(os.path.join(run, "manifest.tsv")) as fh:
        train_manifest = fh.read()
    assert "command\ttrain\n" in train_manifest
    assert cli.main(["eval", "--data", dataset, "--checkpoint",
                     checkpoint_path(run)]) == 0
    with open(os.path.join(run, "manifest.tsv")) as fh:
        assert fh.read() == train_manifest
    with open(os.path.join(run, "eval_manifest.tsv")) as fh:
        eval_manifest = fh.read()
    assert "command\teval\n" in eval_manifest and "finished\t2" in eval_manifest
    assert os.path.isfile(os.path.join(run, "eval_report.tsv"))


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_train_rejects_negative_grad_clip(tmp_path, dataset, capsys, value):
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), ["--grad-clip", value]))
    assert rc == cli.EXIT_USAGE
    assert "grad_clip must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--beta", "inf"),
                                        ("--mu", "-1")])
def test_train_rejects_nonfinite_weights(tmp_path, dataset, capsys, flag, value):
    rc = cli.main(train_args(dataset, str(tmp_path / "run"), [flag, value]))
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag[2:]} must be finite and >= 0\n"


@pytest.mark.parametrize("grid", ["2.5,2", "2,x"])
def test_sweep_rejects_a_k_grid_value_that_is_not_an_integer(tmp_path, dataset, capsys,
                                                             grid):
    out = tmp_path / "s"
    rc = cli.main(["sweep", "--data", dataset, "--out", str(out), "--c", "2",
                   "--k-grid", grid])
    assert rc == cli.EXIT_USAGE
    bad = grid.split(",")[grid.startswith("2,")]
    assert capsys.readouterr().err == \
        f"usage error: sweep grid value {bad!r} does not parse as int\n"
    assert not out.exists()


def test_sweep_empty_grid(tmp_path, dataset):
    rc = cli.main(["sweep", "--data", dataset, "--out", str(tmp_path / "s"),
                   "--c", "2", "--mu-grid", ""])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("grid", ["--mu-grid", "--k-grid"])
def test_sweep_validates_every_cell_before_training(tmp_path, dataset, capsys, grid):
    out = tmp_path / "s"
    values = "0.1,-1" if grid == "--mu-grid" else "3,0"
    rc = cli.main(["sweep", "--data", dataset, "--out", str(out), "--c", "2",
                   "--d1", "8", "--d2", "4", "--k", "3", "--max-epochs", "3",
                   grid, values])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("sweep", "--jobs", "0"), ("sweep", "--jobs", "-3"),
    ("train", "--checkpoint-every", "-2"), ("sweep", "--checkpoint-every", "-1"),
])
def test_flag_out_of_range_is_a_usage_error(tmp_path, dataset, capsys, command, flag,
                                            value):
    out = tmp_path / "run"
    argv = train_args(dataset, str(out), [flag, value])
    argv[0] = command
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: must be >= ")
    assert not out.exists()


def test_eval_and_export_rebuild_the_affinity_from_the_checkpoint(tmp_path, dataset):
    # a checkpoint stores no S: both commands rebuild it from the stack's own Y
    from hgsc.evaluation import evaluate
    from hgsc.graph import build_neighborhoods
    from hgsc.trainer import load_checkpoint, represent
    run, exp, ev = (str(tmp_path / d) for d in ("run", "exp", "eval"))
    assert cli.main(train_args(dataset, run)) == 0
    ckpt = checkpoint_path(run)
    assert cli.main(["export", "--data", dataset, "--checkpoint", ckpt, "--out", exp]) == 0
    assert cli.main(["eval", "--data", dataset, "--checkpoint", ckpt, "--out", ev]) == 0
    g = load_graph(dataset)
    nb = build_neighborhoods(g)
    stack, cfg = load_checkpoint(ckpt, g, nb)
    assign, S, Z, Zt = represent(stack, g, nb, cfg)[0]
    ref = tmp_path / "ref"
    ref.mkdir()
    S.save_tsv(str(ref / "affinity.tsv"))
    cli._write_embeddings(str(ref / "embeddings.tsv"), Z, Zt)
    evaluate(Z, Zt, g.labels, g.train_idx, g.test_idx, cfg.c,
             seed=cfg.seed).to_tsv(str(ref / "eval_report.tsv"))
    for name, out in (("affinity.tsv", exp), ("embeddings.tsv", exp),
                      ("eval_report.tsv", ev)):
        assert (ref / name).read_text() == open(os.path.join(out, name)).read()
    assignments = np.loadtxt(os.path.join(exp, "assignments.tsv"), dtype=int)
    assert np.array_equal(assignments, np.column_stack([np.arange(g.n_target),
                                                        assign.yhat]))
