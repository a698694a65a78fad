import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from fairavi import cli
from fairavi import data as dt
from fairavi import evaluation as ev
from fairavi import training as tr
from fairavi.data import generate_synthetic, load_jsonl, save_jsonl, split_group_disjoint
from fairavi.model import VARIANTS, HireabilityModel, save_model
from tests.conftest import TINY_DIM, TINY_SEQ, tiny_dims, tiny_generator_config


def write_gen_config(path, **overrides):
    # 160 samples keeps every split big enough for k=5 negative sampling
    doc = {"n": 160, "seq_len": TINY_SEQ, "feat_dim": TINY_DIM,
           "skill_scale": 3.0, "noise_scale": 0.2, "seed": 11}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def write_train_config(path, **overrides):
    doc = {"batch_size": 16, "max_epochs_pretrain": 2, "patience_pretrain": 2,
           "max_epochs_adv": 2, "patience_adv": 2, "max_outer": 1,
           "patience_outer": 2, "seed": 5}
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def log_without_seconds(model_path):
    """The epoch log next to a model file, minus the wall-time column."""
    log = model_path.parent / (model_path.name + ".log.csv")
    return [line.rsplit(",", 1)[0] for line in log.read_text().splitlines()]


def stub_result(cfg, l_t_val):
    """A (model, log) pair as run_training gives one lambda, without training."""
    model = HireabilityModel(cfg.modality, cfg.variant, tiny_dims(), seed=cfg.seed)
    model.trained = True
    log = tr.TrainLog()
    log.final_l_t_val, log.final_l_a_val = l_t_val, 0.0
    return model, log


@pytest.fixture
def dataset_path(tmp_path):
    cfg = write_gen_config(tmp_path / "gen.json")
    out = tmp_path / "data.jsonl"
    assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_line_count_matches_n(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.json", n=50)
        out = tmp_path / "data.jsonl"
        assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 50
        manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["seed"] == 11

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_gen_config(tmp_path / "gen.json")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli.main(["gen", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["gen", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_bytes_are_pinned(self, tmp_path):
        # the stdlib-only writer's sha256 for this config: save_jsonl's fast
        # path must not change a byte of what gen writes
        out = tmp_path / "data.jsonl"
        cfg = write_gen_config(tmp_path / "gen.json")
        assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "131011fe68d81b5342690370aba9bb82fec9abf6585fe86236f5d3cccb6324c6")

    def test_bad_priors_exit_2(self, tmp_path, capsys):
        cfg = write_gen_config(tmp_path / "gen.json", n_classes=2,
                               class_priors=[0.6, 0.3])
        code = cli.main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "class priors" in capsys.readouterr().err

    def test_default_config_emits_2000_lines(self, tmp_path):
        out = tmp_path / "full.jsonl"
        assert cli.main(["gen", "--out", str(out), "--seed", "7"]) == 0
        assert len(out.read_text().strip().splitlines()) == 2000

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        cfg = tmp_path / "gen.json"
        doc = {"n": 20, "seq_len": TINY_SEQ, "feat_dim": TINY_DIM}
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv("FAIRAVI_SEED", "99")
        out = tmp_path / "d.jsonl"
        assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 99


class TestTrain:
    def test_unprotected_logs_only_pretrain(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_path), "--variant", "unprotected",
                         "--modality", "multimodal", "--config", str(tcfg),
                         "--out", str(out)])
        assert code == 0
        log = (tmp_path / "model.json.log.csv").read_text().strip().splitlines()
        phases = {line.split(",")[1] for line in log[1:]}
        assert phases == {"pretrain-main"}

    def test_static_faces_flags_recorded(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_path), "--variant", "static-faces",
                         "--modality", "multimodal", "--face-dim", "2", "--lambda", "10",
                         "--config", str(tcfg), "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["lam"] == 10.0
        assert manifest["config"]["q"] == 2
        doc = json.loads(out.read_text())
        assert doc["variant"] == "static-faces" and doc["q"] == 2

    def test_negative_sampling_defaults_k5(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_path),
                         "--variant", "negative-sampling", "--modality", "language",
                         "--face-dim", "2", "--config", str(tcfg), "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["k"] == 5

    def test_supervised_without_z_exits_3(self, tmp_path, dataset_path, capsys):
        data = load_jsonl(dataset_path)
        for s in data:
            s.z = None
        from fairavi.data import save_jsonl
        stripped = tmp_path / "noz.jsonl"
        save_jsonl(data, stripped)
        tcfg = write_train_config(tmp_path / "t.json")
        code = cli.main(["train", "--data", str(stripped), "--variant",
                         "supervised-gender", "--modality", "language",
                         "--config", str(tcfg), "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "protected" in capsys.readouterr().err

    def test_bad_label_row_exits_3_with_line(self, tmp_path, dataset_path, capsys):
        lines = dataset_path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["y"] = 7
        lines[1] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        tcfg = write_train_config(tmp_path / "t.json")
        code = cli.main(["train", "--data", str(bad), "--variant", "unprotected",
                         "--modality", "language", "--config", str(tcfg),
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert f"{bad}:2: y must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_short_sequence_row_exits_3_with_line(self, tmp_path, dataset_path, capsys):
        lines = dataset_path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["seq_audio"] = doc["seq_audio"][:-1]
        lines[0] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        tcfg = write_train_config(tmp_path / "t.json")
        code = cli.main(["train", "--data", str(bad), "--variant", "unprotected",
                         "--modality", "audio", "--config", str(tcfg),
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        # rows are held to the first row's shapes, so line 2 is the one named
        assert f"{bad}:2: seq_audio has shape" in capsys.readouterr().err

    def test_zero_width_sequence_exits_3_with_line(self, tmp_path, dataset_path, capsys):
        lines = dataset_path.read_text().splitlines()
        for i, line in enumerate(lines):      # every row, so no row holds the first shape
            doc = json.loads(line)
            doc["seq_video"] = [[] for _ in doc["seq_video"]]
            lines[i] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        tcfg = write_train_config(tmp_path / "t.json")
        code = cli.main(["train", "--data", str(bad), "--variant", "unprotected",
                         "--config", str(tcfg), "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert (f"{bad}:1: seq_video must be 2-D with at least one column, got shape (3, 0)"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_empty_dataset_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = cli.main(["train", "--data", str(empty), "--variant", "unprotected",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "dataset is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("variant", "foo", "variant must be one of unprotected, supervised-gender, "
                           "supervised-ethnicity, static-faces, negative-sampling, got 'foo'"),
        ("modality", "smell", "modality must be one of language, audio, video, multimodal, "
                              "got 'smell'"),
        ("l2", -1.0, "l2 must be a finite number of at least 0, got -1.0"),
        ("max_epochs_adv", 0, "max_epochs_adv must be a positive int, got 0"),
        ("max_epochs_pretrain", 0, "max_epochs_pretrain must be a positive int, got 0"),
        ("lr_joint", float("nan"), "lr_joint must be a finite number above 0, got nan"),
    ])
    def test_bad_config_field_exits_2(self, tmp_path, dataset_path, capsys, field, value,
                                      message):
        tcfg = write_train_config(tmp_path / "t.json", **{field: value})
        code = cli.main(["train", "--data", str(dataset_path), "--config", str(tcfg),
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_rerun_reproduces_model_bitwise(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert cli.main(["train", "--data", str(dataset_path), "--variant",
                             "supervised-gender", "--modality", "language",
                             "--config", str(tcfg), "--out", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # logs agree on everything except wall time (the last column)
        strip = lambda p: ["," .join(line.split(",")[:-1]) for line in
                           (p.parent / (p.name + ".log.csv")).read_text().splitlines()]
        assert strip(outs[0]) == strip(outs[1])


def targets_argv(tmp_path, dataset_path, variant, source):
    """A train command given a face-target file by flag or in its --config."""
    rng = np.random.default_rng(3)
    lookup = {s.video_id: rng.standard_normal(2).tolist() for s in load_jsonl(dataset_path)}
    targets = tmp_path / "faces.json"
    targets.write_text(json.dumps(lookup))
    in_config = {"face_targets": str(targets)} if source == "config" else {}
    tcfg = write_train_config(tmp_path / "t.json", **in_config)
    return (["train", "--data", str(dataset_path), "--variant", variant, "--modality",
             "language", "--face-dim", "2", "--config", str(tcfg),
             "--out", str(tmp_path / "model.json")]
            + ["--face-targets", str(targets)] * (not in_config)), targets


class TestFaceTargets:
    def test_external_embeddings_accepted(self, tmp_path, dataset_path, source="flag"):
        argv, targets = targets_argv(tmp_path, dataset_path, "static-faces", source)
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["face_targets"] == str(targets)

    def test_config_file_embeddings_accepted(self, tmp_path, dataset_path):
        # the file's face_targets meets the --variant flag before validation
        self.test_external_embeddings_accepted(tmp_path, dataset_path, "config")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "static-faces"])
    def test_refused_for_other_variants(self, tmp_path, dataset_path, capsys, variant,
                                        source):
        argv, _ = targets_argv(tmp_path, dataset_path, variant, source)
        assert cli.main(argv) == 2
        assert f"face_targets is read only by static-faces, not {variant}" in \
            capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("fault", ["truncated", "not-a-number", "nan"])
    def test_bad_file_exits_3_naming_it(self, tmp_path, dataset_path, capsys, fault):
        data = load_jsonl(dataset_path)
        lookup = {s.video_id: [0.5, -0.5] for s in data}
        bad = data[0].video_id
        lookup[bad] = {"not-a-number": [0.5, "x"], "nan": [0.5, float("nan")]}.get(
            fault, lookup[bad])
        text = json.dumps(lookup)
        targets = tmp_path / "faces.json"
        targets.write_text(text[:len(text) // 2] if fault == "truncated" else text)
        tcfg = write_train_config(tmp_path / "t.json")
        code = cli.main(["train", "--data", str(dataset_path), "--variant",
                         "static-faces", "--modality", "language", "--face-dim", "2",
                         "--face-targets", str(targets), "--config", str(tcfg),
                         "--out", str(tmp_path / "model.json")])
        err = capsys.readouterr().err
        assert code == 3 and str(targets) in err
        assert fault == "truncated" or bad in err


class TestSweep:
    def test_full_grid_fans_out(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json", max_epochs_pretrain=1,
                                  max_epochs_adv=1)
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 0
        selected = json.loads((out_dir / "selected.json").read_text())
        assert selected["selected_lambda"] in (0.5, 1.0, 2.0, 5.0, 10.0)
        assert len(selected["objective_by_lambda"]) == 5
        for lam in ("0.5", "1", "2", "5", "10"):
            assert (out_dir / f"model_lambda{lam}.json").exists()

    def test_single_point_grid_selected(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         "--grid", "2", "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 0
        selected = json.loads((out_dir / "selected.json").read_text())
        assert selected["selected_lambda"] == 2.0

    def test_stubbed_losses_pick_argmin(self, tmp_path, dataset_path, monkeypatch):
        calls = []

        def fake_run_training(cfg, dataset, observer=None, grid=None):
            calls.append(grid)
            return {lam: stub_result(cfg, l_t) for lam, l_t in zip(grid, (1.0, 0.2, 0.9))}

        monkeypatch.setattr(cli, "run_training", fake_run_training)
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         "--grid", "0.5,1,2", "--config", str(tcfg),
                         "--out-dir", str(out_dir)])
        assert code == 0
        assert calls == [(0.5, 1.0, 2.0)]
        selected = json.loads((out_dir / "selected.json").read_text())
        assert selected["selected_lambda"] == 1.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_lambda_matches_a_separate_train_run(self, tmp_path, dataset_path,
                                                      variant):
        data = dataset_path
        if variant == "supervised-ethnicity":
            data = tmp_path / "d3.jsonl"
            gcfg = write_gen_config(tmp_path / "g3.json", n_classes=3,
                                    class_priors=[0.2, 0.5, 0.3])
            assert cli.main(["gen", "--config", str(gcfg), "--out", str(data)]) == 0
        # two outer iterations move the forked rng, Adam moments, sampler and log on
        tcfg = write_train_config(tmp_path / "t.json", max_outer=2)
        common = ["--data", str(data), "--variant", variant, "--modality", "multimodal",
                  "--face-dim", "2", "--config", str(tcfg)]
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", *common, "--grid", "0.5,2", "--out-dir", str(out_dir)]) == 0
        for lam in ("0.5", "2"):
            alone = tmp_path / f"alone{lam}.json"
            assert cli.main(["train", *common, "--lambda", lam, "--out", str(alone)]) == 0
            swept = out_dir / f"model_lambda{lam}.json"
            assert swept.read_bytes() == alone.read_bytes(), lam
            assert log_without_seconds(swept) == log_without_seconds(alone), lam

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fork_matches_the_unforked_path(self, tmp_path, variant):
        # train and sweep both run a fork of the pretrain state; train_alternating does not
        classes = dict(n_classes=3, class_priors=[0.2, 0.5, 0.3])
        data = generate_synthetic(tiny_generator_config(
            **classes if variant == "supervised-ethnicity" else {}))
        split_group_disjoint(data, seed=3)
        cfg = tr.TrainConfig(variant=variant, lam=2.0, batch_size=16, max_epochs_pretrain=2,
                             patience_pretrain=2, max_epochs_adv=2, patience_adv=2,
                             max_outer=2, patience_outer=2, seed=5)
        runs = {"forked": cli.run_training(cfg, data)[cfg.lam],
                "alone": tr.train_alternating(cfg, cli._new_model(cfg, data), data)}
        for name, (model, _) in runs.items():
            save_model(model, tmp_path / name)
        assert (tmp_path / "forked").read_bytes() == (tmp_path / "alone").read_bytes()
        (_, forked), (_, alone) = runs.values()
        assert [dataclasses.replace(r, seconds=0) for r in forked.rows] == \
            [dataclasses.replace(r, seconds=0) for r in alone.rows]
        assert (forked.final_l_t_val, forked.final_l_a_val) == \
            (alone.final_l_t_val, alone.final_l_a_val)

    def test_refused_pretrain_exits_3_leaving_no_output(self, tmp_path, dataset_path, capsys):
        # the shared pretrain refuses as train does: no manifest, no out-dir
        data = load_jsonl(dataset_path)
        for s in data:
            s.z = None
        stripped = tmp_path / "noz.jsonl"
        save_jsonl(data, stripped)
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(stripped), "--variant",
                         "supervised-gender", "--modality", "language", "--grid", "0.5,2",
                         "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 3
        assert "protected" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_dir_naming_a_file_fails_before_pretrain(self, tmp_path, dataset_path,
                                                          monkeypatch, capsys):
        pretrained = []
        monkeypatch.setattr(cli, "pretrain", lambda *a, **k: pretrained.append(a))
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        out_dir.write_text("a file, not a directory")
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language", "--grid", "0.5,2",
                         "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 1
        assert f"--out-dir {out_dir}: {out_dir} is not a directory" in capsys.readouterr().err
        assert pretrained == []
        assert out_dir.read_text() == "a file, not a directory"

    def test_failed_lambda_writes_nothing(self, tmp_path, dataset_path, monkeypatch,
                                          capsys):
        # a lambda that fails in its joint loop fails the sweep as it fails train
        outer_epoch = tr._outer_epoch

        def diverging(state, cfg, observer):
            if cfg.lam == 2.0:
                raise RuntimeError("joint epoch diverged")
            return outer_epoch(state, cfg, observer)

        monkeypatch.setattr(tr, "_outer_epoch", diverging)
        tcfg = write_train_config(tmp_path / "t.json")
        common = ["--data", str(dataset_path), "--variant", "supervised-gender",
                  "--modality", "language", "--config", str(tcfg)]
        code = cli.main(["train", *common, "--lambda", "2",
                         "--out", str(tmp_path / "m.json")])
        assert code == 1 and "joint epoch diverged" in capsys.readouterr().err
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", *common, "--grid", "0.5,2", "--out-dir", str(out_dir)]) \
            == code
        assert "error: joint epoch diverged" in capsys.readouterr().err
        assert not out_dir.exists() and not (tmp_path / "m.json").exists()
        assert [p.name for p in tmp_path.rglob("*.manifest.json")] == \
            ["data.jsonl.manifest.json"]

    def test_manifest_records_the_config_that_ran(self, tmp_path, dataset_path,
                                                   monkeypatch):
        # seed, variant and modality come from the config file alone
        ran = []

        def fake_run_training(cfg, dataset, observer=None, grid=None):
            ran.append((cfg.seed, grid))
            return {lam: stub_result(cfg, 0.5) for lam in grid}

        monkeypatch.setattr(cli, "run_training", fake_run_training)
        tcfg = write_train_config(tmp_path / "t.json", seed=5, variant="static-faces",
                                  modality="language")
        out_dir = tmp_path / "sweep"
        assert cli.main(["sweep", "--data", str(dataset_path), "--grid", "0.5,2",
                         "--config", str(tcfg), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
        assert ran == [(5, (0.5, 2.0))] and manifest["seed"] == 5
        config = manifest["config"]
        assert (config["variant"], config["modality"], config["q"]) == \
            ("static-faces", "language", 2)
        assert config["grid"] == [0.5, 2.0]
        assert "lam" not in config

    @pytest.mark.parametrize("grid", ["-1,2", "2,5,2", "nan,5", "5,inf"])
    def test_bad_grid_exits_2_before_training(self, tmp_path, dataset_path, monkeypatch,
                                              grid):
        calls = []
        monkeypatch.setattr(cli, "pretrain", lambda cfg, *a, **k: calls.append(cfg))
        monkeypatch.setattr(cli, "run_training", lambda cfg, *a, **k: calls.append(cfg))
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         f"--grid={grid}", "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 2
        assert calls == [] and not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["probe", "--model", "m.json", "--data", "d.jsonl", "--target", "gender",
     "--out-dir", "out"],
    ["audit", "--data", "d.jsonl"],
    ["contributions", "--model", "m.json", "--data", "d.jsonl", "--out", "c.csv"],
], ids=["probe", "audit", "contributions"])
def test_seedless_commands_take_no_seed_flag(argv):
    cli.build_parser().parse_args(argv)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv + ["--seed", "3"])


@pytest.mark.parametrize("command", ["gen", "train", "sweep", "probe", "audit",
                                     "contributions"])
def test_manifest_hashes_every_input_and_lists_every_output(tmp_path, dataset_path, command):
    """input_hashes holds the sha256 of each input file the run read, by flag
    or through its config, and nothing else; outputs lists every file it wrote."""
    rng = np.random.default_rng(3)
    faces = tmp_path / "faces.json"
    faces.write_text(json.dumps({s.video_id: rng.standard_normal(2).tolist()
                                 for s in load_jsonl(dataset_path)}))
    schedule = dict(max_epochs_pretrain=1, max_epochs_adv=1)
    tcfg = write_train_config(tmp_path / "t.json", **schedule)
    wcfg = write_train_config(tmp_path / "w.json", face_targets=str(faces), **schedule)
    model = tmp_path / "model.json"
    trained = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
    trained.trained = True
    save_model(trained, model)
    gcfg, data, out = tmp_path / "gen.json", dataset_path, tmp_path / "run"
    out.mkdir()
    static = ["--variant", "static-faces", "--modality", "language", "--face-dim", "2"]
    argv, inputs, primary = {
        "gen": (["--config", gcfg, "--out", out / "d.jsonl"], [gcfg], "d.jsonl"),
        "train": (["--data", data, *static, "--config", tcfg, "--face-targets", faces,
                   "--out", out / "m.json"], [tcfg, data, faces], "m.json"),
        "sweep": (["--data", data, *static, "--grid", "1,4", "--config", wcfg,
                   "--out-dir", out], [wcfg, data, faces], "sweep"),
        "probe": (["--model", model, "--data", data, "--target", "gender", "--out-dir", out],
                  [model, data], "metrics.csv"),
        "audit": (["--data", data, "--out", out / "a.csv"], [data], "a.csv"),
        "contributions": (["--model", model, "--data", data, "--out", out / "c.csv"],
                          [model, data], "c.csv"),
    }[command]
    assert cli.main([command, *map(str, argv)]) == 0
    manifest_path = out / f"{primary}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    assert manifest["input_hashes"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                        for p in inputs}
    written = {str(p) for p in out.iterdir() if p != manifest_path}
    assert len(manifest["outputs"]) == len(written) and set(manifest["outputs"]) == written


# id -> (an edit of the corpus's second row, the refusal load_jsonl gives at line 2)
ROW_FAULTS = {
    "y-7": (lambda doc: doc.update(y=7), "y must be 0 or 1"),
    "short-seq-audio": (lambda doc: doc.update(seq_audio=doc["seq_audio"][:-1]),
                        "seq_audio has shape"),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("command", ["train", "sweep", "probe", "audit", "contributions"])
def test_malformed_row_exits_3_leaving_no_listed_output(tmp_path, dataset_path, capsys,
                                                        command, fault):
    """A run whose data has a malformed row exits 3, and no file that
    cli._outputs lists for it exists afterwards, its manifest included."""
    edit, message = ROW_FAULTS[fault]
    lines = dataset_path.read_text().splitlines()
    doc = json.loads(lines[1])
    edit(doc)
    lines[1] = json.dumps(doc)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.json"
    trained = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
    trained.trained = True
    save_model(trained, model)
    out = tmp_path / "out"
    argv = [command, "--data", str(bad), *{
        "train": ["--out", f"{out}.json"],
        "sweep": ["--grid", "0.5,2", "--out-dir", str(out)],
        "probe": ["--model", str(model), "--target", "gender", "--out-dir", str(out)],
        "audit": ["--out", f"{out}.csv"],
        "contributions": ["--model", str(model), "--out", f"{out}.csv"],
    }[command]]
    listed = [path for _, path in cli._outputs(cli.build_parser().parse_args(argv))]
    assert listed[-1].endswith(".manifest.json")
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert f"{bad}:2: {message}" in capsys.readouterr().err
    assert [p for p in listed if os.path.exists(p)] == []


@pytest.mark.parametrize("command", ["train", "audit"])
def test_corpus_past_max_floats_exits_3_naming_the_line(tmp_path, dataset_path, monkeypatch,
                                                        capsys, command):
    """load_jsonl counts the sequence and face floats it reads and stops at the
    row that takes the count past MAX_FLOATS: three rows reach the limit, the
    fourth passes it.  Nothing is written."""
    first = load_jsonl(dataset_path)[0]
    per_row = first.face.size + sum(getattr(first, f).size for f in dt.SEQ_FIELDS)
    monkeypatch.setattr(dt, "MAX_FLOATS", 3 * per_row)
    argv = [command, "--data", str(dataset_path), "--out", str(tmp_path / f"out.{command}")]
    listed = [path for _, path in cli._outputs(cli.build_parser().parse_args(argv))]
    capsys.readouterr()
    assert cli.main(argv) == 3
    assert (f"{dataset_path}:4: the sequence and face floats read so far pass the limit "
            f"of {3 * per_row:,}") in capsys.readouterr().err
    assert [p for p in listed if os.path.exists(p)] == []


class TestInputFiles:
    """An input file that cannot be opened exits 3 (--data, --model,
    --face-targets) or 2 (--config), naming the flag and the path."""

    def _run(self, capsys, argv):
        code = cli.main(argv)
        return code, capsys.readouterr().err

    def test_missing_data(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        code, err = self._run(capsys, ["train", "--data", str(missing), "--out",
                                       str(tmp_path / "m.json")])
        assert code == 3 and f"--data {missing}" in err

    def test_unreadable_data(self, tmp_path, capsys):
        code, err = self._run(capsys, ["audit", "--data", str(tmp_path)])   # a directory
        assert code == 3 and f"--data {tmp_path}" in err

    def test_missing_model(self, tmp_path, dataset_path, capsys):
        missing = tmp_path / "absent.json"
        code, err = self._run(capsys, ["probe", "--model", str(missing), "--data",
                                       str(dataset_path), "--target", "gender",
                                       "--out-dir", str(tmp_path / "report")])
        assert code == 3 and f"--model {missing}" in err

    def test_missing_face_targets(self, tmp_path, dataset_path, capsys):
        missing = tmp_path / "absent-faces.json"
        code, err = self._run(capsys, ["train", "--data", str(dataset_path), "--variant",
                                       "static-faces", "--face-targets", str(missing),
                                       "--out", str(tmp_path / "m.json")])
        assert code == 3 and f"--face-targets {missing}" in err

    def test_missing_config(self, tmp_path, dataset_path, capsys):
        missing = tmp_path / "absent-config.json"
        code, err = self._run(capsys, ["sweep", "--data", str(dataset_path), "--config",
                                       str(missing), "--out-dir", str(tmp_path / "sweep")])
        assert code == 2 and f"--config {missing}" in err
        code, err = self._run(capsys, ["gen", "--config", str(missing), "--out",
                                       str(tmp_path / "d.jsonl")])
        assert code == 2 and f"--config {missing}" in err


class TestOutputPaths:
    """An --out-dir that names a file or lies under one, an --out or --log
    that names a directory or whose directory does not exist, an --out
    whose manifest (or, for train without --log, whose log) path is a
    directory, an --out-dir under which a file the command writes is a
    directory, a path written twice, or an output that is also an input
    file, exits 1 naming the flag and the path, before any data is read
    or generated, and nothing is written."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "{nodir}"],
        ["train", "--data", "{data}", "--out", "{nodir}"],
        ["train", "--data", "{data}", "--out", "{tmp}/m.json", "--log", "{nodir}"],
        ["sweep", "--data", "{data}", "--out-dir", "{file}"],
        ["probe", "--model", "{model}", "--data", "{data}", "--target", "gender",
         "--out-dir", "{file}"],
        ["audit", "--data", "{data}", "--out", "{nodir}"],
        ["contributions", "--model", "{model}", "--data", "{data}", "--out", "{nodir}"],
        ["gen", "--out", "{dir}"],
        ["train", "--data", "{data}", "--out", "{dir}"],
        ["train", "--data", "{data}", "--out", "{tmp}/m.json", "--log", "{dir}"],
        ["sweep", "--data", "{data}", "--out-dir", "{underfile}"],
        ["probe", "--model", "{model}", "--data", "{data}", "--target", "gender",
         "--out-dir", "{underfile}"],
        ["audit", "--data", "{data}", "--out", "{dir}"],
        ["contributions", "--model", "{model}", "--data", "{data}", "--out", "{dir}"],
        ["gen", "--out", "{dirmanifest}"],
        ["train", "--data", "{data}", "--out", "{dirmanifest}"],
        ["train", "--data", "{data}", "--out", "{dirlog}"],
        ["audit", "--data", "{data}", "--out", "{dirmanifest}"],
        ["contributions", "--model", "{model}", "--data", "{data}", "--out",
         "{dirmanifest}"],
        ["sweep", "--data", "{data}", "--grid", "1,4", "--out-dir", "{sweeplog}"],
        ["sweep", "--data", "{data}", "--grid", "1,4", "--out-dir", "{sweepmanifest}"],
        ["probe", "--model", "{model}", "--data", "{data}", "--target", "gender",
         "--out-dir", "{probereport}"],
        ["probe", "--model", "{model}", "--data", "{data}", "--target", "gender",
         "--out-dir", "{probemanifest}"],
        ["train", "--data", "{data}", "--out", "{tmp}/m.json", "--log", "{tmp}/m.json"],
        ["sweep", "--data", "{data}", "--grid", "1.0000001,1.0000002", "--out-dir",
         "{tmp}/sweep"],
        ["train", "--data", "{data}", "--out", "{tmp}/m.json", "--log", "{data}"],
    ], ids=["gen", "train-out", "train-log", "sweep", "probe", "audit", "contributions",
            "gen-dir", "train-out-dir", "train-log-dir", "sweep-under-file",
            "probe-under-file", "audit-dir", "contributions-dir", "gen-manifest-dir",
            "train-manifest-dir", "train-implied-log-dir", "audit-manifest-dir",
            "contributions-manifest-dir", "sweep-log-dir", "sweep-manifest-dir",
            "probe-report-dir", "probe-manifest-dir", "train-log-is-out",
            "sweep-grid-names-one-file", "train-log-is-data"])
    def test_refused_before_reading_with_nothing_written(self, tmp_path, dataset_path,
                                                          monkeypatch, capsys, argv):
        model = tmp_path / "model.json"
        trained = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
        trained.trained = True
        save_model(trained, model)
        (tmp_path / "afile").write_text("a file, not a directory")
        (tmp_path / "adir").mkdir()
        (tmp_path / "m1.json.manifest.json").mkdir()
        (tmp_path / "m2.json.log.csv").mkdir()
        # a file that sweep or probe writes under its --out-dir is a directory
        under = {"sweeplog": "model_lambda4.json.log.csv", "sweepmanifest": "sweep.manifest.json",
                 "probereport": "report.md", "probemanifest": "metrics.csv.manifest.json"}
        for key, name in under.items():
            (tmp_path / key / name).mkdir(parents=True)
        paths = {"tmp": tmp_path, "data": dataset_path, "model": model,
                 "file": tmp_path / "afile", "nodir": tmp_path / "nodir" / "out.csv",
                 "dir": tmp_path / "adir", "underfile": tmp_path / "afile" / "sub",
                 "dirmanifest": tmp_path / "m1.json", "dirlog": tmp_path / "m2.json",
                 **{key: tmp_path / key for key in under}}
        argv = [a.format(**paths) for a in argv]
        worked = []
        monkeypatch.setattr(cli, "load_jsonl", lambda *a: worked.append(a))
        monkeypatch.setattr(cli, "generate_synthetic", lambda *a: worked.append(a))
        monkeypatch.setattr(cli, "pretrain", lambda *a: worked.append(a))
        tree = lambda: {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        before = tree()
        assert cli.main(argv) == 1
        flag, bad = argv[-2:]
        err = capsys.readouterr().err
        assert f"{flag} {bad}" in err
        implied = {str(paths["dirmanifest"]): ".manifest.json", str(paths["dirlog"]): ".log.csv",
                   **{str(paths[key]): f"/{name}" for key, name in under.items()}}
        assert bad not in implied or f"{bad}{implied[bad]} is a directory" in err
        reused = {f"{tmp_path}/m.json": f"{tmp_path}/m.json is written twice",
                  f"{tmp_path}/sweep": f"{tmp_path}/sweep/model_lambda1.json is written twice",
                  str(dataset_path): f"{dataset_path} is also the --data input"}
        assert bad not in reused or f"{flag} {bad}: {reused[bad]}" in err
        assert worked == [] and tree() == before

    @pytest.mark.parametrize("command, output, named", [
        ("train", ["--out", "m.json", "--log", "faces.json"], "faces.json"),
        ("train", ["--out", "faces.json"], "faces.json"),
        ("train", ["--out", "m.json", "--log", "faces.json"], "sub/../faces.json"),
        ("sweep", ["--grid", "1,4", "--out-dir", "sweep"], "sweep/model_lambda4.json.log.csv"),
    ], ids=["train-log", "train-out", "train-log-unresolved", "sweep-log"])
    def test_face_targets_named_by_config_refused(self, tmp_path, dataset_path, monkeypatch,
                                                  capsys, command, output, named):
        """A face-targets file that only the --config file names is an input too: an
        output at its path exits 1 once the config is read, before any data is read."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        targets = tmp_path / os.path.normpath(named)
        targets.parent.mkdir(exist_ok=True)
        targets.write_text('{"a face": "file"}')
        cfg = write_train_config(tmp_path / "t.json", face_targets=named)
        worked = []
        monkeypatch.setattr(cli, "load_jsonl", lambda *a: worked.append(a))
        tree = lambda: {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        before = tree()
        argv = [command, "--data", str(dataset_path), "--variant", "static-faces",
                "--face-dim", "2", "--config", str(cfg), *output]
        assert cli.main(argv) == 1
        flag, value = output[-2:]
        written = os.path.join(value, os.path.basename(named)) if command == "sweep" else value
        assert (f"{flag} {value}: {written} is also the face_targets input of --config {cfg}"
                in capsys.readouterr().err)
        assert worked == [] and tree() == before


class TestRepeatedKeys:
    """json.load keeps the last of two equal keys; a JSON input file that
    repeats one exits 2 (--config) or 3 (model, face targets), naming the
    file and the key."""

    def _run(self, capsys, argv, path, key):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert str(path) in err and f"key {key!r} is repeated" in err, err
        return code

    @pytest.mark.parametrize("text, key", [
        ('{"n": 40, "seed": 1, "n": 5}', "n"),
        ('{"seq_len": {"language": 3, "audio": 4, "video": 3, "audio": 2}}', "audio")])
    def test_config(self, tmp_path, capsys, text, key):
        cfg, out = tmp_path / "gen.json", tmp_path / "d.jsonl"
        cfg.write_text(text)
        assert self._run(capsys, ["gen", "--config", str(cfg), "--out", str(out)],
                         cfg, key) == 2
        assert not out.exists()

    def test_model_file(self, tmp_path, dataset_path, capsys):
        model = tmp_path / "m.json"
        save_model(HireabilityModel("language", "unprotected", tiny_dims()), model)
        model.write_text('{"trained": true,' + model.read_text()[1:])
        argv = ["probe", "--model", str(model), "--data", str(dataset_path),
                "--target", "gender", "--out-dir", str(tmp_path / "report")]
        assert self._run(capsys, argv, model, "trained") == 3

    def test_face_target_file(self, tmp_path, dataset_path, capsys):
        argv, targets = targets_argv(tmp_path, dataset_path, "static-faces", "flag")
        first = load_jsonl(dataset_path)[0].video_id
        targets.write_text(f'{{"{first}": [0.0, 0.0], ' + targets.read_text()[1:])
        assert self._run(capsys, argv, targets, first) == 3


class TestProbe:
    def test_end_to_end_report(self, tmp_path, dataset_path, monkeypatch):
        tcfg = write_train_config(tmp_path / "t.json", max_epochs_pretrain=3)
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "multimodal",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        out_dir = tmp_path / "probe"
        monkeypatch.setenv("FAIRAVI_SEED", "9")
        code = cli.main(["probe", "--model", str(model_path), "--data",
                         str(dataset_path), "--target", "gender",
                         "--out-dir", str(out_dir)])
        assert code == 0
        header = (out_dir / "metrics.csv").read_text().splitlines()[0]
        for col in ("hire_acc", "hire_auc", "diag_auc_gender", "di_pred_gender",
                    "di_label_gender"):
            assert col in header
        md = (out_dir / "report.md").read_text()
        assert "AUC Gender" in md and "DI Ethnicity" in md
        # the probes' own seed, whatever FAIRAVI_SEED says
        manifest = json.loads((out_dir / "metrics.csv.manifest.json").read_text())
        assert manifest["seed"] == ev.PROBE_SEED

    def test_ethnicity_report_on_three_class_data(self, tmp_path):
        gcfg = write_gen_config(tmp_path / "g3.json", n_classes=3,
                                class_priors=[0.2, 0.5, 0.3])
        data = tmp_path / "d3.jsonl"
        assert cli.main(["gen", "--config", str(gcfg), "--out", str(data)]) == 0
        tcfg = write_train_config(tmp_path / "t.json")
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(data), "--variant", "unprotected",
                         "--modality", "language", "--config", str(tcfg),
                         "--out", str(model_path)]) == 0
        out_dir = tmp_path / "probe3"
        assert cli.main(["probe", "--model", str(model_path), "--data", str(data),
                         "--target", "ethnicity", "--out-dir", str(out_dir)]) == 0
        header, row = (out_dir / "metrics.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["diag_auc_ethnicity"] != ""
        assert cols["diag_auc_gender"] == ""

    def test_wrong_target_cardinality_exits_3(self, tmp_path, dataset_path, capsys):
        tcfg = write_train_config(tmp_path / "t.json")
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "language",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        code = cli.main(["probe", "--model", str(model_path), "--data",
                         str(dataset_path), "--target", "ethnicity",
                         "--out-dir", str(tmp_path / "p")])
        assert code == 3
        assert "ethnicity" in capsys.readouterr().err

    def test_feature_width_mismatch_exits_3(self, tmp_path, dataset_path, capsys):
        tcfg = write_train_config(tmp_path / "t.json", max_epochs_pretrain=1)
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "multimodal",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        gcfg = write_gen_config(tmp_path / "wide.json",
                                feat_dim={"language": 16, "audio": 20, "video": 12})
        wide = tmp_path / "wide.jsonl"
        assert cli.main(["gen", "--config", str(gcfg), "--out", str(wide)]) == 0
        capsys.readouterr()
        code = cli.main(["probe", "--model", str(model_path), "--data", str(wide),
                         "--target", "gender", "--out-dir", str(tmp_path / "p")])
        assert code == 3
        err = capsys.readouterr().err
        assert "'language'" in err and "width 16" in err and "expects 3" in err

    def test_untrained_model_exits_3_naming_it(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0), model_path)
        out_dir = tmp_path / "p"
        assert cli.main(["probe", "--model", str(model_path), "--data", str(dataset_path),
                         "--target", "gender", "--out-dir", str(out_dir)]) == 3
        assert f"--model {model_path}: model has not been trained" in capsys.readouterr().err
        assert not out_dir.exists()


# id -> (target, the split the refusal names, each sample's new z); the
# corpus is binary, so z starts in {0, 1} in every split
LABEL_FAULTS = {
    "z-0-and-5": ("gender", "train", lambda s: 5 * s.z),
    "z-1-everywhere": ("gender", "train", lambda s: 1),
    "val-all-0": ("gender", "val", lambda s: 0 if s.split == "val" else s.z),
    "z-0-and-2**64-1": ("gender", "train", lambda s: (2 ** 64 - 1) * s.z),
    "binary-for-ethnicity": ("ethnicity", "train", lambda s: s.z),
}


@pytest.mark.parametrize("fault", LABEL_FAULTS)
def test_protected_label_fault_exits_3_in_train_sweep_and_probe(tmp_path, dataset_path,
                                                                capsys, fault):
    target, split, relabel = LABEL_FAULTS[fault]
    data = load_jsonl(dataset_path)
    for s in data:
        s.z = relabel(s)
    bad = tmp_path / "bad.jsonl"
    save_jsonl(data, bad)
    model = HireabilityModel("language", "unprotected", tiny_dims(), seed=0)
    model.trained = True
    save_model(model, tmp_path / "model.json")
    tcfg = write_train_config(tmp_path / "t.json")
    training = ["--data", str(bad), "--variant", f"supervised-{target}",
                "--modality", "language", "--config", str(tcfg)]
    runs = {tmp_path / "m.json": ["train", *training, "--out"],
            tmp_path / "sweep": ["sweep", *training, "--grid", "0.5,2", "--out-dir"],
            tmp_path / "probe": ["probe", "--model", str(tmp_path / "model.json"),
                                 "--data", str(bad), "--target", target, "--out-dir"]}
    capsys.readouterr()
    for out, argv in runs.items():
        assert cli.main([*argv, str(out)]) == 3, argv[0]
        err = capsys.readouterr().err
        assert f"protected target {target!r}: z in the {split!r} split" in err, argv[0]
        assert not out.exists(), argv[0]


class TestBuildReport:
    def test_one_forward_pass_per_split(self, monkeypatch):
        # 2,800 clips split 60/20/20 put more than one 512-clip chunk in
        # every split, so a second pass over any of them would show.
        samples = generate_synthetic(tiny_generator_config(n=2800))
        parts = split_group_disjoint(samples, ratios=(0.6, 0.2, 0.2), seed=3)
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=4)
        model.trained = True
        seen = []
        original = HireabilityModel.forward_base

        def counted(self, batch, *args, **kwargs):
            seen.append(batch["audio"])
            return original(self, batch, *args, **kwargs)

        monkeypatch.setattr(HireabilityModel, "forward_base", counted)
        cli.build_report(model, samples, "gender")
        assert len(seen) == sum(-(-len(p) // 512) for p in parts) == 8
        passes = np.concatenate(seen)
        ordered = np.stack([s.seq_audio for p in parts for s in p])
        assert np.array_equal(passes, ordered)


class TestAudit:
    def test_disjoint_overlap_zero(self, dataset_path, capsys):
        assert cli.main(["audit", "--data", str(dataset_path)]) == 0
        assert "overlap: 0.0000" in capsys.readouterr().out

    def test_empty_or_untagged_dataset_exits_3(self, tmp_path, dataset_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["audit", "--data", str(empty)]) == 3
        assert "dataset is empty" in capsys.readouterr().err
        untagged = tmp_path / "untagged.jsonl"
        doc = json.loads(dataset_path.read_text().splitlines()[0])
        untagged.write_text(json.dumps(dict(doc, split="")) + "\n")
        assert cli.main(["audit", "--data", str(untagged)]) == 3
        assert "untagged.jsonl:1: split must be one of" in capsys.readouterr().err

    def test_injected_rate_table_prints_di(self, tmp_path, capsys):
        # candidate-level labels mirroring the reported gender rates
        from fairavi.data import InterviewSample, save_jsonl
        samples = []
        plan = [(0, 560, 1000), (1, 495, 1000)]
        i = 0
        for z, pos, total in plan:
            for j in range(total):
                samples.append(InterviewSample(
                    id=f"s{i}", video_id=f"v{i}",
                    seq_language=np.zeros((1, 2)), seq_audio=np.zeros((1, 2)),
                    seq_video=np.zeros((1, 2)), face=np.zeros(512),
                    y=1 if j < pos else 0, z=z,
                    split="train" if j % 2 == 0 else "test"))
                i += 1
        path = tmp_path / "table.jsonl"
        save_jsonl(samples, path)
        assert cli.main(["audit", "--data", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.883" in out  # complete-dataset DI column

    def test_csv_written(self, tmp_path, dataset_path, monkeypatch):
        monkeypatch.setenv("FAIRAVI_SEED", "9")
        out = tmp_path / "audit.csv"
        assert cli.main(["audit", "--data", str(dataset_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("overlap,")
        # audit draws no random numbers and takes no setting
        manifest = json.loads((tmp_path / "audit.csv.manifest.json").read_text())
        assert manifest["seed"] is None and manifest["config"] == {}

    def test_manifest_start_time_is_taken_before_the_data_is_read(
            self, tmp_path, dataset_path, monkeypatch):
        clock = iter(range(100))
        monkeypatch.setattr(cli, "_now", lambda: f"t{next(clock):02d}")
        read_at = []
        load = cli.load_jsonl
        monkeypatch.setattr(cli, "load_jsonl",
                            lambda path: read_at.append(cli._now()) or load(path))
        out = tmp_path / "audit.csv"
        assert cli.main(["audit", "--data", str(dataset_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "audit.csv.manifest.json").read_text())
        assert manifest["started_utc"] < read_at[0] < manifest["ended_utc"]


class TestContributions:
    def test_csv_schema(self, tmp_path, dataset_path, monkeypatch):
        tcfg = write_train_config(tmp_path / "t.json")
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "multimodal",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        out = tmp_path / "contrib.csv"
        monkeypatch.setenv("FAIRAVI_SEED", "9")
        assert cli.main(["contributions", "--model", str(model_path), "--data",
                         str(dataset_path), "--out", str(out)]) == 0
        assert json.loads((tmp_path / "contrib.csv.manifest.json").read_text())["seed"] is None
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "modality,mean,q25,median,q75"
        assert {line.split(",")[0] for line in lines[1:]} == \
            {"language", "audio", "video"}

    def test_unknown_split_exits_2(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0), model_path)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["contributions", "--model", str(model_path), "--data", str(dataset_path),
                      "--split", "tset", "--out", str(tmp_path / "c.csv")])
        assert exit_.value.code == 2
        assert "invalid choice: 'tset'" in capsys.readouterr().err

    def test_untrained_model_exits_3_naming_it(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0), model_path)
        out = tmp_path / "c.csv"
        assert cli.main(["contributions", "--model", str(model_path), "--data",
                         str(dataset_path), "--out", str(out)]) == 3
        assert f"--model {model_path}: model has not been trained" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_split_exits_3_naming_it(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "model.json"
        model = HireabilityModel("multimodal", "unprotected", tiny_dims(), seed=0)
        model.trained = True      # contributions refuses an untrained model first
        save_model(model, model_path)
        no_val = tmp_path / "no_val.jsonl"
        no_val.write_text("".join(line + "\n" for line in dataset_path.read_text().splitlines()
                                  if json.loads(line)["split"] != "val"))
        out = tmp_path / "c.csv"
        assert cli.main(["contributions", "--model", str(model_path), "--data", str(no_val),
                         "--split", "val", "--out", str(out)]) == 3
        assert "dataset has no 'val' split" in capsys.readouterr().err
        assert not out.exists()
