import json

import numpy as np
import pytest

from fairavi import cli
from fairavi import training as tr
from fairavi.data import load_jsonl
from tests.conftest import TINY_DIM, TINY_SEQ


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

    def test_empty_dataset_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = cli.main(["train", "--data", str(empty), "--variant", "unprotected",
                         "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "dataset is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("variant", "foo", "unknown variant 'foo'"),
        ("modality", "smell", "unknown modality 'smell'"),
        ("l2", -1.0, "l2 must be nonnegative"),
        ("max_epochs_adv", 0, "max_epochs_adv must be at least 1"),
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


class TestFaceTargets:
    def test_external_embeddings_accepted(self, tmp_path, dataset_path):
        data = load_jsonl(dataset_path)
        rng = np.random.default_rng(3)
        lookup = {s.video_id: rng.standard_normal(2).tolist() for s in data}
        targets = tmp_path / "faces.json"
        targets.write_text(json.dumps(lookup))
        tcfg = write_train_config(tmp_path / "t.json")
        out = tmp_path / "model.json"
        code = cli.main(["train", "--data", str(dataset_path), "--variant",
                         "static-faces", "--modality", "language", "--face-dim", "2",
                         "--face-targets", str(targets), "--config", str(tcfg),
                         "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["config"]["face_targets"] == str(targets)


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

        def fake_run_training(cfg, dataset, observer=None):
            calls.append(cfg.lam)
            log = tr.TrainLog()
            log.final_l_t_val = {0.5: 1.0, 1.0: 0.2, 2.0: 0.9}[cfg.lam]
            log.final_l_a_val = 0.0
            from fairavi.model import HireabilityModel
            from tests.conftest import tiny_dims
            model = HireabilityModel(cfg.modality, cfg.variant, tiny_dims(), seed=0)
            model.trained = True
            return model, log

        monkeypatch.setattr(cli, "run_training", fake_run_training)
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         "--grid", "0.5,1,2", "--config", str(tcfg),
                         "--out-dir", str(out_dir)])
        assert code == 0
        assert calls == [0.5, 1.0, 2.0]
        selected = json.loads((out_dir / "selected.json").read_text())
        assert selected["selected_lambda"] == 1.0

    @pytest.mark.parametrize("grid", ["-1,2", "2,5,2"])
    def test_bad_grid_exits_2_before_training(self, tmp_path, dataset_path, monkeypatch,
                                              grid):
        calls = []
        monkeypatch.setattr(cli, "run_training", lambda cfg, *a, **k: calls.append(cfg))
        tcfg = write_train_config(tmp_path / "t.json")
        out_dir = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(dataset_path), "--variant",
                         "supervised-gender", "--modality", "language",
                         f"--grid={grid}", "--config", str(tcfg), "--out-dir", str(out_dir)])
        assert code == 2
        assert calls == [] and not out_dir.exists()


class TestProbe:
    def test_end_to_end_report(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json", max_epochs_pretrain=3)
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "multimodal",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        out_dir = tmp_path / "probe"
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


class TestAudit:
    def test_disjoint_overlap_zero(self, dataset_path, capsys):
        assert cli.main(["audit", "--data", str(dataset_path)]) == 0
        assert "overlap: 0.0000" in capsys.readouterr().out

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

    def test_csv_written(self, tmp_path, dataset_path):
        out = tmp_path / "audit.csv"
        assert cli.main(["audit", "--data", str(dataset_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("overlap,")


class TestContributions:
    def test_csv_schema(self, tmp_path, dataset_path):
        tcfg = write_train_config(tmp_path / "t.json")
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--data", str(dataset_path), "--variant",
                         "unprotected", "--modality", "multimodal",
                         "--config", str(tcfg), "--out", str(model_path)]) == 0
        out = tmp_path / "contrib.csv"
        assert cli.main(["contributions", "--model", str(model_path), "--data",
                         str(dataset_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "modality,mean,q25,median,q75"
        assert {line.split(",")[0] for line in lines[1:]} == \
            {"language", "audio", "video"}
