import os

import pytest

from fairavi import data as dt
from fairavi import training as tr
from fairavi.fileio import atomic_write
from fairavi.model import HireabilityModel, save_model
from tests.conftest import tiny_dims, tiny_generator_config


class Boom(RuntimeError):
    pass


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write("new, half written")
            raise Boom
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_clean_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_log_failing_mid_row_keeps_previous_log(tmp_path):
    path = tmp_path / "model.json.log.csv"
    log = tr.TrainLog()
    log.add("pretrain-main", 0.0, l_t_train=0.5, l_t_val=0.6, objective_val=0.6)
    log.to_csv(path)
    before = path.read_bytes()
    # the second row fails to format after the header and first row were written
    log.add("joint", 0.0, l_t_train="not a number", l_t_val=0.6, objective_val=0.6)
    with pytest.raises(ValueError):
        log.to_csv(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_jsonl_failing_mid_file_keeps_previous_corpus(tmp_path):
    path = tmp_path / "d.jsonl"
    samples = dt.generate_synthetic(tiny_generator_config(n=3))
    dt.save_jsonl(samples, path)
    before = path.read_bytes()
    samples[2].y = None      # int(None) fails on the third row
    with pytest.raises(TypeError):
        dt.save_jsonl(samples, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_model_failing_mid_dump_keeps_previous_model(tmp_path):
    path = tmp_path / "model.json"
    model = HireabilityModel("audio", "unprotected", tiny_dims(), seed=1)
    save_model(model, path)
    before = path.read_bytes()
    model.trained = object()   # not JSON-serializable; "trained" is dumped after "params"
    with pytest.raises(TypeError):
        save_model(model, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
