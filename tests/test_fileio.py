import os

import numpy as np
import pytest

from fairavi import data as dt
from fairavi import training as tr
from fairavi.fileio import atomic_write, write_csv
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


def test_csv_cells_follow_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [("name", "n", "x", "gap"), ["a b", 3, 0.1, None], (np.str_("c"), 0, 2.0, "")])
    assert path.read_text() == "name,n,x,gap\na b,3,0.1,\nc,0,2.0,\n"


def test_csv_numpy_float_is_written_as_a_python_float(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [[np.float64(0.1) + np.float64(0.2), np.float32(0.5)]])
    assert path.read_text() == "0.30000000000000004,0.5\n"


@pytest.mark.parametrize("bad, error", [(object(), TypeError), ([1.0], TypeError),
                                        (np.array([1.0, 2.0]), TypeError)])
def test_csv_cell_failing_to_format_keeps_old_file(tmp_path, bad, error):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(error):
        write_csv(path, [("a", "b"), (1.0, 2.0), (3.0, bad)])
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["t.csv"]


def test_log_failing_mid_row_keeps_previous_log(tmp_path):
    path = tmp_path / "model.json.log.csv"
    log = tr.TrainLog()
    log.add("pretrain-main", 0.0, l_t_train=0.5, l_t_val=0.6, objective_val=0.6)
    log.to_csv(path)
    before = path.read_bytes()
    # the second row fails to format after the header and first row were written
    log.add("joint", 0.0, l_t_train=object(), l_t_val=0.6, objective_val=0.6)
    with pytest.raises(TypeError):
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
