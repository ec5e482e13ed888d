"""Command-line interface: modes, determinism, exit codes."""

import json

import numpy as np
import pytest

from cas_limits.cli import MODES, main
from cas_limits.modelio import save_finite_cas_model, save_trm_model
from cas_limits import random_trm_model

from helpers import binary_sensing_model


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def finite_model_path(tmp_path):
    path = tmp_path / "finite.json"
    save_finite_cas_model(binary_sensing_model(0.9, 0.6), path)
    return "finite.json"


def test_help_lists_every_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for mode in MODES:
        assert mode in out


def test_unknown_flag_is_a_hard_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", "x.json", "--frobnicate"])
    assert exc.value.code != 0


def test_discrete_rd_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "discrete-rd",
        "source": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "d_c": 0.11,
    })
    assert main(["--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "0.3466" in out
    payload = json.loads((tmp_path / "rate_distortion.json").read_text())
    assert payload["units"] == "nats"
    assert abs(payload["rate"] - 0.34663184) < 1e-6


def test_bits_flag_converts_units(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "discrete-rd",
        "source": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "d_c": 0.11,
    })
    assert main(["--config", cfg, "--bits"]) == 0
    payload = json.loads((tmp_path / "rate_distortion.json").read_text())
    assert payload["units"] == "bits"
    assert abs(payload["rate"] - 0.34663184 / np.log(2)) < 1e-6


def test_discrete_capacity_mode(tmp_path, finite_model_path):
    cfg = write_config(tmp_path, {
        "mode": "discrete-capacity",
        "model": finite_model_path,
        "d_s": 10.0,
        "budget": 10.0,
    })
    assert main(["--config", cfg]) == 0
    payload = json.loads((tmp_path / "capacity.json").read_text())
    h2 = -(0.1 * np.log(0.1) + 0.9 * np.log(0.9))
    assert abs(payload["capacity"] - (np.log(2) - h2)) < 1e-6


def test_discrete_tradeoff_mode(tmp_path, finite_model_path):
    cfg = write_config(tmp_path, {
        "mode": "discrete-tradeoff",
        "model": finite_model_path,
        "budget": 1.0,
    })
    assert main(["--config", cfg, "--grid", "0.01"]) == 0
    payload = json.loads((tmp_path / "tradeoff.json").read_text())
    assert payload["d_total"] == pytest.approx(payload["d_s"] + payload["d_c"], abs=1e-9)


def test_trm_optimize_mode_with_generator(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "trm-optimize",
        "model": {"seed": 1, "n": 2, "m_s": 2, "m_c": 2, "t": 4},
        "max_iter": 200,
    })
    assert main(["--config", cfg]) == 0
    payload = json.loads((tmp_path / "isac_optimize.json").read_text())
    assert payload["trace_used"] <= 4.0 + 1e-9
    assert len(payload["q_star"]) == 2


def test_trm_sw_mode_with_model_file(tmp_path):
    model = random_trm_model(2, n=2, m_s=2, m_c=2, t=4)
    save_trm_model(model, tmp_path / "trm.json")
    cfg = write_config(tmp_path, {
        "mode": "trm-sw",
        "model": "trm.json",
        "split_grid": 21,
    })
    assert main(["--config", cfg]) == 0
    payload = json.loads((tmp_path / "sw_optimize.json").read_text())
    assert 0.0 <= payload["rho"] <= 1.0


def test_single_point_sweep_emits_two_rows(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "snr-sweep",
        "model": {"seed": 3, "n": 2, "m_s": 2, "m_c": 2, "t": 4},
        "snr_db": [0.0],
        "split_grid": 21,
        "max_iter": 200,
    })
    assert main(["--config", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + ISAC + SW
    assert lines[0].split(",")[0] == "snr_db"


def test_simulate_mode_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "simulate",
        "model": {"seed": 4, "n": 2, "m_s": 2, "m_c": 2, "t": 4},
        "trials": 2000,
        "seed": 11,
    })
    assert main(["--config", cfg]) == 0
    first = (tmp_path / "simulation.json").read_bytes()
    assert main(["--config", cfg]) == 0
    assert (tmp_path / "simulation.json").read_bytes() == first
    # a different seed changes the result
    assert main(["--config", cfg, "--seed", "12"]) == 0
    assert (tmp_path / "simulation.json").read_bytes() != first


def test_out_flag_redirects_artifacts(tmp_path):
    cfg = write_config(tmp_path, {
        "mode": "discrete-rd",
        "source": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "d_c": 0.2,
    })
    out = tmp_path / "results"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    assert (out / "rate_distortion.json").exists()


def test_missing_config_exits_2(capsys):
    assert main(["--config", "/nonexistent/config.json"]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_mode_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "frobnicate"})
    assert main(["--config", cfg]) == 2


def test_missing_required_field_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"mode": "discrete-capacity"})
    assert main(["--config", cfg]) == 2


def test_infeasible_problem_exits_3(tmp_path, finite_model_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "discrete-capacity",
        "model": finite_model_path,
        "d_s": 0.01,  # below the best achievable estimate cost
        "budget": 10.0,
    })
    assert main(["--config", cfg]) == 3
    assert "solver error" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "results"
    blocker.write_text("a file where the output directory should go")
    cfg = write_config(tmp_path, {
        "mode": "discrete-rd",
        "source": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "d_c": 0.2,
        "out_dir": "results",
    })
    assert main(["--config", cfg]) == 4


@pytest.mark.parametrize("field, value", [
    ("grid", "abc"),
    ("seed", "x"),
    ("d_c", "zz"),
    ("source", [0.6, 0.5]),
    ("distortion", [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    ("distortion", [[0.0, -1.0], [1.0, 0.0]]),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, field, value):
    payload = {
        "mode": "discrete-rd",
        "source": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
        "d_c": 0.2,
    }
    payload[field] = value
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_model_path_that_is_not_a_string_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "discrete-capacity", "model": 5, "d_s": 1.0, "budget": 1.0,
    })
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
