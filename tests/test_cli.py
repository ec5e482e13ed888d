"""Command-line interface: modes, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from cas_limits.cli import MODES, main
from cas_limits.modelio import save_finite_cas_model, save_trm_model, write_json
from cas_limits.waveform import CONVERGED_STOPS, STOP_REASONS
from cas_limits import optimize_isac, random_trm_model, sensing_mse

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
    assert payload["stop"] in STOP_REASONS
    assert payload["converged"] == (payload["stop"] in CONVERGED_STOPS)
    assert payload["fw_gap"] >= -1e-12


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


@pytest.mark.parametrize("field, value", [
    ("workers", 0),
    ("workers", -1),
    ("trials", 0),
    ("rate_budget", -0.5),
    ("rate_budget", float("nan")),
])
def test_simulate_rejects_bad_counts_and_budgets(tmp_path, capsys, field, value):
    payload = {
        "mode": "simulate",
        "model": {"seed": 4, "n": 2, "m_s": 2, "m_c": 2, "t": 4},
        "trials": 100,
    }
    payload[field] = value
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "simulation.json").exists()


def test_failed_json_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.json"
    write_json({"rate": 0.5}, path)
    before = path.read_bytes()
    # json.dump writes the first key before it reaches the object it cannot encode
    with pytest.raises(TypeError):
        write_json({"rate": 0.25, "bad": object()}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


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


# the smallest valid config of each mode that a bad value is tried in
VALID_CONFIGS = {
    "discrete-rd": {"source": [0.5, 0.5], "distortion": [[0.0, 1.0], [1.0, 0.0]], "d_c": 0.2},
    "trm-sw": {"model": {"seed": 2, "n": 2, "m_s": 2, "m_c": 2, "t": 4}, "split_grid": 21},
    "snr-sweep": {"model": {"seed": 3, "n": 2, "m_s": 2, "m_c": 2, "t": 4}, "snr_db": [0.0],
                  "split_grid": 21, "max_iter": 200},
    "simulate": {"model": {"seed": 4, "n": 2, "m_s": 2, "m_c": 2, "t": 4}, "trials": 100},
    # the test adds a model file, kept outside the directory that must hold only the config
    "discrete-capacity": {"d_s": 1.0, "budget": 1.0},
}
# the mode a field is tried in, where it is not discrete-rd; "model.n" is key n of the
# model generator
MODE_OF_FIELD = {"snr_db": "snr-sweep", "schemes": "snr-sweep", "split_grid": "trm-sw",
                 "waveform": "simulate", "end_to_end": "simulate", "workers": "simulate",
                 "trials": "simulate", "max_iter": "snr-sweep", "model.seed": "trm-sw",
                 "model.n": "trm-sw", "model.m_s": "trm-sw", "model.m_c": "trm-sw",
                 "model.t": "trm-sw", "dump_trials": "simulate", "output_csv": "snr-sweep",
                 "output_json": "snr-sweep", "model.power": "trm-sw", "model.noise_s": "trm-sw",
                 "model.noise_c": "trm-sw", "d_s": "discrete-capacity",
                 "budget": "discrete-capacity"}


@pytest.mark.parametrize("field, value", [
    ("grid", "abc"),
    ("seed", "x"),
    ("d_c", "zz"),
    ("source", [0.6, 0.5]),
    ("distortion", [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    ("distortion", [[0.0, -1.0], [1.0, 0.0]]),
    ("bits", "false"),
    ("snr_db", []),
    ("snr_db", [5.0, 0.0]),
    ("schemes", "sw"),
    ("split_grid", 1),
    ("waveform", [[[1.0, 0.0]]]),
    ("end_to_end", "false"),
    ("workers", 2),
    ("d_c", float("nan")),
    ("d_c", float("inf")),
    ("seed", 1.5),
    ("trials", 100.9),
    ("trials", float("inf")),
    ("split_grid", 21.5),
    ("max_iter", 200.5),
    ("model.seed", 2.5),
    ("model.n", 2.5),
    ("model.m_s", 2.5),
    ("model.m_c", 1.5),
    ("model.t", 4.5),
    ("output", 5),
    ("out_dir", 5),
    ("dump_trials", 7),
    ("output_csv", ["sweep.csv"]),
    ("output_json", ["sweep.json"]),
    ("model.power", float("nan")),
    ("model.noise_s", float("nan")),
    ("model.noise_c", float("inf")),
    ("grid", float("nan")),
    ("d_s", float("nan")),
    ("budget", float("nan")),
    ("grid", 0.0),
    ("snr_db", [4000.0]),
    ("snr_db", [-4000.0]),
])
def test_malformed_config_value_exits_2(tmp_path, tmp_path_factory, capsys, field, value):
    mode = MODE_OF_FIELD.get(field, "discrete-rd")
    payload = {"mode": mode, **VALID_CONFIGS[mode]}
    if mode == "discrete-capacity":
        model_path = tmp_path_factory.mktemp("model") / "finite.json"
        save_finite_cas_model(binary_sensing_model(0.9, 0.6), model_path)
        payload["model"] = str(model_path)
    if field.startswith("model."):
        payload["model"] = {**payload["model"], field.removeprefix("model."): value}
    else:
        payload[field] = value
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("mode, extra", [
    ("trm-optimize", {"model": {"seed": 2, "n": 2, "m_s": 2, "m_c": 2, "t": 4}}),
    ("snr-sweep", {k: v for k, v in VALID_CONFIGS["snr-sweep"].items() if k != "max_iter"}),
    ("simulate", {**VALID_CONFIGS["simulate"], "waveform": "isac-optimal"}),
])
def test_negative_max_iter_exits_2(tmp_path, capsys, mode, extra):
    payload = {"mode": mode, **extra, "max_iter": -1}
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err.startswith("config error: max_iter: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    # no iteration at all is a valid cap: the projected start, reported as capped
    payload["max_iter"] = 0
    assert main(["--config", write_config(tmp_path, payload)]) == 0


def test_integral_float_counts_run_as_their_integers(tmp_path):
    runs = {}
    for kind in (int, float):
        out = tmp_path / kind.__name__
        model = {key: kind(v) for key, v in VALID_CONFIGS["snr-sweep"]["model"].items()}
        payload = {"mode": "snr-sweep", **VALID_CONFIGS["snr-sweep"], "model": model,
                   "split_grid": kind(21), "max_iter": kind(200), "out_dir": str(out)}
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        runs[kind] = (out / "sweep.json").read_bytes()
    assert runs[int] == runs[float]


def test_model_path_that_is_not_a_string_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "mode": "discrete-capacity", "model": 5, "d_s": 1.0, "budget": 1.0,
    })
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_nan_grid_flag_exits_2(tmp_path, finite_model_path, capsys):
    cfg = write_config(tmp_path, {"mode": "discrete-tradeoff", "model": finite_model_path,
                                  "budget": 1.0})
    assert main(["--config", cfg, "--grid", "nan"]) == 2
    assert capsys.readouterr().err.startswith("config error: grid: ")
    assert not (tmp_path / "tradeoff.json").exists()


@pytest.mark.parametrize("field, value, message", [
    ("power", float("nan"), "power budget must be positive and finite"),
    ("sigma_s", [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
     "sigma_s and h_c must be finite"),
    # t = 4, so T P_T overflows
    ("power", 1e308, "trace budget t * power must be a finite float"),
])
def test_model_file_with_a_non_finite_value_exits_2(tmp_path, capsys, field, value, message):
    save_trm_model(random_trm_model(2, n=2, m_s=2, m_c=2, t=4), tmp_path / "trm.json")
    data = json.loads((tmp_path / "trm.json").read_text())
    (tmp_path / "trm.json").write_text(json.dumps({**data, field: value}))
    cfg = write_config(tmp_path, {"mode": "trm-sw", "model": "trm.json", "split_grid": 21})
    assert main(["--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sw_optimize.json").exists()


@pytest.mark.parametrize("mode", ["trm-sw", "trm-optimize"])
def test_generator_whose_trace_budget_overflows_exits_2(tmp_path, capsys, mode):
    cfg = write_config(tmp_path, {"mode": mode, "model": {"seed": 2, "n": 2, "m_s": 2,
                                                          "m_c": 2, "t": 4, "power": 1e308}})
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: model generator: trace budget t * power must be a finite float")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("mode", ["snr-sweep", "simulate"])
@pytest.mark.parametrize("how", ["config", "flag"])
def test_bits_is_rejected_where_no_rate_is_converted(tmp_path, capsys, mode, how):
    # the sweep writes rate_nats and mi_nats, and a simulation reports no rate
    payload = {"mode": mode, **VALID_CONFIGS[mode]}
    if how == "config":
        payload["bits"] = True
    argv = ["--config", write_config(tmp_path, payload)] + (["--bits"] if how == "flag" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: bits: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    payload["bits"] = False
    assert main(["--config", write_config(tmp_path, payload)]) == 0


def test_every_json_artifact_goes_through_config_write(tmp_path, tmp_path_factory, monkeypatch):
    from cas_limits.cli import Config

    written = []
    write = Config.write

    def recording_write(self, payload, default, key="output"):
        path = write(self, payload, default, key)
        written.append(Path(path).resolve())
        return path

    monkeypatch.setattr(Config, "write", recording_write)
    model_path = tmp_path_factory.mktemp("model") / "finite.json"
    save_finite_cas_model(binary_sensing_model(0.9, 0.6), model_path)
    configs = {**VALID_CONFIGS,
               "discrete-tradeoff": {"budget": 1.0, "grid": 0.01},
               "trm-optimize": {"model": {"seed": 2, "n": 2, "m_s": 2, "m_c": 2, "t": 4}}}
    assert sorted(configs) == sorted(MODES)
    for mode, extra in configs.items():
        out = tmp_path / mode
        out.mkdir()
        payload = {"mode": mode, **extra}
        if mode.startswith("discrete-") and mode != "discrete-rd":
            payload["model"] = str(model_path)
        written.clear()
        assert main(["--config", write_config(out, payload)]) == 0
        artifacts = {p.resolve() for p in out.glob("*.json") if p.name != "config.json"}
        assert artifacts and sorted(written) == sorted(artifacts), mode


@pytest.mark.parametrize("end_to_end", [True, False])
def test_simulate_isac_optimal_waveform(tmp_path, end_to_end):
    gen = {"seed": 4, "n": 2, "m_s": 2, "m_c": 2, "t": 4}
    cfg = write_config(tmp_path, {
        "mode": "simulate", "model": gen, "waveform": "isac-optimal", "trials": 500,
        "end_to_end": end_to_end,
    })
    assert main(["--config", cfg]) == 0
    report = json.loads((tmp_path / "simulation.json").read_text())
    model = random_trm_model(**gen)
    res = optimize_isac(model)
    assert report["d_s_analytic"] == pytest.approx(sensing_mse(model, res.q_star.q), rel=1e-10)
    if end_to_end:
        # the link runs at the channel MI of the optimised Gram, as the ISAC objective does
        assert report["d_c_analytic"] == pytest.approx(res.point.d_c, rel=1e-9)
        assert report["d_total_analytic"] == pytest.approx(res.point.d_total, rel=1e-9)
    else:
        assert report["d_c_analytic"] is None


@pytest.mark.parametrize("edit, message", [
    ({"t": 4.7}, "t: must be an integer, got 4.7"),
    ({"m_s": 2.9}, "m_s: must be an integer, got 2.9"),
    ({"power": None}, "missing required field 'power'"),
    ({"h_c": [[1.0, 0.0, 2.0]]}, "h_c: innermost entries must be [re, im] pairs"),
    ({"sigma_s": [["a", "b"]]}, "sigma_s: expected nested [re, im] pairs"),
    (None, "line 1, column 2: "),
])
def test_malformed_trm_model_file_exits_2(tmp_path, capsys, edit, message):
    # edit: fields to replace, None for a field to drop; None alone for a JSON syntax error
    path = tmp_path / "trm.json"
    save_trm_model(random_trm_model(2, n=2, m_s=2, m_c=2, t=4), path)
    if edit is None:
        path.write_text("{not json")
    else:
        data = {**json.loads(path.read_text()), **edit}
        path.write_text(json.dumps({key: v for key, v in data.items() if v is not None}))
    cfg = write_config(tmp_path, {"mode": "trm-sw", "model": "trm.json", "split_grid": 21})
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: {message}")
    assert not (tmp_path / "sw_optimize.json").exists()


def test_ragged_finite_model_file_exits_2(tmp_path, finite_model_path, capsys):
    data = json.loads((tmp_path / finite_model_path).read_text())
    data["comm_law"] = [[0.9, 0.1], [1.0]]
    (tmp_path / finite_model_path).write_text(json.dumps(data))
    cfg = write_config(tmp_path, {"mode": "discrete-capacity", "model": finite_model_path,
                                  "d_s": 1.0, "budget": 1.0})
    assert main(["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {tmp_path / finite_model_path}: ")
    assert not (tmp_path / "capacity.json").exists()


def test_trials_flag_overrides_the_config(tmp_path):
    cfg = write_config(tmp_path, {**VALID_CONFIGS["simulate"], "mode": "simulate"})
    assert main(["--config", cfg, "--trials", "37"]) == 0
    assert json.loads((tmp_path / "simulation.json").read_text())["n_trials"] == 37


def test_simulate_lists_the_trial_dump_as_an_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path, {**VALID_CONFIGS["simulate"], "mode": "simulate",
                                  "trials": 50, "dump_trials": "trials.csv"})
    assert main(["--config", cfg]) == 0
    written = [Path(line.removeprefix("wrote ")).resolve()
               for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert written == [(tmp_path / name).resolve() for name in ("simulation.json", "trials.csv")]
    assert len((tmp_path / "trials.csv").read_text().splitlines()) == 51
