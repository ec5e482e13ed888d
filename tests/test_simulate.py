"""Monte Carlo validation of the Gaussian chain."""

import csv
import hashlib
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from cas_limits import (
    channel_mi,
    random_trm_model,
    simulate_end_to_end,
    simulate_sensing,
)
from cas_limits import simulate
from cas_limits.gaussian import gram_spectrum, waveform_from_gram

from helpers import scalar_trm_model, serial_run_chain

N_TRIALS = 20_000


def uniform_waveform(model):
    q = (model.trace_budget / model.n) * np.eye(model.n)
    return waveform_from_gram(model, q)


def test_zero_waveform_leaves_prior_variance():
    model = random_trm_model(0, n=2, m_s=2, m_c=2, t=4)
    rep = simulate_sensing(model, np.zeros((2, 4)), N_TRIALS, seed=1)
    expect = model.m_s * np.real(np.trace(model.sigma_s))
    assert rep.d_s_analytic == pytest.approx(expect, rel=1e-12)
    assert abs(rep.d_s_emp - expect) < 3 * rep.d_s_se


def test_scalar_sensing_matches_closed_form():
    model = scalar_trm_model(power=3.0, t=1)
    x = np.array([[np.sqrt(3.0)]])
    rep = simulate_sensing(model, x, 100_000, seed=2)
    assert rep.d_s_analytic == pytest.approx(0.25, abs=1e-15)
    assert abs(rep.d_s_emp - 0.25) < 3 * rep.d_s_se


def test_low_noise_drives_the_error_down():
    model = scalar_trm_model(power=3.0, t=1, noise_s=1e-6)
    rep = simulate_sensing(model, np.array([[np.sqrt(3.0)]]), 5_000, seed=3)
    assert rep.d_s_emp < 1e-5


def test_zero_rate_reconstructs_to_zero():
    model = random_trm_model(1, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    rep = simulate_end_to_end(model, x, 0.0, N_TRIALS, seed=4)
    lam_sum = gram_spectrum(model, x @ x.conj().T).sum()
    assert rep.d_c_analytic == pytest.approx(lam_sum, rel=1e-10)
    assert abs(rep.d_c_emp - lam_sum) < 3 * rep.d_c_se
    assert abs(rep.d_total_emp - (rep.d_s_emp + lam_sum)) < 3 * rep.d_total_se


def test_scalar_end_to_end_distortion():
    # estimate variance 0.75, rate ln 4: the link distortion is 0.75 / 4
    model = scalar_trm_model(power=3.0, t=1)
    x = np.array([[np.sqrt(3.0)]])
    rep = simulate_end_to_end(model, x, np.log(4.0), 100_000, seed=5)
    assert rep.d_c_analytic == pytest.approx(0.1875, abs=1e-9)
    assert abs(rep.d_c_emp - 0.1875) < 3 * rep.d_c_se


def test_cross_term_vanishes():
    model = random_trm_model(2, n=3, m_s=2, m_c=2, t=8)
    x = uniform_waveform(model)
    rate = channel_mi(model, x @ x.conj().T)
    rep = simulate_end_to_end(model, x, rate, N_TRIALS, seed=6)
    assert abs(rep.cross_mean) < 3 * rep.cross_se


def test_decomposition_identity_holds_exactly():
    model = random_trm_model(3, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    rep = simulate_end_to_end(model, x, 1.0, 5_000, seed=7)
    gap = rep.d_total_emp - (rep.d_s_emp + rep.d_c_emp + 2 * rep.cross_mean)
    assert abs(gap) < 1e-9 * max(1.0, rep.d_total_emp)


def test_identical_seeds_are_bit_identical():
    model = random_trm_model(4, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    a = simulate_end_to_end(model, x, 0.8, 5_000, seed=42)
    b = simulate_end_to_end(model, x, 0.8, 5_000, seed=42)
    assert a.as_dict() == b.as_dict()
    c = simulate_end_to_end(model, x, 0.8, 5_000, seed=43)
    assert c.d_s_emp != a.d_s_emp


def test_trial_dump_schema(tmp_path):
    model = random_trm_model(6, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    path = tmp_path / "trials.csv"
    simulate_end_to_end(model, x, 1.0, 500, seed=9, dump_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d_s", "d_c", "d_total", "cross"]
    assert len(rows) == 501


def test_trial_dump_bytes_are_pinned(tmp_path):
    # 9,000 trials cross two batch boundaries; the digests pin the random
    # stream, the header, the row order and the .17g formatting
    model = random_trm_model(6, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    path = tmp_path / "trials.csv"
    simulate_end_to_end(model, x, 1.0, 9_000, seed=9, dump_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cdf4199a8a261f68d34ae9a577340ff42b39c8900fdee7ac9bd704ee90a76add"
    )
    simulate_sensing(model, x, 9_000, seed=9, dump_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2d09a2138d47b8d83e70652ca224b9cbe9edfe7171556e589c1addf0cd149ca1"
    )


def test_trial_dump_memory_does_not_grow_with_trials(tmp_path):
    # a dump that kept every row until the end would add about 13 MB here
    model = random_trm_model(6, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)

    def peak(dump_path):
        tracemalloc.start()
        try:
            simulate_end_to_end(model, x, 1.0, 80_000, seed=9, dump_path=dump_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak(tmp_path / "trials.csv") - peak(None)
    assert extra < 2e6


def test_report_serializes_to_json(tmp_path):
    import json

    from cas_limits.cli import Config

    model = scalar_trm_model(power=3.0, t=1)
    rep = simulate_sensing(model, np.array([[np.sqrt(3.0)]]), 1_000, seed=10)
    # the one JSON writer of the CLI, which writes the simulate artifact
    Config({"mode": "simulate"}, str(tmp_path)).write(rep.as_dict(), "report.json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["n_trials"] == 1_000
    assert payload["d_c_emp"] is None


def test_input_validation():
    model = scalar_trm_model()
    with pytest.raises(ValueError):
        simulate_sensing(model, np.array([[1.0]]), 0, seed=0)
    with pytest.raises(ValueError):
        simulate_end_to_end(model, np.array([[1.0]]), -1.0, 10, seed=0)
    with pytest.raises(ValueError, match="rate_budget"):
        simulate_end_to_end(model, np.array([[1.0]]), float("nan"), 10, seed=0)


def _run(model, x, n_trials, end_to_end, dump_path=None, seed=21):
    if end_to_end:
        return simulate_end_to_end(model, x, 0.7, n_trials, seed=seed, dump_path=dump_path)
    return simulate_sensing(model, x, n_trials, seed=seed, dump_path=dump_path)


# t != n and m_s != n, so a transposed or mis-shaped product cannot pass
ORACLE_MODELS = [dict(n=3, m_s=2, m_c=2, t=5), dict(n=2, m_s=3, m_c=1, t=4)]


@pytest.mark.parametrize("dims", ORACLE_MODELS, ids=["n3-ms2-t5", "n2-ms3-t4"])
@pytest.mark.parametrize("n_trials", [1, simulate._BATCH, simulate._BATCH + 1, 9_000])
@pytest.mark.parametrize("stream", [1, 2, 3])
@pytest.mark.parametrize("end_to_end", [True, False], ids=["e2e", "sensing"])
def test_matches_the_serial_reference_loop(tmp_path, monkeypatch, dims, n_trials, stream,
                                           end_to_end):
    # stream k runs with seed 20 + k, so the oracle is checked on three random streams
    seed = 20 + stream
    model = random_trm_model(11, **dims)
    x = uniform_waveform(model)
    got = _run(model, x, n_trials, end_to_end, tmp_path / "got.csv", seed)
    got_plain = _run(model, x, n_trials, end_to_end, seed=seed)
    monkeypatch.setattr(simulate, "_run_chain", serial_run_chain)
    want = _run(model, x, n_trials, end_to_end, tmp_path / "want.csv", seed)
    assert got.as_dict() == want.as_dict()
    assert got_plain.as_dict() == want.as_dict()
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _fail_on_second_call(fn):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected failure in batch 2")
        return fn(*args, **kwargs)

    return wrapped


def _bounded(fn, timeout=60.0):
    """Run ``fn`` on its own thread; fail if it has not returned within ``timeout``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:  # handed to the test, which checks it
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "simulation did not finish"
    return outcome


def test_failed_run_keeps_the_earlier_dump(tmp_path, monkeypatch):
    model = random_trm_model(6, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    path = tmp_path / "trials.csv"
    simulate_end_to_end(model, x, 1.0, 500, seed=9, dump_path=path)
    before = path.read_bytes()
    monkeypatch.setattr(simulate._Chain, "columns", _fail_on_second_call(simulate._Chain.columns))
    with pytest.raises(RuntimeError, match="batch 2"):
        simulate_end_to_end(model, x, 1.0, 3 * simulate._BATCH, seed=10, dump_path=path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_dump_gets_the_mode_of_a_plain_file(tmp_path):
    model = scalar_trm_model(power=3.0, t=1)
    path = tmp_path / "trials.csv"
    simulate_sensing(model, np.array([[np.sqrt(3.0)]]), 10, seed=1, dump_path=path)
    plain = tmp_path / "plain.csv"
    plain.write_text("")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.parametrize("failure", [None, "main", "draw"])
def test_the_draw_thread_is_joined(tmp_path, monkeypatch, failure):
    if failure == "main":
        monkeypatch.setattr(simulate._Chain, "columns",
                            _fail_on_second_call(simulate._Chain.columns))
    elif failure == "draw":
        monkeypatch.setattr(simulate, "_draw_batch", _fail_on_second_call(simulate._draw_batch))
    model = random_trm_model(6, n=2, m_s=2, m_c=2, t=4)
    x = uniform_waveform(model)
    threads = threading.active_count()
    outcome = _bounded(lambda: simulate_end_to_end(
        model, x, 1.0, 4 * simulate._BATCH, seed=9, dump_path=tmp_path / "trials.csv"))
    assert threading.active_count() == threads
    if failure is None:
        assert outcome["value"].n_trials == 4 * simulate._BATCH
    else:
        assert "batch 2" in str(outcome["error"])
