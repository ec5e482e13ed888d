"""Command-line surface: load models, run solvers and sweeps, emit curves.

All randomness is controlled by a single top-level seed; outputs are written
atomically (temp file + rename). Rates print in nats unless --bits is given.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import discrete, simulate, waveform
from .errors import (
    CasError,
    ConfigError,
    InfeasibleConstraint,
    NonFiniteObjective,
    SingularPrior,
    UnreachableDistortion,
    ZeroProbabilityObservation,
)
from .gaussian import GramMatrix, TrmModel, channel_mi, random_trm_model, waveform_from_gram
from .modelio import load_finite_cas_model, load_trm_model

MODES = (
    "discrete-capacity",
    "discrete-rd",
    "discrete-tradeoff",
    "trm-optimize",
    "trm-sw",
    "snr-sweep",
    "simulate",
)

_SOLVER_ERRORS = (
    InfeasibleConstraint,
    UnreachableDistortion,
    SingularPrior,
    NonFiniteObjective,
    ZeroProbabilityObservation,
)


def _atomic_write_file(write_fn, path: str) -> None:
    """Write ``path`` atomically: ``write_fn(tmp)`` fills a temp file that then replaces it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def _rate(value: float, bits: bool) -> float:
    return value / math.log(2.0) if bits else value


def _unit(bits: bool) -> str:
    return "bits" if bits else "nats"


class Config:
    """Validated experiment configuration."""

    def __init__(self, data: dict, base_dir: str):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        mode = data.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
        self.mode = mode
        self.data = data
        self.base_dir = base_dir
        self.seed = self.value("seed", int, 0)
        self.bits = bool(data.get("bits", False))
        self.out_dir = data.get("out_dir", ".")
        self.trials = self.value("trials", int, 10_000)
        self.grid = self.value("grid", float, 1e-3)
        if self.grid <= 0:
            raise ConfigError("grid must be positive")

    def value(self, name: str, kind=None, default=None):
        """Field ``name``, converted by ``kind`` if given; required when there is no default."""
        raw = self.data.get(name)
        if raw is None:
            if default is None:
                raise ConfigError(f"mode {self.mode}: missing required field '{name}'")
            return default
        try:
            return raw if kind is None else kind(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    def path(self, rel: str) -> str:
        if os.path.isabs(rel):
            return rel
        return os.path.join(self.base_dir, rel)

    def out_path(self, rel: str) -> str:
        out = self.out_dir if os.path.isabs(self.out_dir) else os.path.join(self.base_dir, self.out_dir)
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, rel)

    def trm_model(self) -> TrmModel:
        spec = self.value("model")
        if isinstance(spec, str):
            return load_trm_model(self.path(spec))
        if isinstance(spec, dict):
            try:
                return random_trm_model(
                    seed=int(spec.get("seed", self.seed)),
                    n=int(spec.get("n", 4)),
                    m_s=int(spec.get("m_s", 4)),
                    m_c=int(spec.get("m_c", 4)),
                    t=int(spec.get("t", 16)),
                    power=float(spec.get("power", 1.0)),
                    noise_s=float(spec.get("noise_s", 1.0)),
                    noise_c=float(spec.get("noise_c", 1.0)),
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model generator: {exc}") from exc
        raise ConfigError("model must be a file path or a generator object")


def _point_payload(point, bits: bool) -> dict:
    d = point.as_dict()
    d["rate"] = _rate(d["rate"], bits)
    d["capacity"] = _rate(d["capacity"], bits)
    d["units"] = _unit(bits)
    return d


def _run_discrete_capacity(cfg: Config) -> list[str]:
    model = load_finite_cas_model(cfg.path(cfg.value("model", str)))
    d_s, budget = cfg.value("d_s", float), cfg.value("budget", float)
    capacity, px = discrete.constrained_capacity(model, d_s, budget)
    payload = {
        "capacity": _rate(capacity, cfg.bits),
        "units": _unit(cfg.bits),
        "input_distribution": px.probs.tolist(),
        "d_s": d_s,
        "budget": budget,
    }
    out = cfg.out_path(cfg.data.get("output", "capacity.json"))
    _atomic_write_file(lambda p: _write_json(payload, p), out)
    print(f"constrained capacity: {payload['capacity']:.6f} {payload['units']}")
    return [out]


def _run_discrete_rd(cfg: Config) -> list[str]:
    try:
        source, dist = discrete._rd_inputs(cfg.value("source"), cfg.value("distortion"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    d_c = cfg.value("d_c", float)
    rate, cond = discrete.rate_distortion_discrete(source, dist, d_c)
    payload = {
        "rate": _rate(rate, cfg.bits),
        "units": _unit(cfg.bits),
        "d_c": d_c,
        "test_channel": cond.tolist(),
    }
    out = cfg.out_path(cfg.data.get("output", "rate_distortion.json"))
    _atomic_write_file(lambda p: _write_json(payload, p), out)
    print(f"rate at d_c={d_c}: {payload['rate']:.6f} {payload['units']}")
    return [out]


def _run_discrete_tradeoff(cfg: Config) -> list[str]:
    model = load_finite_cas_model(cfg.path(cfg.value("model", str)))
    point = discrete.min_total_distortion(model, cfg.value("budget", float), grid=cfg.grid)
    payload = _point_payload(point, cfg.bits)
    out = cfg.out_path(cfg.data.get("output", "tradeoff.json"))
    _atomic_write_file(lambda p: _write_json(payload, p), out)
    print(
        f"min total distortion: {point.d_total:.6f} "
        f"(d_s={point.d_s:.6f}, d_c={point.d_c:.6f})"
    )
    return [out]


def _run_trm_optimize(cfg: Config) -> list[str]:
    model = cfg.trm_model()
    res = waveform.optimize_isac(model, max_iter=cfg.value("max_iter", int, waveform.MAX_ITER))
    payload = {
        "point": _point_payload(res.point, cfg.bits),
        "trace_used": res.trace_used,
        "iterations": res.iterations,
        "converged": res.converged,
        "q_star": _complex_payload(res.q_star.q),
    }
    out = cfg.out_path(cfg.data.get("output", "isac_optimize.json"))
    _atomic_write_file(lambda p: _write_json(payload, p), out)
    print(
        f"isac optimum: total D={res.point.d_total:.6f} "
        f"(converged={res.converged}, iterations={res.iterations})"
    )
    return [out]


def _run_trm_sw(cfg: Config) -> list[str]:
    model = cfg.trm_model()
    res = waveform.optimize_sw(model, split_grid=cfg.value("split_grid", int, 101))
    q_s, q_c = res.q_star
    payload = {
        "point": _point_payload(res.point, cfg.bits),
        "rho": res.rho,
        "trace_used": res.trace_used,
        "q_sensing": _complex_payload(q_s.q),
        "q_comm": _complex_payload(q_c.q),
    }
    out = cfg.out_path(cfg.data.get("output", "sw_optimize.json"))
    _atomic_write_file(lambda p: _write_json(payload, p), out)
    print(f"sw optimum: total D={res.point.d_total:.6f} at rho={res.rho:.4f}")
    return [out]


def _complex_payload(a: np.ndarray) -> list:
    from .modelio import complex_to_pairs

    return complex_to_pairs(a)


def _run_snr_sweep(cfg: Config) -> list[str]:
    template = cfg.trm_model()
    schemes = tuple(cfg.data.get("schemes", ["isac", "sw"]))
    curve = waveform.sweep_snr(
        template,
        cfg.value("snr_db", lambda v: [float(s) for s in v]),
        schemes=schemes,
        split_grid=cfg.value("split_grid", int, 101),
        max_iter=cfg.value("max_iter", int, waveform.MAX_ITER),
    )
    out_csv = cfg.out_path(cfg.data.get("output_csv", "sweep.csv"))
    out_json = cfg.out_path(cfg.data.get("output_json", "sweep.json"))
    _atomic_write_file(lambda p: waveform.write_curve_csv(curve, p), out_csv)
    _atomic_write_file(lambda p: waveform.write_curve_json(curve, p), out_json)
    print(f"{'snr_db':>8} {'scheme':>6} {'d_total':>12} {'converged':>9}")
    for row in waveform.curve_rows(curve):
        print(
            f"{row['snr_db']:8.2f} {row['scheme']:>6} "
            f"{row['d_total']:12.6f} {str(row['converged']):>9}"
        )
    return [out_csv, out_json]


def _run_simulate(cfg: Config) -> list[str]:
    model = cfg.trm_model()
    wf_spec = cfg.data.get("waveform", "uniform")
    if wf_spec == "uniform":
        q = (model.trace_budget / model.n) * np.eye(model.n)
        x = waveform_from_gram(model, q)
    elif wf_spec == "isac-optimal":
        res = waveform.optimize_isac(model, max_iter=cfg.value("max_iter", int, 500))
        x = waveform_from_gram(model, res.q_star)
    elif isinstance(wf_spec, list):
        from .modelio import pairs_to_complex

        x = pairs_to_complex(wf_spec, "waveform")
    else:
        raise ConfigError("waveform must be 'uniform', 'isac-optimal', or a complex matrix")

    dump = cfg.data.get("dump_trials")
    dump_path = cfg.out_path(dump) if dump else None
    if cfg.data.get("end_to_end", True):
        if cfg.data.get("rate_budget", "mi") == "mi":
            rate_budget = channel_mi(model, GramMatrix(x @ x.conj().T))
        else:
            rate_budget = cfg.value("rate_budget", float)
        report = simulate.simulate_end_to_end(
            model, x, rate_budget, cfg.trials, cfg.seed,
            n_workers=cfg.value("workers", int, 1), dump_path=dump_path,
        )
    else:
        report = simulate.simulate_sensing(
            model, x, cfg.trials, cfg.seed,
            n_workers=cfg.value("workers", int, 1), dump_path=dump_path,
        )
    out = cfg.out_path(cfg.data.get("output", "simulation.json"))
    _atomic_write_file(report.to_json, out)
    print(
        f"simulated {cfg.trials} trials: d_s={report.d_s_emp:.6f} "
        f"(analytic {report.d_s_analytic:.6f})"
    )
    if report.d_c_emp is not None:
        print(
            f"  d_c={report.d_c_emp:.6f} (analytic {report.d_c_analytic:.6f}), "
            f"cross={report.cross_mean:.2e} +- {report.cross_se:.2e}"
        )
    artifacts = [out]
    if dump_path:
        artifacts.append(dump_path)
    return artifacts


_RUNNERS = {
    "discrete-capacity": _run_discrete_capacity,
    "discrete-rd": _run_discrete_rd,
    "discrete-tradeoff": _run_discrete_tradeoff,
    "trm-optimize": _run_trm_optimize,
    "trm-sw": _run_trm_sw,
    "snr-sweep": _run_snr_sweep,
    "simulate": _run_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-cli",
        description=(
            "Compute fundamental limits of communication-assisted sensing. "
            "The config file selects one of the modes: " + ", ".join(MODES) + "."
        ),
        epilog=(
            "modes: discrete-capacity (constrained channel capacity), "
            "discrete-rd (rate-distortion function), "
            "discrete-tradeoff (min total distortion sweep), "
            "trm-optimize (ISAC Gram optimization), "
            "trm-sw (separated-waveform baseline), "
            "snr-sweep (scheme comparison over SNR), "
            "simulate (Monte Carlo validation)."
        ),
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default: config dir)")
    parser.add_argument(
        "--bits", action="store_true", help="report rates in bits instead of nats"
    )
    parser.add_argument("--trials", type=int, default=None, help="override Monte Carlo trials")
    parser.add_argument("--grid", type=float, default=None, help="override sweep grid resolution")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: line {exc.lineno}: {exc.msg}") from exc
        if args.seed is not None:
            data["seed"] = args.seed
        if args.out is not None:
            data["out_dir"] = args.out
        if args.bits:
            data["bits"] = True
        if args.trials is not None:
            data["trials"] = args.trials
        if args.grid is not None:
            data["grid"] = args.grid
        cfg = Config(data, base_dir=os.path.dirname(os.path.abspath(args.config)))
        artifacts = _RUNNERS[cfg.mode](cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in artifacts:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
