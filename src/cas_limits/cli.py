"""Command-line surface: load models, run solvers and sweeps, emit curves.

All randomness is controlled by a single top-level seed; outputs are written
atomically (temp file + rename), every JSON artifact by ``Config.write``.
Rates print in nats unless --bits is given; snr-sweep and simulate, whose
artifacts are in nats, reject it.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import discrete, simulate, waveform
from .errors import CasError, ConfigError
from .gaussian import GramMatrix, TrmModel, channel_mi, random_trm_model, waveform_from_gram
from .modelio import (
    complex_to_pairs,
    convert,
    finite,
    integer,
    load_finite_cas_model,
    load_trm_model,
    number,
    pairs_to_complex,
    write_json,
)

# keys that name an output file or directory; each must be a string when set
_PATH_KEYS = ("out_dir", "output", "output_csv", "output_json", "dump_trials")


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
        for key in _PATH_KEYS:
            if data.get(key) is not None and not isinstance(data[key], str):
                raise ConfigError(f"{key}: must be a path string, got {data[key]!r}")
        self.seed = self.value("seed", integer, 0)
        self.bits = self.flag("bits", False)
        if self.bits and mode in ("snr-sweep", "simulate"):
            raise ConfigError(f"bits: not an option in mode {mode}; its artifacts are in nats")
        self.out_dir = self.value("out_dir", default=".")
        self.trials = self.value("trials", integer, 10_000)
        self.grid = self.value("grid", finite, 1e-3)
        if self.grid <= 0:
            raise ConfigError(f"grid: must be positive, got {self.grid!r}")

    def value(self, name: str, kind=None, default=None):
        """Field ``name``, converted by ``kind`` if given; required when there is no default."""
        raw = self.data.get(name)
        if raw is None:
            if default is None:
                raise ConfigError(f"mode {self.mode}: missing required field '{name}'")
            return default
        return raw if kind is None else convert(name, raw, kind)

    def flag(self, name: str, default: bool) -> bool:
        """Field ``name``, which must be a JSON boolean when set."""
        raw = self.data.get(name)
        if raw is None:
            return default
        if not isinstance(raw, bool):
            raise ConfigError(f"{name}: must be true or false, got {raw!r}")
        return raw

    def split_grid(self) -> int:
        split_grid = self.value("split_grid", integer, 101)
        if split_grid < 2:
            raise ConfigError("split_grid: must be at least 2")
        return split_grid

    def max_iter(self) -> int:
        max_iter = self.value("max_iter", integer, waveform.MAX_ITER)
        if max_iter < 0:
            raise ConfigError(f"max_iter: must be nonnegative, got {max_iter}")
        return max_iter

    def path(self, rel: str) -> str:
        if os.path.isabs(rel):
            return rel
        return os.path.join(self.base_dir, rel)

    def out_path(self, rel: str) -> str:
        out = self.path(self.out_dir)
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, rel)

    def write(self, payload: dict, default: str, key: str = "output") -> str:
        """Write ``payload`` as JSON to the output path in field ``key``, else ``default``.

        Every JSON artifact of every mode goes through here; returns the path written.
        """
        out = self.out_path(self.value(key, default=default))
        write_json(payload, out)
        return out

    def trm_model(self) -> TrmModel:
        spec = self.value("model")
        if isinstance(spec, str):
            return load_trm_model(self.path(spec))
        if isinstance(spec, dict):
            def field(key, kind, default):
                return convert(f"model.{key}", spec.get(key, default), kind)

            try:
                return random_trm_model(
                    seed=field("seed", integer, self.seed),
                    n=field("n", integer, 4),
                    m_s=field("m_s", integer, 4),
                    m_c=field("m_c", integer, 4),
                    t=field("t", integer, 16),
                    power=field("power", finite, 1.0),
                    noise_s=field("noise_s", finite, 1.0),
                    noise_c=field("noise_c", finite, 1.0),
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
    d_s, budget = cfg.value("d_s", finite), cfg.value("budget", finite)
    capacity, px = discrete.constrained_capacity(model, d_s, budget)
    payload = {
        "capacity": _rate(capacity, cfg.bits),
        "units": _unit(cfg.bits),
        "input_distribution": px.probs.tolist(),
        "d_s": d_s,
        "budget": budget,
    }
    out = cfg.write(payload, "capacity.json")
    print(f"constrained capacity: {payload['capacity']:.6f} {payload['units']}")
    return [out]


def _run_discrete_rd(cfg: Config) -> list[str]:
    try:
        source, dist = discrete._rd_inputs(cfg.value("source"), cfg.value("distortion"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    d_c = cfg.value("d_c", finite)
    rate, cond = discrete.rate_distortion_discrete(source, dist, d_c)
    payload = {
        "rate": _rate(rate, cfg.bits),
        "units": _unit(cfg.bits),
        "d_c": d_c,
        "test_channel": cond.tolist(),
    }
    out = cfg.write(payload, "rate_distortion.json")
    print(f"rate at d_c={d_c}: {payload['rate']:.6f} {payload['units']}")
    return [out]


def _run_discrete_tradeoff(cfg: Config) -> list[str]:
    model = load_finite_cas_model(cfg.path(cfg.value("model", str)))
    point = discrete.min_total_distortion(model, cfg.value("budget", finite), grid=cfg.grid)
    out = cfg.write(_point_payload(point, cfg.bits), "tradeoff.json")
    print(
        f"min total distortion: {point.d_total:.6f} "
        f"(d_s={point.d_s:.6f}, d_c={point.d_c:.6f})"
    )
    return [out]


def _run_trm_optimize(cfg: Config) -> list[str]:
    model = cfg.trm_model()
    res = waveform.optimize_isac(model, max_iter=cfg.max_iter())
    payload = {
        "point": _point_payload(res.point, cfg.bits),
        "trace_used": res.trace_used,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop": res.stop,
        "fw_gap": res.fw_gap,
        "q_star": complex_to_pairs(res.q_star.q),
    }
    out = cfg.write(payload, "isac_optimize.json")
    print(
        f"isac optimum: total D={res.point.d_total:.6f} "
        f"(converged={res.converged}, stop={res.stop}, iterations={res.iterations})"
    )
    return [out]


def _run_trm_sw(cfg: Config) -> list[str]:
    model = cfg.trm_model()
    res = waveform.optimize_sw(model, split_grid=cfg.split_grid())
    q_s, q_c = res.q_star
    payload = {
        "point": _point_payload(res.point, cfg.bits),
        "rho": res.rho,
        "trace_used": res.trace_used,
        "q_sensing": complex_to_pairs(q_s.q),
        "q_comm": complex_to_pairs(q_c.q),
    }
    out = cfg.write(payload, "sw_optimize.json")
    print(f"sw optimum: total D={res.point.d_total:.6f} at rho={res.rho:.4f}")
    return [out]


def _run_snr_sweep(cfg: Config) -> list[str]:
    template = cfg.trm_model()
    # sweep_snr owns the rules for the grid and the schemes; JSON only has to give lists
    snr_db, schemes = cfg.value("snr_db"), cfg.data.get("schemes", ["isac", "sw"])
    for name, raw in (("snr_db", snr_db), ("schemes", schemes)):
        if not isinstance(raw, list):
            raise ConfigError(f"{name}: must be a list; got {raw!r}")
    snr_db = convert("snr_db", snr_db, lambda v: [number(s) for s in v])
    split_grid, max_iter = cfg.split_grid(), cfg.max_iter()
    try:
        curve = waveform.sweep_snr(template, snr_db, schemes=tuple(schemes),
                                   split_grid=split_grid, max_iter=max_iter)
    except ValueError as exc:   # raised up front only; a failed point is recorded instead
        raise ConfigError(str(exc)) from exc
    rows = waveform.curve_rows(curve)
    out_csv = cfg.out_path(cfg.value("output_csv", default="sweep.csv"))
    waveform.write_curve_csv(curve, out_csv)
    out_json = cfg.write({"snr_db": curve.snr_db, "rows": rows, "errors": curve.errors},
                         "sweep.json", key="output_json")
    print(f"{'snr_db':>8} {'scheme':>6} {'d_total':>12} {'converged':>9}")
    for row in rows:
        print(
            f"{row['snr_db']:8.2f} {row['scheme']:>6} "
            f"{row['d_total']:12.6f} {str(row['converged']):>9}"
        )
    return [out_csv, out_json]


def _run_simulate(cfg: Config) -> list[str]:
    if "workers" in cfg.data:
        raise ConfigError("workers: not an option; every run draws its trials from one RNG stream")
    if cfg.trials < 1:
        raise ConfigError("trials: must be at least 1")
    end_to_end = cfg.flag("end_to_end", True)
    if not end_to_end and "rate_budget" in cfg.data:
        raise ConfigError("rate_budget: not an option when end_to_end is false; "
                          "sensing alone has no rate")
    rate_budget = cfg.data.get("rate_budget", "mi")
    if end_to_end and rate_budget != "mi":
        rate_budget = cfg.value("rate_budget", number)
        if not rate_budget >= 0:
            raise ConfigError("rate_budget: must be nonnegative")
    model = cfg.trm_model()
    wf_spec = cfg.data.get("waveform", "uniform")
    if wf_spec == "uniform":
        q = (model.trace_budget / model.n) * np.eye(model.n)
        x = waveform_from_gram(model, q)
    elif wf_spec == "isac-optimal":
        res = waveform.optimize_isac(model, max_iter=cfg.max_iter())
        x = waveform_from_gram(model, res.q_star.q)
    elif isinstance(wf_spec, list):
        x = pairs_to_complex(wf_spec, "waveform")
        if x.shape != (model.n, model.t):
            raise ConfigError(f"waveform: expected a {model.n}x{model.t} matrix, "
                              f"got shape {x.shape}")
    else:
        raise ConfigError("waveform: must be 'uniform', 'isac-optimal', or a complex matrix")

    dump = cfg.data.get("dump_trials")
    dump_path = cfg.out_path(dump) if dump else None
    if end_to_end:
        if rate_budget == "mi":
            rate_budget = channel_mi(model, GramMatrix(x @ x.conj().T).q)
        report = simulate.simulate_end_to_end(
            model, x, rate_budget, cfg.trials, cfg.seed, dump_path=dump_path,
        )
    else:
        report = simulate.simulate_sensing(model, x, cfg.trials, cfg.seed, dump_path=dump_path)
    out = cfg.write(report.as_dict(), "simulation.json")
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


# mode -> (runner, what it computes); MODES, the mode check and --help all read it
_MODE_TABLE = {
    "discrete-capacity": (_run_discrete_capacity, "constrained channel capacity"),
    "discrete-rd": (_run_discrete_rd, "rate-distortion function"),
    "discrete-tradeoff": (_run_discrete_tradeoff, "min total distortion sweep"),
    "trm-optimize": (_run_trm_optimize, "ISAC Gram optimization"),
    "trm-sw": (_run_trm_sw, "separated-waveform baseline"),
    "snr-sweep": (_run_snr_sweep, "scheme comparison over SNR"),
    "simulate": (_run_simulate, "Monte Carlo validation"),
}
MODES = tuple(_MODE_TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cas-cli",
        description=(
            "Compute fundamental limits of communication-assisted sensing. "
            "The config file selects one of the modes: " + ", ".join(MODES) + "."
        ),
        epilog="modes: " + ", ".join(f"{mode} ({what})"
                                     for mode, (_, what) in _MODE_TABLE.items()) + ".",
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
        artifacts = _MODE_TABLE[cfg.mode][0](cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CasError as exc:
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
