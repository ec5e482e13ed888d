"""JSON (de)serialization for model files, and the atomic writer for every artifact.

Discrete models store plain nested arrays; Gaussian models store complex
matrices row-major with each entry as an [re, im] pair. Validation errors
carry the offending field path.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .discrete import FiniteCasModel
from .errors import ConfigError
from .gaussian import TrmModel

_FINITE_FIELDS = ("state_prior", "sensing_law", "comm_law", "distortion", "cost")
_TRM_FIELDS = ("sigma_s", "h_c", "noise_s", "noise_c", "t", "m_s", "power")


def atomic_write_file(write_fn, path) -> None:
    """Write ``path`` atomically: ``write_fn(tmp)`` fills a temp file that then replaces it.

    If ``write_fn`` raises, the temp file is removed and ``path`` keeps its old contents.
    The file gets the mode a plain ``open`` would give it (0o666 less the umask).
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(payload, path) -> None:
    """Write ``payload`` to ``path`` as indented JSON, atomically."""

    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2)

    atomic_write_file(write, path)


def number(raw) -> float:
    """``raw`` as a float; a boolean is an error, though ``float()`` takes a JSON true as 1."""
    if isinstance(raw, bool):
        raise ValueError(f"must be a number, got {str(raw).lower()}")
    return float(raw)


def integer(raw) -> int:
    """``raw`` as an int; a boolean, or a number with a fractional part, is an error."""
    if isinstance(raw, bool):
        raise ValueError(f"must be an integer, got {str(raw).lower()}")
    if isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"must be an integer, got {raw!r}")
    return int(raw)


def finite(raw) -> float:
    """``raw`` as a finite float; a boolean is an error."""
    value = number(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def convert(name: str, raw, kind):
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _require(data: dict, fields, path) -> None:
    for name in fields:
        if name not in data:
            raise ConfigError(f"{path}: missing required field '{name}'")


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists with complex entries encoded as [re, im]."""
    a = np.asarray(a)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [complex_to_pairs(row) for row in a]


def pairs_to_complex(data, field: str) -> np.ndarray:
    try:
        a = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: expected nested [re, im] pairs") from exc
    if a.ndim < 1 or a.shape[-1] != 2:
        raise ConfigError(f"{field}: innermost entries must be [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def load_finite_cas_model(path) -> FiniteCasModel:
    data = _load_json(path)
    _require(data, _FINITE_FIELDS, path)
    try:
        return FiniteCasModel(
            state_prior=np.asarray(data["state_prior"], dtype=np.float64),
            sensing_law=np.asarray(data["sensing_law"], dtype=np.float64),
            comm_law=np.asarray(data["comm_law"], dtype=np.float64),
            distortion=np.asarray(data["distortion"], dtype=np.float64),
            cost=np.asarray(data["cost"], dtype=np.float64),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_finite_cas_model(model: FiniteCasModel, path) -> None:
    payload = {
        "state_prior": model.state_prior.tolist(),
        "sensing_law": model.sensing_law.tolist(),
        "comm_law": model.comm_law.tolist(),
        "distortion": model.distortion.tolist(),
        "cost": model.cost.tolist(),
    }
    write_json(payload, path)


def load_trm_model(path) -> TrmModel:
    data = _load_json(path)
    _require(data, _TRM_FIELDS, path)
    try:
        return TrmModel(
            sigma_s=pairs_to_complex(data["sigma_s"], f"{path}: sigma_s"),
            h_c=pairs_to_complex(data["h_c"], f"{path}: h_c"),
            noise_s=convert(f"{path}: noise_s", data["noise_s"], number),
            noise_c=convert(f"{path}: noise_c", data["noise_c"], number),
            t=convert(f"{path}: t", data["t"], integer),
            m_s=convert(f"{path}: m_s", data["m_s"], integer),
            power=convert(f"{path}: power", data["power"], number),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_trm_model(model: TrmModel, path) -> None:
    payload = {
        "sigma_s": complex_to_pairs(model.sigma_s),
        "h_c": complex_to_pairs(model.h_c),
        "noise_s": model.noise_s,
        "noise_c": model.noise_c,
        "t": model.t,
        "m_s": model.m_s,
        "power": model.power,
    }
    write_json(payload, path)
