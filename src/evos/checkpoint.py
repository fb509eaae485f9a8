"""Checkpoint and report files.

Both are JSON with sorted keys and a format_version, written with a
trailing newline so identical content is byte-identical on disk.  Arrays
are base64-encoded little-endian float64, which round-trips bit-exactly.
The reader is strict: unknown or missing keys, at the top level or in a
sub-object, a wrong version, or weights that do not fit the layer sizes are
rejected, so stale files fail loudly instead of half-loading.

Version 2 adds the evidence gate of evidential models (``gate``: the
logit means, per-dimension scale and onset of ``head.EvidenceGate``, or
null for the plain softplus head).  Version 3 drops the annealing schedule
of the last training epoch, which nothing read after training.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os

import numpy as np

from . import mlp
from .calibration import ThresholdCalibration
from .errors import DataError
from .head import EvidenceGate
from .training import Model, TrainConfig

FORMAT_VERSION = 3

_CHECKPOINT_KEYS = {
    "format_version",
    "kind",
    "mlp",
    "params",
    "objective",
    "train_config",
    "dataset_fingerprint",
    "calibration",
    "gate",
}


def encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump(obj: dict, path) -> None:
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON ({e})") from None


def _exact(obj, keys, path, what: str) -> dict:
    """``obj`` if it is a JSON object with exactly ``keys``, or exactly the
    fields of the dataclass ``keys``; DataError otherwise."""
    if dataclasses.is_dataclass(keys):
        keys = {f.name for f in dataclasses.fields(keys)}
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what}: expected a JSON object")
    unknown = set(obj) - keys
    missing = keys - set(obj)
    if unknown or missing:
        raise DataError(
            f"{path}: bad {what} schema (unknown: {sorted(unknown)}, "
            f"missing: {sorted(missing)})"
        )
    return obj


def save_checkpoint(
    path,
    model: Model,
    train_config: TrainConfig,
    dataset_fingerprint: str,
    calibration: ThresholdCalibration | None = None,
) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "mlp": dataclasses.asdict(model.config),
        "params": {
            "weights": [encode_array(w) for w in model.params.weights],
            "biases": [encode_array(b) for b in model.params.biases],
        },
        "objective": model.objective,
        "train_config": dataclasses.asdict(train_config),
        "dataset_fingerprint": dataset_fingerprint,
        "calibration": calibration.to_dict() if calibration is not None else None,
        "gate": _encode_gate(model.gate),
    }
    _dump(obj, path)


def _encode_gate(gate: EvidenceGate | None) -> dict | None:
    if gate is None:
        return None
    return {
        "means": encode_array(gate.means),
        "scale": encode_array(gate.scale),
        "onset": encode_array(gate.onset),
    }


def _decode_gate(obj, output_dim: int, path) -> EvidenceGate | None:
    if obj is None:
        return None
    _exact(obj, EvidenceGate, path, "gate")
    gate = EvidenceGate(
        means=decode_array(obj["means"]),
        scale=decode_array(obj["scale"]),
        onset=float(decode_array(obj["onset"])),
    )
    k = output_dim
    if gate.scale.shape != (k,) or gate.means.ndim != 2 or gate.means.shape[1] != k:
        raise DataError(f"{path}: gate shapes do not match the network's {output_dim} outputs")
    return gate


def load_checkpoint(path) -> tuple[Model, TrainConfig, str, ThresholdCalibration | None]:
    obj = _exact(_load(path), _CHECKPOINT_KEYS, path, "checkpoint")
    if obj["format_version"] != FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {obj['format_version']!r}, "
            f"this build reads {FORMAT_VERSION}"
        )
    if obj["kind"] != "checkpoint":
        raise DataError(f"{path}: kind {obj['kind']!r}, expected 'checkpoint'")
    cfg = mlp.MlpConfig(**_exact(obj["mlp"], mlp.MlpConfig, path, "mlp"))
    p = _exact(obj["params"], {"weights", "biases"}, path, "params")
    weights = [decode_array(w) for w in p["weights"]]
    biases = [decode_array(b) for b in p["biases"]]
    dims = cfg.layer_dims
    if [w.shape for w in weights] != dims or [b.shape for b in biases] != [(o,) for _, o in dims]:
        raise DataError(f"{path}: params do not fit the layer sizes {dims}")
    calib = obj["calibration"]
    if calib is not None:
        calib = _exact(calib, ThresholdCalibration, path, "calibration")
        calib = ThresholdCalibration.from_dict(calib)
    model = Model(
        config=cfg,
        params=mlp.MlpParams(weights=weights, biases=biases),
        objective=obj["objective"],
        gate=_decode_gate(obj["gate"], cfg.output_dim, path),
    )
    tc = TrainConfig(**_exact(obj["train_config"], TrainConfig, path, "train_config"))
    return model, tc, obj["dataset_fingerprint"], calib


def save_report(path, command: str, seed: int, inputs: dict, sections: dict) -> None:
    """Deterministic run report.  ``inputs`` maps names to content hashes;
    ``sections`` holds plain-JSON metric blocks.  Timing measurements are
    deliberately kept out of reports (they cannot be reproducible); the CLI
    writes them to a sidecar file instead."""
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": "report",
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "sections": sections,
    }
    _dump(obj, path)
