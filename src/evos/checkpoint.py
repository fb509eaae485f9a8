"""Checkpoint and report files.

Both are JSON with sorted keys and a format_version, written with a
trailing newline so identical content is byte-identical on disk.  Arrays
are base64-encoded little-endian float64, which round-trips bit-exactly.
The reader is strict: unknown or missing keys, at the top level or in a
sub-object, a wrong version, or weights that do not fit the layer sizes are
rejected, and so is a value whose JSON type does not fit its field (a
string where an int belongs, a format_version of 5.0, a dataset_fingerprint
that is not a string, an objective outside ``OBJECTIVES``, an encoded array
without its data), so stale files fail loudly instead of half-loading.
A report holds the sha256 of each file its run read (``save_report``).

A checkpoint (format 5, the only one read) holds the network and its
training config, the evidence gate of evidential models (``gate``: the
logit means, per-dimension scale and onset of ``head.EvidenceGate``, or
null for the plain softplus head), the snapshot ensemble's members
(``snapshots``: a list of ``{weights, biases}`` objects in training order)
and, once calibrated, theta (``calibration``): its operating point, the
sweep's TPR and FPR, the validation error count (``n_wrong``) and the
scoring it was fitted on (``scoring``: the method and the options that
set its u).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os

import numpy as np

from . import mlp
from .baselines import SCORING_OPTIONS
from .calibration import ThresholdCalibration
from .errors import DataError
from .head import EvidenceGate
from .training import OBJECTIVES, Model, TrainConfig

FORMAT_VERSION = 5

_CHECKPOINT_KEYS = {"format_version", "kind", "mlp", "params", "objective", "train_config",
                    "dataset_fingerprint", "calibration", "gate", "snapshots"}


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


def write_json(obj: dict, path) -> None:
    """``obj`` as sorted, indented JSON and a newline, in a new or existing directory."""
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


def _is_num(v, types=(int, float)) -> bool:
    return isinstance(v, types) and not isinstance(v, bool)


# the JSON value check of each field annotation of a dataclass a checkpoint holds
_JSON_CHECKS = {
    "int": lambda v: _is_num(v, int),
    "float": _is_num,
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(_is_num(d, int) for d in v),
    "np.ndarray": lambda v: isinstance(v, list) and all(map(_is_num, v)),
    "dict": lambda v: isinstance(v, dict),
}


def _exact(obj, keys, path, what: str) -> dict:
    """``obj`` if it is a JSON object with exactly ``keys``, or exactly the
    fields of the dataclass ``keys`` with values of their JSON types;
    DataError naming the key otherwise."""
    fields = dataclasses.fields(keys) if dataclasses.is_dataclass(keys) else ()
    keys = {f.name for f in fields} if fields else keys
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {what}: expected a JSON object")
    unknown = set(obj) - keys
    missing = keys - set(obj)
    if unknown or missing:
        raise DataError(
            f"{path}: bad {what} schema (unknown: {sorted(unknown)}, "
            f"missing: {sorted(missing)})"
        )
    for f in fields:
        if not _JSON_CHECKS[f.type](obj[f.name]):
            raise DataError(f"{path}: {what}.{f.name}: expected {f.type}, got {obj[f.name]!r}")
    return obj


def _array(obj, path, what: str) -> np.ndarray:
    """``decode_array(obj)``; DataError naming ``what`` if obj is malformed."""
    shape = _exact(obj, {"shape", "data"}, path, what)["shape"]
    sizes = _JSON_CHECKS["tuple[int, ...]"](shape) and all(d >= 0 for d in shape)
    try:
        if not (sizes and isinstance(obj["data"], str)):
            raise ValueError("expected a list of sizes and a base64 string")
        return decode_array(obj)
    except ValueError as e:  # also bad base64, or data that does not fit the shape
        raise DataError(f"{path}: {what}: {e}") from None


def _check_scoring(obj: dict, path) -> None:
    """DataError unless a calibration's ``scoring`` names a method of
    ``SCORING_OPTIONS`` and holds exactly the options that set its u."""
    method, methods = obj.get("method"), tuple(SCORING_OPTIONS)  # a tuple: method may be a list
    if method not in methods:
        raise DataError(f"{path}: calibration.scoring.method {method!r}, not one of {methods}")
    _exact(obj, {"method", *SCORING_OPTIONS[method]}, path, "calibration.scoring")
    for k in SCORING_OPTIONS[method]:
        kind = "int" if k == "passes" else "float"
        if not _JSON_CHECKS[kind](obj[k]):
            raise DataError(f"{path}: calibration.scoring.{k}: expected {kind}, got {obj[k]!r}")


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
        "params": _encode_params(model.params),
        "objective": model.objective,
        "train_config": dataclasses.asdict(train_config),
        "dataset_fingerprint": dataset_fingerprint,
        "calibration": calibration.to_dict() if calibration is not None else None,
        "gate": _encode_gate(model.gate),
        "snapshots": [_encode_params(s) for s in model.snapshots],
    }
    write_json(obj, path)


def _encode_params(params: mlp.MlpParams) -> dict:
    return {
        "weights": [encode_array(w) for w in params.weights],
        "biases": [encode_array(b) for b in params.biases],
    }


def _decode_params(obj, dims, path, what: str) -> mlp.MlpParams:
    """The ``{weights, biases}`` object ``what``, checked against the layer
    sizes ``dims``; DataError naming the key otherwise."""
    _exact(obj, {"weights", "biases"}, path, what)
    if not all(isinstance(v, list) for v in obj.values()):
        raise DataError(f"{path}: {what}: expected lists of encoded arrays")
    arrays = {k: [_array(a, path, f"{what}.{k}[{i}]") for i, a in enumerate(v)]
              for k, v in obj.items()}
    for k, want in (("weights", dims), ("biases", [(o,) for _, o in dims])):
        got = [a.shape for a in arrays[k]]
        if got != want:  # name the first array that differs, is missing or is extra
            pairs = enumerate(zip(got, want))
            i = next((i for i, (g, w) in pairs if g != w), min(len(got), len(want)))
            raise DataError(f"{path}: {what}.{k}[{i}] does not fit the layer sizes {dims}")
    return mlp.MlpParams(**arrays)


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
    keys = ("means", "scale", "onset")  # encoded arrays, not EvidenceGate's JSON types
    _exact(obj, set(keys), path, "gate")
    means, scale, onset = (_array(obj[k], path, f"gate.{k}") for k in keys)
    k = output_dim
    if scale.shape != (k,) or means.ndim != 2 or means.shape[1] != k or onset.shape != ():
        raise DataError(f"{path}: gate shapes do not match the network's {output_dim} outputs")
    return EvidenceGate(means=means, scale=scale, onset=float(onset))


def load_checkpoint(path) -> tuple[Model, TrainConfig, str, ThresholdCalibration | None]:
    obj = _exact(_load(path), _CHECKPOINT_KEYS, path, "checkpoint")
    if not _is_num(obj["format_version"], int) or obj["format_version"] != FORMAT_VERSION:
        raise DataError(
            f"{path}: format_version {obj['format_version']!r}, this build reads "
            f"{FORMAT_VERSION}; re-run `evos train` and `evos calibrate` to write one"
        )
    if obj["kind"] != "checkpoint":
        raise DataError(f"{path}: kind {obj['kind']!r}, expected 'checkpoint'")
    if obj["objective"] not in OBJECTIVES:
        raise DataError(f"{path}: objective {obj['objective']!r}, expected one of {OBJECTIVES}")
    if not isinstance(obj["dataset_fingerprint"], str):
        raise DataError(f"{path}: dataset_fingerprint: expected str, "
                        f"got {obj['dataset_fingerprint']!r}")
    cfg = mlp.MlpConfig(**_exact(obj["mlp"], mlp.MlpConfig, path, "mlp"))
    dims = cfg.layer_dims
    params = _decode_params(obj["params"], dims, path, "params")
    if not isinstance(obj["snapshots"], list):
        raise DataError(f"{path}: snapshots: expected a list of {{weights, biases}} objects")
    snaps = [_decode_params(s, dims, path, f"snapshots[{i}]")
             for i, s in enumerate(obj["snapshots"])]
    calib = obj["calibration"]
    if calib is not None:
        calib = _exact(calib, ThresholdCalibration, path, "calibration")
        _check_scoring(calib["scoring"], path)
        calib = ThresholdCalibration.from_dict(calib)
    model = Model(
        config=cfg,
        params=params,
        objective=obj["objective"],
        gate=_decode_gate(obj["gate"], cfg.output_dim, path),
        snapshots=snaps,
    )
    tc = TrainConfig(**_exact(obj["train_config"], TrainConfig, path, "train_config"))
    return model, tc, obj["dataset_fingerprint"], calib


def save_report(path, command: str, seed: int, inputs: dict, sections: dict) -> None:
    """Deterministic run report.  ``inputs`` maps names to the files read, each
    stored as its sha256; ``sections`` holds plain-JSON metric blocks.  Timing
    measurements are deliberately kept out of reports (they cannot be
    reproducible); the CLI writes them to a sidecar file instead."""
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": "report",
        "command": command,
        "seed": seed,
        "inputs": {name: file_sha256(p) for name, p in inputs.items()},
        "sections": sections,
    }
    write_json(obj, path)
