"""Checkpoint/report files: bit-exact array round-trips, strict schemas,
and byte-identical output for identical content."""

import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evos.calibration import calibrate
from evos.checkpoint import (
    FORMAT_VERSION,
    decode_array,
    encode_array,
    file_sha256,
    load_checkpoint,
    save_checkpoint,
    save_report,
)
from evos.cli import main
from evos.data import gen_blobs, save_csv
from evos.errors import DataError
from evos.mlp import MlpConfig
from evos.records import Predictions
from evos.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained():
    ds = gen_blobs(n_per_class=30, n_classes=3, seed=1)
    result = train(
        ds,
        None,
        TrainConfig(epochs=3, objective="tun", seed=1, snapshot_count=5),
        MlpConfig(input_dim=2, output_dim=3, seed=1),
    )
    return result, TrainConfig(epochs=3, objective="tun", seed=1, snapshot_count=5)


def make_calibration():
    preds = Predictions(
        predicted=np.array([0, 0, 0, 0]),
        labels=np.array([0, 1, 0, 1]),  # rows 2 and 4 are wrong
        uncertainty=np.array([0.1, 0.8, 0.3, 0.6]),
        probs=np.full((4, 2), 0.5),
    )
    return calibrate(preds, 2.0, "tta", passes=4, jitter_sigma=0.2)


# ---------------------------------------------------------------------------
# array codec


@pytest.mark.parametrize(
    "values",
    [
        np.array([[1.0, -2.5], [np.pi, 1e300], [-0.0, 5e-324]]),  # incl. denormal
        np.array([0.1, np.nextafter(1.0, 2.0), -1e-308]),
        np.zeros((3, 0)),
        np.array(7.25),
    ],
)
def test_array_codec_bit_exact(values):
    back = decode_array(encode_array(values))
    assert back.shape == values.shape
    assert back.dtype == np.float64
    assert back.tobytes() == np.asarray(values, dtype=np.float64).tobytes()


def test_array_codec_is_json_safe():
    d = encode_array(np.arange(6.0).reshape(2, 3))
    again = json.loads(json.dumps(d))
    assert np.array_equal(decode_array(again), np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# checkpoint round trip


def test_checkpoint_round_trip(tmp_path, trained):
    result, tc = trained
    path = tmp_path / "model.json"
    save_checkpoint(path, result.model, tc, dataset_fingerprint="abc123")
    model, tc_back, fp, calib = load_checkpoint(path)

    for a, b in zip(model.params.weights, result.model.params.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.params.biases, result.model.params.biases):
        assert a.tobytes() == b.tobytes()
    assert model.config == result.model.config
    assert model.objective == "tun"
    assert tc_back == tc
    assert fp == "abc123"
    assert calib is None
    gate, fitted = model.gate, result.model.gate
    assert fitted is not None
    assert gate.means.tobytes() == fitted.means.tobytes()
    assert gate.scale.tobytes() == fitted.scale.tobytes()
    assert np.float64(gate.onset).tobytes() == np.float64(fitted.onset).tobytes()
    assert len(result.model.snapshots) == 2  # epochs 1 and 2 of 3
    assert [s.flat.tobytes() for s in model.snapshots] == [
        s.flat.tobytes() for s in result.model.snapshots
    ]


def test_checkpoint_round_trip_with_calibration(tmp_path, trained):
    result, tc = trained
    calib = make_calibration()
    path = tmp_path / "model.json"
    save_checkpoint(path, result.model, tc, "fp", calibration=calib)
    _, _, _, calib_back = load_checkpoint(path)
    assert calib_back.threshold == calib.threshold
    assert calib_back.coefficient == calib.coefficient
    assert_allclose(calib_back.tpr, calib.tpr)
    assert_allclose(calib_back.fpr, calib.fpr)
    assert calib_back.n_wrong == calib.n_wrong == 2
    assert calib_back.scoring == calib.scoring == {"method": "tta", "passes": 4, "jitter_sigma": 0.2}
    # the sweep's candidates and objective are not stored
    assert set(json.loads(path.read_text())["calibration"]) == {
        "tpr", "fpr", "threshold", "tpr_at_threshold", "fpr_at_threshold", "objective_value",
        "coefficient", "n_wrong", "scoring"}


def test_checkpoint_rerun_is_byte_identical(tmp_path, trained):
    result, tc = trained
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, result.model, tc, "fp", calibration=make_calibration())
    save_checkpoint(p2, result.model, tc, "fp", calibration=make_calibration())
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_creates_parent_dirs(tmp_path, trained):
    result, tc = trained
    path = tmp_path / "deep" / "nested" / "model.json"
    save_checkpoint(path, result.model, tc, "fp")
    assert path.exists()


# ---------------------------------------------------------------------------
# strict readers


def _saved_checkpoint(tmp_path, trained):
    result, tc = trained
    path = tmp_path / "model.json"
    save_checkpoint(path, result.model, tc, "fp")
    return path


def test_reader_rejects_unknown_key(tmp_path, trained):
    path = _saved_checkpoint(tmp_path, trained)
    obj = json.loads(path.read_text())
    obj["extra"] = 1
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=r"unknown.*extra"):
        load_checkpoint(path)


def test_reader_rejects_missing_key(tmp_path, trained):
    path = _saved_checkpoint(tmp_path, trained)
    obj = json.loads(path.read_text())
    del obj["objective"]
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=r"missing.*objective"):
        load_checkpoint(path)


def test_reader_rejects_wrong_version(tmp_path, trained):
    path = _saved_checkpoint(tmp_path, trained)
    obj = json.loads(path.read_text())
    obj["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="format_version"):
        load_checkpoint(path)


# each older file -> its edit of a format-5 file: the version is read before the keys
_OLD_VERSIONS = {
    "1": (1, "gate"),  # before the evidence gate
    "3": (3, "snapshots"),  # before the snapshot ensemble
    "4": (4, None),
    "5.0": (5.0, None),
}


@pytest.mark.parametrize("case", sorted(_OLD_VERSIONS))
def test_reader_asks_for_a_rerun_on_any_other_version(case, tmp_path, trained, capsys):
    path = _saved_checkpoint(tmp_path, trained)
    version, dropped = _OLD_VERSIONS[case]
    obj = json.loads(path.read_text())
    obj["format_version"] = version
    obj.pop(dropped, None)
    path.write_text(json.dumps(obj))
    assert main(["eval", "--checkpoint", str(path), "--test-csv", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert f"format_version {case}, this build reads {FORMAT_VERSION}; re-run" in err


def test_reader_rejects_malformed_gate(tmp_path, trained):
    path = _saved_checkpoint(tmp_path, trained)
    obj = json.loads(path.read_text())
    del obj["gate"]["onset"]
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="gate"):
        load_checkpoint(path)


def test_reader_rejects_wrong_kind(tmp_path, trained):
    path = _saved_checkpoint(tmp_path, trained)
    obj = json.loads(path.read_text())
    obj["kind"] = "report"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="kind"):
        load_checkpoint(path)


# each edit -> what the reader's error names
_MISFITS = {
    "mlp-extra-key": (lambda obj: obj["mlp"].update(extra=1), r"bad mlp schema.*unknown.*extra"),
    "mlp-missing-seed": (lambda obj: obj["mlp"].pop("seed"), r"bad mlp schema.*missing.*seed"),
    "train_config-extra-key": (
        lambda obj: obj["train_config"].update(extra=1),
        r"bad train_config schema.*unknown.*extra",
    ),
    "calibration-extra-key": (
        lambda obj: obj["calibration"].update(extra=1),
        r"bad calibration schema.*unknown.*extra",
    ),
    "calibration-scoring-option-of-another-method": (
        lambda obj: obj["calibration"]["scoring"].update(method="mc_drop"),
        r"bad calibration\.scoring schema.*unknown.*jitter_sigma",
    ),
    "calibration-scoring-without-its-options": (
        lambda obj: obj["calibration"]["scoring"].pop("passes"),
        r"bad calibration\.scoring schema.*missing.*passes",
    ),
    "two-weights-for-three-layers": (lambda obj: obj["params"]["weights"].pop(), "layer sizes"),
}


@pytest.mark.parametrize("case", sorted(_MISFITS))
def test_reader_rejects_sub_objects_that_do_not_fit(case, tmp_path, trained):
    result, tc = trained
    path = tmp_path / "model.json"
    save_checkpoint(path, result.model, tc, "fp", make_calibration())
    edit, match = _MISFITS[case]
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


def _set(obj, keys, value):
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value


# each value of the wrong JSON type or outside its domain -> what the error names
_WRONG_VALUES = {
    "objective-bogus": (("objective",), "bogus", r"objective 'bogus'"),
    "format_version-float": (("format_version",), float(FORMAT_VERSION), r"format_version 5\.0"),
    "dataset_fingerprint-int": (("dataset_fingerprint",), 12345, r"dataset_fingerprint.*12345"),
    "dataset_fingerprint-null": (("dataset_fingerprint",), None, r"dataset_fingerprint.*None"),
    "dataset_fingerprint-list": (("dataset_fingerprint",), [1, 2], r"dataset_fingerprint.*\[1, 2\]"),
    "mlp-input_dim-string": (("mlp", "input_dim"), "2", r"mlp\.input_dim"),
    "mlp-input_dim-bool": (("mlp", "input_dim"), True, r"mlp\.input_dim"),
    "mlp-hidden_dims-string-entry": (("mlp", "hidden_dims"), ["32", 32], r"mlp\.hidden_dims"),
    "mlp-dropout_rate-string": (("mlp", "dropout_rate"), "0", r"mlp\.dropout_rate"),
    "train_config-epochs-string": (("train_config", "epochs"), "40", r"train_config\.epochs"),
    "train_config-objective-int": (("train_config", "objective"), 2, r"train_config\.objective"),
    "calibration-threshold-string": (
        ("calibration", "threshold"), "0.5", r"calibration\.threshold"
    ),
    "calibration-tpr-string-entry": (("calibration", "tpr"), ["x"], r"calibration\.tpr"),
    "calibration-n_wrong-float": (("calibration", "n_wrong"), 2.5, r"calibration\.n_wrong"),
    "calibration-scoring-not-an-object": (("calibration", "scoring"), "tta", r"calibration\.scoring"),
    "calibration-scoring-method-auto": (
        ("calibration", "scoring", "method"), "auto", r"calibration\.scoring\.method 'auto'"
    ),
    "calibration-scoring-method-list": (
        ("calibration", "scoring", "method"), ["tta"], r"calibration\.scoring\.method \['tta'\]"
    ),
    "calibration-scoring-passes-float": (
        ("calibration", "scoring", "passes"), 4.0, r"calibration\.scoring\.passes: expected int"
    ),
    "calibration-scoring-jitter_sigma-string": (
        ("calibration", "scoring", "jitter_sigma"), "0.2", r"calibration\.scoring\.jitter_sigma"
    ),
    "array-without-data": (("params", "weights", 0), {"shape": [2, 32]}, r"params\.weights\[0\]"),
    "array-negative-size": (
        ("params", "weights", 0, "shape"), [-1, 32], r"params\.weights\[0\]"
    ),
    "array-data-of-wrong-length": (
        ("params", "biases", 1, "data"), "AAAAAAAAAAA=", r"params\.biases\[1\]"
    ),
    "weights-not-a-list": (("params", "weights"), "AAAA", r"params\.weights: expected list"),
    "gate-onset-not-an-array": (("gate", "onset"), 0.5, r"gate\.onset"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_VALUES))
def test_reader_rejects_values_that_do_not_fit_their_field(case, tmp_path, trained):
    result, tc = trained
    path = tmp_path / "model.json"
    save_checkpoint(path, result.model, tc, "fp", make_calibration())
    keys, value, match = _WRONG_VALUES[case]
    obj = json.loads(path.read_text())
    _set(obj, keys, value)
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


# each edit of the snapshots -> the key the error names
_BAD_SNAPSHOTS = {
    "not-a-list": (lambda obj: obj.update(snapshots={}), r"checkpoint\.snapshots: expected list"),
    "weight-of-wrong-shape": (
        lambda obj: _set(obj, ("snapshots", 1, "weights", 1), encode_array(np.zeros((32, 3)))),
        r"snapshots\[1\]\.weights\[1\] does not fit the layer sizes",
    ),
    "stray-key": (
        lambda obj: obj["snapshots"][0].update(epoch=1), r"bad snapshots\[0\] schema.*unknown.*epoch"
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_SNAPSHOTS))
def test_reader_rejects_snapshots_that_do_not_fit(case, tmp_path, trained, capsys):
    path = _saved_checkpoint(tmp_path, trained)
    edit, match = _BAD_SNAPSHOTS[case]
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)
    # eval reads the checkpoint before its test CSV, which is never reached
    assert main(["eval", "--checkpoint", str(path), "--test-csv", str(tmp_path / "t.csv")]) == 3
    assert re.search(match, capsys.readouterr().err)


@pytest.mark.parametrize(
    "extra", [["--epochs", "0"], ["--epochs", "3", "--snapshot-count", "0"]],
    ids=["epochs-0", "snapshot-count-0"],
)
def test_train_without_snapshots_writes_an_empty_list(extra, tmp_path, capsys):
    save_csv(gen_blobs(n_per_class=10, n_classes=2, seed=0), tmp_path / "train.csv")
    out = tmp_path / "m.json"
    assert main(["train", "--train-csv", str(tmp_path / "train.csv"), "--out", str(out), *extra]) == 0
    assert json.loads(out.read_text())["snapshots"] == []
    assert load_checkpoint(out)[0].snapshots == []
    capsys.readouterr()


def test_reader_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {")
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(path)


def test_reader_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_checkpoint(tmp_path / "absent.json")


def test_reader_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(DataError, match="JSON object"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# reports


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    data = tmp_path / "test.csv"
    data.write_bytes(b"abc")
    sections = {"metrics": {"accuracy": 0.95, "macro_f1": 0.93}}
    save_report(path, "eval", seed=7, inputs={"test_csv": data}, sections=sections)
    obj = json.loads(path.read_text())
    assert set(obj) == {"format_version", "kind", "command", "seed", "inputs", "sections"}
    assert obj["format_version"] == FORMAT_VERSION
    assert obj["kind"] == "report"
    assert obj["command"] == "eval"
    assert obj["seed"] == 7
    # sha256 of b"abc" (FIPS 180-2's first example)
    sha_abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert obj["inputs"] == {"test_csv": sha_abc}
    assert obj["sections"] == sections


def test_report_bytes_are_canonical(tmp_path):
    p1, p2, data = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "a.csv"
    data.write_text("x,label\n")
    save_report(p1, "eval", 0, {"a": data}, {"s": {"x": 1.5}})
    save_report(p2, "eval", 0, {"a": data}, {"s": {"x": 1.5}})
    raw = p1.read_bytes()
    assert raw == p2.read_bytes()
    assert raw.endswith(b"\n")
    obj = json.loads(raw)
    expected = (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()
    assert raw == expected
    assert obj["inputs"] == {"a": file_sha256(data)}


# ---------------------------------------------------------------------------
# hashing


def test_file_sha256_known_digest(tmp_path):
    path = tmp_path / "hello.txt"
    path.write_bytes(b"hello\n")
    # sha256 of "hello\n", computed independently
    assert (
        file_sha256(path)
        == "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    )


def test_file_sha256_distinguishes_content(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"x")
    b.write_bytes(b"y")
    assert file_sha256(a) != file_sha256(b)
