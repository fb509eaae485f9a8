"""End-to-end command-line flows on a small generated benchmark:
exit codes, artifact layout, config precedence, and report determinism."""

import dataclasses
import json
import shutil
import threading

import numpy as np
import pytest

from evos import baselines, cli
from evos.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from evos.cli import main
from evos.data import load_csv
from evos.errors import DataError, NumericError
from evos.metrics import evaluate, ood_detection_rate
from evos.training import TrainConfig, predict_records
from test_bindings import load_tracer


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = run(
        "gen-data",
        "--out-dir",
        str(d),
        "--k",
        "3",
        "--n-per-class",
        "60",
        "--ood-n",
        "60",
        "--seed",
        "0",
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run") / "model.json"
    rc = run(
        "train",
        "--train-csv",
        str(data_dir / "train.csv"),
        "--val-csv",
        str(data_dir / "val.csv"),
        "--out",
        str(out),
        "--objective",
        "tun",
        "--epochs",
        "30",
        "--seed",
        "0",
        "--snapshot-count",
        "5",
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def calibrated_path(data_dir, model_path):
    rc = run(
        "calibrate",
        "--checkpoint",
        str(model_path),
        "--val-csv",
        str(data_dir / "val.csv"),
    )
    assert rc == 0
    return model_path


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_is_usage_error(capsys):
    assert run() == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run("frobnicate") == 2
    capsys.readouterr()


COMMANDS = ("gen-data", "train", "calibrate", "eval", "ood-eval", "compare")


@pytest.mark.parametrize("command", ["", *COMMANDS], ids=["evos", *COMMANDS])
def test_help_exits_zero(command, capsys):
    assert run(*command.split(), "--help") == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: evos {command}".rstrip())
    if not command:
        assert all(c in out for c in COMMANDS)


# Option values the library rejects exit 3 like any other data/config error.
TRAIN = ("train", "--train-csv", "{data}/train.csv", "--out", "{tmp}/m.json")
CALIBRATE = ("calibrate", "--checkpoint", "{model}", "--val-csv", "{data}/val.csv")
BAD_VALUES = {
    "epochs": (*TRAIN, "--epochs", "-1"),
    "batch_size": (*TRAIN, "--batch-size", "0"),
    "dropout_rate": (*TRAIN, "--dropout-rate", "1.5"),
    # drops no unit at the masks' 16-bit resolution
    "dropout_rate_below_cut": (*TRAIN, "--dropout-rate", "3e-06"),
    "passes": (*CALIBRATE, "--method", "mc_drop", "--passes", "0"),
    "jitter_sigma": (*CALIBRATE, "--method", "tta", "--jitter-sigma", "-1"),
    "bins": ("ood-eval", "--checkpoint", "{model}", "--ood-csv", "{data}/ood_ring.csv",
             "--bins", "0"),
    "config_int": (*TRAIN, "--config", "{tmp}/bad.cfg"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_option_value_is_data_error(case, calibrated_path, data_dir, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("epochs=abc\n")
    before = file_sha256(calibrated_path)
    where = dict(data=data_dir, model=calibrated_path, tmp=tmp_path)
    rc = run(*(a.format(**where) for a in BAD_VALUES[case]))
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:")
    assert "Traceback" not in err
    if case == "config_int":
        assert "epochs: cannot parse 'abc'" in err
    assert file_sha256(calibrated_path) == before
    assert not (tmp_path / "m.json").exists()


def test_missing_file_is_data_error(tmp_path, capsys):
    rc = run(
        "eval",
        "--checkpoint",
        str(tmp_path / "absent.json"),
        "--test-csv",
        str(tmp_path / "absent.csv"),
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_numeric_failure_exit_code(data_dir, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(
            "train",
            "--train-csv",
            str(data_dir / "train.csv"),
            "--out",
            str(tmp_path / "m.json"),
            "--epochs",
            "3",
            "--learning-rate",
            "1e150",
        )
    assert rc == 4
    assert "numeric failure" in capsys.readouterr().err


def test_train_on_ood_rows_is_data_error(data_dir, tmp_path, capsys):
    # an all-OOD CSV has no classes, so no network can be sized for it
    rc = run(
        "train",
        "--train-csv",
        str(data_dir / "ood_ring.csv"),
        "--out",
        str(tmp_path / "m.json"),
        "--epochs",
        "1",
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "classes" in err
    assert not (tmp_path / "m.json").exists()


def test_eval_on_ood_rows_is_data_error(model_path, data_dir, capsys):
    rc = run(
        "eval",
        "--checkpoint",
        str(model_path),
        "--test-csv",
        str(data_dir / "ood_ring.csv"),
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ood-eval" in err


@pytest.fixture(scope="module")
def mixed_csv(data_dir, tmp_path_factory):
    """val.csv with the OOD ring rows appended: labelled rows plus OOD rows."""
    path = tmp_path_factory.mktemp("mixed") / "val_and_ring.csv"
    ring_rows = (data_dir / "ood_ring.csv").read_text().splitlines(keepends=True)[1:]
    path.write_text((data_dir / "val.csv").read_text() + "".join(ring_rows))
    return path


def test_train_on_ood_val_rows_is_data_error(data_dir, tmp_path, capsys):
    # OOD validation rows have no class, so they cannot count as wrong
    rc = run(
        "train",
        "--train-csv",
        str(data_dir / "train.csv"),
        "--val-csv",
        str(data_dir / "ood_ring.csv"),
        "--out",
        str(tmp_path / "m.json"),
        "--epochs",
        "1",
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ood-eval" in err
    assert not (tmp_path / "m.json").exists()


def test_calibrate_on_ood_rows_is_data_error(model_path, mixed_csv, tmp_path, capsys):
    ckpt = tmp_path / "model.json"
    ckpt.write_bytes(model_path.read_bytes())
    rc = run("calibrate", "--checkpoint", str(ckpt), "--val-csv", str(mixed_csv))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ood-eval" in err
    assert ckpt.read_bytes() == model_path.read_bytes()


@pytest.mark.parametrize("flag", ["--val-csv", "--test-csv"])
def test_compare_on_ood_rows_is_data_error(flag, model_path, data_dir, mixed_csv, tmp_path, capsys):
    (tmp_path / "uios.json").write_bytes(model_path.read_bytes())
    csvs = {"--val-csv": str(data_dir / "val.csv"), "--test-csv": str(data_dir / "test.csv")}
    csvs[flag] = str(mixed_csv)
    rc = run(
        "compare",
        "--checkpoint-dir",
        str(tmp_path),
        "--methods",
        "uios",
        *(arg for pair in csvs.items() for arg in pair),
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ood-eval" in err


@pytest.fixture(scope="module")
def wide_dir(tmp_path_factory):
    """A benchmark with 3 features, one more than the models above take."""
    d = tmp_path_factory.mktemp("wide")
    assert run("gen-data", "--out-dir", str(d), "--k", "3", "--dim", "3",
               "--n-per-class", "20", "--ood-n", "20") == 0
    return d


@pytest.mark.parametrize("command", ["eval", "calibrate", "ood-eval", "compare"])
def test_rows_of_another_width_are_data_error(command, calibrated_path, wide_dir, tmp_path, capsys):
    ckpt = tmp_path / "uios.json"
    ckpt.write_bytes(calibrated_path.read_bytes())
    args = {
        "eval": ["--checkpoint", ckpt, "--test-csv", wide_dir / "test.csv"],
        "calibrate": ["--checkpoint", ckpt, "--val-csv", wide_dir / "val.csv"],
        "ood-eval": ["--checkpoint", ckpt, "--ood-csv", wide_dir / "ood_ring.csv"],
        "compare": ["--checkpoint-dir", tmp_path, "--methods", "uios",
                    "--val-csv", wide_dir / "val.csv", "--test-csv", wide_dir / "test.csv"],
    }[command]
    assert run(command, *map(str, args)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: infer:")
    assert "3 features" in err and "input width is 2" in err
    assert ckpt.read_bytes() == calibrated_path.read_bytes()


def test_validation_without_errors_gives_a_theta_that_refers_nothing(tmp_path, capsys):
    # well separated blobs and a fast learning rate: no validation errors
    assert run("gen-data", "--out-dir", str(tmp_path), "--k", "3", "--n-per-class", "60",
               "--sigma", "0.1", "--seed", "1") == 0
    ckpt, val = tmp_path / "uios.json", tmp_path / "val.csv"
    assert run("train", "--train-csv", str(tmp_path / "train.csv"), "--out", str(ckpt),
               "--epochs", "20", "--learning-rate", "1e-2") == 0
    assert run("calibrate", "--checkpoint", str(ckpt), "--val-csv", str(val)) == 0
    assert f"0/{len(load_csv(val))} val errors" in capsys.readouterr().out
    model, _, _, cal = load_checkpoint(ckpt)
    u = predict_records(model, load_csv(val)).uncertainty
    assert cal.n_wrong == 0 and cal.threshold == np.nextafter(u.max(), np.inf)
    report = tmp_path / "eval.json"
    assert run("eval", "--checkpoint", str(ckpt), "--test-csv", str(val),
               "--thresholded", "--report", str(report)) == 0
    assert json.loads(report.read_text())["sections"]["thresholded"]["n_referred"] == 0
    assert run("compare", "--checkpoint-dir", str(tmp_path), "--methods", "uios",
               "--val-csv", str(val), "--test-csv", str(tmp_path / "test.csv")) == 0


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_expected_files(data_dir):
    for name in (
        "train.csv",
        "val.csv",
        "test.csv",
        "ood_far_cluster.csv",
        "ood_ring.csv",
        "manifest.json",
    ):
        assert (data_dir / name).exists(), name


def test_gen_data_manifest_hashes_match(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        assert file_sha256(data_dir / name) == digest, name


def test_gen_data_split_sizes(data_dir):
    tr = load_csv(data_dir / "train.csv")
    va = load_csv(data_dir / "val.csv")
    te = load_csv(data_dir / "test.csv")
    assert (len(tr), len(va), len(te)) == (108, 36, 36)  # 60*3 split 6:2:2
    assert tr.n_classes == 3


def test_gen_data_k_flag_sets_class_count(tmp_path):
    rc = run("gen-data", "--out-dir", str(tmp_path), "--k", "9", "--n-per-class", "10")
    assert rc == 0
    assert load_csv(tmp_path / "train.csv").n_classes == 9


def test_gen_data_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert run("gen-data", "--out-dir", str(d), "--n-per-class", "20", "--seed", "5") == 0
    for name in ("train.csv", "val.csv", "test.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_gen_data_unseen_split(tmp_path):
    rc = run(
        "gen-data",
        "--out-dir",
        str(tmp_path),
        "--n-per-class",
        "20",
        "--unseen-sigma",
        "1.5",
    )
    assert rc == 0
    # the unseen set keeps class labels: same centers, larger spread
    unseen = load_csv(tmp_path / "unseen.csv")
    assert len(unseen) == 100  # 20 per class x 5 default classes, unsplit
    assert unseen.n_classes == 5
    assert np.all(unseen.labels >= 0)


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_log_and_snapshots(model_path):
    model, tc, fingerprint, _ = load_checkpoint(model_path)
    assert tc.epochs == 30 and tc.objective == "tun"
    assert model.config.output_dim == 3
    assert len(fingerprint) == 64  # sha256 of the training csv
    assert len(model.snapshots) == 5
    # one file per model, and its training log
    assert sorted(p.name for p in model_path.parent.iterdir()) == ["model.json", "model.log.jsonl"]


def train_to(out, data_dir, *extra):
    return run("train", "--train-csv", str(data_dir / "train.csv"), "--out", str(out), *extra)


def eval_ensemble(ckpt, data_dir, *extra):
    return run("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
               "--method", "ensemble", *extra)


def test_retrain_to_the_same_path_leaves_no_stale_snapshots(data_dir, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert train_to(out, data_dir, "--epochs", "40", "--snapshot-count", "5") == 0
    assert train_to(out, data_dir, "--epochs", "2", "--snapshot-count", "5") == 0  # one, at epoch 1
    capsys.readouterr()
    assert eval_ensemble(out, data_dir) == 3
    assert "need >= 2 snapshots, got 1" in capsys.readouterr().err


def test_ensemble_scores_a_checkpoint_under_a_glob_pattern_path(data_dir, tmp_path, capsys):
    out = tmp_path / "r[1]" / "standard.json"
    assert train_to(out, data_dir, "--epochs", "10", "--objective", "standard_ce",
                    "--snapshot-count", "5") == 0
    assert eval_ensemble(out, data_dir) == 0
    assert "unthresholded: acc" in capsys.readouterr().out


def test_train_epochs_zero_gives_loadable_checkpoint(data_dir, tmp_path):
    out = tmp_path / "untrained.json"
    rc = run(
        "train",
        "--train-csv",
        str(data_dir / "train.csv"),
        "--out",
        str(out),
        "--epochs",
        "0",
    )
    assert rc == 0
    model, tc, _, _ = load_checkpoint(out)
    assert tc.epochs == 0
    assert model.config.input_dim == 2


def test_train_config_file_and_flag_precedence(data_dir, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\nlearning-rate=0.005\n# comment\n")
    out_file = tmp_path / "file.json"
    rc = run(
        "train",
        "--config",
        str(cfg),
        "--train-csv",
        str(data_dir / "train.csv"),
        "--out",
        str(out_file),
    )
    assert rc == 0
    _, tc, _, _ = load_checkpoint(out_file)
    assert tc.epochs == 2 and tc.learning_rate == 0.005

    out_flag = tmp_path / "flag.json"
    rc = run(
        "train",
        "--config",
        str(cfg),
        "--train-csv",
        str(data_dir / "train.csv"),
        "--out",
        str(out_flag),
        "--epochs",
        "4",
    )
    assert rc == 0
    _, tc, _, _ = load_checkpoint(out_flag)
    assert tc.epochs == 4  # flag beats file
    assert tc.learning_rate == 0.005  # file beats default


def test_unknown_config_key_is_data_error(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp-speed=9\n")
    rc = run(
        "train",
        "--config",
        str(cfg),
        "--train-csv",
        str(data_dir / "train.csv"),
        "--out",
        str(tmp_path / "m.json"),
        "--epochs",
        "1",
    )
    assert rc == 3
    assert "warp_speed" in capsys.readouterr().err


# The options each command resolves when neither flag nor config file sets
# them, and the config file keys it accepts: one key per option that has a
# built-in default.
OPTION_TABLE = {
    "gen-data": dict(classes=5, dim=2, n_per_class=500, sigma=0.9, radius=4.0,
                     ood_kinds="far_cluster,ring", ood_n=500, unseen_sigma=0.0, seed=0),
    "train": dict(objective="tun", epochs=400, learning_rate=1e-4, weight_decay=1e-4,
                  batch_size=64, anneal_epochs=10, hidden="32,32", dropout_rate=0.0,
                  snapshot_count=0, seed=0),
    "calibrate": dict(method="auto", coefficient=2.0, passes=10, jitter_sigma=0.1, seed=0),
    "eval": dict(method="auto", thresholded=False, passes=10, jitter_sigma=0.1, seed=0),
    "ood-eval": dict(bins=10, seed=0),
    "compare": dict(methods="uios,entropy,mc_drop,ensemble,tta", coefficient=2.0, passes=10,
                    jitter_sigma=0.1, seed=0),
}

# A value other than the default for every key of OPTION_TABLE.
CONFIGURED = {
    "gen-data": dict(classes=3, dim=3, n_per_class=40, sigma=1.1, radius=2.5, ood_kinds="ring",
                     ood_n=7, unseen_sigma=1.5, seed=9),
    "train": dict(objective="un", epochs=3, learning_rate=0.01, weight_decay=0.0,
                  batch_size=16, anneal_epochs=2, hidden="8", dropout_rate=0.5,
                  snapshot_count=3, seed=9),
    "calibrate": dict(method="tta", coefficient=1.5, passes=3, jitter_sigma=0.2, seed=9),
    "eval": dict(method="mc_drop", thresholded=True, passes=3, jitter_sigma=0.2, seed=9),
    "ood-eval": dict(bins=4, seed=9),
    "compare": dict(methods="uios,tta", coefficient=3.0, passes=3, jitter_sigma=0.2, seed=9),
}

# Keys a command once took and now rejects: ood-eval scores with theta's own
# method and options.
REMOVED = {"ood-eval": ("method", "passes", "jitter_sigma")}

MINIMAL_ARGV = {
    "gen-data": ["--out-dir", "d"],
    "train": ["--train-csv", "t.csv", "--out", "m.json"],
    "calibrate": ["--checkpoint", "m.json", "--val-csv", "v.csv"],
    "eval": ["--checkpoint", "m.json", "--test-csv", "t.csv"],
    "ood-eval": ["--checkpoint", "m.json", "--ood-csv", "o.csv"],
    "compare": ["--checkpoint-dir", "c", "--val-csv", "v.csv", "--test-csv", "t.csv"],
}


def resolved(monkeypatch, command, *extra):
    """Exit code and the options `command` is called with, without running it."""
    seen = {}
    func = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(cli, func, lambda args: seen.update(vars(args)) or 0)
    rc = run(command, *MINIMAL_ARGV[command], *extra)
    return rc, seen


def typed(options):
    return {k: (type(v), v) for k, v in options.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_option_defaults_are_pinned(command, monkeypatch):
    rc, seen = resolved(monkeypatch, command)
    assert rc == 0
    assert typed({k: seen[k] for k in OPTION_TABLE[command]}) == typed(OPTION_TABLE[command])


@pytest.mark.parametrize("command", COMMANDS)
def test_config_file_sets_every_option(command, monkeypatch, tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in CONFIGURED[command].items()))
    rc, seen = resolved(monkeypatch, command, "--config", str(cfg))
    assert rc == 0
    assert typed({k: seen[k] for k in CONFIGURED[command]}) == typed(CONFIGURED[command])


@pytest.mark.parametrize("command", COMMANDS)
def test_config_file_rejects_every_other_key(command, monkeypatch, tmp_path, capsys):
    _, seen = resolved(monkeypatch, command)
    others = sorted(set(seen) - set(OPTION_TABLE[command]) | set(REMOVED.get(command, ())))
    assert {"command", "config", "func"} <= set(others)
    for key in others:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key}=x\n")
        rc, _ = resolved(monkeypatch, command, "--config", str(cfg))
        assert rc == 3, key
        err = capsys.readouterr().err
        assert err.startswith("error: config: unknown keys") and key in err


def test_every_train_config_field_is_a_train_option_of_the_same_name(monkeypatch, tmp_path):
    # cmd_train builds its TrainConfig from the options by field name
    fields = [f.name for f in dataclasses.fields(TrainConfig)]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in CONFIGURED["train"].items()))
    _, seen = resolved(monkeypatch, "train", "--config", str(cfg))
    assert set(fields) <= set(seen)
    got = TrainConfig(**{k: seen[k] for k in fields})
    assert dataclasses.asdict(got) == {k: CONFIGURED["train"][k] for k in fields}


# ---------------------------------------------------------------------------
# calibrate / eval


def test_calibrate_stores_threshold(calibrated_path, capsys):
    _, _, _, calib = load_checkpoint(calibrated_path)
    assert calib is not None
    assert 0.0 < calib.threshold <= 1.0


def test_eval_thresholded_requires_calibration(data_dir, tmp_path, capsys):
    out = tmp_path / "uncal.json"
    assert (
        run(
            "train",
            "--train-csv",
            str(data_dir / "train.csv"),
            "--out",
            str(out),
            "--epochs",
            "1",
        )
        == 0
    )
    rc = run(
        "eval",
        "--checkpoint",
        str(out),
        "--test-csv",
        str(data_dir / "test.csv"),
        "--thresholded",
    )
    assert rc == 3
    assert "calibrate" in capsys.readouterr().err


def test_eval_prints_accuracy(calibrated_path, data_dir, capsys):
    rc = run(
        "eval",
        "--checkpoint",
        str(calibrated_path),
        "--test-csv",
        str(data_dir / "test.csv"),
    )
    assert rc == 0
    assert "unthresholded: acc" in capsys.readouterr().out


def test_eval_report_is_deterministic(calibrated_path, data_dir, tmp_path, capsys):
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        rc = run(
            "eval",
            "--checkpoint",
            str(calibrated_path),
            "--test-csv",
            str(data_dir / "test.csv"),
            "--thresholded",
            "--report",
            str(path),
        )
        assert rc == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    obj = json.loads(reports[0])
    assert obj["kind"] == "report"
    assert "thresholded" in obj["sections"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ood-eval


def test_ood_eval_reports_rates(calibrated_path, data_dir, tmp_path, capsys):
    report = tmp_path / "ood.json"
    rc = run(
        "ood-eval",
        "--checkpoint",
        str(calibrated_path),
        "--ood-csv",
        str(data_dir / "ood_far_cluster.csv"),
        str(data_dir / "ood_ring.csv"),
        "--report",
        str(report),
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "detection rate" in out
    obj = json.loads(report.read_text())
    files = obj["sections"]["files"]
    assert len(files) == 2
    for sec in files.values():
        assert 0.0 <= sec["detection_rate"] <= 1.0
        assert sum(sec["histogram_counts"]) == sec["n"]


def test_ood_eval_requires_calibration(data_dir, tmp_path, capsys):
    out = tmp_path / "uncal.json"
    assert (
        run(
            "train",
            "--train-csv",
            str(data_dir / "train.csv"),
            "--out",
            str(out),
            "--epochs",
            "1",
        )
        == 0
    )
    rc = run(
        "ood-eval",
        "--checkpoint",
        str(out),
        "--ood-csv",
        str(data_dir / "ood_ring.csv"),
    )
    assert rc == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# compare


def test_compare_lists_missing_artifacts(data_dir, tmp_path, capsys):
    rc = run(
        "compare",
        "--checkpoint-dir",
        str(tmp_path),
        "--val-csv",
        str(data_dir / "val.csv"),
        "--test-csv",
        str(data_dir / "test.csv"),
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "uios.json" in err and "standard.json" in err and "mcdrop.json" in err


@pytest.fixture(scope="module")
def cmp_dir(data_dir, tmp_path_factory):
    """The three checkpoints `compare` reads: tun, standard_ce with its
    snapshots, and standard_ce with dropout."""
    d = tmp_path_factory.mktemp("cmp")
    common = ["--train-csv", str(data_dir / "train.csv"), "--epochs", "25", "--seed", "0"]
    for name, extra in (
        ("uios", ["--objective", "tun"]),
        ("standard", ["--objective", "standard_ce", "--snapshot-count", "5"]),
        ("mcdrop", ["--objective", "standard_ce", "--dropout-rate", "0.25"]),
    ):
        assert run("train", *common, "--out", str(d / f"{name}.json"), *extra) == 0
    return d


def run_compare(cmp_dir, data_dir, *extra):
    return run(
        "compare",
        "--checkpoint-dir",
        str(cmp_dir),
        "--val-csv",
        str(data_dir / "val.csv"),
        "--test-csv",
        str(data_dir / "test.csv"),
        "--ood-csv",
        str(data_dir / "ood_ring.csv"),
        *extra,
    )


def test_calibrate_keeps_the_snapshots_and_the_ensemble_report(
    cmp_dir, data_dir, tmp_path, capsys
):
    ckpt = tmp_path / "standard.json"
    shutil.copyfile(cmp_dir / "standard.json", ckpt)
    before = [s.flat.tobytes() for s in load_checkpoint(ckpt)[0].snapshots]
    assert eval_ensemble(ckpt, data_dir, "--report", str(tmp_path / "r1.json")) == 0
    assert run("calibrate", "--checkpoint", str(ckpt), "--val-csv", str(data_dir / "val.csv"),
               "--method", "ensemble") == 0
    model, _, _, cal = load_checkpoint(ckpt)
    assert cal is not None and len(before) == 5
    assert [s.flat.tobytes() for s in model.snapshots] == before
    assert eval_ensemble(ckpt, data_dir, "--report", str(tmp_path / "r2.json")) == 0
    r1, r2 = (json.loads((tmp_path / r).read_text()) for r in ("r1.json", "r2.json"))
    assert r1["sections"] == r2["sections"]
    capsys.readouterr()


def test_compare_needs_two_snapshots_before_it_scores(
    cmp_dir, data_dir, tmp_path, capsys, monkeypatch
):
    one = tmp_path / "cmp"
    shutil.copytree(cmp_dir, one)
    model, tc, fingerprint, _ = load_checkpoint(one / "standard.json")
    model.snapshots = model.snapshots[:1]
    save_checkpoint(one / "standard.json", model, tc, fingerprint)
    scored = []
    monkeypatch.setattr(baselines, "score_method", lambda *a, **k: scored.append(a))
    assert run_compare(one, data_dir) == 3
    assert "holds 1 snapshots, ensemble needs >= 2" in capsys.readouterr().err
    assert scored == []


# ---------------------------------------------------------------------------
# theta applies to the scoring it was fitted on


def calibrate_copy(cmp_dir, data_dir, artifact, tmp_path, *flags):
    """A copy of a `compare` artifact, calibrated on val.csv with ``flags``."""
    ckpt = tmp_path / f"calibrated_{artifact}"
    shutil.copyfile(cmp_dir / artifact, ckpt)
    assert run("calibrate", "--checkpoint", str(ckpt), "--val-csv", str(data_dir / "val.csv"),
               *flags) == 0
    return ckpt


def test_theta_records_the_method_and_options_it_was_fitted_with(
    cmp_dir, data_dir, tmp_path, capsys
):
    for artifact, flags, scoring in (
        ("standard.json", [], {"method": "entropy"}),
        ("standard.json", ["--method", "tta", "--passes", "4"],
         {"method": "tta", "passes": 4, "jitter_sigma": 0.1}),
        ("mcdrop.json", ["--method", "mc_drop", "--jitter-sigma", "0.3"],
         {"method": "mc_drop", "passes": 10}),
    ):
        ckpt = calibrate_copy(cmp_dir, data_dir, artifact, tmp_path, *flags)
        cal = load_checkpoint(ckpt)[3]
        assert cal.scoring == scoring
        out = capsys.readouterr().out
        assert out.startswith(f"method {scoring['method']}:")
        assert f"; {cal.n_wrong}/" in out and cal.n_wrong > 0


def test_eval_thresholded_refuses_a_method_other_than_theta_s(
    cmp_dir, data_dir, tmp_path, capsys
):
    # an entropy theta (0.1 or so) on tta's u (1e-4 or so) referred no row
    ckpt = calibrate_copy(cmp_dir, data_dir, "standard.json", tmp_path)
    capsys.readouterr()
    before = file_sha256(ckpt)
    report = tmp_path / "eval.json"
    rc = run("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
             "--method", "tta", "--thresholded", "--report", str(report))
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: eval --thresholded: theta was fitted with method entropy")
    assert "scores with method tta" in err
    assert file_sha256(ckpt) == before and not report.exists()
    # without the referral, any method may score
    assert run("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
               "--method", "tta") == 0
    capsys.readouterr()


def test_eval_thresholded_refuses_passes_other_than_theta_s(cmp_dir, data_dir, tmp_path, capsys):
    ckpt = calibrate_copy(cmp_dir, data_dir, "mcdrop.json", tmp_path,
                          "--method", "mc_drop", "--passes", "3")
    capsys.readouterr()
    test = ("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
            "--thresholded")
    assert run(*test) == 3  # auto is theta's mc_drop, at the default 10 passes
    err = capsys.readouterr().err
    assert "theta was fitted with passes 3, this run scores with passes 10" in err
    # an option the method does not read is no conflict
    assert run(*test, "--passes", "3", "--jitter-sigma", "0.5") == 0
    assert "thresholded @" in capsys.readouterr().out


def test_ood_eval_and_auto_eval_score_with_theta_s_method(cmp_dir, data_dir, tmp_path, capsys):
    ckpt = calibrate_copy(cmp_dir, data_dir, "standard.json", tmp_path, "--method", "tta")
    report = tmp_path / "ood.json"
    ring = data_dir / "ood_ring.csv"
    assert run("ood-eval", "--checkpoint", str(ckpt), "--ood-csv", str(ring),
               "--report", str(report), "--seed", "3") == 0
    assert run("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
               "--thresholded", "--report", str(tmp_path / "eval.json")) == 0
    capsys.readouterr()
    model, _, _, cal = load_checkpoint(ckpt)
    u = predict_records(model, load_csv(ring), "tta", passes=10, jitter_sigma=0.1,
                        seed=3).uncertainty
    got = json.loads(report.read_text())["sections"]
    assert got["method"] == "tta" and got["threshold"] == cal.threshold
    assert got["files"][str(ring)]["detection_rate"] == ood_detection_rate(u, cal.threshold)
    assert json.loads((tmp_path / "eval.json").read_text())["sections"]["method"] == "tta"


@pytest.mark.parametrize("flag", ["--method", "--passes", "--jitter-sigma"])
def test_ood_eval_takes_no_scoring_flag(flag, calibrated_path, data_dir, capsys):
    rc = run("ood-eval", "--checkpoint", str(calibrated_path),
             "--ood-csv", str(data_dir / "ood_ring.csv"), flag, "1")
    assert rc == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_a_format_4_checkpoint_asks_for_a_rerun(calibrated_path, data_dir, tmp_path, capsys):
    old = tmp_path / "v4.json"
    obj = json.loads(calibrated_path.read_text())
    obj["format_version"] = 4
    old.write_text(json.dumps(obj))
    rc = run("eval", "--checkpoint", str(old), "--test-csv", str(data_dir / "test.csv"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "format_version 4, this build reads 5" in err
    assert "re-run `evos train` and `evos calibrate`" in err


def test_compare_full_run(cmp_dir, data_dir, tmp_path, capsys):
    report = tmp_path / "compare.json"
    rc = run_compare(cmp_dir, data_dir, "--report", str(report))
    assert rc == 0
    out = capsys.readouterr().out
    for method in ("uios", "entropy", "mc_drop", "ensemble", "tta"):
        assert method in out
    obj = json.loads(report.read_text())
    assert set(obj["sections"]["methods"]) == {
        "uios",
        "entropy",
        "mc_drop",
        "ensemble",
        "tta",
    }
    timing = report.parent / (report.name + ".timing.json")
    assert timing.exists()
    timings = json.loads(timing.read_text())
    assert all(v > 0 for v in timings["ms_per_sample"].values())


@pytest.mark.parametrize("method", baselines.METHODS)
def test_eval_method_reports_the_library_records(method, cmp_dir, data_dir, tmp_path, capsys):
    # the CLI scores through predict_records, with the flags as its keywords
    ckpt = cmp_dir / cli._ARTIFACT_FOR_METHOD[method]
    report = tmp_path / "eval.json"
    flags = ("--passes", "4", "--jitter-sigma", "0.2", "--seed", "3")
    assert run("eval", "--checkpoint", str(ckpt), "--test-csv", str(data_dir / "test.csv"),
               "--method", method, "--report", str(report), *flags) == 0
    capsys.readouterr()
    model = load_checkpoint(ckpt)[0]
    recs = predict_records(model, load_csv(data_dir / "test.csv"), method,
                           passes=4, jitter_sigma=0.2, seed=3)
    got = json.loads(report.read_text())["sections"]
    assert got["method"] == method
    assert json.dumps(got["unthresholded"], sort_keys=True) == json.dumps(
        evaluate(recs).to_dict(), sort_keys=True)


@pytest.mark.parametrize("artifact, method", [("uios.json", "uios"), ("standard.json", "entropy")])
def test_predict_records_auto_is_the_model_s_own_method(artifact, method, cmp_dir, data_dir):
    model = load_checkpoint(cmp_dir / artifact)[0]
    ds = load_csv(data_dir / "test.csv")
    auto, named = predict_records(model, ds), predict_records(model, ds, method)
    for column in ("predicted", "labels", "uncertainty", "probs"):
        assert getattr(auto, column).tobytes() == getattr(named, column).tobytes()


def test_compare_output_does_not_depend_on_the_cpu_count(
    cmp_dir, data_dir, tmp_path, capsys, monkeypatch
):
    reports, tables = [], []
    for cpus in (1, 5):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        report = tmp_path / f"compare{cpus}.json"
        assert run_compare(cmp_dir, data_dir, "--report", str(report)) == 0
        reports.append(report.read_bytes())
        # every column but the last, ms/sample
        tables.append([line.rsplit(None, 1)[0] for line in capsys.readouterr().out.splitlines()])
    assert reports[0] == reports[1]
    assert tables[0] == tables[1] and len(tables[0]) == 6


@pytest.mark.parametrize("cpus", [1, 5])
def test_compare_raises_the_first_failing_method_in_method_order(
    cpus, cmp_dir, data_dir, capsys, monkeypatch
):
    real = baselines.score_method

    def failing(method, *args, **kwargs):
        if method == "ensemble":
            raise DataError("ensemble cannot be scored")
        if method == "tta":
            raise NumericError("tta overflowed")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(baselines, "score_method", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert run_compare(cmp_dir, data_dir) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: ensemble cannot be scored\n"
    assert captured.out == ""


@pytest.mark.parametrize("methods, extra, handed_out", [
    ("uios,entropy,mc_drop,ensemble,tta", [], ["mc_drop", "tta", "ensemble", "uios", "entropy"]),
    ("uios,entropy,mc_drop,ensemble,tta", ["--passes", "3"],
     ["ensemble", "mc_drop", "tta", "uios", "entropy"]),
    ("entropy,tta,uios", [], ["tta", "entropy", "uios"]),
])
def test_compare_hands_out_the_costliest_method_first(
    methods, extra, handed_out, cmp_dir, data_dir, capsys, monkeypatch
):
    # one worker runs the methods in the order they are handed out; the
    # table keeps --methods order.  Costs: passes for mc_drop and tta, the
    # 5 snapshots for ensemble, 1 otherwise
    real, started = baselines.score_method, []

    def recorded(method, *args, **kwargs):
        if method not in started:
            started.append(method)
        return real(method, *args, **kwargs)

    monkeypatch.setattr(baselines, "score_method", recorded)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert run_compare(cmp_dir, data_dir, "--methods", methods, *extra) == 0
    assert started == handed_out
    table = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in table] == methods.split(",")


def test_compare_leaves_no_thread_running(cmp_dir, data_dir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
    before = threading.active_count()
    assert run_compare(cmp_dir, data_dir) == 0
    assert threading.active_count() == before
    capsys.readouterr()


def test_non_finite_standard_logits_are_a_numeric_failure(cmp_dir, data_dir, tmp_path, capsys):
    # a NaN softmax row used to get entropy -0.0: scored as a certain prediction
    broken = tmp_path / "cmp"
    shutil.copytree(cmp_dir, broken)
    model, tc, fingerprint, _ = load_checkpoint(broken / "standard.json")
    model.params.weights[0][0, 0] = np.nan
    save_checkpoint(broken / "standard.json", model, tc, fingerprint)
    rc = run(
        "eval",
        "--checkpoint",
        str(broken / "standard.json"),
        "--test-csv",
        str(data_dir / "test.csv"),
        "--method",
        "entropy",
    )
    assert rc == 4
    assert capsys.readouterr().err == "numeric failure: non-finite logits\n"
    assert run_compare(broken, data_dir) == 4
    assert capsys.readouterr().err == "numeric failure: non-finite logits\n"


@pytest.mark.parametrize("rate", [2**-18, 1.0 - 2**-17])
def test_mc_drop_rate_the_16_bit_cut_cannot_hold_is_data_error(
    rate, cmp_dir, data_dir, tmp_path, capsys
):
    # a rate that rounds to a cut of 0 or 2**16 would drop no unit, or every
    # unit with an infinite scale
    edge = tmp_path / "cmp"
    shutil.copytree(cmp_dir, edge)
    model, tc, fingerprint, _ = load_checkpoint(edge / "mcdrop.json")
    model.config = dataclasses.replace(model.config, dropout_rate=rate)
    save_checkpoint(edge / "mcdrop.json", model, tc, fingerprint)
    rc = run("eval", "--checkpoint", str(edge / "mcdrop.json"),
             "--test-csv", str(data_dir / "test.csv"), "--method", "mc_drop")
    assert rc == 3
    assert f"dropout_rate {rate}" in capsys.readouterr().err
    assert run_compare(edge, data_dir) == 3
    assert f"dropout_rate {rate}" in capsys.readouterr().err


def test_mc_drop_on_a_model_without_dropout_is_data_error(cmp_dir, data_dir, tmp_path, capsys):
    # not scored as entropy under mc_drop's name
    report = tmp_path / "eval.json"
    rc = run("eval", "--checkpoint", str(cmp_dir / "standard.json"),
             "--test-csv", str(data_dir / "test.csv"), "--method", "mc_drop",
             "--report", str(report))
    assert rc == 3
    assert "dropout_rate 0.0 drops no unit" in capsys.readouterr().err
    assert not report.exists()
    plain = tmp_path / "cmp"
    shutil.copytree(cmp_dir, plain)
    shutil.copyfile(cmp_dir / "standard.json", plain / "mcdrop.json")
    assert run_compare(plain, data_dir) == 3
    assert "dropout_rate 0.0 drops no unit" in capsys.readouterr().err


def test_compare_runs_under_the_benchmark_tracer(cmp_dir, data_dir, tmp_path, capsys, monkeypatch):
    # the traced run must not crash or change a byte.  One worker: the tracer
    # starts and stops tracemalloc around each roc_sweep, and a stop while
    # another thread allocates in numpy segfaults CPython 3.11 in about 3 of
    # 100 runs (ROADMAP item 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    reports = [tmp_path / "plain.json", tmp_path / "traced.json"]
    assert run_compare(cmp_dir, data_dir, "--report", str(reports[0])) == 0
    with load_tracer().Tracer() as t:
        assert run_compare(cmp_dir, data_dir, "--report", str(reports[1])) == 0
    capsys.readouterr()
    assert reports[0].read_bytes() == reports[1].read_bytes()
    stats = t.stats()
    for scorer in ("uios", "entropy", "mc_dropout", "ensemble", "tta"):
        assert stats[f"baselines.{scorer}_score.calls"] == 3, scorer  # val, test, ood
    assert stats["calibration.roc_sweep.calls"] == 5
