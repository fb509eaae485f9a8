"""The three workloads: set-up, one timed pass, and the checks of the outputs.

Each workload makes its inputs from its seed and hands evos only the
generated files or arrays.  ``setup()`` returns its training measurements,
``run_pass()`` a ``Pass``, and ``check(passes)`` raises ``CheckFailed`` unless
every output matches a computation made apart from the program (see
``oracles``) or a property the method must have.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from evos import baselines, calibration, cli, data, metrics, mlp, training
from evos.checkpoint import load_checkpoint

OOD_KINDS = ("far_cluster", "ring", "uniform_box")
TOL = 1e-12  # agreement asked of every floating-point recomputation


class CheckFailed(Exception):
    """An output disagrees with its independent computation."""


class OperationFailed(Exception):
    """A command of the program exited with a code other than 0."""


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def evos(*argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise OperationFailed(f"evos {argv[0]} exited with {rc}")


@dataclass
class Pass:
    """What one timed pass measured and produced."""

    run_s: float
    ops: int
    digest: str  # sha256 of every output the pass wrote or returned
    quality: dict[str, float]
    calibrate_s: list[float] = field(default_factory=list)
    screen: list[tuple[int, float]] = field(default_factory=list)  # (rows, seconds)
    train: list[tuple[int, float]] = field(default_factory=list)  # (rows x epochs, seconds)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths, key=str):
        h.update(Path(p).name.encode() + b"\0" + Path(p).read_bytes())
    return h.hexdigest()


def _roc_area(tpr, fpr) -> float:
    """Area under a ROC sweep given at ascending thresholds."""
    tpr, fpr = np.asarray(tpr), np.asarray(fpr)
    return float(np.sum((fpr[:-1] - fpr[1:]) * (tpr[:-1] + tpr[1:]) / 2.0))


def _rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


CAL_PER_CLASS = 500  # 2,500 calibration rows: enough validation errors on every seed


def _write_cal(path: Path, seed: int) -> None:
    """The calibration CSV of reference and compare: gen-data's class layout,
    five times the rows of its val.csv, on which a well-trained model can
    make no error at all for some seeds (and ``evos calibrate`` then exits 3)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data.save_csv(data.gen_blobs(n_per_class=CAL_PER_CLASS, seed=seed + 5, name="cal"), path)


def _write_big_sets(out: Path, seed: int, n_per_class: int, n_ood: int) -> None:
    """A test CSV and one CSV per OOD kind, on gen-data's default class layout."""
    out.mkdir(parents=True, exist_ok=True)
    data.save_csv(data.gen_blobs(n_per_class=n_per_class, seed=seed + 2, name="test"),
                  out / "test.csv")
    for i, kind in enumerate(OOD_KINDS):
        data.save_csv(data.gen_ood(kind, n=n_ood, seed=seed + 2000 + i),
                      out / f"ood_{kind}.csv")


def _timed_train(*argv) -> tuple[int, float]:
    """Run ``evos train``; returns (training rows x epochs, seconds)."""
    args = dict(zip(argv[::2], argv[1::2]))
    t0 = time.perf_counter()
    evos("train", *argv)
    seconds = time.perf_counter() - t0
    return _rows(args["--train-csv"]) * int(args["--epochs"]), seconds


# ---------------------------------------------------------------------------
# the CLI tail shared by reference and compare: calibrate -> eval x2 -> ood-eval


@dataclass
class CliTail:
    """calibrate, eval (test and unseen) and ood-eval on one checkpoint;
    ``val`` is the CSV that calibrate fits theta on (``--val-csv``)."""

    ckpt: Path
    val: Path
    test: Path
    unseen: Path
    oods: list[Path]
    out: Path
    seed: int

    @property
    def reports(self) -> list[Path]:
        return [self.out / "eval_test.json", self.out / "eval_unseen.json", self.out / "ood.json"]

    def run(self, p: Pass) -> tuple[float, float]:
        """Runs the four commands; returns the seconds until theta was
        written and until the end."""
        t0 = time.perf_counter()
        evos("calibrate", "--checkpoint", self.ckpt, "--val-csv", self.val, "--seed", self.seed)
        t1 = time.perf_counter()
        for csv_path, report in zip((self.test, self.unseen), self.reports):
            evos("eval", "--checkpoint", self.ckpt, "--test-csv", csv_path, "--thresholded",
                 "--report", report, "--seed", self.seed)
        evos("ood-eval", "--checkpoint", self.ckpt, "--ood-csv", *self.oods,
             "--report", self.reports[2], "--seed", self.seed)
        p.ops += 4
        return t1 - t0, time.perf_counter() - t0

    def quality(self) -> dict[str, float]:
        test, unseen, ood = (json.loads(r.read_text())["sections"] for r in self.reports)
        cal = json.loads(self.ckpt.read_text())["calibration"]
        files = ood["files"].values()
        return {
            "thresholded_macro_f1": test["thresholded"]["per_class"]["macro_f1"],
            "unseen_macro_f1": unseen["thresholded"]["per_class"]["macro_f1"],
            "ood_detection_rate": sum(f["detection_rate"] * f["n"] for f in files)
            / sum(f["n"] for f in files),
            "val_error_auroc": _roc_area(cal["tpr"], cal["fpr"]),
        }

    def check(self, quality: dict) -> dict[str, np.ndarray]:
        """Check the tail's checkpoint and reports; returns u of each file."""
        model, _, _, _ = load_checkpoint(self.ckpt)
        ck = oracles.read_checkpoint(self.ckpt)
        theta = ck["calibration"]["threshold"]
        u = {}
        for path in (self.val, self.test, self.unseen, *self.oods):
            x, y = oracles.read_csv(path)
            u[path], predicted = check_uios(model, ck, x, path.name)
            if path == self.val:
                wrong = predicted != y
                check(oracles.select_threshold(u[path], wrong) == theta,
                      f"theta {theta} is not the maximiser of 2 TPR - FPR")
                check(abs(quality["val_error_auroc"] - oracles.pairwise_auc(u[path], wrong))
                      <= TOL, "validation error-AUROC")
            elif path in (self.test, self.unseen):
                report_path = self.reports[0] if path == self.test else self.reports[1]
                report = json.loads(report_path.read_text())["sections"]
                check_report(report["unthresholded"], y, predicted, None, path.name)
                check_report(report["thresholded"], y, predicted, u[path] < theta, path.name)
        files = json.loads(self.reports[2].read_text())["sections"]["files"]
        for path in self.oods:
            got = files[str(path)]
            check(got["detection_rate"] == oracles.detection_rate(u[path], theta),
                  f"{path.name}: detection rate")
            check(abs(got["mean_uncertainty"] - u[path].mean()) <= TOL,
                  f"{path.name}: mean uncertainty")
        pooled = np.concatenate([u[p] for p in self.oods])
        check(abs(quality["ood_detection_rate"] - oracles.detection_rate(pooled, theta)) <= TOL,
              "pooled OOD detection rate")
        return u


def check_uios(model, ck: dict, x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """uios scores of the program against the oracle, and the opinion identities.

    Returns (u, predicted class) as the program computes them.
    """
    probs, u = baselines.score_method("uios", model, x)
    probs_o, u_o = oracles.uios_forward(ck["weights"], ck["biases"], ck["gate"], x)
    check(np.max(np.abs(probs - probs_o)) <= TOL, f"{what}: uios probs differ from the oracle")
    check(np.max(np.abs(u - u_o)) <= TOL, f"{what}: uios u differs from the oracle")
    check_opinion(model, x, what)
    return u, np.argmax(probs, axis=1)


def check_opinion(model, x: np.ndarray, what: str) -> None:
    op = training.predict(model, x)
    k = op.beliefs.shape[1]
    check(np.max(np.abs(op.beliefs.sum(axis=1) + op.uncertainty - 1.0)) <= TOL,
          f"{what}: sum(b) + u != 1")
    check(np.max(np.abs(op.probs - (op.beliefs + op.uncertainty[:, None] / k))) <= TOL,
          f"{what}: p != b + u/K")


def check_report(rep: dict, labels, predicted, kept, what: str) -> None:
    """A MetricReport dict against macro-F1 and accuracy from confusion counts."""
    if kept is None:
        kept = np.ones(len(labels), dtype=bool)
    check(rep["n_referred"] == int(np.count_nonzero(~kept)), f"{what}: referred count")
    cm = oracles.confusion(labels[kept], predicted[kept], len(rep["confusion"]))
    check(rep["confusion"] == cm.tolist(), f"{what}: confusion matrix")
    f1, acc = oracles.macro_f1_accuracy(cm)
    check(abs(rep["per_class"]["macro_f1"] - f1) <= TOL, f"{what}: macro-F1")
    check(abs(rep["accuracy"] - acc) <= TOL, f"{what}: accuracy")


def check_same_outputs(passes: list[Pass]) -> None:
    check(len({p.digest for p in passes}) == 1, "passes of one run wrote different outputs")


# ---------------------------------------------------------------------------


class Reference:
    """The README's pipeline, in process through ``evos.cli.main``: gen-data
    (set-up), then train -> calibrate -> eval test -> eval unseen -> ood-eval,
    with theta fitted on the 2,500-row calibration CSV instead of val.csv.

    Its calibrate and screening stages take a few hundredths of a second, too
    short to time steadily on their own, so here ``calibrate_s`` is the time
    from the start of the pass until theta is written and the screening rate
    is taken over the whole pass: both are set by training, as the workload
    is."""

    min_passes = 1
    EPOCHS = 400

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.data = work / "data"
        self.run = work / "run"
        d = self.data
        self.tail = CliTail(
            ckpt=self.run / "model.json", val=d / "cal.csv", test=d / "test.csv",
            unseen=d / "unseen.csv", oods=[d / f"ood_{k}.csv" for k in OOD_KINDS],
            out=self.run, seed=seed,
        )

    def setup(self) -> list[tuple[int, float]]:
        evos("gen-data", "--out-dir", self.data, "--seed", self.seed,
             "--ood-kinds", ",".join(OOD_KINDS), "--unseen-sigma", 1.5)
        _write_cal(self.tail.val, self.seed)
        return []

    def run_pass(self) -> Pass:
        p = Pass(run_s=0.0, ops=1, digest="", quality={})
        t0 = time.perf_counter()
        p.train.append(_timed_train(
            "--train-csv", self.data / "train.csv", "--val-csv", self.data / "val.csv",
            "--out", self.tail.ckpt, "--objective", "tun", "--epochs", self.EPOCHS,
            "--seed", self.seed))
        trained = time.perf_counter() - t0
        calibrated, end = self.tail.run(p)
        p.run_s = trained + end
        p.calibrate_s.append(trained + calibrated)
        screened = sum(_rows(f) for f in (self.tail.test, self.tail.unseen, *self.tail.oods))
        p.screen.append((screened, p.run_s))
        p.digest = _digest_files(self.run.iterdir())
        p.quality = self.tail.quality()
        return p

    def check(self, passes: list[Pass]) -> None:
        check_same_outputs(passes)
        u = self.tail.check(passes[-1].quality)
        files = json.loads(self.tail.reports[2].read_text())["sections"]["files"]
        rate = {k: files[str(self.data / f"ood_{k}.csv")]["detection_rate"] for k in OOD_KINDS}
        check(rate["far_cluster"] >= 0.90, f"far_cluster detection {rate['far_cluster']} < 0.90")
        check(rate["ring"] >= 0.80, f"ring detection {rate['ring']} < 0.80")
        u_ood = np.concatenate([u[p] for p in self.tail.oods]).mean()
        check(u_ood > u[self.tail.test].mean(), "mean OOD u does not exceed mean ID u")

    def weights_sha256(self) -> str:
        ck = oracles.read_checkpoint(self.tail.ckpt)
        return hashlib.sha256(
            b"".join(a.astype("<f8").tobytes() for a in (*ck["weights"], *ck["biases"]))
        ).hexdigest()


class Screen:
    """A tun model trained in set-up screens a large generated batch through
    the library: fit theta on a calibration set, then score, refer and report."""

    min_passes = 2
    EPOCHS = 80
    LEARNING_RATE = 1e-3
    CAL_PER_CLASS = 2_000  # 10k calibration rows
    ID_PER_CLASS = 30_000  # 150k labelled rows, sigma 0.9
    UNSEEN_PER_CLASS = 4_000  # 20k labelled rows, sigma 1.5
    OOD_PER_KIND = 10_000  # 30k OOD rows

    def __init__(self, work: Path, seed: int):
        self.seed = seed

    def setup(self) -> list[tuple[int, float]]:
        s = self.seed
        base = data.gen_blobs(seed=s)
        train_set, val_set, _ = data.split_622(base, seed=s)
        centers = np.asarray(base.meta["centers"])
        self.cal = data.gen_blobs(n_per_class=self.CAL_PER_CLASS, seed=s + 1)
        parts = [
            data.gen_blobs(n_per_class=self.ID_PER_CLASS, seed=s + 2),
            data.gen_blobs(n_per_class=self.UNSEEN_PER_CLASS, sigma=1.5, seed=s + 3),
            *(data.gen_ood(k, n=self.OOD_PER_KIND, centers=centers, seed=s + 2000 + i)
              for i, k in enumerate(OOD_KINDS)),
        ]
        part = np.repeat([0, 1, 2, 2, 2], [len(d) for d in parts])
        self.batch = data.Dataset(
            features=np.concatenate([d.features for d in parts]),
            labels=np.concatenate([d.labels for d in parts]),
            n_classes=base.n_classes,
        )
        self.is_id, self.is_unseen, self.is_ood = (part == 0), (part == 1), (part == 2)
        cfg = training.TrainConfig(epochs=self.EPOCHS, learning_rate=self.LEARNING_RATE, seed=s)
        net = mlp.MlpConfig(input_dim=base.dim, output_dim=base.n_classes, seed=s)
        t0 = time.perf_counter()
        self.model = training.train(train_set, val_set, cfg, net).model
        return [(len(train_set) * self.EPOCHS, time.perf_counter() - t0)]

    def run_pass(self) -> Pass:
        model = self.model
        t0 = time.perf_counter()
        cal_recs = training.predict_records(model, self.cal)
        cal = calibration.calibrate(cal_recs)
        t1 = time.perf_counter()
        recs = training.predict_records(model, self.batch)
        rep = metrics.evaluate(recs.subset(self.is_id), cal.threshold)
        rep_u = metrics.evaluate(recs.subset(self.is_unseen), cal.threshold)
        rate = metrics.ood_detection_rate(recs.uncertainty[self.is_ood], cal.threshold)
        t2 = time.perf_counter()
        self.out = (cal_recs, cal, recs, rep.to_dict(), rep_u.to_dict(), rate)
        h = hashlib.sha256(json.dumps(
            [cal.to_dict(), self.out[3], self.out[4], rate], sort_keys=True).encode())
        for arr in (cal_recs.uncertainty, cal_recs.probs, recs.uncertainty, recs.probs):
            h.update(arr.tobytes())
        return Pass(
            run_s=t2 - t0, ops=6, digest=h.hexdigest(),
            quality={
                "thresholded_macro_f1": rep.per_class.macro_f1,
                "unseen_macro_f1": rep_u.per_class.macro_f1,
                "ood_detection_rate": rate,
                "val_error_auroc": _roc_area(cal.tpr, cal.fpr),
            },
            calibrate_s=[t1 - t0], screen=[(len(self.batch), t2 - t1)],
        )

    def check(self, passes: list[Pass]) -> None:
        check_same_outputs(passes)
        cal_recs, cal, recs, rep, rep_u, rate = self.out
        model = self.model
        gate = None if model.gate is None else (model.gate.means, model.gate.scale,
                                                model.gate.onset)
        for name, ds, r in (("calibration set", self.cal, cal_recs),
                            ("screened batch", self.batch, recs)):
            probs_o, u_o = oracles.uios_forward(model.params.weights, model.params.biases,
                                                gate, ds.features)
            check(np.max(np.abs(r.probs - probs_o)) <= TOL, f"{name}: probs differ from oracle")
            check(np.max(np.abs(r.uncertainty - u_o)) <= TOL, f"{name}: u differs from oracle")
            check_opinion(model, ds.features, name)
        wrong = cal_recs.predicted != cal_recs.labels
        check(oracles.select_threshold(cal_recs.uncertainty, wrong) == cal.threshold,
              "theta is not the maximiser of 2 TPR - FPR")
        check(abs(passes[-1].quality["val_error_auroc"]
                  - oracles.pairwise_auc(cal_recs.uncertainty, wrong)) <= TOL,
              "calibration error-AUROC")
        kept = recs.uncertainty < cal.threshold
        for name, mask, report in (("labelled rows", self.is_id, rep),
                                   ("unseen rows", self.is_unseen, rep_u)):
            check_report(report, recs.labels[mask], recs.predicted[mask], kept[mask], name)
        check(rate == oracles.detection_rate(recs.uncertainty[self.is_ood], cal.threshold),
              "OOD detection rate")


class Compare:
    """Three checkpoints trained in set-up (tun; standard_ce with 5 snapshots;
    standard_ce with dropout 0.25), then ``evos compare`` with all five methods
    on the calibration CSV and large test and OOD CSVs; its screening rate
    counts every row each method scores.  Each pass then runs the
    calibrate/eval/ood-eval tail on a fresh copy of the tun checkpoint, which
    gives the workload's quality figures.  ``calibrate_s`` runs until the
    tail's theta is written: ``compare`` fits one theta per method, and the
    tail's own calibrate is too short to time steadily alone."""

    min_passes = 2
    EPOCHS = 40
    LEARNING_RATE = 1e-3
    TEST_PER_CLASS = 2_000  # 10k test rows
    OOD_PER_KIND = 10_000  # 30k OOD rows

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.data, self.big = work / "data", work / "big"
        self.cmp, self.run = work / "cmp", work / "run"
        self.report = self.run / "compare.json"
        self.tail = CliTail(
            ckpt=work / "tail" / "model.json", val=self.data / "cal.csv",
            test=self.big / "test.csv", unseen=self.data / "unseen.csv",
            oods=[self.big / f"ood_{k}.csv" for k in OOD_KINDS], out=work / "tail",
            seed=seed,
        )

    def setup(self) -> list[tuple[int, float]]:
        s = self.seed
        evos("gen-data", "--out-dir", self.data, "--seed", s,
             "--ood-kinds", ",".join(OOD_KINDS), "--unseen-sigma", 1.5)
        _write_cal(self.tail.val, s)
        _write_big_sets(self.big, s, self.TEST_PER_CLASS, self.OOD_PER_KIND)
        common = ["--train-csv", self.data / "train.csv", "--val-csv", self.data / "val.csv",
                  "--epochs", self.EPOCHS, "--learning-rate", self.LEARNING_RATE, "--seed", s]
        trainings = [
            _timed_train(*common, "--out", self.cmp / "uios.json", "--objective", "tun"),
            _timed_train(*common, "--out", self.cmp / "standard.json",
                         "--objective", "standard_ce", "--snapshot-count", 5),
            _timed_train(*common, "--out", self.cmp / "mcdrop.json",
                         "--objective", "standard_ce", "--dropout-rate", 0.25),
        ]
        self.tail.out.mkdir(parents=True, exist_ok=True)
        self.run.mkdir(parents=True, exist_ok=True)
        return [(sum(r for r, _ in trainings), sum(t for _, t in trainings))]

    def run_pass(self) -> Pass:
        csvs = [self.tail.val, self.tail.test, *self.tail.oods]
        t0 = time.perf_counter()
        evos("compare", "--checkpoint-dir", self.cmp, "--val-csv", self.tail.val,
             "--test-csv", self.tail.test, "--ood-csv", *self.tail.oods,
             "--report", self.report, "--seed", self.seed)
        p = Pass(run_s=time.perf_counter() - t0, ops=1, digest="", quality={})
        p.screen.append((len(baselines.METHODS) * sum(_rows(f) for f in csvs), p.run_s))
        shutil.copyfile(self.cmp / "uios.json", self.tail.ckpt)
        calibrated, _ = self.tail.run(p)
        p.calibrate_s.append(p.run_s + calibrated)
        p.digest = _digest_files([self.report, *self.tail.reports, self.tail.ckpt])
        p.quality = self.tail.quality()
        return p

    def check(self, passes: list[Pass]) -> None:
        check_same_outputs(passes)
        self.tail.check(passes[-1].quality)
        rows = json.loads(self.report.read_text())["sections"]["methods"]
        check(sorted(rows) == sorted(baselines.METHODS), "compare left out a method")
        x_val, y_val = oracles.read_csv(self.tail.val)
        x_test, y_test = oracles.read_csv(self.tail.test)
        oods = [oracles.read_csv(p)[0] for p in self.tail.oods]
        for method, row in rows.items():
            ckpt = self.cmp / cli._ARTIFACT_FOR_METHOD[method]
            model, _, _, _ = load_checkpoint(ckpt)
            snapshots = cli._load_snapshots(str(ckpt)) if method == "ensemble" else None

            def score(x):
                probs, u = baselines.score_method(
                    method, model, x, snapshots=snapshots, seed=self.seed,
                    passes=baselines.DEFAULT_PASSES,
                    jitter_sigma=baselines.DEFAULT_JITTER_SIGMA)
                check(np.all((u >= 0.0) & (u <= 1.0)), f"{method}: u outside [0, 1]")
                return u, np.argmax(probs, axis=1)

            u_val, pred_val = score(x_val)
            u_test, pred_test = score(x_test)
            u_ood = np.concatenate([score(x)[0] for x in oods])
            theta = oracles.select_threshold(u_val, pred_val != y_val)
            check(row["threshold"] == theta, f"{method}: theta")
            cm = oracles.confusion(y_test, pred_test, model.config.output_dim)
            f1, acc = oracles.macro_f1_accuracy(cm)
            check(abs(row["macro_f1"] - f1) <= TOL, f"{method}: macro-F1")
            check(abs(row["accuracy"] - acc) <= TOL, f"{method}: accuracy")
            check(row["ood_detection_rate"] == oracles.detection_rate(u_ood, theta),
                  f"{method}: OOD detection rate")
            if method == "uios":
                ck = oracles.read_checkpoint(ckpt)
                for name, x in (("val", x_val), ("test", x_test), ("ood", np.concatenate(oods))):
                    check_uios(model, ck, x, f"compare {name}")


WORKLOADS = {"reference": Reference, "screen": Screen, "compare": Compare}
