"""The project's nine acceptance checks.

Each test prints exactly one verdict line of the form

    [acceptance] criterion N: PASS|FAIL (measured values)

before asserting, so a full run always shows the complete scoreboard.
Criteria 6-9 share one fixed-seed benchmark run (seed 42, five
overlapping Gaussian blobs, 500 samples per class, 6:2:2 split, the
tempered evidential objective, default hyperparameters).
"""

import json
import shutil
import time
from types import SimpleNamespace

import numpy as np
import pytest

from evos import baselines
from evos.calibration import calibrate
from evos.checkpoint import file_sha256, load_checkpoint, save_checkpoint
from evos.cli import main as cli_main
from evos.data import load_csv
from evos.head import opinion_from_alpha
from evos.losses import LOSS_KINDS, Schedule, _alpha_loss, per_sample_loss
from evos.metrics import binary_auc
from evos.mlp import MlpConfig, init_params
from evos.numerics import digamma, log_gamma, trigamma
from evos.records import Predictions
from evos.training import TrainConfig, accuracy, predict_records, train
from gradcheck import finite_diff_check, loss_fn_for

LEDGER = "docs/ood.md"


def check(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def sh(*argv):
    rc = cli_main([str(a) for a in argv])
    assert rc == 0, f"command {argv[0]} exited {rc}"


# ---------------------------------------------------------------------------
# shared fixed-seed benchmark (criteria 6-9)


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    run = root / "run"
    model = run / "model.json"
    t0 = time.perf_counter()
    sh("gen-data", "--out-dir", data, "--seed", 42)
    sh(
        "train",
        "--train-csv", data / "train.csv",
        "--val-csv", data / "val.csv",
        "--out", model,
        "--objective", "tun",
        "--epochs", 400,
        "--seed", 42,
    )
    sh("calibrate", "--checkpoint", model, "--val-csv", data / "val.csv")
    sh(
        "eval",
        "--checkpoint", model,
        "--test-csv", data / "test.csv",
        "--thresholded",
        "--report", run / "eval.json",
    )
    sh(
        "ood-eval",
        "--checkpoint", model,
        "--ood-csv", data / "ood_far_cluster.csv", data / "ood_ring.csv",
        "--report", run / "ood.json",
    )
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        data=data,
        run=run,
        model_path=model,
        eval_report=json.loads((run / "eval.json").read_text()),
        ood_report=json.loads((run / "ood.json").read_text()),
        elapsed=elapsed,
    )


@pytest.fixture(scope="session")
def arms(bench, tmp_path_factory):
    """The three training objectives on the same benchmark split, plus the
    comparison artifacts (standard + dropout checkpoints) for criterion 8."""
    tr = load_csv(bench.data / "train.csv")
    va = load_csv(bench.data / "val.csv")
    te = load_csv(bench.data / "test.csv")
    fingerprint = file_sha256(bench.data / "train.csv")
    cmp_dir = tmp_path_factory.mktemp("cmp")

    def arm_metrics(model):
        recs = predict_records(model, va)
        auroc = binary_auc(recs.uncertainty, recs.predicted != recs.labels)
        return {"test_accuracy": accuracy(model, te), "val_auroc": auroc}

    tun_model, _, _, _ = load_checkpoint(bench.model_path)
    metrics = {"tun": arm_metrics(tun_model)}

    net = MlpConfig(input_dim=2, output_dim=5, seed=42)
    results = {}
    for objective in ("un", "standard_ce"):
        cfg = TrainConfig(epochs=400, objective=objective, seed=42, snapshot_count=5)
        results[objective] = train(tr, va, cfg, net)
        metrics[objective] = arm_metrics(results[objective].model)

    # comparison artifacts: uios.json / standard.json (with its snapshots) / mcdrop.json
    shutil.copy(bench.model_path, cmp_dir / "uios.json")
    std = results["standard_ce"]
    save_checkpoint(
        cmp_dir / "standard.json", std.model,
        TrainConfig(epochs=400, objective="standard_ce", seed=42, snapshot_count=5), fingerprint,
    )
    drop_cfg = TrainConfig(epochs=150, objective="standard_ce", seed=42)
    drop_net = MlpConfig(input_dim=2, output_dim=5, dropout_rate=0.25, seed=42)
    drop = train(tr, va, drop_cfg, drop_net)
    save_checkpoint(cmp_dir / "mcdrop.json", drop.model, drop_cfg, fingerprint)

    return SimpleNamespace(
        metrics=metrics,
        cmp_dir=cmp_dir,
        tun_model=tun_model,
        std_model=std.model,
        std_snapshots=std.model.snapshots,
        drop_model=drop.model,
        va=va,
        te=te,
    )


# ---------------------------------------------------------------------------
# criterion 1: opinion algebra


def test_criterion_1_opinion_identities():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_mass, worst_prob = 0.0, 0.0
    total = 0
    ks = list(range(2, 17))
    base = 10_000 // len(ks)
    for k in ks:
        n = base + (10_000 - base * len(ks) if k == ks[-1] else 0)
        evidence = rng.gamma(shape=1.0, scale=10.0, size=(n, k))
        evidence[:: max(n // 7, 1)] = 0.0  # include the zero-evidence corner
        op = opinion_from_alpha(evidence + 1.0)
        mass = np.abs(op.beliefs.sum(axis=-1) + op.uncertainty - 1.0)
        prob = np.abs(op.probs - (op.beliefs + op.uncertainty[..., None] / k))
        worst_mass = max(worst_mass, float(mass.max()))
        worst_prob = max(worst_prob, float(prob.max()))
        total += n
    elapsed = time.perf_counter() - t0
    ok = worst_mass < 1e-9 and worst_prob < 1e-9 and elapsed < 1.0
    assert check(
        "1",
        ok,
        f"{total} opinions, max |sum(b)+u-1| {worst_mass:.1e}, "
        f"max |p-(b+u/K)| {worst_prob:.1e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# criterion 2: special functions


def test_criterion_2_special_function_recurrences():
    rng = np.random.default_rng(2)
    x = np.exp(rng.uniform(np.log(0.1), np.log(50.0), size=100))
    worst = max(
        float(np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x).max()),
        float(np.abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / x**2).max()),
        float(np.abs(log_gamma(x + 1.0) - log_gamma(x) - np.log(x)).max()),
    )
    psi1_err = abs(float(digamma(1.0)) + 0.5772156649)
    ok = worst < 1e-10 and psi1_err < 1e-9
    assert check(
        "2",
        ok,
        f"max recurrence residual {worst:.1e} over 100 points, "
        f"|psi(1)+0.5772156649| = {psi1_err:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 3: gradients through softplus and the network


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    # seeds avoid parameter draws that leave a ReLU pre-activation inside
    # the finite-difference stencil of its kink
    for kind in LOSS_KINDS:
        for seed in (1, 2, 3):
            cfg = MlpConfig(input_dim=3, output_dim=4, hidden_dims=(8, 6), seed=seed)
            params = init_params(cfg)
            x = np.random.default_rng(100 + seed).normal(size=(5, 3))
            err = finite_diff_check(params, x, loss_fn_for(kind), h=1e-5)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert check(
        "3",
        ok,
        f"{len(LOSS_KINDS)} losses x 3 seeds, max relative error {worst:.1e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# criterion 4: loss fixed points


def test_criterion_4_loss_fixed_points():
    # KL to the uniform Dirichlet: the "kl" term with no true class reset
    kl_worst = max(
        abs(float(_alpha_loss("kl", np.ones(k), np.zeros(k), None))) for k in range(2, 17)
    )
    unce_val = float(
        per_sample_loss(
            "unce", np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]), Schedule.for_epoch(0)
        )[0]
    )
    rng = np.random.default_rng(4)
    n = 10_000
    k = 6
    alpha = 1.0 + rng.gamma(1.0, 5.0, size=(n, k))
    y = np.eye(k)[rng.integers(0, k, size=n)]
    vals = per_sample_loss("unce", alpha, y, Schedule.for_epoch(0))
    ok = kl_worst < 1e-12 and abs(unce_val - 1.0) < 1e-10 and float(vals.min()) >= 0.0
    assert check(
        "4",
        ok,
        f"KL at uniform alpha <= {kl_worst:.1e}, "
        f"unce([1,1],[1,0]) = {unce_val:.12f}, "
        f"min unce over {n} draws = {float(vals.min()):.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: threshold selection vs exhaustive search


def _brute_force(u, wrong, coefficient=2.0):
    candidates = np.append(np.unique(u), np.nextafter(u.max(), np.inf))
    best_theta, best_obj = None, -np.inf
    for theta in candidates:
        flag = u >= theta
        tpr = flag[wrong == 1].mean()
        fpr = flag[wrong == 0].mean()
        obj = coefficient * tpr - fpr
        if obj > best_obj or (obj == best_obj and theta > best_theta):
            best_theta, best_obj = theta, obj
    return best_theta, best_obj


def _records(u, wrong) -> Predictions:
    """Records that predict class 0, wrong on the rows where ``wrong`` is 1."""
    n = len(u)
    return Predictions(predicted=np.zeros(n, dtype=np.int64), labels=np.asarray(wrong),
                       uncertainty=np.asarray(u, dtype=float), probs=np.full((n, 2), 0.5))


def test_criterion_5_threshold_matches_brute_force():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(2, 51))
        u = np.round(rng.random(n), 2)  # coarse grid forces ties
        wrong = rng.integers(0, 2, size=n)
        if wrong.min() == wrong.max():
            continue
        cal = calibrate(_records(u, wrong))
        theta, obj = _brute_force(u, wrong)
        assert cal.threshold == pytest.approx(theta), f"trial {trial}"
        assert cal.objective_value == pytest.approx(obj), f"trial {trial}"
        checked += 1

    crafted = calibrate(_records(np.array([0.2, 0.4, 0.6, 0.8]), np.array([0, 0, 1, 1])))
    ok = crafted.threshold == pytest.approx(0.6) and crafted.objective_value == pytest.approx(2.0)
    assert check(
        "5",
        ok,
        f"{checked} random instances match exhaustive search; "
        f"crafted case theta={crafted.threshold:.1f}, objective={crafted.objective_value:.1f}",
    )


# ---------------------------------------------------------------------------
# criterion 6: fixed-seed benchmark


def test_criterion_6a_test_accuracy(bench):
    acc = bench.eval_report["sections"]["unthresholded"]["accuracy"]
    assert check("6a", acc >= 0.85, f"test accuracy {acc:.4f} >= 0.85"), acc


def test_criterion_6b_error_detector_auroc(bench):
    model, _, _, _ = load_checkpoint(bench.model_path)
    va = load_csv(bench.data / "val.csv")
    recs = predict_records(model, va)
    auroc = binary_auc(recs.uncertainty, recs.predicted != recs.labels)
    assert check(
        "6b", auroc >= 0.70, f"validation wrong-prediction AUROC {auroc:.4f} >= 0.70"
    ), auroc


def test_criterion_6c_thresholding_helps(bench):
    sections = bench.eval_report["sections"]
    base = sections["unthresholded"]["per_class"]["macro_f1"]
    kept = sections["thresholded"]["per_class"]["macro_f1"]
    assert check(
        "6c",
        kept >= base,
        f"macro-F1 {base:.4f} -> {kept:.4f} after referring uncertain samples",
    ), (base, kept)


def _rates_by_kind(bench):
    rates = {}
    for path, sec in bench.ood_report["sections"]["files"].items():
        if "far_cluster" in path:
            rates["far_cluster"] = sec["detection_rate"]
        elif "ring" in path:
            rates["ring"] = sec["detection_rate"]
    return rates


def test_criterion_6d_ood_detection_rates(bench):
    rates = _rates_by_kind(bench)
    far, ring = rates["far_cluster"], rates["ring"]
    ok = far >= 0.90 and ring >= 0.80
    check("6d", ok, f"detection rate far_cluster {far:.4f} (floor 0.90), ring {ring:.4f} (floor 0.80)")
    assert ok, (
        f"OOD detection floors not met: far_cluster {far:.4f} < 0.90, ring {ring:.4f} < 0.80. "
        "This trained network's uncertainty shrinks rather than grows with distance from the "
        f"training data, so remote outliers are scored confidently; see {LEDGER}."
    )


def test_criterion_6e_ood_uncertainty_exceeds_id(bench):
    model, _, _, _ = load_checkpoint(bench.model_path)
    te = load_csv(bench.data / "test.csv")
    u_id = float(predict_records(model, te).uncertainty.mean())
    u_ood_parts = []
    for name in ("ood_far_cluster.csv", "ood_ring.csv"):
        ds = load_csv(bench.data / name)
        u_ood_parts.append(predict_records(model, ds).uncertainty)
    u_ood = float(np.concatenate(u_ood_parts).mean())
    ok = u_ood > u_id
    check("6e", ok, f"mean u OOD {u_ood:.4f} vs ID test {u_id:.4f}")
    assert ok, (
        f"mean uncertainty on OOD ({u_ood:.4f}) does not exceed mean uncertainty on "
        f"in-distribution test data ({u_id:.4f}): far-away inputs drive one class's "
        f"evidence high, which lowers the uncertainty score; see {LEDGER}."
    )


def test_criterion_6_runtime(bench):
    assert check(
        "6 runtime", bench.elapsed < 120.0, f"benchmark pipeline took {bench.elapsed:.1f} s < 120 s"
    ), bench.elapsed


# ---------------------------------------------------------------------------
# criterion 7: objective ablation


def test_criterion_7_objective_ablation(arms):
    m = arms.metrics
    detail = " | ".join(
        f"{arm}: acc {m[arm]['test_accuracy']:.4f}, val AUROC {m[arm]['val_auroc']:.4f}"
        for arm in ("standard_ce", "un", "tun")
    )
    ok = (
        m["tun"]["val_auroc"] >= m["un"]["val_auroc"]
        and m["tun"]["test_accuracy"] >= 0.85
        and m["un"]["test_accuracy"] >= 0.85
    )
    assert check("7", ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 8: baseline parity and relative cost


def test_criterion_8_baseline_parity(arms, capsys):
    va = arms.va
    problems = []
    scorers = {
        "entropy": lambda: baselines.entropy_score(arms.std_model, va.features),
        "mc_drop": lambda: baselines.mc_dropout_score(arms.drop_model, va.features, seed=0),
        "ensemble": lambda: baselines.ensemble_score(
            arms.std_model, arms.std_snapshots, va.features
        ),
        "tta": lambda: baselines.tta_score(arms.std_model, va.features, seed=0),
    }
    for name, fn in scorers.items():
        probs, u = fn()
        if not np.all((u >= 0.0) & (u <= 1.0)):
            problems.append(f"{name} u outside [0,1]")
            continue
        preds = Predictions(
            predicted=np.argmax(probs, axis=1),
            labels=va.labels,
            uncertainty=u,
            probs=probs,
        )
        try:
            cal = calibrate(preds)
        except Exception as e:  # the parity claim is "calibrates without error"
            problems.append(f"{name} calibration failed: {e}")
            continue
        if not (0.0 < cal.threshold <= 1.0):
            problems.append(f"{name} threshold {cal.threshold}")

    rc = cli_main(
        [
            "compare",
            "--checkpoint-dir", str(arms.cmp_dir),
            "--val-csv", str(arms.va.meta["path"]),
            "--test-csv", str(arms.te.meta["path"]),
        ]
    )
    out = capsys.readouterr().out
    if rc != 0:
        problems.append(f"compare exited {rc}")
    for name in baselines.METHODS:
        if name not in out:
            problems.append(f"{name} missing from compare output")

    # relative cost: one forward pass vs ten stochastic passes
    x = arms.te.features

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_uios = best_of(lambda: baselines.uios_score(arms.tun_model, x))
    t_mc = best_of(lambda: baselines.mc_dropout_score(arms.drop_model, x, passes=10, seed=0))
    if not t_uios < t_mc:
        problems.append(f"single-pass scoring ({t_uios:.4f} s) not faster than 10-pass ({t_mc:.4f} s)")

    ok = not problems
    assert check(
        "8",
        ok,
        "all four baselines bounded and calibratable, compare lists all methods, "
        f"per-sample cost {t_uios / len(x) * 1e3:.4f} ms vs mc_drop {t_mc / len(x) * 1e3:.4f} ms"
        if ok
        else "; ".join(problems),
    ), problems


# ---------------------------------------------------------------------------
# criterion 9: bytewise determinism


def test_criterion_9_reruns_are_byte_identical(bench, arms, tmp_path):
    diffs = []

    def same(a, b, label):
        if a.read_bytes() != b.read_bytes():
            diffs.append(label)

    data2 = tmp_path / "data2"
    sh("gen-data", "--out-dir", data2, "--seed", 42)
    for name in (
        "train.csv", "val.csv", "test.csv",
        "ood_far_cluster.csv", "ood_ring.csv", "manifest.json",
    ):
        same(bench.data / name, data2 / name, f"gen-data {name}")

    for run_dir in (tmp_path / "t1", tmp_path / "t2"):
        sh(
            "train",
            "--train-csv", bench.data / "train.csv",
            "--out", run_dir / "model.json",
            "--epochs", 60,
            "--seed", 0,
            "--snapshot-count", 5,
        )
    # model.json holds the five snapshots too
    for name in ("model.json", "model.log.jsonl"):
        same(tmp_path / "t1" / name, tmp_path / "t2" / name, f"train {name}")

    for i in (1, 2):
        sh(
            "eval",
            "--checkpoint", bench.model_path,
            "--test-csv", bench.data / "test.csv",
            "--thresholded",
            "--report", tmp_path / f"eval{i}.json",
        )
        sh(
            "ood-eval",
            "--checkpoint", bench.model_path,
            "--ood-csv", bench.data / "ood_ring.csv",
            "--report", tmp_path / f"ood{i}.json",
        )
        sh(
            "compare",
            "--checkpoint-dir", arms.cmp_dir,
            "--val-csv", bench.data / "val.csv",
            "--test-csv", bench.data / "test.csv",
            "--report", tmp_path / f"cmp{i}.json",
        )
    same(tmp_path / "eval1.json", tmp_path / "eval2.json", "eval report")
    same(tmp_path / "ood1.json", tmp_path / "ood2.json", "ood-eval report")
    same(tmp_path / "cmp1.json", tmp_path / "cmp2.json", "compare report")

    ok = not diffs
    assert check(
        "9",
        ok,
        "gen-data, train, eval, ood-eval and compare reruns byte-identical"
        if ok
        else "differs: " + ", ".join(diffs),
    ), diffs
