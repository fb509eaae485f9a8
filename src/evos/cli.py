"""Command-line workbench.

Subcommands: gen-data, train, calibrate, eval, ood-eval, compare.

Every command takes --seed (default 0, fixed; never wall-clock) and
--config FILE with key=value lines providing defaults that explicit flags
override.  Exit codes: 0 success, 2 usage error, 3 data or config error
(an option value the library rejects included), 4 numeric failure.  All
outputs are deterministic given (flags, seed, input files); the one
inherently non-reproducible quantity, the scoring time in ``compare``, goes
to stdout and a ``.timing.json`` sidecar, never into report files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines, mlp
from .calibration import calibrate
from .checkpoint import file_sha256, load_checkpoint, save_checkpoint, save_report, write_json
from .data import OOD_LABEL, gen_blobs, gen_ood, load_csv, save_csv, split_622
from .errors import DataError, NumericError
from .metrics import evaluate, ood_detection_rate
from .training import OBJECTIVES, TrainConfig, predict_records, train

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# config-file handling: key=value lines, '#' comments; flags beat file values


def _load_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise DataError(f"{path}: no such config file") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _coerce(key: str, raw: str, like):
    """``raw`` as the type of the default ``like``; DataError naming the key."""
    if isinstance(like, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
    else:
        try:
            return type(like)(raw)
        except ValueError:
            pass
    raise DataError(f"config: {key}: cannot parse {raw!r} as {type(like).__name__}")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise DataError(f"--hidden: cannot parse {text!r} (want e.g. 32,32)") from None
    if not dims:
        raise DataError("--hidden: empty layer list")
    return dims


# perfbench/workloads.py reads a checkpoint's ensemble members through this
def _load_snapshots(ckpt_path: str) -> list[mlp.MlpParams]:
    return load_checkpoint(ckpt_path)[0].snapshots


def _load_labelled(path, name: str):
    """Load a validation or test CSV, whose rows must all carry a class."""
    ds = load_csv(path, name=name)
    if np.any(ds.labels == OOD_LABEL):
        raise DataError(
            f"{name}: {path} has OOD rows, which have no class to score; "
            "use `evos ood-eval` for them"
        )
    return ds


def _scoring(args, method: str) -> dict:
    """A resolved ``method`` and the options of ``args`` that set its u: what
    a calibrated theta records, and ``predict_records``' keywords but the seed."""
    return {"method": method, **{k: getattr(args, k) for k in baselines.SCORING_OPTIONS[method]}}


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    blobs = dict(n_per_class=args.n_per_class, n_classes=args.classes, dim=args.dim,
                 radius=args.radius)
    ds = gen_blobs(**blobs, sigma=args.sigma, seed=args.seed)
    centers = np.asarray(ds.meta["centers"])
    os.makedirs(args.out_dir, exist_ok=True)
    written = {}

    def write(name: str, part) -> None:
        path = os.path.join(args.out_dir, name)
        save_csv(part, path)
        written[name] = file_sha256(path)

    for tag, part in zip(("train", "val", "test"), split_622(ds, seed=args.seed)):
        write(f"{tag}.csv", part)
    kinds = [k.strip() for k in str(args.ood_kinds).split(",") if k.strip()]
    for i, kind in enumerate(kinds):
        ood = gen_ood(kind, args.ood_n, centers, args.sigma, seed=args.seed + 1000 + i)
        write(f"ood_{kind}.csv", ood)
    if args.unseen_sigma > 0:
        unseen = gen_blobs(**blobs, sigma=args.unseen_sigma, seed=args.seed + 1, name="unseen")
        write("unseen.csv", unseen)
    keys = ("classes", "dim", "n_per_class", "sigma", "radius", "ood_n", "unseen_sigma", "seed")
    manifest = {**{k: getattr(args, k) for k in keys}, "ood_kinds": kinds, "files": written}
    write_json(manifest, os.path.join(args.out_dir, "manifest.json"))
    print(f"wrote {len(written)} csv files + manifest to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    train_set = load_csv(args.train_csv, name="train")
    if train_set.n_classes < 2:
        raise DataError(f"train: {args.train_csv} needs labelled rows of >= 2 classes")
    val_set = _load_labelled(args.val_csv, "val") if args.val_csv else None
    # every TrainConfig field is the train option of the same name
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    net = mlp.MlpConfig(
        input_dim=train_set.dim,
        output_dim=train_set.n_classes,
        hidden_dims=_parse_hidden(args.hidden),
        dropout_rate=args.dropout_rate,
        seed=args.seed,
    )
    result = train(train_set, val_set, cfg, net)
    fingerprint = file_sha256(args.train_csv)
    save_checkpoint(args.out, result.model, cfg, fingerprint)
    stem = args.out[:-5] if args.out.endswith(".json") else args.out
    with open(stem + ".log.jsonl", "w") as fh:
        for rec in result.log:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    last = result.log[-1] if result.log else {}
    print(
        f"trained {args.objective} for {args.epochs} epochs: "
        f"final loss {last.get('loss', float('nan')):.4f}, "
        f"val acc {last.get('val_accuracy', float('nan')):.4f}; "
        f"checkpoint {args.out} ({len(result.model.snapshots)} snapshots)"
    )
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args) -> int:
    model, tc, fingerprint, _ = load_checkpoint(args.checkpoint)
    val_set = _load_labelled(args.val_csv, "val")
    scoring = _scoring(args, baselines.resolve_method(model, args.method))
    recs = predict_records(model, val_set, **scoring, seed=args.seed)
    cal = calibrate(recs, args.coefficient, **scoring)
    save_checkpoint(args.checkpoint, model, tc, fingerprint, calibration=cal)
    print(
        f"method {scoring['method']}: threshold {cal.threshold:.6f} "
        f"(TPR {cal.tpr_at_threshold:.3f}, FPR {cal.fpr_at_threshold:.3f}, "
        f"objective {cal.objective_value:.3f}; {cal.n_wrong}/{len(recs)} val errors)"
    )
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    model, _, _, cal = load_checkpoint(args.checkpoint)
    test_set = _load_labelled(args.test_csv, "test")
    if args.thresholded and cal is None:
        raise DataError(
            "eval --thresholded: checkpoint has no calibrated threshold; "
            "run `evos calibrate` first"
        )
    # theta applies to the scoring it was fitted on only, which auto then means
    auto = cal.scoring["method"] if args.thresholded else baselines.resolve_method(model, "auto")
    scoring = _scoring(args, auto if args.method == "auto" else args.method)
    if args.thresholded and scoring != cal.scoring:
        k = next(k for k in scoring if scoring[k] != cal.scoring[k])  # method first
        raise DataError(f"eval --thresholded: theta was fitted with {k} {cal.scoring[k]}, this "
                        f"run scores with {k} {scoring[k]}; re-run `evos calibrate` with it")
    recs = predict_records(model, test_set, **scoring, seed=args.seed)
    sections = {"unthresholded": evaluate(recs).to_dict(), "method": scoring["method"]}
    line = (
        f"unthresholded: acc {sections['unthresholded']['accuracy']:.4f} "
        f"macro-F1 {sections['unthresholded']['per_class']['macro_f1']:.4f}"
    )
    if args.thresholded:
        rep = evaluate(recs, cal.threshold)
        sections["thresholded"] = rep.to_dict()
        sections["threshold"] = cal.threshold
        if rep.available:
            line += (
                f" | thresholded @ {cal.threshold:.4f}: "
                f"macro-F1 {rep.per_class.macro_f1:.4f} "
                f"(referred {rep.n_referred}/{rep.n_total})"
            )
        else:
            line += f" | thresholded @ {cal.threshold:.4f}: all referred"
    if args.report:
        inputs = {"checkpoint": args.checkpoint, "test_csv": args.test_csv}
        save_report(args.report, "eval", args.seed, inputs, sections)
    print(line)
    return 0


# ---------------------------------------------------------------------------
# ood-eval


def _histogram_text(counts: np.ndarray) -> list[str]:
    top = max(int(counts.max()), 1)
    lines = []
    for i, c in enumerate(counts):
        bar = "#" * round(40 * c / top)
        lines.append(f"  u [{i / len(counts):.2f},{(i + 1) / len(counts):.2f}) {c:5d} {bar}")
    return lines


def cmd_ood_eval(args) -> int:
    model, _, _, cal = load_checkpoint(args.checkpoint)
    if cal is None:
        raise DataError(
            "ood-eval: checkpoint has no calibrated threshold; run `evos calibrate` first"
        )
    # theta applies to the scoring it was fitted on, and only to that
    sections = {"method": cal.scoring["method"], "threshold": cal.threshold, "files": {}}
    inputs = {"checkpoint": args.checkpoint}
    for path in args.ood_csv:
        ds = load_csv(path, name=path)
        recs = predict_records(model, ds, **cal.scoring, seed=args.seed)
        rate = ood_detection_rate(recs.uncertainty, cal.threshold)
        counts, _ = np.histogram(recs.uncertainty, bins=args.bins, range=(0.0, 1.0))
        sections["files"][path] = {
            "n": len(recs),
            "detection_rate": rate,
            "mean_uncertainty": float(recs.uncertainty.mean()),
            "histogram_counts": counts.tolist(),
        }
        inputs[path] = path
        print(f"{path}: detection rate {rate:.4f} at theta {cal.threshold:.4f} (n={len(recs)})")
        for line in _histogram_text(counts):
            print(line)
    if args.report:
        save_report(args.report, "ood-eval", args.seed, inputs, sections)
    return 0


# ---------------------------------------------------------------------------
# compare

# artifact naming convention inside --checkpoint-dir
_ARTIFACT_FOR_METHOD = {
    "uios": "uios.json",
    "entropy": "standard.json",
    "mc_drop": "mcdrop.json",
    "ensemble": "standard.json",
    "tta": "standard.json",
}


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmd_compare(args) -> int:
    methods = [m.strip() for m in str(args.methods).split(",") if m.strip()]
    bad = [m for m in methods if m not in baselines.METHODS]
    if bad:
        raise DataError(f"compare: unknown methods {bad}, expected from {baselines.METHODS}")
    ckpts = {m: os.path.join(args.checkpoint_dir, _ARTIFACT_FOR_METHOD[m]) for m in methods}
    missing = [f"{m} -> {p}" for m, p in ckpts.items() if not os.path.exists(p)]
    if missing:
        raise DataError("compare: missing artifacts:\n  " + "\n  ".join(missing))
    # one load per distinct checkpoint: three methods share standard.json
    models = {p: load_checkpoint(p)[0] for p in dict.fromkeys(ckpts.values())}
    n = len(models[ckpts["ensemble"]].snapshots) if "ensemble" in methods else 2
    if n < 2:
        raise DataError(f"compare: {ckpts['ensemble']} holds {n} snapshots, ensemble needs >= 2 "
                        "(evos train --snapshot-count)")

    val_set = _load_labelled(args.val_csv, "val")
    test_set = _load_labelled(args.test_csv, "test")
    ood_sets = [load_csv(p, name=p) for p in (args.ood_csv or [])]

    def score(m):
        """One method's row and seconds per test row; shares no state with
        the other methods, so they may run at the same time."""
        model, scoring = models[ckpts[m]], _scoring(args, m)
        val_recs = predict_records(model, val_set, **scoring, seed=args.seed)
        cal = calibrate(val_recs, args.coefficient, **scoring)
        # this thread's CPU time: other methods running alongside do not
        # count against this one
        t0 = time.thread_time()
        test_recs = predict_records(model, test_set, **scoring, seed=args.seed)
        elapsed = time.thread_time() - t0
        rep = evaluate(test_recs)
        row = {
            "threshold": cal.threshold,
            "accuracy": rep.accuracy,
            "macro_f1": rep.per_class.macro_f1,
            "macro_auc": rep.macro_auc,
        }
        if ood_sets:
            u_all = np.concatenate(
                [predict_records(model, o, **scoring, seed=args.seed).uncertainty
                 for o in ood_sets]
            )
            row["ood_detection_rate"] = ood_detection_rate(u_all, cal.threshold)
        return row, elapsed / len(test_set)

    # The methods run concurrently (numpy releases the GIL in matmul, the ufunc
    # loops and the RNG fills), handed out most passes first so that no worker
    # idles at the end.  Results are taken in method order, so the first
    # failing method's error is the one raised.
    passes = {"mc_drop": args.passes, "tta": args.passes, "ensemble": n}
    with ThreadPoolExecutor(max_workers=_usable_cpus()) as pool:
        jobs = {m: pool.submit(score, m) for m in sorted(methods, key=lambda m: -passes.get(m, 1))}
        results = [jobs[m].result() for m in methods]
    rows = {m: row for m, (row, _) in zip(methods, results)}
    timing = {m: t for m, (_, t) in zip(methods, results)}

    header = f"{'method':10s} {'macro-F1':>9s} {'macro-AUC':>9s} {'OOD rate':>9s} {'theta':>8s} {'ms/sample':>10s}"
    print(header)
    for m in methods:
        r = rows[m]
        ood = f"{r['ood_detection_rate']:9.4f}" if "ood_detection_rate" in r else f"{'-':>9s}"
        print(
            f"{m:10s} {r['macro_f1']:9.4f} {r['macro_auc']:9.4f} {ood} "
            f"{r['threshold']:8.4f} {timing[m] * 1e3:10.4f}"
        )
    if args.report:
        inputs = {"val_csv": args.val_csv, "test_csv": args.test_csv}
        inputs.update((p, p) for p in args.ood_csv or [])
        save_report(args.report, "compare", args.seed, inputs, {"methods": rows})
        timing_ms = {m: t * 1e3 for m, t in timing.items()}
        write_json({"ms_per_sample": timing_ms}, args.report + ".timing.json")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="evos",
        description="evidential open-set classification workbench",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed (default %(default)s)")
        sp.add_argument("--config", help="key=value defaults file")
        sp.set_defaults(func=func)
        return sp

    def scoring(sp, method=True):
        if method:
            sp.add_argument("--method", choices=["auto", *baselines.METHODS], default="auto")
        sp.add_argument("--passes", type=int, default=baselines.DEFAULT_PASSES)
        sp.add_argument("--jitter-sigma", type=float, default=baselines.DEFAULT_JITTER_SIGMA)

    g = command("gen-data", cmd_gen_data, "generate benchmark CSVs + manifest")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--k", "--classes", dest="classes", type=int, default=5)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--n-per-class", type=int, default=500)
    g.add_argument("--sigma", type=float, default=0.9)
    g.add_argument("--radius", type=float, default=4.0)
    g.add_argument("--ood-kinds", default="far_cluster,ring",
                   help="comma list: ring,far_cluster,uniform_box")
    g.add_argument("--ood-n", type=int, default=500)
    g.add_argument("--unseen-sigma", type=float, default=0.0,
                   help="also write a harder same-centers set with this sigma (0 = off)")

    t = command("train", cmd_train, "train a model and write a checkpoint")
    t.add_argument("--train-csv", required=True)
    t.add_argument("--val-csv")
    t.add_argument("--out", required=True, help="checkpoint path (.json)")
    t.add_argument("--objective", choices=OBJECTIVES, default="tun")
    t.add_argument("--epochs", type=int, default=400)
    t.add_argument("--learning-rate", type=float, default=1e-4)
    t.add_argument("--weight-decay", type=float, default=1e-4)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--anneal-epochs", type=int, default=10)
    t.add_argument("--hidden", default="32,32",
                   help="comma list of hidden sizes (default %(default)s)")
    t.add_argument("--dropout-rate", type=float, default=0.0)
    t.add_argument("--snapshot-count", type=int, default=0)

    c = command("calibrate", cmd_calibrate, "fit the uncertainty threshold on validation data")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--val-csv", required=True)
    c.add_argument("--coefficient", type=float, default=2.0,
                   help="TPR weight in the selection objective (default %(default)s)")
    scoring(c)

    e = command("eval", cmd_eval, "evaluate on a test CSV")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--test-csv", required=True)
    e.add_argument("--report", help="write a report JSON here")
    e.add_argument("--thresholded", action="store_true",
                   help="also report metrics with low-confidence samples referred")
    scoring(e)

    o = command("ood-eval", cmd_ood_eval, "detection rates on OOD CSVs")
    o.add_argument("--checkpoint", required=True)
    o.add_argument("--ood-csv", nargs="+", required=True)
    o.add_argument("--report")
    o.add_argument("--bins", type=int, default=10)

    m = command("compare", cmd_compare, "compare uncertainty methods side by side")
    m.add_argument("--checkpoint-dir", required=True,
                   help="dir with uios.json / standard.json / mcdrop.json artifacts")
    m.add_argument("--val-csv", required=True)
    m.add_argument("--test-csv", required=True)
    m.add_argument("--ood-csv", nargs="*")
    m.add_argument("--methods", default="uios,entropy,mc_drop,ensemble,tta",
                   help="comma list (default: all five)")
    m.add_argument("--report")
    m.add_argument("--coefficient", type=float, default=2.0)
    scoring(m, method=False)
    return p


def _with_config(parser: argparse.ArgumentParser, args, argv) -> argparse.Namespace:
    """Make the --config file's values the subcommand's defaults and parse
    again, so explicit flags still beat the file.  A file may set exactly the
    options of its subcommand that have a built-in default; ``func`` is not
    an option, so no file can replace it."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sp = commands.choices[args.command]
    defaults = {
        a.dest: a.default for a in sp._actions if a.default not in (None, argparse.SUPPRESS)
    }
    file_vals = _load_config_file(args.config)
    unknown = set(file_vals) - set(defaults)
    if unknown:
        raise DataError(f"config: unknown keys {sorted(unknown)}")
    sp.set_defaults(**{k: _coerce(k, v, defaults[k]) for k, v in file_vals.items()})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _with_config(parser, args, argv)
        return args.func(args)
    except SystemExit as e:  # argparse uses 2 for usage errors, 0 for --help
        return int(e.code or 0)
    # ValueError: an option value the library rejects, e.g. --epochs -1
    except (DataError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
