"""Spans around the calls into evos's public functions, recorded from outside.

``Tracer`` replaces every binding of each target function in the loaded
``evos`` modules (the defining module's name and every ``from ... import``
copy, such as ``training.softplus`` or ``cli.calibrate``) with a wrapper that
records one span per call: name, start, end, parent span and rows.  Spans and
counts stay in memory; ``write`` puts them in a file at the end, and
``stats`` turns them into per-layer figures named
``<module>.<function>.<stat>``:

    self_s          span time minus the time of its child spans
    calls           number of calls
    rows            rows passed in (or, for ``load_csv``, read)
    peak_mib        tracemalloc peak inside the call
    distinct_share  distinct first arguments / calls
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# function -> where its rows are: ("arg", position, keyword) or ("result",)
TARGETS = {
    "numerics": {"digamma": None, "trigamma": None, "log_gamma": None, "softplus": None,
                 "sigmoid": None, "softmax": None},
    "losses": {"per_sample_loss": None, "loss_grad_alpha": None},
    "mlp": {"forward": ("arg", 1, "batch"), "backward": None, "infer": ("arg", 1, "batch"),
            "make_dropout_masks": None},
    "training": {"adam_step": None, "accuracy": None, "train": None, "evidential_alpha": None,
                 "predict_records": None},
    "head": {"EvidenceGate.factor": None, "opinion_from_alpha": None},
    "baselines": {"uios_score": ("arg", 1, "x"), "entropy_score": ("arg", 1, "x"),
                  "mc_dropout_score": ("arg", 1, "x"), "ensemble_score": ("arg", 2, "x"),
                  "tta_score": ("arg", 1, "x")},
    "calibration": {"roc_sweep": ("arg", 0, "uncertainty"), "calibrate": None},
    "metrics": {"evaluate": None, "binary_auc": ("arg", 0, "scores")},
    "records": {"from_scores": None},
    "data": {"load_csv": ("result",), "save_csv": ("arg", 0, "ds")},
    "checkpoint": {"load_checkpoint": None, "save_checkpoint": None},
    "cli": {"cmd_gen_data": None, "cmd_train": None, "cmd_calibrate": None, "cmd_eval": None,
            "cmd_ood_eval": None, "cmd_compare": None},
}
PEAK = {"calibration.roc_sweep"}
DISTINCT = {"checkpoint.load_checkpoint"}

# span fields
NAME, START, END, PARENT, ROWS, PEAK_B, ARG0 = range(7)


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "evos" or n.startswith("evos.")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"evos.{mod_name}"]
            for qualname, rows in funcs.items():
                name = f"{mod_name}.{qualname}"
                owner, attr = home, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, rows)
                if owner is not home:
                    self._rebind(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, rows):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        peak = name in PEAK
        distinct = name in DISTINCT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            if rows is not None and rows[0] == "arg":
                arg = args[rows[1]] if len(args) > rows[1] else kwargs[rows[2]]
                span[ROWS] = len(arg)
            if distinct:
                span[ARG0] = str(args[0])
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if peak:
                    span[PEAK_B] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if rows == ("result",):
                span[ROWS] = len(result)
            return result

        return wrapper

    def stats(self) -> dict[str, float]:
        """Per-layer figures of every traced function that was called."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        acc: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        args: dict[str, set] = defaultdict(set)
        for i, s in enumerate(self.spans):
            a = acc[s[NAME]]
            a["self_s"] += s[END] - s[START] - child[i]
            a["calls"] += 1
            a["rows"] += s[ROWS]
            a["peak_mib"] = max(a["peak_mib"], s[PEAK_B] / 2**20)
            if s[ARG0] is not None:
                args[s[NAME]].add(s[ARG0])
        out = {}
        for name, a in acc.items():
            for stat, value in a.items():
                out[f"{name}.{stat}"] = int(value) if stat in ("calls", "rows") else value
            if name in args:
                out[f"{name}.distinct_share"] = len(args[name]) / a["calls"]
        return out

    def write(self, path) -> None:
        """One CSV line per span: id, name, start, end, parent, rows, peak bytes."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,rows,peak_bytes\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[ROWS]},{s[PEAK_B]}\n")
