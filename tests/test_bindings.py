"""The names the benchmark binds exist in evos with the call shape it reads.

``perfbench/tracer.py`` wraps each ``module.function`` (or
``module.Class.method``) of its ``TARGETS`` table and reads the row count of
some of them from a positional or keyword argument.  A prune that drops or
renames one of them breaks ``perfbench/run.py --trace 1``; this test makes it
fail here instead.  ``perfbench/workloads.py`` also calls into evos
directly, by module attribute and keyword; the same holds for those names.

A traced name must also be one that runs: a function nothing calls reads 0
calls on every workload, so each target needs a caller in ``src/`` or in
``perfbench/workloads.py``, and a traced training pins the loss rows.

The workloads also read the checkpoint file, through ``perfbench/oracles.py``
and by key; the fields they read are pinned here too.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import evos
import evos.cli  # noqa: F401  the tracer binds names in every module of its table
from evos import losses
from evos.checkpoint import load_checkpoint
from evos.cli import main
from evos.data import gen_blobs
from evos.training import TrainConfig, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(evos.__file__).resolve().parent


def load_perfbench(name: str):
    """``perfbench/<name>.py``, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def tracer_targets() -> dict:
    return load_tracer().TARGETS


def test_tracer_targets_resolve_with_their_row_arguments():
    problems = []
    for module, funcs in tracer_targets().items():
        home = importlib.import_module(f"evos.{module}")
        for qualname, rows in funcs.items():
            fn = home
            for attr in qualname.split("."):
                fn = getattr(fn, attr, None)
            if not callable(fn):
                problems.append(f"{module}.{qualname}: missing")
            elif rows is not None and rows[0] == "arg":
                _, position, keyword = rows
                params = list(inspect.signature(fn).parameters)
                if params[position : position + 1] != [keyword]:
                    problems.append(f"{module}.{qualname}: argument {position} is not {keyword}")
    assert not problems, problems


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from evos import *", namespace)
    assert sorted(set(evos.__all__) - set(namespace)) == []


def workload_uses() -> dict[str, set[str]]:
    """Every ``<evos module>.<name>`` that perfbench/workloads.py uses or
    imports, with the keywords of its calls."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}  # local name -> evos module, or "<module>.<name>" of an imported name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "evos":
            sub = node.module.partition(".")[2]
            for a in node.names:
                bound[a.asname or a.name] = f"{sub}.{a.name}" if sub else a.name

    def qualified(node):
        if isinstance(node, ast.Name) and "." in bound.get(node.id, ""):
            return bound[node.id]
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id, ".")
            return None if "." in module else f"{module}.{node.attr}"
        return None

    uses = {name: set() for name in bound.values() if "." in name}
    for node in ast.walk(tree):
        if qualified(node):
            uses.setdefault(qualified(node), set())
        if isinstance(node, ast.Call) and qualified(node.func):
            uses.setdefault(qualified(node.func), set()).update(
                k.arg for k in node.keywords if k.arg
            )
    return uses


def test_workload_calls_resolve_with_their_keywords():
    uses = workload_uses()
    assert {"cli._load_snapshots", "cli._ARTIFACT_FOR_METHOD", "training.predict",
            "baselines.score_method", "checkpoint.load_checkpoint"} <= set(uses)
    assert "snapshots" in uses["baselines.score_method"]
    problems = []
    for name, keywords in sorted(uses.items()):
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"evos.{module}"), attr, None)
        if obj is None:
            problems.append(f"{name}: missing")
            continue
        if not keywords:
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        problems += [f"{name}: no keyword {k}" for k in sorted(keywords - set(params))]
    assert not problems, problems


def src_references() -> tuple[dict, list[tuple[int, str]]]:
    """Each ``src/evos`` module's syntax tree, and every name reference in
    them as (node id, bare name): ``digamma`` or ``.factor``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    references = [
        (id(node), getattr(node, "id", None) or getattr(node, "attr", None))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    return trees, references


def test_every_traced_name_has_a_caller():
    """A name is live if ``src/`` refers to it outside its own definition, or
    the workloads use it.  Name references are matched by the bare name, as
    ``digamma`` or ``.factor``, so a same-named attribute elsewhere counts."""
    trees, references = src_references()
    used = set(workload_uses())
    dead = []
    for module, funcs in tracer_targets().items():
        for qualname in funcs:
            scope = trees[module]
            for part in qualname.split("."):
                scope = next(n for n in scope.body if getattr(n, "name", None) == part)
            own = set(map(id, ast.walk(scope)))
            if f"{module}.{qualname}" not in used and not any(
                name == part and node not in own for node, name in references
            ):
                dead.append(f"{module}.{qualname}")
    assert not dead, dead


def test_every_src_function_has_a_caller_outside_tests():
    """Every function and method ``src/evos`` defines, dunders aside, is named
    in ``src/`` outside its own body, used by the workloads, or public in
    ``evos.__all__``, so a helper that only tests reach fails here.  Names
    are matched bare, as in ``test_every_traced_name_has_a_caller``."""
    trees, references = src_references()
    used = {name.partition(".")[2] for name in workload_uses()} | set(evos.__all__)
    unused = []
    for module, tree in sorted(trees.items()):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__") or fn.name in used:
                continue
            own = set(map(id, ast.walk(fn)))
            if not any(name == fn.name and node not in own for node, name in references):
                unused.append(f"{module}.{fn.name}")
    assert not unused, unused


def test_traced_training_reads_the_loss_kernels_it_runs():
    tracer = load_tracer()
    ds = gen_blobs(n_per_class=690, n_classes=3, seed=5)  # 2,070 rows: 42 steps of 50
    losses._log_gamma_of.cache_clear()  # ln Gamma(K) is computed once, then cached
    with tracer.Tracer() as t:
        train(ds, None, TrainConfig(epochs=3, batch_size=50, objective="tun", seed=5))
    stats = t.stats()
    assert stats["numerics.trigamma.calls"] == stats["losses.loss_grad_alpha.calls"] == 3 * 42
    # the epoch loss pass runs in two chunks: 2,000 and 70 rows
    assert stats["numerics.digamma.calls"] == stats["losses.per_sample_loss.calls"] == 3 * 2
    assert stats["numerics.log_gamma.calls"] == 3 * 2 + 1
    with tracer.Tracer() as t:
        train(ds, None, TrainConfig(epochs=3, batch_size=50, objective="standard_ce", seed=5))
    kernels = {"numerics.trigamma", "numerics.digamma", "numerics.log_gamma",
               "losses.per_sample_loss", "losses.loss_grad_alpha"}
    assert not {name.rpartition(".")[0] for name in t.stats()} & kernels


def test_rows_become_records_in_one_place():
    """``training.predict_records`` is the one record builder: it alone calls
    the method dispatcher and the record constructor, so a second builder,
    such as the CLI's former ``_method_records``, fails here."""
    callers = {"from_scores": [], "score_method": []}
    names = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names.add(getattr(node, "name", None) or getattr(node, "id", None)
                          or getattr(node, "attr", None))
                func = getattr(node, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if isinstance(node, ast.Call) and name in callers:
                    callers[name].append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"from_scores": ["training.predict_records"],
                       "score_method": ["training.predict_records"]}
    assert not {"evidential_scores", "_method_records"} & names


def test_the_scoring_tables_live_in_baselines():
    """``baselines`` holds the scoring table and the auto rule beside the
    scorers, and takes from ``training`` only the model and its evidential
    path, so a table moved back, or a second copy, fails here."""
    imported = [a.name for node in ast.walk(ast.parse((SRC / "baselines.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "training"
                for a in node.names]
    assert sorted(imported) == ["Model", "evidential_alpha"]
    defined = {"SCORING_OPTIONS": [], "resolve_method": []}
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in [top, *getattr(top, "targets", [])]:  # a def, or an assignment's names
                name = getattr(node, "name", None) or getattr(node, "id", None)
                if name in defined:
                    defined[name].append(path.stem)
    assert defined == {"SCORING_OPTIONS": ["baselines"], "resolve_method": ["baselines"]}


def test_a_calibrated_checkpoint_has_the_fields_the_workloads_read(tmp_path, capsys):
    # the reference and screen workloads compute the validation error-AUROC
    # from calibration.tpr and .fpr, read theta by key, and unpack
    # load_checkpoint into four values
    data, ckpt = tmp_path / "data", tmp_path / "model.json"
    assert main(["gen-data", "--out-dir", str(data), "--k", "3", "--n-per-class", "60",
                 "--ood-n", "10", "--seed", "0"]) == 0
    assert main(["train", "--train-csv", str(data / "train.csv"), "--out", str(ckpt),
                 "--epochs", "30", "--seed", "0"]) == 0
    assert main(["calibrate", "--checkpoint", str(ckpt), "--val-csv",
                 str(data / "val.csv")]) == 0
    capsys.readouterr()
    read = load_perfbench("oracles").read_checkpoint(ckpt)
    assert read["calibration"] == json.loads(ckpt.read_text())["calibration"]
    cal = read["calibration"]
    assert isinstance(cal["tpr"], list) and isinstance(cal["fpr"], list)
    assert len(cal["tpr"]) == len(cal["fpr"]) > 1
    assert isinstance(cal["threshold"], float)
    loaded = load_checkpoint(ckpt)
    assert len(loaded) == 4
    model, _, _, theta = loaded
    assert theta.threshold == cal["threshold"]
    assert [w.shape for w in read["weights"]] == [w.shape for w in model.params.weights]
