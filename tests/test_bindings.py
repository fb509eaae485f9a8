"""The names the benchmark binds exist in evos with the call shape it reads.

``perfbench/tracer.py`` wraps each ``module.function`` (or
``module.Class.method``) of its ``TARGETS`` table and reads the row count of
some of them from a positional or keyword argument.  A prune that drops or
renames one of them breaks ``perfbench/run.py --trace 1``; this test makes it
fail here instead.  ``perfbench/workloads.py`` also calls into evos
directly, by module attribute and keyword; the same holds for those names.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import evos

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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
