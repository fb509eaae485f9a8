"""The names the benchmark binds exist in evos with the call shape it reads.

``perfbench/tracer.py`` wraps each ``module.function`` (or
``module.Class.method``) of its ``TARGETS`` table and reads the row count of
some of them from a positional or keyword argument.  A prune that drops or
renames one of them breaks ``perfbench/run.py --trace 1``; this test makes it
fail here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import evos

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
