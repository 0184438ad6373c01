"""The names the benchmark traces resolve to functions its tracer wraps."""

import importlib.util
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_counted_functions_resolve():
    # perfbench/run.py imports only the standard library at its top level.
    # Its tracer wraps the functions listed in each module's __all__, so a
    # renamed or unlisted function would read 0 calls without any error
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in run.COUNTED_FUNCTIONS:
        module_name, *path = name.split(".")
        module = importlib.import_module(f"coinwalk.{module_name}")
        target = module
        for attr in path:
            assert hasattr(target, attr), name
            target = getattr(target, attr)
        assert callable(target), name
        if len(path) == 1:
            assert inspect.isfunction(target) and target.__module__ == module.__name__, name
            assert path[0] in module.__all__, name
