"""The benchmark tracer's targets still name functions of the library."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


@pytest.mark.parametrize("name, module, path", [t[:3] for t in _targets()])
def test_target_resolves(name, module, path):
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, meth = path.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, path))
