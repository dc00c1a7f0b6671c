"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` patches the program's functions and methods by
name (its ``TARGETS``) when a traced benchmark run starts.  A refactor
that deletes or renames one of them would only show up as a crash, or
as a silently missing span, in ``perfbench/run.py --trace 1``; these
checks resolve every target the way ``tracing.install`` does, so the
rename fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name", tracing.PRELOAD)
def test_preloaded_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    ("module_name", "class_name", "attr", "span"),
    tracing.TARGETS,
    ids=[target[3] for target in tracing.TARGETS],
)
def test_traced_name_resolves(module_name, class_name, attr, span):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"
    else:
        cls = getattr(module, class_name)
        # install() wraps the class and its subclasses that define the
        # method themselves; none at all would leave the span empty.
        assert tracing._classes_defining(cls, attr), f"{class_name}.{attr}"
