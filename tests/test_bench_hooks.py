"""The traced benchmark run wraps library functions by their names.

bench/spans.py lists them in TARGETS; these checks make a refactor that
moves, renames or inherits one of them fail in the test suite instead of in
the traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("cuspdiff_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_and_name(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _snapshot():
    """Every attribute install() may replace: module globals and class dicts."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "cuspdiff" or name.startswith("cuspdiff."):
            out[name] = dict(vars(mod))
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__ == name:
                    out[value] = dict(value.__dict__)
    return out


def test_every_target_resolves(spans):
    for modname, attr, layer in spans.TARGETS:
        assert layer in spans.LAYERS
        owner, name = _owner_and_name(modname, attr)
        if owner.__class__ is type:
            # install() wraps the class's own entry, not an inherited one
            assert name in owner.__dict__, (modname, attr)
        assert callable(getattr(owner, name)), (modname, attr)


def test_install_uninstall_round_trip(spans):
    for modname, _, _ in spans.TARGETS:
        importlib.import_module(modname)
    before = _snapshot()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for modname, attr, _ in spans.TARGETS:
            owner, name = _owner_and_name(modname, attr)
            assert hasattr(getattr(owner, name), "__wrapped__"), (modname, attr)
        tracer.enabled = True
        cuspops = sys.modules["cuspdiff.cuspops"]
        cuspops.delta_op(2, (-1,)) * cuspops.delta_op(2, (1,))
        tracer.enabled = False
        assert tracer.calls[tracer.layer_ids["cuspops.delta_op"]] == 2
        assert tracer.calls[tracer.layer_ids["skewlaurent.mul"]] == 1
    finally:
        tracer.enabled = False
        spans.uninstall(undo)
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for name, value in attrs.items():
            assert after[key][name] is value, (key, name)
