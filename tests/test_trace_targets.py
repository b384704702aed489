"""The benchmark's traced run can find every library function it wraps."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    # Tracer.install reads owner.__dict__[attr] for each target, so a
    # function that is removed, renamed or inherited instead of defined on
    # its class breaks every traced benchmark run with a KeyError
    missing = []
    for mod_name, cls_name, attr, name in _tracing().TARGETS:
        owner = importlib.import_module(f"padic_hodge.{mod_name}")
        if cls_name is not None:
            owner = vars(owner).get(cls_name)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(name)
    assert not missing
