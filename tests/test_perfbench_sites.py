"""The benchmark's tracer wraps package functions by name; every name must exist.

``perfbench.tracing.Tracer.install`` reads each site as ``owner.__dict__[attr]``,
so a refactor that drops or moves a wrapped name would only fail when a traced
benchmark run starts.  This test fails first.
"""
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import SITES  # noqa: E402


def test_every_traced_site_resolves():
    missing = []
    for owner_path, attr, _ in SITES:
        module_path, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_path)
        if cls:
            owner = getattr(owner, cls)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"traced sites that no longer resolve: {missing}"
