from __future__ import annotations

import importlib

import pengeo

SUBMODULES = ("diagnostics", "drift", "functionals", "geometry", "optimizer", "problems")


def test_package_exports_are_exactly_the_submodule_exports():
    # The package re-exports each submodule's public names, no more and no
    # fewer, so a deleted function cannot leave a stale name behind.
    union = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"pengeo.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"pengeo.{name}.__all__ lists missing {attr!r}"
        union.update(module.__all__)
    assert len(pengeo.__all__) == len(set(pengeo.__all__))
    assert set(pengeo.__all__) - {"__version__"} == union
    for attr in pengeo.__all__:
        assert hasattr(pengeo, attr), f"pengeo.__all__ lists missing {attr!r}"
