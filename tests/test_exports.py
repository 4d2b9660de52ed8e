"""The package's public names."""

import inspect

import pfractal


def test_all_matches_the_public_bindings():
    names = pfractal.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(pfractal, name)
    bound = {name for name, obj in vars(pfractal).items()
             if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(names) == bound
