"""The package's public names: ``gwone.__all__`` is the star-import surface."""

import gwone


def test_every_public_name_resolves_once_in_sorted_order():
    names = gwone.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert all(getattr(gwone, name, None) is not None for name in names)
    namespace = {}
    exec("from gwone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
    assert all(namespace[name] is getattr(gwone, name) for name in names)
