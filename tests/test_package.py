import types

import rholab


def test_all_is_the_public_namespace():
    names = rholab.__all__
    assert "__version__" in names
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(rholab, name), types.ModuleType), name
    namespace = {}
    exec("from rholab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)
