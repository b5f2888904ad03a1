import ast
import types
from pathlib import Path

import rholab
import rholab.cli


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


def test_cli_uses_only_public_names_of_channels():
    # The CLI runs a trajectory through the public chunk stream, like any caller.
    tree = ast.parse(Path(rholab.cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "channels"), (0, "rholab.channels"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
