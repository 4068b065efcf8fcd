"""Module boundaries: every freqlab module's ``__all__`` names what the
module defines, only ``modulus`` branches on a modulus kind, and only
``ScenarioConfig`` writes its own dict."""

import ast
import pathlib
import pkgutil
import re

import freqlab


def test_every_exported_name_resolves():
    names = ["freqlab"] + [m.name for m in pkgutil.walk_packages(
        freqlab.__path__, "freqlab.")]
    assert len(names) > 10
    for name in names:
        # a star import of a module whose __all__ lists a name it does
        # not define raises AttributeError naming it
        exec(f"from {name} import *", {})


_KIND = r"""["'](?:linear|power|log_power|tabulated)["']"""
_KIND_TEST = re.compile(rf"\.kind\s*(?:==|!=)\s*{_KIND}"
                        rf"|\.kind\s+(?:not\s+)?in\s*[(\[{{][^)\]}}]*{_KIND}")


def test_only_modulus_branches_on_modulus_kinds():
    # each kind's formulas live in one place, Modulus; any other module
    # asks the modulus for them instead of testing its kind
    root = pathlib.Path(freqlab.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{no}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "modulus.py"
        for no, line in enumerate(path.read_text().splitlines(), 1)
        if _KIND_TEST.search(line)]
    assert not offenders, offenders


def test_only_the_config_dialect_defines_to_dict():
    # io.canonical_json plains every report; ScenarioConfig.to_dict is
    # the config dialect that from_dict reads back
    root = pathlib.Path(freqlab.__file__).parent
    offenders = [
        f"{path.relative_to(root)}: {node.name}.to_dict"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name != "ScenarioConfig"
        and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "to_dict" for item in node.body)]
    assert not offenders, offenders
