"""Every freqlab module's ``__all__`` names what the module defines."""

import pkgutil

import freqlab


def test_every_exported_name_resolves():
    names = ["freqlab"] + [m.name for m in pkgutil.walk_packages(
        freqlab.__path__, "freqlab.")]
    assert len(names) > 10
    for name in names:
        # a star import of a module whose __all__ lists a name it does
        # not define raises AttributeError naming it
        exec(f"from {name} import *", {})
