"""The package's public names."""

import wignerdv
from wignerdv import analysis, fd, kinetic, potential, propagator

MODULES = (potential, kinetic, fd, propagator, analysis)


def test_package_re_exports_every_module_name():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wignerdv, name) is getattr(module, name), f"{module.__name__}.{name}"
    listed = [name for module in MODULES for name in module.__all__]
    assert wignerdv.__all__ == listed + ["__version__"]
    assert len(set(listed)) == len(listed)
