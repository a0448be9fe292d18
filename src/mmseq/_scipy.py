"""Load one of scipy's compiled extensions without running its packages.

mmseq needs two of them: the HiGHS bindings
`scipy.optimize._highspy._core` for the LP layer, and the ufunc module
`scipy.special._ufuncs`, whose `stdtrit` is the Student-t quantile of
the gap bound.  Importing either by its name would first run the
package `__init__` above it: `scipy.optimize` brings `scipy.linalg` and
`scipy.sparse`, and `scipy.special` its array-API layer,
`numpy.f2py` and `numpy.testing`, none of which mmseq uses.  On a
2-core host `import mmseq, mmseq.cli` takes 0.22 s and peaks at 45 MB
this way; running the `scipy.special` package took it to 0.46 s and
59 MB, and `scipy.optimize` on top to 0.64 s and 78 MB.

`load` imports the extension by name with the standard machinery.
While it runs, each package between `scipy` and the module that is not
imported yet stands in `sys.modules` as a bare module, a
`types.ModuleType` with only the `__path__` of its directory under
scipy's, so its `__init__` never runs; the extension's own imports of
its siblings are found through those paths.  The bare packages are
taken out afterwards, and every module really loaded stays registered
under its own name, so a later `import scipy.special`, `scipy.stats` or
`scipy.optimize` reuses it rather than initialising a second copy.
`scipy` itself is imported as usual: its `__init__` is light, and
scipy's subpackages read one another as attributes of the real package.
"""

from __future__ import annotations

import importlib
import os
import sys
import types

import scipy

_SCIPY_DIR = scipy.__path__[0]


def load(name: str) -> types.ModuleType:
    """The extension module `name` (a dotted name under `scipy`),
    imported without running any package `__init__` between `scipy` and
    it; an entry already in sys.modules is returned as is.  A failing
    import leaves sys.modules as it found it."""
    if name in sys.modules:
        return sys.modules[name]
    before = set(sys.modules)
    parts = name.split(".")
    bare = []
    for depth in range(2, len(parts)):
        package = ".".join(parts[:depth])
        if package not in sys.modules:
            module = types.ModuleType(package)
            module.__path__ = [os.path.join(_SCIPY_DIR, *parts[1:depth])]
            sys.modules[package] = module
            bare.append(package)
    try:
        module = importlib.import_module(name)
    except BaseException as exc:
        for added in set(sys.modules) - before:
            del sys.modules[added]
        if isinstance(exc, ModuleNotFoundError) and exc.name == name:
            raise ImportError(f"mmseq needs scipy >= 1.15: no {name} "
                              f"extension under {_SCIPY_DIR}") from None
        raise
    for package in bare:
        del sys.modules[package]
    return module
