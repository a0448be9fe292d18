"""Load one of scipy's compiled extensions without running its packages.

mmseq needs two of them: the HiGHS bindings
`scipy.optimize._highspy._core` for the LP layer, and the ufunc module
`scipy.special._ufuncs`, whose `stdtrit` is the Student-t quantile of
the gap bound.  Each is loaded where it is first called, by the first
`lp.Model` and the first `assess.t_quantile`, so `import mmseq` imports
no scipy module and a run that solves no LP and computes no gap bound
(`ts`, `greedy`, `enum`) never loads one.  On a 2-core host that takes
`import mmseq, mmseq.cli` from 0.26 s and 45 MB to 0.23 s and 38 MB
(medians of 9 fresh processes).  The first LP then loads the HiGHS
bindings in about 8 ms and 3 MB, and the first t_quantile loads
`_ufuncs`, with the base `scipy` package it imports, in about 25 ms and
5 MB.

Importing either extension by its name would first run the package
`__init__` above it: `scipy.optimize` brings `scipy.linalg` and
`scipy.sparse`, and `scipy.special` its array-API layer, `numpy.f2py`
and `numpy.testing`, none of which mmseq uses.  When mmseq ran the
`scipy.special` package at import, `import mmseq, mmseq.cli` took
0.46 s and 59 MB, and with `scipy.optimize` on top 0.64 s and 78 MB.

`load` imports the extension by name with the standard machinery.
While it runs, each package between `scipy` and the module that is not
imported yet stands in `sys.modules` as a bare module, a
`types.ModuleType` with only the `__path__` of its directory under
scipy's, so its `__init__` never runs; the extension's own imports of
its siblings are found through those paths.  The bare packages are
taken out afterwards, and every module really loaded stays registered
under its own name, so a later `import scipy.special`, `scipy.stats` or
`scipy.optimize` reuses it rather than initialising a second copy.
`scipy` itself is imported as usual where an extension imports it
(`_ufuncs` does, through `scipy._lib`; the HiGHS bindings do not): its
`__init__` is light, and scipy's subpackages read one another as
attributes of the real package.  Importing this module only looks up
scipy's directory.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import types

_SPEC = importlib.util.find_spec("scipy")     # finds it without importing it
if _SPEC is None:
    raise ModuleNotFoundError("mmseq needs scipy >= 1.15", name="scipy")
_SCIPY_DIR = _SPEC.submodule_search_locations[0]


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
