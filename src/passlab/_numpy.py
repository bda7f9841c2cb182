"""numpy, imported on its first attribute access.

The exact commands (check-pair on a passing pair, partition, decompose,
realize) compute no float, so they need not pay for importing numpy, most
of a cold CLI call's start-up.  Every module of the package takes `np`
from here.  The first attribute read on it runs numpy's import, after
which it is the plain numpy module, so later reads cost nothing extra.
This is the `importlib.util.LazyLoader` recipe of the Python library
reference, as Scientific Python SPEC 1 recommends for start-up time.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """The module `name`: the loaded one if there is one, else a module
    whose first attribute access imports it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
