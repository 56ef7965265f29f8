"""Exact probabilistic Stirling numbers of the second kind.

A library and CLI for the family S_Y(n, m; x): Stirling polynomials of
the second kind attached to a random variable Y with exact rational
moments. Everything outside the Monte Carlo sampler runs in arbitrary
precision rational arithmetic, and the headline summation identities are
verified through several structurally independent computation routes.

The package root serves every module's ``__all__`` on first use, so ``import
probstirling`` loads no submodule; ``__all__``, ``dir()`` and ``from
probstirling import *`` cover every module and so load numpy too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# in dependency order, so a lookup loads no module after the one it needs
_MODULES = (
    "exact_core", "distributions", "polylog", "series", "gen_stirling", "appell", "sums", "montecarlo"
)


def _each_module():
    return (_import_module(f".{module}", __name__) for module in _MODULES)


def __getattr__(name: str):
    if name == "__all__":
        return [public for module in _each_module() for public in module.__all__]
    # `from probstirling import cli` asks for the attribute before it
    # imports the submodule; answering loads that submodule alone
    if name in (*_MODULES, "cli"):
        return _import_module(f".{name}", __name__)
    if not name.startswith("_"):
        for module in _each_module():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
