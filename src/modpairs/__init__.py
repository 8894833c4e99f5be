"""Exact combinatorics of modulus pairs presented on monomial charts.

Divisor arithmetic, admissibility and twisting of monomial morphisms,
blowup charts at coordinate centers, pointwise membership tests for curve
correspondences, rational divisor levels, and a small declaration DSL with
a command driver.

``import modpairs`` loads the mathematics alone: ``pairs``, ``blowup``,
``correspondences`` and ``qdivisors``, each of whose ``__all__`` it
re-exports.  The two front ends load on first use of one of their names:
the DSL (``modpairs.dsl``, and with it ``re``) through its declarations,
``Model``, ``parse`` and the printers, and the command driver
(``modpairs.cli``) through ``main``, ``run_command`` and ``Report``.
"""

from .blowup import *
from .correspondences import *
from .pairs import *
from .qdivisors import *

# the front ends' names, by the module that loads on first use of one
_DEFERRED = {
    **dict.fromkeys(("Report", "main", "run_command"), "cli"),
    **dict.fromkeys(("BlowupDecl", "CorrDecl", "Diagnostic", "MapDecl", "Model", "PairDecl", "QPairDecl",
                     "format_decl", "format_diagnostic", "parse", "print_model"), "dsl"),
}

# each star import also bound its module here, as a submodule of this package
__all__ = [*blowup.__all__, *correspondences.__all__, *pairs.__all__, *qdivisors.__all__, *_DEFERRED]


def __getattr__(name: str):
    # not cached, so ``modpairs.parse`` is always ``modpairs.dsl.parse``
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which loads no importlib
    return getattr(__import__(module, globals(), None, (name,), 1), name)


def __dir__() -> list[str]:
    return [*globals(), *_DEFERRED]
