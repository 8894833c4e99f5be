"""Exact combinatorics of modulus pairs presented on monomial charts.

Divisor arithmetic, admissibility and twisting of monomial morphisms,
blowup charts at coordinate centers, pointwise membership tests for curve
correspondences, rational divisor levels, and a small declaration DSL with
a command driver.

``import modpairs`` loads the mathematics alone: ``pairs``, ``blowup``,
``correspondences`` and ``qdivisors``.  The two front ends load on first
use of one of their names: the DSL (``modpairs.dsl``, and with it ``re``)
through its declarations, ``Model``, ``parse`` and the printers, and the
command driver (``modpairs.cli``) through ``main``, ``run_command`` and
``Report``.
"""

from .blowup import (
    BlowupChart,
    BlowupClass,
    BlowupSpec,
    InvalidBlowupError,
    blowup_charts,
    classify,
)
from .correspondences import (
    ConstantCorr,
    CorrLocalRecord,
    CurveCorr,
    NonConstantCorr,
    corr_minimal_twist,
    from_monomial_param,
    graph_corr,
    in_colim_mcor,
    in_lcor,
    in_mcor,
)
from .pairs import (
    Chart,
    Divisor,
    MonomialMap,
    Pair,
    PairMap,
    StructureError,
    compose,
    divisor_leq,
    format_divisor,
    hom_log_exists,
    is_admissible,
    is_minimal,
    minimal_twist,
    pullback,
    twist,
)
from .qdivisors import (
    QPair,
    cube,
    cube_projection,
    cube_weight,
    q_eq,
    q_normalize,
    q_rationals,
    q_transition,
)

__all__ = [
    "BlowupChart",
    "BlowupClass",
    "BlowupDecl",
    "BlowupSpec",
    "Chart",
    "ConstantCorr",
    "CorrDecl",
    "CorrLocalRecord",
    "CurveCorr",
    "Diagnostic",
    "Divisor",
    "InvalidBlowupError",
    "MapDecl",
    "Model",
    "MonomialMap",
    "NonConstantCorr",
    "Pair",
    "PairDecl",
    "PairMap",
    "QPair",
    "QPairDecl",
    "Report",
    "StructureError",
    "blowup_charts",
    "classify",
    "compose",
    "corr_minimal_twist",
    "cube",
    "cube_projection",
    "cube_weight",
    "divisor_leq",
    "format_decl",
    "format_diagnostic",
    "format_divisor",
    "from_monomial_param",
    "graph_corr",
    "hom_log_exists",
    "in_colim_mcor",
    "in_lcor",
    "in_mcor",
    "is_admissible",
    "is_minimal",
    "main",
    "minimal_twist",
    "parse",
    "print_model",
    "pullback",
    "q_eq",
    "q_normalize",
    "q_rationals",
    "q_transition",
    "run_command",
    "twist",
]


# the front ends' names, by the module that loads on first use of one
_DEFERRED = {
    **dict.fromkeys(("Report", "main", "run_command"), "cli"),
    **dict.fromkeys(("BlowupDecl", "CorrDecl", "Diagnostic", "MapDecl", "Model", "PairDecl", "QPairDecl",
                     "format_decl", "format_diagnostic", "parse", "print_model"), "dsl"),
}


def __getattr__(name: str):
    # not cached, so ``modpairs.parse`` is always ``modpairs.dsl.parse``
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, which loads no importlib
    return getattr(__import__(module, globals(), None, (name,), 1), name)


def __dir__() -> list[str]:
    return [*globals(), *_DEFERRED]
