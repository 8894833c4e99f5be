"""The checks behind ``dsl.print_model``: whether the line ``format_decl``
writes for each declaration parses back as that declaration.

A model that ``parse`` built passes them all; a model built through the
library may not.  ``print_model`` imports this module on its first call, so
a process that never prints a model, such as every CLI verb, does not load
it.  A name is checked as the lexer reads it: a whole ``\\w+`` word that
passes ``dsl._is_name``.
"""

from __future__ import annotations

import re

from .dsl import KEYWORDS, MAX_INT_DIGITS, CorrDecl, Decl, MapDecl, PairDecl, QPairDecl, _is_name
from .pairs import Pair

_WORD = re.compile(r"\w+")
_INT_BOUND = 10 ** MAX_INT_DIGITS  # the least integer of more than MAX_INT_DIGITS digits


def _is_name_token(word) -> bool:
    """Whether the lexer reads ``word`` as one name."""
    return type(word) is str and _WORD.fullmatch(word) is not None and _is_name(word)


def _is_label(label) -> bool:
    """Whether the lexer reads ``label`` as one point label: a name or an integer literal."""
    if type(label) is str and label.isascii() and label.isdigit():
        return len(label) <= MAX_INT_DIGITS
    return _is_name_token(label)


def _reference_fault(pairs: dict[str, PairDecl], name: str, pair: Pair | None) -> str | None:
    """Why the reference ``name`` would not read back, among the ``pairs``
    declared so far, as ``pair``, or as a corr endpoint where ``pair`` is None."""
    declared = pairs.get(name)
    if declared is None:
        return f"pair {name!r} is not declared before it"
    if pair is None:
        return None if len(declared.pair.chart.coords) == 1 else f"endpoint {name!r} is not a one-dimensional pair"
    if declared.pair != pair:
        return f"pair {name!r} is not the pair it holds"
    return None


def first_unprintable(decls: tuple[Decl, ...]) -> tuple[type, Decl, str] | None:
    """The first of ``decls`` whose line ``format_decl`` writes would not parse
    back as it, after the lines of those before it: its declaration class, it
    and why; None when every one would.  An instance of a subclass of a
    declaration class is checked, and printed, as that class."""
    names: dict[type, dict[str, Decl]] = {kind: {} for kind in KEYWORDS}  # the declarations so far
    pairs = names[PairDecl]
    charts: set[tuple[str, ...]] = set()  # coordinate lists whose every coordinate is a name token
    for decl in decls:
        kind = type(decl)
        if kind not in names:
            kind = next((k for k in KEYWORDS if isinstance(decl, k)), None)
            if kind is None:
                raise TypeError(f"not a declaration: {decl!r}")
        seen = names[kind]
        name = decl.name
        if not _is_name_token(name):
            return kind, decl, "its name is not a name token"
        if name in seen:
            return kind, decl, "its name is declared before it"
        seen[name] = decl
        if kind is PairDecl:
            coords = decl.pair.chart.coords
            if coords not in charts:
                for coord in coords:
                    if not _is_name_token(coord):
                        return kind, decl, f"coordinate {coord!r} is not a name token"
                charts.add(coords)
            ints = decl.pair.divisor.mults
        elif kind is MapDecl:
            pm = decl.pair_map
            fault = _reference_fault(pairs, decl.src, pm.src) or _reference_fault(pairs, decl.dst, pm.dst)
            if fault:
                return kind, decl, fault
            ints = [e for row in pm.map.rows for _, e in row]
        elif kind is CorrDecl:
            records = decl.corr.records
            if decl.src is None and decl.dst is None:
                if decl.monomial is None:
                    return kind, decl, "it has no endpoints, and its records are not from_monomial_param's"
            elif decl.src is None or decl.dst is None:
                return kind, decl, "it has one endpoint"
            else:
                fault = _reference_fault(pairs, decl.src, None) or _reference_fault(pairs, decl.dst, None)
                if fault:
                    return kind, decl, fault
                for r in records:
                    if not _is_label(r.label):
                        return kind, decl, f"point label {r.label!r} is neither a name token nor an integer literal"
            ints = [v for r in records for v in (r.n_x, r.n_y, r.e_x, r.e_y)]
        elif kind is QPairDecl:
            fault = _reference_fault(pairs, decl.pair_name, decl.qpair.pair)
            if fault:
                return kind, decl, fault
            ints = (decl.qpair.level,)
        else:
            fault = _reference_fault(pairs, decl.pair_name, decl.spec.pair)
            if fault:
                return kind, decl, fault
            continue
        if max(ints, default=0) >= _INT_BOUND:
            return kind, decl, f"an integer has more than {MAX_INT_DIGITS} digits"
    return None
