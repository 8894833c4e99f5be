"""The stated shape of every ``--machine`` record: ``tests/data/record_shapes.json``.

The table maps each verb to the shape of its record.  A shape is a JSON type
name (``"string"``, ``"integer"``, ``"boolean"`` or ``"null"``, or several
joined by ``|``), an object whose keys are exactly the record's and whose
values are shapes, or a list of one shape, for an array whose every item has
it.  A record's verb is its ``command`` field.  Standard library only.
"""

import json
from pathlib import Path

SHAPES = json.loads((Path(__file__).parent / "data" / "record_shapes.json").read_text(encoding="utf-8"))
_TYPES = {"string": str, "integer": int, "boolean": bool, "null": type(None)}


def mismatches(value, shape, where: str = "record") -> list[str]:
    """Each place where ``value``, as ``json.loads`` reads it, departs from ``shape``."""
    if isinstance(shape, dict):
        if type(value) is not dict:
            return [f"{where}: {value!r} is not an object"]
        if value.keys() != shape.keys():
            return [f"{where}: keys {sorted(value)}, not {sorted(shape)}"]
        return [fault for key in shape for fault in mismatches(value[key], shape[key], f"{where}.{key}")]
    if isinstance(shape, list):
        if type(value) is not list:
            return [f"{where}: {value!r} is not an array"]
        return [fault for i, item in enumerate(value) for fault in mismatches(item, shape[0], f"{where}[{i}]")]
    if type(value) not in [_TYPES[name] for name in shape.split("|")]:  # exact: a boolean is no integer
        return [f"{where}: {value!r} is not {shape}"]
    return []


def record_mismatches(record: dict) -> list[str]:
    """Each place where ``record`` departs from the shape stated for its verb."""
    shape = SHAPES.get(record.get("command"))
    if shape is None:
        return [f"no shape is stated for the command {record.get('command')!r}"]
    return mismatches(record, shape)
