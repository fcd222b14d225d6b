"""JSON presentation files: the on-disk form of a GeneratorSet.

Layout: an object with `field` ({"kind":"fp","p":<prime>} or
{"kind":"rational"}), `atoms` (unique labels), `ambient_dim`, and
`generators` — m arrays of n arrays of |Δ| scalar strings.  Scalars are
strings, never JSON numbers, so exact values survive any tooling.

Structural problems (bad JSON, duplicate or unknown keys, wrong types,
missing keys) raise ParseError; semantic ones (dimensions, duplicate labels,
non-prime modulus, scalars that do not parse in the declared field) raise
ValidationError.

The same module owns the writer, `_dump`, behind every JSON text regmod
emits: `dump_json` returns a module file's text whole, and the CLI streams
its `--json` answers to stdout through it a chunk at a time.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii as _json_string

from .boolean_core import AtomSet
from .errors import ParseError, ValidationError
from .fields import Field, PrimeField, RationalField, _quote
from .module_space import GeneratorSet, ModuleVector
from .regular_algebra import AlgebraElement


def _no_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {_quote(key)}")
        obj[key] = value
    return obj


def _require_keys(obj: dict, where: str, keys: tuple[str, ...]) -> None:
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key {_quote(key)}{where}")
    for key in obj:
        if key not in keys:
            raise ParseError(f"unknown key {_quote(key)}{where}")


def _field_from_payload(payload: object) -> Field:
    if not isinstance(payload, dict):
        raise ParseError("'field' must be an object")
    kind = payload.get("kind")
    if kind == "fp":
        _require_keys(payload, " in 'field'", ("kind", "p"))
        p = payload["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError("'field.p' must be an integer")
        return PrimeField(p)
    if kind == "rational":
        _require_keys(payload, " in 'field'", ("kind",))
        return RationalField()
    raise ValidationError(f"field.kind must be 'fp' or 'rational', got {_quote(kind)}")


def parse_module_file(text: str) -> GeneratorSet:
    """Document text → validated presentation; errors carry their location."""
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer past the int-string digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    _require_keys(doc, "", ("field", "atoms", "ambient_dim", "generators"))
    field = _field_from_payload(doc["field"])
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ParseError("'atoms' must be a list of strings")
    if not atoms:
        raise ValidationError("'atoms' must be nonempty")
    if len(set(atoms)) != len(atoms):
        raise ValidationError("atom labels must be unique")
    ambient = doc["ambient_dim"]
    if not isinstance(ambient, int) or isinstance(ambient, bool):
        raise ParseError("'ambient_dim' must be an integer")
    if ambient < 1:
        raise ValidationError("'ambient_dim' must be at least 1")
    gens = doc["generators"]
    if not isinstance(gens, list):
        raise ParseError("'generators' must be a list")
    context = AtomSet(tuple(atoms))
    vectors = []
    for i, grid in enumerate(gens):
        if not isinstance(grid, list):
            raise ParseError(f"generators[{i}] must be a list of coordinate rows")
        if len(grid) != ambient:
            raise ValidationError(
                f"generators[{i}] has {len(grid)} coordinate rows, expected {ambient}"
            )
        coords = []
        for j, row in enumerate(grid):
            if not isinstance(row, list) or not set(map(type, row)) <= {str}:
                raise ParseError(f"generators[{i}][{j}] must be a list of scalar strings")
            if len(row) != len(atoms):
                raise ValidationError(
                    f"generators[{i}][{j}] has {len(row)} values, expected {len(atoms)}"
                )
            try:
                values = field.parse_row(row)
            except ValidationError as exc:
                raise ValidationError(f"generators[{i}][{j}][{exc.index}]: {exc}") from exc
            # parse_row returned canonical scalars and the length is checked above
            coords.append(AlgebraElement._raw(field, context, tuple(values)))
        vectors.append(ModuleVector(tuple(coords)))
    return GeneratorSet(field, context, ambient, tuple(vectors))


def _field_payload(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "fp", "p": field.p}
    return {"kind": "rational"}


def dump_json(value: object) -> str:
    """Exactly the text `json.dumps` writes for `value` with an indent of 2,
    for dicts with str keys, lists, str, int, bool and None; anything else
    raises TypeError.

    An iterator stands for a list and is read once, so a row of scalars can
    be given as `map(field.render, values)` and is rendered only as it is
    written: no document of rendered scalars is ever built.
    """
    out: list[str] = []
    _dump(value, "\n", out.append)
    return "".join(out)


def _dump(value: object, newline: str, write: Callable[[str], object]) -> None:
    """Write `value`'s text through `write`, a chunk at a time, as dump_json
    would return it; `newline` is "\n" plus the current indent."""
    if isinstance(value, str):
        write(_json_string(value))
    elif value is None:
        write("null")
    elif isinstance(value, bool):
        write("true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(f"{sep}{_json_string(key)}: ")
            _dump(item, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, Iterator)):
        items = list(value)
        if not items:
            write("[]")
            return
        inner = newline + "  "
        if set(map(type, items)) == {str}:  # a row of scalars: one join, no per-item call
            write(f"[{inner}{(',' + inner).join(map(_json_string, items))}{newline}]")
            return
        sep = "[" + inner
        for item in items:
            write(sep)
            _dump(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_module_file(gens: GeneratorSet) -> str:
    """Canonical document text; parse_module_file inverts it exactly."""
    render = gens.field.render
    doc = {
        "field": _field_payload(gens.field),
        "atoms": list(gens.context.labels),
        "ambient_dim": gens.ambient_dim,
        "generators": [[map(render, coord.values) for coord in g.coords] for g in gens.gens],
    }
    return dump_json(doc) + "\n"
