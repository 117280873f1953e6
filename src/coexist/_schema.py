"""A compiled validator for the JSON Schema subset of ``schema/scenario.json``.

``compile_schema`` turns a schema into plain closures once.  Each node gets
two: a predicate for the common case (a valid scenario costs one call per
value) and an error generator that runs only once the predicate has failed.
The generator walks keywords in schema order and words its messages as
jsonschema's Draft 2020-12 validator does, so ``first_error`` names the
same field with the same text.

Supported keywords: ``type`` (one of object, array, string, number,
integer), ``properties``, ``additionalProperties: false``,
``required``, ``minimum``, ``exclusiveMinimum``, ``maximum``,
``exclusiveMaximum``, ``enum`` and ``const`` (string values), ``oneOf``,
local ``$ref`` into ``$defs`` (sibling keywords apply too), ``items``,
``prefixItems``, ``minItems`` and ``maxItems``.  Compiling any other
keyword raises ``SchemaError``, so a schema edit cannot be silently ignored.

A ``number`` is a finite JSON number: NaN, +-Infinity (which ``json.loads``
accepts) and integers beyond the float range are not numbers here, and
booleans are neither numbers nor integers.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Path = Tuple[Any, ...]
Error = Tuple[Path, str]
Predicate = Callable[[Any], bool]
Errors = Callable[[Any, Path], Iterator[Error]]

# keywords that never change whether an instance is valid
_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title"})
_INT_LIMIT = int(sys.float_info.max)


class SchemaError(ValueError):
    """The schema uses a keyword, or a form of one, this validator lacks."""


def _is_number(x: Any) -> bool:
    cls = x.__class__
    if cls is float:
        return math.isfinite(x)
    if cls is int:
        return -_INT_LIMIT <= x <= _INT_LIMIT
    return False


def _is_integer(x: Any) -> bool:
    cls = x.__class__
    return cls is int or (cls is float and x.is_integer())


_TYPES: Dict[str, Predicate] = {
    "object": lambda x: x.__class__ is dict,
    "array": lambda x: x.__class__ is list,
    "string": lambda x: x.__class__ is str,
    "number": _is_number,
    "integer": _is_integer,
}

# keyword -> (passes(instance, limit), message suffix); bounds skip non-numbers
_BOUNDS = {
    "minimum": (lambda x, m: x >= m, "is less than the minimum of"),
    "exclusiveMinimum": (lambda x, m: x > m, "is less than or equal to the minimum of"),
    "maximum": (lambda x, m: x <= m, "is greater than the maximum of"),
    "exclusiveMaximum": (lambda x, m: x < m, "is greater than or equal to the maximum of"),
}


def _numeric_leaf(node: Dict[str, Any]) -> Optional[Predicate]:
    """One predicate for a node of bounds and at most a numeric ``type``, else None.

    It accepts what the keywords' predicates accept together.  Each bound is
    made inclusive (for floats by ``nextafter``, for ints by rounding); the
    float range's ends stand in for a missing one, refusing NaN and +-inf.
    """
    kind, bounds = node.get("type"), node.keys() & _BOUNDS.keys()
    if not bounds or kind not in (None, "number", "integer") or (
        node.keys() - _ANNOTATIONS - bounds - {"type"}
        or any(float(node[k]) != node[k] for k in bounds)  # an int bound no float holds
    ):
        return None
    big, integral = sys.float_info.max, kind == "integer"
    flo, fhi, ilo, ihi = -big, big, -_INT_LIMIT, _INT_LIMIT
    for keyword in bounds:
        f = float(node[keyword])
        if keyword == "minimum":
            flo, ilo = max(flo, f), max(ilo, math.ceil(f))
        elif keyword == "exclusiveMinimum":
            flo, ilo = max(flo, math.nextafter(f, math.inf)), max(ilo, math.floor(f) + 1)
        elif keyword == "maximum":
            fhi, ihi = min(fhi, f), min(ihi, math.floor(f))
        else:
            fhi, ihi = min(fhi, math.nextafter(f, -math.inf)), min(ihi, math.ceil(f) - 1)

    def is_valid(x: Any) -> bool:
        cls = x.__class__
        if cls is float:  # a non-finite float is no number, so bounds skip it
            if integral and not x.is_integer():
                return False
            return flo <= x <= fhi or (kind is None and not -big <= x <= big)
        if cls is int:  # an int beyond the float range is no number either
            return ilo <= x <= ihi or (kind != "number" and not -_INT_LIMIT <= x <= _INT_LIMIT)
        return kind is None

    return is_valid


class Validator:
    """A compiled schema node: ``is_valid`` and ``first_error``."""

    __slots__ = ("is_valid", "_errors")

    def __init__(self, is_valid: Predicate, errors: Errors):
        self.is_valid = is_valid
        self._errors = errors

    def iter_errors(self, instance: Any) -> Iterator[Error]:
        """Every error as ``(path, message)``, in jsonschema's order."""
        if self.is_valid(instance):
            return iter(())
        return self._errors(instance, ())

    def first_error(self, instance: Any) -> Optional[Error]:
        """The error with the smallest path (ties go to the earliest), if any."""
        return min(self.iter_errors(instance), key=lambda e: e[0], default=None)


def compile_schema(schema: Dict[str, Any], root: Optional[Dict[str, Any]] = None) -> Validator:
    """Compile ``schema``; ``$ref`` pointers resolve in ``root`` (default: itself)."""
    refs: Dict[str, Validator] = {}
    root = schema if root is None else root

    def resolve(ref: str) -> Validator:
        if ref not in refs:
            prefix = "#/$defs/"
            if not ref.startswith(prefix) or ref[len(prefix):] not in root.get("$defs", {}):
                raise SchemaError(f"unsupported $ref {ref!r}: only '#/$defs/<name>'")
            refs[ref] = build(root["$defs"][ref[len(prefix):]])
        return refs[ref]

    def build(node: Any) -> Validator:
        if node.__class__ is not dict:
            raise SchemaError(f"unsupported subschema {node!r}: only objects")
        checks: List[Tuple[Predicate, Errors]] = []
        for key, value in node.items():
            if key in _ANNOTATIONS:
                continue
            keyword = _KEYWORDS.get(key)
            if keyword is None:
                raise SchemaError(f"unsupported schema keyword {key!r}")
            checks.append(keyword(value, node, build, resolve))
        preds = tuple(p for p, _ in checks)
        gens = tuple(g for _, g in checks)

        is_valid = _numeric_leaf(node)
        if is_valid is None and len(preds) == 1:
            is_valid = preds[0]
        elif is_valid is None:
            def is_valid(x: Any) -> bool:
                for pred in preds:
                    if not pred(x):
                        return False
                return True

        def errors(x: Any, path: Path) -> Iterator[Error]:
            for gen in gens:
                yield from gen(x, path)

        return Validator(is_valid, errors)

    return build(schema)


# ------------------------------------------------------------------ keywords
# each takes (value, enclosing schema, build, resolve) and returns the
# keyword's (predicate, error generator) pair


def _check(pred: Predicate, message: Callable[[Any], str]) -> Tuple[Predicate, Errors]:
    """A keyword that reports at most one error, at the instance itself."""

    def errors(x, path):
        if not pred(x):
            yield path, message(x)

    return pred, errors


def _descend(children: Callable[[Any], Iterator[Tuple[Any, Any, Validator]]], pred=None):
    """A keyword that applies subschemas to (key, item, subschema) children.

    ``pred`` may replace the generic predicate on a hot path.
    """

    def generic(x):
        for _, item, sub in children(x):
            if not sub.is_valid(item):
                return False
        return True

    def errors(x, path):
        for key, item, sub in children(x):
            if not sub.is_valid(item):
                yield from sub._errors(item, path + (key,))

    return pred or generic, errors


def _type(value, node, build, resolve):
    if value.__class__ is not str or value not in _TYPES:
        raise SchemaError(f"unsupported type {value!r}")
    return _check(_TYPES[value], lambda x: f"{x!r} is not of type {value!r}")


def _bound(keyword):
    passes, words = _BOUNDS[keyword]

    def compile_bound(limit, node, build, resolve):
        if not _is_number(limit):
            raise SchemaError(f"{keyword} needs a finite number, got {limit!r}")
        return _check(
            lambda x: not _is_number(x) or passes(x, limit),
            lambda x: f"{x!r} {words} {limit!r}",
        )

    return compile_bound


def _strings(keyword, values):
    if not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{keyword} supports string values only, got {values!r}")


def _enum(value, node, build, resolve):
    _strings("enum", value)
    allowed = frozenset(value)
    return _check(
        lambda x: x.__class__ is str and x in allowed,
        lambda x: f"{x!r} is not one of {value!r}",
    )


def _const(value, node, build, resolve):
    _strings("const", [value])
    return _check(lambda x: x.__class__ is str and x == value, lambda x: f"{value!r} was expected")


def _required(value, node, build, resolve):
    names = tuple(value)
    needed = frozenset(names)

    def errors(x, path):
        if x.__class__ is dict:
            for name in names:
                if name not in x:
                    yield path, f"{name!r} is a required property"

    return (lambda x: x.__class__ is not dict or needed <= x.keys()), errors


def _additional_properties(value, node, build, resolve):
    if value is not False:
        raise SchemaError("additionalProperties supports false only")
    known = frozenset(node.get("properties", {}))

    def message(x):
        extras = sorted((k for k in x if k not in known), key=str)
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(repr(k) for k in extras)
        return f"Additional properties are not allowed ({names} {verb} unexpected)"

    return _check(lambda x: x.__class__ is not dict or x.keys() <= known, message)


def _one_of(value, node, build, resolve):
    branches = tuple(build(sub) for sub in value)

    def errors(x, path):
        valid = [sub for sub, branch in zip(value, branches) if branch.is_valid(x)]
        if not valid:
            yield path, f"{x!r} is not valid under any of the given schemas"
        elif len(valid) > 1:
            reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
            yield path, f"{x!r} is valid under each of {reprs}"

    return (lambda x: sum(b.is_valid(x) for b in branches) == 1), errors


def _ref(value, node, build, resolve):
    target = resolve(value)
    return target.is_valid, target._errors


def _properties(value, node, build, resolve):
    subs = tuple((name, build(sub)) for name, sub in value.items())

    def children(x):
        if x.__class__ is dict:
            return ((name, x[name], sub) for name, sub in subs if name in x)
        return ()

    def pred(x):  # every object in a scenario passes here
        if x.__class__ is dict:
            for name, sub in subs:
                if name in x and not sub.is_valid(x[name]):
                    return False
        return True

    return _descend(children, pred)


def _items(value, node, build, resolve):
    sub = build(value)
    prefix = len(node.get("prefixItems", ()))

    def children(x):
        if x.__class__ is list:
            return ((i, x[i], sub) for i in range(prefix, len(x)))
        return ()

    return _descend(children)


def _prefix_items(value, node, build, resolve):
    subs = tuple(build(s) for s in value)

    def children(x):
        if x.__class__ is list:
            return ((i, item, sub) for i, (item, sub) in enumerate(zip(x, subs)))
        return ()

    return _descend(children)


def _length(keyword, too_long):
    def compile_length(limit, node, build, resolve):
        if limit.__class__ is not int or limit < 0:
            raise SchemaError(f"{keyword} needs a non-negative integer, got {limit!r}")
        if too_long:
            word = "is expected to be empty" if limit == 0 else "is too long"
        else:
            word = "should be non-empty" if limit == 1 else "is too short"
        return _check(
            lambda x: x.__class__ is not list or (len(x) <= limit if too_long else len(x) >= limit),
            lambda x: f"{x!r} {word}",
        )

    return compile_length


_KEYWORDS = {
    "type": _type,
    "minimum": _bound("minimum"),
    "exclusiveMinimum": _bound("exclusiveMinimum"),
    "maximum": _bound("maximum"),
    "exclusiveMaximum": _bound("exclusiveMaximum"),
    "enum": _enum,
    "const": _const,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "oneOf": _one_of,
    "$ref": _ref,
    "items": _items,
    "prefixItems": _prefix_items,
    "minItems": _length("minItems", False),
    "maxItems": _length("maxItems", True),
}


def integer_paths(schema: Dict[str, Any], root: Optional[Dict[str, Any]] = None) -> List[Path]:
    """Key path of every object field typed ``integer``.

    Follows ``properties``, every ``oneOf`` branch and ``$ref``, so a value
    can sit at one of these paths in a branch it did not match.  Array
    items are not followed.
    """
    root = schema if root is None else root
    found: List[Path] = []

    def walk(node: Dict[str, Any], path: Path) -> None:
        if node.get("type") == "integer" and path not in found:
            found.append(path)
        if "$ref" in node:
            walk(root["$defs"][node["$ref"].rpartition("/")[2]], path)
        for key, child in node.get("properties", {}).items():
            walk(child, path + (key,))
        for child in node.get("oneOf", ()):
            walk(child, path)

    walk(schema, ())
    return found
