"""The algebra file format: one self-contained JSON document per algebra.

Shape:

    {"group": {"orders": [2, 2]},
     "bicharacter": {"exponents": [[0, 1], [1, 0]]},
     "basis": [{"name": "x", "degree": [1, 0]}, ...],
     "brackets": [{"left": "x", "right": "y", "result": {"z": "1"}}, ...]}

Scalars use the text format of the scalars module, read against the
group's exponent. Brackets use names, not indices, and only pairs with
i < j or i = j need be listed; the rest is filled in by eps-antisymmetry,
and explicitly listed redundant pairs are cross-checked. Unknown fields
are rejected everywhere. Serialization is canonical (sorted keys, fixed
indentation), so serialize(parse(f)) is byte-identical for canonical f.
``json_text`` writes that text; the CLI's reports come from it too.
"""

from __future__ import annotations

import io
import json
from functools import lru_cache
from itertools import chain, compress, count, islice, product, repeat, starmap
from json.encoder import encode_basestring_ascii
from math import prod
from operator import add, is_not, itemgetter, sub

from .algebra import ColorAlgebra
from .errors import ArityMismatch, ParseError, ValidationError
from .grading import Bicharacter, GradingGroup
from .scalars import format_scalar, parse_scalar

_TOP_KEYS = {"group", "bicharacter", "basis", "brackets"}


def _expect_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    extra = set(obj) - keys
    if extra:
        raise ParseError(f"unknown field(s) {sorted(extra)} in {where}")
    missing = keys - set(obj)
    if missing:
        raise ParseError(f"missing field(s) {sorted(missing)} in {where}")


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int; they are not integers
    return isinstance(value, int) and not isinstance(value, bool)


def algebra_from_dict(doc: dict) -> ColorAlgebra:
    _expect_keys(doc, _TOP_KEYS, "algebra document")
    _expect_keys(doc["group"], {"orders"}, "group")
    orders = doc["group"]["orders"]
    if not isinstance(orders, list) or not all(_is_int(n) for n in orders):
        raise ParseError("group.orders must be a list of integers")
    try:
        group = GradingGroup(orders)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    _expect_keys(doc["bicharacter"], {"exponents"}, "bicharacter")
    exponents = doc["bicharacter"]["exponents"]
    if not isinstance(exponents, list) or not all(
        isinstance(row, list) and all(_is_int(k) for k in row)
        for row in exponents
    ):
        raise ParseError("bicharacter.exponents must be a matrix of integers")
    try:
        bichar = Bicharacter(group, exponents)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    bc_report = bichar.validate()
    if not bc_report.ok:
        raise ValidationError(
            "invalid bicharacter: " + "; ".join(bc_report.messages()),
            location="bicharacter",
        )

    basis = doc["basis"]
    if not isinstance(basis, list):
        raise ParseError("basis must be a list")
    names, degrees = [], []
    for idx, entry in enumerate(basis):
        _expect_keys(entry, {"name", "degree"}, f"basis[{idx}]")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ParseError(f"basis[{idx}].name must be a nonempty string")
        if name in names:
            raise ParseError(f"duplicate basis name {name!r}")
        deg = entry["degree"]
        if not isinstance(deg, list) or not all(_is_int(r) for r in deg):
            raise ParseError(f"basis[{idx}].degree must be a list of integers")
        try:
            degrees.append(group.element(deg))
        except ArityMismatch as exc:
            raise ParseError(f"basis[{idx}].degree: {exc}") from exc
        names.append(name)
    index = {name: i for i, name in enumerate(names)}

    brackets = doc["brackets"]
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    table = {}
    for idx, entry in enumerate(brackets):
        _expect_keys(entry, {"left", "right", "result"}, f"brackets[{idx}]")
        for side in ("left", "right"):
            if not isinstance(entry[side], str):
                raise ParseError(f"brackets[{idx}].{side} must be a string")
            if entry[side] not in index:
                raise ParseError(
                    f"brackets[{idx}].{side}: unknown basis name {entry[side]!r}"
                )
        i, j = index[entry["left"]], index[entry["right"]]
        result = entry["result"]
        if not isinstance(result, dict):
            raise ParseError(f"brackets[{idx}].result must be an object")
        parsed = {}
        for name, text in result.items():
            if name not in index:
                raise ParseError(
                    f"brackets[{idx}].result: unknown basis name {name!r}"
                )
            if not isinstance(text, str):
                raise ParseError(f"brackets[{idx}].result[{name!r}] must be a string")
            try:
                parsed[index[name]] = parse_scalar(text, group.exponent)
            except ParseError as exc:
                raise ParseError(f"brackets[{idx}].result[{name!r}]: {exc}") from exc
        if (i, j) in table:
            raise ValidationError(
                f"bracket [{entry['left']}, {entry['right']}] listed twice",
                location=f"brackets[{idx}]",
            )
        table[(i, j)] = parsed

    a = ColorAlgebra._from_table(group, bichar, degrees, table, names=tuple(names))
    violations = a.grading_violations()
    if violations:
        i, j, k = violations[0]
        raise ValidationError(
            f"bracket [{names[i]}, {names[j]}] has a component on "
            f"{names[k]} outside the degree-sum component",
            location=(i, j, k),
        )
    return a


def parse_algebra(text: str) -> ColorAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON is nested too deeply") from exc
    return algebra_from_dict(doc)


def algebra_to_dict(a: ColorAlgebra) -> dict:
    brackets = []
    for i, plane in enumerate(a._nonzero):
        for j in range(i, a.dim):
            result = {a.names[k]: format_scalar(c) for k, c in plane[j]}
            if result:
                brackets.append(
                    {"left": a.names[i], "right": a.names[j], "result": result}
                )
    return {
        "group": {"orders": list(a.group.orders)},
        "bicharacter": {"exponents": [list(r) for r in a.bichar.exponents]},
        "basis": [
            {"name": a.names[i], "degree": list(a.degrees[i].residues)}
            for i in range(a.dim)
        ],
        "brackets": brackets,
    }


def serialize_algebra(a: ColorAlgebra) -> str:
    return json_text(algebra_to_dict(a)) + "\n"


def json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``.

    With ``indent`` set the stdlib falls back to its pure-Python encoder;
    this writer gives the same text for dict (with str keys), list, tuple,
    str, int, bool and None, and for a ``Records`` that of its list of dicts,
    escaping strings with the C ``encode_basestring_ascii``; it raises
    TypeError on any other type, subclasses of str and int included.

    Dicts, Records and lists that hold containers are streamed into one
    buffer. Every item of such a list is rendered whole, a batch of items at
    a time and value by value across the batch. Dicts that share a key set
    fill one %-template of their sorted keys: the set is shared when every
    dict has as many keys as the first and one ``itemgetter`` pass over the
    first's keys raises no KeyError; otherwise the dicts are grouped by key
    set. A run of lists (or of Records, as lists of dicts) of one length
    joins each list's item texts, or, all ints, fills one %-template of that
    length; lists of several lengths are grouped by length. An all-int
    column or run of items fills the ``%s`` slots as it is, an int's ``%s``
    being its JSON text; ``bool`` is not taken for ``int``. Each batch is one
    write, so the buffer holds few pieces.

    A Records is written in runs: rows whose values other than a ``Residues``
    column's are the same objects (equal is not enough: 1 and True have
    different texts) share one rendered row, split around the residue slot
    into a head and a tail, and the residue texts are joined between them,
    at most ``_BATCH`` rows per write.
    """
    out = io.StringIO()
    _write(obj, out, "\n")
    return out.getvalue()


class Records:
    """A list of dicts that share ``keys`` (one or more, none twice), held as one
    column per key: built from rows, or by ``_of`` from unchecked columns, in ``keys`` order.
    One column may be a ``Residues``; every other column holds its values.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, rows):
        self.keys = tuple(keys)
        if not self.keys or len(set(self.keys)) != len(self.keys):
            raise ValueError(f"Records needs distinct keys, at least one: {self.keys!r}")
        self.columns = tuple(zip(*rows, strict=True)) or ((),) * len(self.keys)

    @staticmethod
    def _of(keys: tuple, columns: tuple) -> "Records":
        records = object.__new__(Records)
        records.keys, records.columns = keys, columns
        return records

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index: slice) -> "Records":
        if not isinstance(index, slice):
            raise TypeError("a Records is sliced, not indexed; iterate it for its rows")
        return Records._of(self.keys, tuple(column[index] for column in self.columns))

    def __iter__(self):
        return (dict(zip(self.keys, row, strict=True)) for row in zip(*self.columns))

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, Records) else other)


class Residues:
    """The residues of every element of the grading group with these ``orders``,
    in group (mixed-radix) order: a sequence of fresh lists, which ``json_text``
    writes as a Records column without rendering them one at a time.
    """

    __slots__ = ("orders",)

    def __init__(self, orders):
        self.orders = tuple(orders)

    def __len__(self) -> int:
        return prod(self.orders)

    def __iter__(self):
        return map(list, product(*map(range, self.orders)))

    def __getitem__(self, index):
        return list(self)[index]


# the leaf types, exactly (subclasses are refused), and their text
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}

# list items rendered per batch: enough to share the per-batch work, few
# enough that a long list is never held as text all at once
_BATCH = 256


def _write(obj, out, newline: str) -> None:
    """Write obj at this indentation, streaming down to the list items."""
    if isinstance(obj, dict) and obj:
        _, pieces, values = _dict_template(frozenset(obj), newline)
        inner = newline + "  "
        for piece, value in zip(pieces, values(obj)):
            out.write(piece)
            _write(value, out, inner)
        out.write(pieces[-1])
    elif isinstance(obj, Records):
        _write_records(obj, out, newline)
    elif isinstance(obj, (list, tuple)) and not set(map(type, obj)) <= _LEAVES.keys():
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for start in range(0, len(obj), _BATCH):
            out.write(sep + comma.join(_texts(obj[start:start + _BATCH], inner)))
            sep = comma
        out.write(newline + "]" if len(obj) else "[]")
    else:
        out.write(_texts((obj,), newline)[0])


def _write_records(records: "Records", out, newline: str) -> None:
    """Write records as its list of dicts, one row rendered per run of rows."""
    inner = newline + "  "
    template, residue, others = _run_template(records.keys, tuple(map(type, records.columns)), inner)
    columns = [records.columns[i] for i in others]
    size = len(records if residue is None else records.columns[residue])
    if set(map(len, columns)) - {size}:
        raise ValueError("the columns of a Records must be as long as each other")
    # a run ends where a value other than the residues is not the object of the row before
    cuts = sorted({i for column in columns for i in compress(count(1), map(is_not, column[1:], column))})
    starts = [0, *cuts] if size else []
    lengths = list(map(sub, [*cuts, size], starts))
    firsts = [[column[i] for i in starts] for column in columns]
    rows = _fill(template, firsts, inner + "  ") if columns else [template % ()] * len(starts)
    if residue is None:
        texts = repeat("")
    else:
        texts = starmap(add, product(*_residue_texts(records.columns[residue].orders, inner + "  ")))
    sep, comma = "[" + inner, "," + inner
    for row, length in zip(rows, lengths):
        head, _, tail = row.partition("\0")
        joint = tail + comma + head
        while length > 0:
            out.write(sep + head + joint.join(islice(texts, min(length, _BATCH))) + tail)
            sep, length = comma, length - _BATCH
    out.write(newline + "]" if size else "[]")


@lru_cache(maxsize=256)
def _run_template(keys: tuple, types: tuple, newline: str) -> tuple:
    """The %-template of a dict with these keys at this indentation, for columns of these
    types: a NUL, which no JSON text holds, stands for the value of the ``Residues``
    column, or ends the template when there is none. Returns the template, the index of
    that column (or None), and the indices of the other columns, in sorted key order,
    whose values fill its ``%s`` slots.
    """
    if len(types) != len(keys) or types.count(Residues) > 1:
        raise ValueError(f"Records needs a column per key, one Residues at most: {keys!r}, {types!r}")
    _, pieces, _ = _dict_template(frozenset(keys), newline)
    residue = types.index(Residues) if Residues in types else None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    slots = ["\0" if i == residue else "%s" for i in order] + ["\0" if residue is None else ""]
    template = "".join(piece.replace("%", "%%") + slot for piece, slot in zip(pieces, slots))
    return template, residue, tuple(i for i in order if i != residue)


@lru_cache(maxsize=16)
def _residue_texts(orders: tuple, newline: str) -> tuple:
    """The texts of the residue lists of ``Residues(orders)`` at this indentation, in two
    parts that ``product`` pairs in group order: over every coordinate but the last, and
    over the last. That is |G| / (last order) + (last order) strings, kept for a few groups.
    """
    if not orders:
        return ("[]",), ("",)
    inner = newline + "  "
    *leading, last = orders
    prefixes = ["[" + inner + "".join(p) for p in product(*([f"{r},{inner}" for r in range(n)] for n in leading))]
    return tuple(prefixes), tuple(f"{r}{newline}]" for r in range(last))


def _texts(objs, newline: str) -> list:
    """The text of each of objs, values at the same indentation."""
    types = set(map(type, objs))
    if len(types) != 1:
        return _grouped_texts(objs, newline, type)
    kind = types.pop()
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return list(map(leaf, objs))
    inner = newline + "  "
    if issubclass(kind, dict):
        keys = objs[0].keys()
        if set(map(len, objs)) != {len(keys)}:
            return _grouped_texts(objs, newline, frozenset)
        if not keys:
            return ["{}"] * len(objs)
        template, _, values = _dict_template(frozenset(keys), newline)
        try:
            rows = list(map(values, objs))
        except KeyError:
            # as many keys as the first dict, but not the same ones
            return _grouped_texts(objs, newline, frozenset)
        return _fill(template, zip(*rows), inner)
    if issubclass(kind, (list, tuple, Records)):
        lengths = set(map(len, objs))
        if len(lengths) != 1:
            return _grouped_texts(objs, newline, len)
        n = lengths.pop()
        if not n:
            return ["[]"] * len(objs)
        # the items of all the lists, rendered together, then n per list: raw ints fill a
        # template, not cached (it would keep one as long as the longest list); texts are joined
        items = list(chain.from_iterable(objs))
        slots = _slots(items, inner)
        sep = "," + inner
        if slots is not items:
            return ["[" + inner + sep.join(row) + newline + "]" for row in zip(*[iter(slots)] * n)]
        template = "[" + inner + sep.join(["%s"] * n) + newline + "]"
        return list(map(template.__mod__, zip(*[iter(items)] * n)))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _fill(template: str, columns, newline: str) -> list:
    """One fill of template per row: a column of slot values per key, in the template's order."""
    return list(map(template.__mod__, zip(*[_slots(column, newline) for column in columns])))


def _slots(objs, newline: str) -> list:
    """What fills each of objs' %s slots: an int as it is, its %s being its text."""
    if set(map(type, objs)) == {int}:
        return objs
    return _texts(objs, newline)


def _grouped_texts(objs, newline: str, group) -> list:
    """The texts of objs, rendered together per value of group(obj)."""
    members = {}
    for i, obj in enumerate(objs):
        members.setdefault(group(obj), []).append(i)
    texts = [None] * len(objs)
    for indices in members.values():
        for i, text in zip(indices, _texts([objs[i] for i in indices], newline)):
            texts[i] = text
    return texts


@lru_cache(maxsize=256)
def _dict_template(keys: frozenset, newline: str) -> tuple:
    """The fixed text of a dict with these keys at this indentation.

    Returns a %-template of the whole dict, the pieces it is made of (the
    text before each value, then the closing brace) and a getter of the
    values in sorted key order. Algebra files give one key set per distinct
    bracket result, hence the bound.
    """
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    order = sorted(keys)
    inner = newline + "  "
    pieces = [
        ("," if i else "{") + inner + encode_basestring_ascii(key) + ": "
        for i, key in enumerate(order)
    ]
    pieces.append(newline + "}")
    template = "%s".join(piece.replace("%", "%%") for piece in pieces)
    values = itemgetter(*order) if len(order) > 1 else lambda d: (d[order[0]],)
    return template, pieces, values
