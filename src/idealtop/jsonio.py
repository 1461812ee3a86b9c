"""Parsing of the JSON document shapes with position-annotated errors.

Shapes:
  topology   {"n": int, "opens": [[points...], ...], "labels": [...]? }
             (empty set / whole space may be omitted; labels are inert)
  ideal      {"n": int?, "carrier": [points...]} or {"generators": [[...],...]}
  map        {"n_dom": int, "n_cod": int, "values": [ints...]}
  space      {"topology": {...}, "ideal": {...}}
  instance   {"X": space, "Y": space, "f": map}
"""

from __future__ import annotations

from typing import Any

from .errors import IdealTopError, InputFileError
from .ideal import Ideal, make_ideal
from .maps import FiniteMap
from .space import MAX_POINTS, Topology, full_mask, make_topology


def _expect_dict(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise InputFileError(f"{where}: expected an object, got {type(doc).__name__}")
    return doc


def _expect_int(doc: Any, where: str) -> int:
    if not isinstance(doc, int) or isinstance(doc, bool):
        raise InputFileError(f"{where}: expected an integer, got {doc!r}")
    return doc


def _expect_list(doc: Any, where: str) -> list:
    if not isinstance(doc, list):
        raise InputFileError(f"{where}: expected an array, got {type(doc).__name__}")
    return doc


def _point_list_to_mask(doc: Any, n: int, where: str) -> int:
    mask = 0
    for i, p in enumerate(_expect_list(doc, where)):
        if not 0 <= _expect_int(p, f"{where}[{i}]") < n:
            raise InputFileError(
                f"{where}: point {p!r} outside ground set 0..{n - 1}")
        mask |= 1 << p
    return mask


def parse_topology(doc: Any, where: str = "topology") -> Topology:
    d = _expect_dict(doc, where)
    if "n" not in d:
        raise InputFileError(f"{where}: missing required key 'n'")
    n = _expect_int(d["n"], f"{where}.n")
    if not 1 <= n <= MAX_POINTS:
        raise InputFileError(
            f"{where}.n: point count {n} outside 1..{MAX_POINTS}")
    opens = {0, full_mask(n)}
    for i, o in enumerate(_expect_list(d.get("opens", []), f"{where}.opens")):
        opens.add(_point_list_to_mask(o, n, f"{where}.opens[{i}]"))
    try:
        return make_topology(n, opens)
    except IdealTopError as exc:
        raise InputFileError(f"{where}: {exc}") from exc


def parse_ideal(doc: Any, n: int | None = None, where: str = "ideal") -> Ideal:
    d = _expect_dict(doc, where)
    if "n" in d:
        n = _expect_int(d["n"], f"{where}.n")
    if n is None:
        raise InputFileError(f"{where}: missing 'n' and no surrounding space to take it from")
    if not 1 <= n <= MAX_POINTS:
        raise InputFileError(
            f"{where}.n: point count {n} outside 1..{MAX_POINTS}")
    if "carrier" in d:
        return Ideal(n, _point_list_to_mask(d["carrier"], n, f"{where}.carrier"))
    if "generators" in d:
        gens = [_point_list_to_mask(g, n, f"{where}.generators[{i}]")
                for i, g in enumerate(_expect_list(d["generators"], f"{where}.generators"))]
        return make_ideal(n, gens)
    raise InputFileError(f"{where}: need either 'carrier' or 'generators'")


def parse_map(doc: Any, where: str = "f") -> FiniteMap:
    d = _expect_dict(doc, where)
    for key in ("n_dom", "n_cod", "values"):
        if key not in d:
            raise InputFileError(f"{where}: missing required key '{key}'")
    n_dom = _expect_int(d["n_dom"], f"{where}.n_dom")
    n_cod = _expect_int(d["n_cod"], f"{where}.n_cod")
    values = _expect_list(d["values"], f"{where}.values")
    for i, v in enumerate(values):
        _expect_int(v, f"{where}.values[{i}]")
    try:
        return FiniteMap(n_dom, n_cod, tuple(values))
    except IdealTopError as exc:
        raise InputFileError(f"{where}: {exc}") from exc


def parse_space(doc: Any, where: str = "space"):
    from .star import IdealSpace
    d = _expect_dict(doc, where)
    if "topology" not in d:
        raise InputFileError(f"{where}: missing required key 'topology'")
    top = parse_topology(d["topology"], f"{where}.topology")
    if "ideal" not in d:
        raise InputFileError(f"{where}: missing required key 'ideal'")
    idl = parse_ideal(d["ideal"], top.n, f"{where}.ideal")
    try:
        return IdealSpace(top, idl)
    except IdealTopError as exc:
        raise InputFileError(f"{where}: {exc}") from exc


def parse_instance(doc: Any, where: str = "instance"):
    from .theorems import Instance
    d = _expect_dict(doc, where)
    for key in ("X", "Y", "f"):
        if key not in d:
            raise InputFileError(f"{where}: missing required key '{key}'")
    x = parse_space(d["X"], f"{where}.X")
    y = parse_space(d["Y"], f"{where}.Y")
    f = parse_map(d["f"], f"{where}.f")
    try:
        return Instance(x, y, f)
    except IdealTopError as exc:
        raise InputFileError(f"{where}: {exc}") from exc
