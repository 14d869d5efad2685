"""JSON wire formats for the command line.

Decoders track the field path so a schema violation reports exactly where
it happened ("$.levels[0].f.matrix.data[3]: ..."). Integers are accepted
as JSON numbers or decimal strings of any length and always emitted as
decimal strings inside matrix data, where entries can exceed what other
JSON readers handle; structural counts stay plain numbers. Emitted
documents carry "schema": 1 and serialize with sorted keys so identical
runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Optional, Union

from .arith import require_prime
from .errors import InputError
from .matrices import IntMatrix

# The group and construction layers are imported by the decoders that build
# their types, so a verb that reads only matrices never loads them.
if TYPE_CHECKING:
    from .cohomology import CyclicGroupModule, GModuleSequence
    from .groups import FgAbGroup, GroupElement, Homomorphism
    from .sequences import Section, ShortExactSequence
    from .towers import KummerTower, LevelMaps, SigmaModel

SCHEMA = 1

# Largest structural count a document may carry (matrix rows and cols,
# generators, tower levels, sigma rank, module order); a group with 1,000
# free generators takes about 0.3 s and 50 MB. Larger is an input error.
MAX_COUNT = 1000

# Caps on the parameters that size a construction, measured to stay within
# tens of seconds at the cap: limit-certificate --depth, limit-split level
# and the prime of `demo chris`. Larger is an input error.
MAX_DEPTH = 32
MAX_LEVEL = 32
MAX_CHRIS_P = 61

__all__ = [
    "SCHEMA",
    "MAX_COUNT",
    "MAX_DEPTH",
    "MAX_LEVEL",
    "MAX_CHRIS_P",
    "loads_checked",
    "dumps",
    "document",
    "decode_int",
    "decode_count",
    "decode_prime",
    "decode_choice",
    "decode_matrix",
    "decode_group",
    "decode_hom",
    "decode_seq",
    "decode_tower",
    "decode_sigma",
    "decode_gmodule",
    "decode_gmodule_seq",
    "encode_int",
    "encode_matrix",
    "encode_group",
    "encode_hom",
    "encode_seq",
    "encode_element",
    "encode_section",
    "encode_tower",
]


# CPython refuses int <-> str conversions past sys.get_int_max_str_digits()
# (4300 digits by default, never below 640). Numbers of at most _CHUNK
# digits convert directly; longer ones are split in halves at a power of
# ten, which lifts the limit for this module alone.
_CHUNK = 600
_CHUNK_LIMIT = 10 ** _CHUNK


def _int_from_decimal(text: str) -> int:
    """int(text) for a string matching -?[0-9]+ of any length."""
    if len(text) <= _CHUNK:
        return int(text)
    if text[0] == "-":
        return -_int_from_decimal(text[1:])
    half = len(text) // 2
    return (_int_from_decimal(text[:-half]) * 10 ** half
            + _int_from_decimal(text[-half:]))


def _decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if -_CHUNK_LIMIT < n < _CHUNK_LIMIT:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    # 10**half <= n, since log10(2) < 0.30103 and half is below half the digits
    half = (n.bit_length() - 1) * 30103 // 200000
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def loads_checked(text: str) -> Any:
    try:
        return json.loads(text, parse_int=_int_from_decimal)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def dumps(doc: Any, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document(payload: dict) -> dict:
    out = dict(payload)
    out["schema"] = SCHEMA
    return out


def _fail(path: str, message: str) -> None:
    raise InputError(f"{path}: {message}")


@contextmanager
def _at(path: str):
    """Report an InputError raised inside the block at ``path``."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _require_dict(doc: Any, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(doc, dict):
        _fail(path, f"expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            _fail(path, f"missing field {key!r}")
    return doc


_DECIMAL = re.compile(r"-?[0-9]+")


def decode_int(doc: Any, path: str) -> int:
    if isinstance(doc, bool):
        _fail(path, "expected an integer, got a boolean")
    if isinstance(doc, int):
        return doc
    if isinstance(doc, str):
        if _DECIMAL.fullmatch(doc):
            return _int_from_decimal(doc)
        _fail(path, f"not a decimal integer: {doc!r}")
    _fail(path, f"expected an integer, got {type(doc).__name__}")


def decode_count(doc: Any, path: str, low: int = 0, high: int = MAX_COUNT) -> int:
    n = decode_int(doc, path)
    if not low <= n <= high:
        _fail(path, f"expected a count from {low} to {high}")
    return n


def decode_prime(doc: Any, path: str, high: Optional[int] = None) -> int:
    """The integer at ``path``, rejected there unless it is prime and,
    with ``high``, at most ``high``."""
    p = decode_int(doc, path)
    if high is not None and p > high:
        _fail(path, f"expected at most {high}")
    with _at(path):
        require_prime(p)
    return p


def decode_choice(doc: Any, path: str, choices: tuple[str, ...]) -> str:
    """One of the strings ``choices``. A value of another type is named
    only by its type, so no huge number is ever formatted."""
    if not isinstance(doc, str):
        _fail(path, f"expected one of {list(choices)}, got {type(doc).__name__}")
    if doc not in choices:
        _fail(path, f"expected one of {list(choices)}, got {doc!r}")
    return doc


def decode_matrix(doc: Any, path: str) -> IntMatrix:
    if isinstance(doc, list):
        if any(not isinstance(row, list) for row in doc):
            _fail(path, "matrix rows must be arrays")
        rows = len(doc)
        if rows > MAX_COUNT:
            _fail(path, f"expected at most {MAX_COUNT} rows")
        cols = len(doc[0]) if doc else 0
        for i, row in enumerate(doc):
            if len(row) > MAX_COUNT:
                _fail(f"{path}[{i}]", f"expected at most {MAX_COUNT} entries")
            if len(row) != cols:
                _fail(f"{path}[{i}]", f"expected {cols} entries, got "
                      f"{len(row)}")
        data = tuple(decode_int(doc[i][j], f"{path}[{i}][{j}]")
                     for i in range(rows) for j in range(cols))
        return IntMatrix(rows, cols, data)
    doc = _require_dict(doc, path, ("rows", "cols", "data"))
    rows = decode_count(doc["rows"], f"{path}.rows")
    cols = decode_count(doc["cols"], f"{path}.cols")
    raw = doc["data"]
    if not isinstance(raw, list):
        _fail(f"{path}.data", "expected an array")
    if len(raw) != rows * cols:
        _fail(f"{path}.data",
              f"expected {rows * cols} entries for a {rows}x{cols} "
              f"matrix, got {len(raw)}")
    data = tuple(decode_int(raw[i], f"{path}.data[{i}]")
                 for i in range(len(raw)))
    return IntMatrix(rows, cols, data)


def decode_group(doc: Any, path: str) -> FgAbGroup:
    from .groups import FgAbGroup

    doc = _require_dict(doc, path, ("generators", "relations"))
    gens = decode_count(doc["generators"], f"{path}.generators")
    rel = decode_matrix(doc["relations"], f"{path}.relations")
    with _at(path):
        return FgAbGroup(gens, rel)


def decode_hom(doc: Any, path: str) -> Homomorphism:
    from .groups import Homomorphism

    doc = _require_dict(doc, path, ("source", "target", "matrix"))
    src = decode_group(doc["source"], f"{path}.source")
    tgt = decode_group(doc["target"], f"{path}.target")
    mat = decode_matrix(doc["matrix"], f"{path}.matrix")
    with _at(path):
        return Homomorphism(src, tgt, mat)


def decode_seq(doc: Any, path: str) -> tuple[Homomorphism, Homomorphism]:
    """The two maps of a candidate sequence; exactness is not assumed
    here so the caller can decide it rather than reject the input."""
    doc = _require_dict(doc, path, ("f", "g"))
    f = decode_hom(doc["f"], f"{path}.f")
    g = decode_hom(doc["g"], f"{path}.g")
    if f.target != g.source:
        _fail(path, "f and g do not share the middle group")
    return f, g


def _decode_maps(doc: Any, path: str) -> LevelMaps:
    from .towers import LevelMaps

    doc = _require_dict(doc, path, ("alpha", "beta", "gamma"))
    return LevelMaps(alpha=decode_hom(doc["alpha"], f"{path}.alpha"),
                     beta=decode_hom(doc["beta"], f"{path}.beta"),
                     gamma=decode_hom(doc["gamma"], f"{path}.gamma"))


def decode_tower(doc: Any, path: str = "$") -> KummerTower:
    from .sequences import check_exact
    from .towers import CoKummerTower, KummerTower

    doc = _require_dict(doc, path, ("p", "n", "levels", "maps"))
    p = decode_prime(doc["p"], f"{path}.p")
    n = decode_count(doc["n"], f"{path}.n")
    direction = decode_choice(doc.get("direction", "up"), f"{path}.direction",
                              ("up", "down"))
    levels = doc["levels"]
    if not isinstance(levels, list):
        _fail(f"{path}.levels", "expected an array")
    if len(levels) != n:
        _fail(f"{path}.levels", f"expected {n} levels, got {len(levels)}")
    raw_maps = doc["maps"]
    if not isinstance(raw_maps, list):
        _fail(f"{path}.maps", "expected an array")
    seqs = []
    for i, item in enumerate(levels):
        f, g = decode_seq(item, f"{path}.levels[{i}]")
        with _at(f"{path}.levels[{i}]"):
            seqs.append(check_exact(f, g))
    maps = tuple(_decode_maps(item, f"{path}.maps[{i}]")
                 for i, item in enumerate(raw_maps))
    with _at(path):
        return (KummerTower if direction == "up" else CoKummerTower)(p, tuple(seqs), maps)


def decode_sigma(doc: Any, path: str = "$") -> SigmaModel:
    from .towers import SigmaModel

    doc = _require_dict(doc, path, ("p", "r", "M"))
    p = decode_prime(doc["p"], f"{path}.p")
    r = decode_count(doc["r"], f"{path}.r")
    mat = decode_matrix(doc["M"], f"{path}.M")
    with _at(path):
        return SigmaModel(p, r, mat)


def decode_gmodule(doc: Any, path: str = "$") -> CyclicGroupModule:
    from .cohomology import CyclicGroupModule
    from .groups import Homomorphism

    doc = _require_dict(doc, path, ("d", "group", "sigma"))
    d = decode_count(doc["d"], f"{path}.d")
    grp = decode_group(doc["group"], f"{path}.group")
    mat = decode_matrix(doc["sigma"], f"{path}.sigma")
    with _at(path):
        return CyclicGroupModule(d, grp, Homomorphism(grp, grp, mat))


def decode_gmodule_seq(doc: Any, path: str = "$") -> GModuleSequence:
    from .cohomology import GModuleMap, GModuleSequence
    from .groups import Homomorphism

    doc = _require_dict(doc, path, ("A", "B", "C", "f", "g"))
    a = decode_gmodule(doc["A"], f"{path}.A")
    b = decode_gmodule(doc["B"], f"{path}.B")
    c = decode_gmodule(doc["C"], f"{path}.C")
    f_mat = decode_matrix(doc["f"], f"{path}.f")
    g_mat = decode_matrix(doc["g"], f"{path}.g")
    with _at(path):
        f = GModuleMap(a, b, Homomorphism(a.group, b.group, f_mat))
        g = GModuleMap(b, c, Homomorphism(b.group, c.group, g_mat))
        return GModuleSequence(f=f, g=g)


def encode_int(n: Union[int, float]) -> str:
    if n == math.inf:
        return "infinite"
    return _decimal(int(n))


def encode_matrix(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "data": [_decimal(x) for x in m.data]}


def encode_group(g: FgAbGroup) -> dict:
    return {"generators": g.generator_count,
            "relations": encode_matrix(g.relations)}


def encode_hom(h: Homomorphism) -> dict:
    return {"source": encode_group(h.source),
            "target": encode_group(h.target),
            "matrix": encode_matrix(h.matrix)}


def encode_seq(seq: ShortExactSequence) -> dict:
    return {"f": encode_hom(seq.f), "g": encode_hom(seq.g)}


def encode_element(x: GroupElement) -> dict:
    return {"coords": [_decimal(c) for c in x.coords]}


def encode_section(s: Section) -> dict:
    return {"matrix": encode_matrix(s.s.matrix)}


def encode_tower(t: KummerTower) -> dict:
    return {
        "p": t.p,
        "n": t.n,
        "direction": "up" if t.upward else "down",
        "levels": [encode_seq(s) for s in t.seqs],
        "maps": [{"alpha": encode_hom(lm.alpha),
                  "beta": encode_hom(lm.beta),
                  "gamma": encode_hom(lm.gamma)} for lm in t.maps],
    }
