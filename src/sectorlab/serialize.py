"""JSON schemas and canonical (byte-reproducible) report output.

Numbers print with 17 significant digits so every float survives a
round trip through text.  Dictionaries keep construction order, which the
builders keep deterministic; identical inputs therefore produce identical
bytes.  The full schema catalogue lives in docs/schemas.md.

Each loader imports the engine whose objects it builds, so reading one
kind of input loads only that engine.  A loader indexes its JSON as the
schema says and checks only what Python would accept: a count's value, a
matrix's size, a value the engines reject.  Every number it reads passes
:func:`_number`, which takes only a JSON number.  :func:`read` turns the
``KeyError`` or ``TypeError`` of any other misshapen input into an
``InputFormatError`` that names the file.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import InputFormatError


# ---------------------------------------------------------------------------
# canonical writer
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in report")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _dump(obj: Any, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f"{pad}  {json.dumps(str(k))}: ")
            _dump(v, indent + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            pieces.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, str, np.integer,
                                    np.floating)) or v is None for v in seq)
        if simple:
            pieces.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        pieces.append("[\n")
        for i, v in enumerate(seq):
            pieces.append(pad + "  ")
            _dump(v, indent + 1, pieces)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_scalar(obj))


def _scalar(v: Any) -> str:
    if v is None or isinstance(v, bool):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps_canonical(obj: Any) -> str:
    pieces: list[str] = []
    _dump(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_report(path, obj: Any) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def format_csv(rows: list[list], header: list[str]) -> str:
    """Deterministic CSV with 17-significant-digit numbers."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(float(v)) if isinstance(v, (float, np.floating))
            else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrices, states, algebras
# ---------------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


#: the types of a JSON number as ``json`` reads it; a bool is not one of them
_NUMBER_TYPES = frozenset((int, float))


def _number(value, integral: bool = False) -> float | int:
    """A number of an input file: ``InputFormatError`` unless ``value`` is a
    JSON number, never a bool, and integral when ``integral``.  Returned as
    an int when ``integral``, otherwise as a float, so NaN and the
    infinities pass on to the engines, which reject them with their own
    messages."""
    if type(value) not in _NUMBER_TYPES:
        raise InputFormatError(f"{value!r} is not a number")
    if not integral:
        return float(value)
    if type(value) is float and not (math.isfinite(value) and value == int(value)):
        raise InputFormatError(f"{value!r} is not an integer")
    return int(value)


def _numbers(values, integral: bool = False) -> np.ndarray:
    """A list of numbers, or of such lists, read by :func:`_number` into a
    float array, or an int array when ``integral``.  A flat list of floats
    and ints, each of which :func:`_number` passes, goes to numpy in one
    call."""
    if integral or not set(map(type, values)) <= _NUMBER_TYPES:
        values = [_numbers(v, integral) if type(v) is list else _number(v, integral)
                  for v in values]
    return np.array(values, dtype=int if integral else float)


def _count(obj, key: str, least: int = 0) -> int:
    """``obj[key]`` as a count: ``InputFormatError`` unless it is an
    integral number of at least ``least`` (``KeyError`` when it is missing)."""
    value = obj[key]
    try:
        number = _number(value, integral=True)
    except InputFormatError:
        number = None
    if number is None or number < least:
        raise InputFormatError(
            f"'{key}' must be an integer of at least {least}, got {value!r}")
    return number


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = _count(obj, "rows"), _count(obj, "cols")
    re, im = _numbers(obj["re"]), _numbers(obj["im"])
    if re.size != rows * cols or im.size != rows * cols:
        raise InputFormatError(
            f"matrix entries ({re.size}) do not match {rows}x{cols}"
        )
    return (re + 1j * im).reshape(rows, cols)


def state_to_json(s: State) -> dict:
    return {"label": s.label, "density": matrix_to_json(s.density)}


def state_from_json(obj) -> State:
    from .algebra import State

    s = State(matrix_from_json(obj["density"]), label=str(obj.get("label", "")))
    s.validate()
    return s


def algebra_from_json(obj) -> OperatorAlgebra:
    """The full matrix algebra B(C^d), given as {"full_dim": d}."""
    from .algebra import full_matrix_algebra

    if not (isinstance(obj, dict) and "full_dim" in obj):
        raise InputFormatError(
            'field algebra must be {"full_dim": d}, the full matrix algebra '
            "B(C^d); no other field algebra is supported"
        )
    return full_matrix_algebra(_count(obj, "full_dim"))


# ---------------------------------------------------------------------------
# groups, representations, nets
# ---------------------------------------------------------------------------


def group_from_json(obj) -> FiniteGroup:
    from .groups import FiniteGroup, builtin_group, check_order

    if isinstance(obj, str):
        g = builtin_group(obj)
    elif isinstance(obj, dict) and "name" in obj:
        g = builtin_group(str(obj["name"]))
    elif isinstance(obj, dict) and "table" in obj:
        check_order(len(obj["table"]))
        g = FiniteGroup(_numbers(obj["table"], integral=True),
                        name=str(obj.get("label", "")))
    else:
        raise InputFormatError(
            "group must be a built-in name or {'order': n, 'table': [[...]]}"
        )
    g.validate()
    return g


def group_to_json(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [[int(x) for x in row] for row in g.table]}


def rep_from_json(obj, group: FiniteGroup | None = None) -> UnitaryRep:
    from .groups import UnitaryRep

    if group is None:
        group = group_from_json(obj["group"])
    rep = UnitaryRep(group, np.array([
        matrix_from_json(m) for m in obj["matrices"]
    ]))
    rep.validate()
    return rep


def rep_to_json(rep: UnitaryRep) -> dict:
    name = rep.group.name
    return {"group": name if name else group_to_json(rep.group),
            "matrices": [matrix_to_json(m) for m in rep.matrices]}


def net_from_json(obj) -> LatticeNet:
    from .dhrnet import LatticeNet

    sites = _count(obj, "sites", least=1)
    onsite_dim = _count(obj, "onsite_dim")
    group = group_from_json(obj.get("group", "cyclic:2"))
    rep = rep_from_json({"matrices": obj["onsite_rep"]}, group=group)
    if rep.dim != onsite_dim:
        raise InputFormatError(
            f"onsite_rep dimension {rep.dim} != onsite_dim {onsite_dim}"
        )
    return LatticeNet(sites, rep)


def net_to_json(net: LatticeNet) -> dict:
    name = net.onsite_rep.group.name
    return {
        "sites": net.n_sites,
        "onsite_dim": net.onsite_dim,
        "group": name if name else group_to_json(net.onsite_rep.group),
        "onsite_rep": [matrix_to_json(m) for m in net.onsite_rep.matrices],
    }


# ---------------------------------------------------------------------------
# thermal objects and channels
# ---------------------------------------------------------------------------


def system_from_json(obj) -> HamiltonianSystem:
    from .thermal import HamiltonianSystem

    number = obj.get("number")
    return HamiltonianSystem(
        matrix_from_json(obj["hamiltonian"]),
        None if number is None else matrix_from_json(number),
    )


def system_to_json(sys: HamiltonianSystem) -> dict:
    out = {"hamiltonian": matrix_to_json(sys.hamiltonian)}
    if sys.number is not None:
        out["number"] = matrix_to_json(sys.number)
    return out


def grid_from_json(obj) -> ThermalGrid:
    from .thermal import ThermalGrid

    pts = obj["points"]
    if not pts:
        raise InputFormatError("grid object needs a nonempty 'points' list")
    return ThermalGrid(tuple(
        (_number(p["beta"]), None if p.get("mu") is None else _number(p["mu"]))
        for p in pts))


def grid_to_json(grid: ThermalGrid) -> dict:
    pts = []
    for beta, mu in grid.points:
        p = {"beta": beta}
        if mu is not None:
            p["mu"] = mu
        pts.append(p)
    return {"points": pts}


def probes_from_json(obj) -> list[tuple[str, np.ndarray]]:
    return [(str(item["name"]), matrix_from_json(item["matrix"])) for item in obj]


def probes_to_json(probes) -> list:
    return [{"name": n, "matrix": matrix_to_json(m)} for n, m in probes]


def measured_from_json(obj) -> dict[str, float]:
    return {str(k): _number(v) for k, v in obj["values"].items()}


def hierarchy_from_json(obj) -> ObservableHierarchy:
    from .thermal import ObservableHierarchy

    if not obj["levels"]:
        raise InputFormatError("a hierarchy needs at least one level")
    h = ObservableHierarchy(tuple(
        (str(lv["name"]), tuple(probes_from_json(lv["probes"])))
        for lv in obj["levels"]))
    h.validate_nesting()
    return h


def hierarchy_to_json(h: ObservableHierarchy) -> dict:
    return {"levels": [
        {"name": name, "probes": probes_to_json(probes)}
        for name, probes in h.levels
    ]}


def _label_to_json(label):
    if isinstance(label, tuple):
        return [float(x) for x in label]
    return label


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_number(x) for x in obj)
    return str(obj)


def channel_from_json(obj) -> ClassicalQuantumChannel:
    from .channels import ClassicalQuantumChannel, ClassifyingSpace

    space_obj = obj["space"]
    labels = tuple(_label_from_json(l) for l in space_obj.get("labels", []))
    names = space_obj.get("coord_names")
    space = ClassifyingSpace(labels,
                             None if names is None else tuple(names))
    return ClassicalQuantumChannel(
        space, tuple(state_from_json(s) for s in obj["fibres"])
    )


def channel_to_json(chan: ClassicalQuantumChannel) -> dict:
    space: dict = {"labels": [_label_to_json(l) for l in chan.space.labels]}
    if chan.space.coord_names is not None:
        space["coord_names"] = list(chan.space.coord_names)
    return {"space": space, "fibres": [state_to_json(s) for s in chan.fibre_states]}


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise InputFormatError(
            f"{path}: malformed JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}"
        ) from err
    except OSError as err:
        raise InputFormatError(f"{path}: {err.strerror}") from err


def read(path, loader):
    """The object that ``loader`` builds from the JSON file at ``path``.

    The one place where an input file becomes an object.  A field the
    loader misses (``KeyError``) or a value of the wrong shape or type
    (``TypeError``, ``AttributeError``, ``OverflowError``) is an
    ``InputFormatError`` naming the file, and so is any other input error
    of the loader's.  ``numpy.linalg.LinAlgError``, a ``ValueError`` of the
    computation, passes through.
    """
    obj = load_json(path)
    try:
        return loader(obj)
    except KeyError as err:
        raise InputFormatError(f"{path}: missing field {err}") from err
    except (TypeError, AttributeError, OverflowError) as err:
        raise InputFormatError(f"{path}: malformed input: {err}") from err
    except np.linalg.LinAlgError:
        raise
    except ValueError as err:
        raise InputFormatError(f"{path}: {err}") from err
