"""JSON file formats for models and certificates.

Model files hold each distinct term once, with one id per plaquette:
    {"lattice": {"lx": int, "ly": int, "boundary": "open"|"periodic"},
     "ids": [int, ...],
     "distinct": [matrix, ...]}
Plaquette i of `lattice.plaquettes` (row-major) has the term
distinct[ids[i]]; `save_model` numbers the terms by first appearance.  The
per-plaquette format, one matrix per plaquette, still loads (equal terms
are merged on load):
    {"lattice": {...},
     "terms": [{"plaquette": [x, y], "matrix": matrix}, ...]}
A matrix is [[[re, im], ...16], ...16], row-major on the plaquette's
corners in order TL, TR, BR, BL with corner 0 as the most significant bit.
Certificate files:
    {"alpha": {"x,y": 0|1, ...}, "beta": {...}}
Floats serialize as shortest round-trip decimals, so save/load is
bit-exact.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from . import lattice
from .lattice import LatticeSpec
from .model import CommutingModel
from .verifier import Certificate


class FormatError(ValueError):
    """Malformed model or certificate file."""


def model_to_dict(model: CommutingModel) -> dict:
    return {
        "lattice": {
            "lx": model.spec.lx,
            "ly": model.spec.ly,
            "boundary": model.spec.boundary,
        },
        "ids": model.ids.tolist(),
        "distinct": [[[[float(c.real), float(c.imag)] for c in row] for row in m] for m in model.distinct],
    }


def _integer(value, what: str) -> int:
    if type(value) is not int:  # JSON true, 3.0 and 3.7 are not integers
        raise FormatError(f"{what} = {value!r} is not an integer")
    return value


def _matrix(rows, what: str) -> np.ndarray:
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            if type(c) is not list or len(c) != 2 or type(c[0]) not in (int, float) or type(c[1]) not in (int, float):
                raise FormatError(f"{what} entry ({i}, {j}) = {c!r} is not two real numbers [re, im]")
    return np.array([[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex)


def _terms(entries) -> dict:
    terms = {}
    for entry in entries:
        x, y = entry["plaquette"]
        p = (_integer(x, "plaquette x"), _integer(y, "plaquette y"))
        if p in terms:
            raise FormatError(f"plaquette {p} is listed twice")
        terms[p] = _matrix(entry["matrix"], f"plaquette {p}")
    return terms


def _ids_and_distinct(spec: LatticeSpec, ids, distinct) -> tuple[list[int], np.ndarray]:
    if type(ids) is not list or type(distinct) is not list or not distinct:
        raise FormatError("ids and distinct must be lists, distinct not empty")
    n = math.prod(lattice.plaquette_range(spec))
    if len(ids) != n:
        raise FormatError(f"ids has {len(ids)} entries, expected {n}, one per plaquette")
    mats = []
    for j, rows in enumerate(distinct):
        mats.append(_matrix(rows, f"distinct term {j}"))
        if mats[-1].shape != (16, 16):
            raise FormatError(f"distinct term {j} has shape {mats[-1].shape}, expected 16x16")
    for k, i in enumerate(ids):
        if type(i) is not int or not 0 <= i < len(mats):
            why = "is not an integer" if type(i) is not int else f"is outside [0, {len(mats)})"
            raise FormatError(f"id {i!r} of plaquette {lattice.plaquettes(spec)[k]} {why}")
    return ids, np.stack(mats)


def model_from_dict(data: dict) -> CommutingModel:
    """A model from either file format: "ids" and "distinct", or "terms"."""
    try:
        lat = data["lattice"]
        lx, ly = (_integer(lat[k], k) for k in ("lx", "ly"))
        spec = LatticeSpec(lx, ly, str(lat["boundary"]))
        per_plaquette = "terms" in data
        if per_plaquette and ("ids" in data or "distinct" in data):
            raise FormatError("a model has either terms or ids and distinct, not both")
        if per_plaquette:
            terms = _terms(data["terms"])
        else:
            ids, distinct = _ids_and_distinct(spec, data["ids"], data["distinct"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"malformed model data: {exc}") from exc
    return CommutingModel(spec, terms) if per_plaquette else CommutingModel.from_ids(spec, ids, distinct)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "alpha": {f"{v[0]},{v[1]}": int(b) for v, b in sorted(cert.alpha.items())},
        "beta": {f"{v[0]},{v[1]}": int(b) for v, b in sorted(cert.beta.items())},
    }


def certificate_from_dict(data: dict) -> Certificate:
    def side(name: str) -> dict:
        out = {}
        for key, b in data.get(name, {}).items():
            if not (xy := re.fullmatch(r"([0-9]+),([0-9]+)", key)):  # int() also takes "1_0", " +4", "\u0663"
                raise FormatError(f"{name} key {key!r} is not two decimal coordinates x,y")
            v = (int(xy[1]), int(xy[2]))
            if v in out:
                raise FormatError(f"{name} key {key!r} names vertex {v} a second time")
            out[v] = _integer(b, f"{name}[{key}]")
        return out

    try:
        return Certificate(side("alpha"), side("beta"))
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed certificate data: {exc}") from exc


def save_model(model: CommutingModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> CommutingModel:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data)


def save_certificate(cert: Certificate, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(certificate_to_dict(cert), indent=1) + "\n", encoding="utf-8"
    )


def load_certificate(path: str | Path) -> Certificate:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read certificate file {path}: {exc}") from exc
    return certificate_from_dict(data)
