"""JSON file formats for models and certificates.

Model files:
    {"lattice": {"lx": int, "ly": int, "boundary": "open"|"periodic"},
     "terms": [{"plaquette": [x, y],
                "matrix": [[[re, im], ...16], ...16]}, ...]}
The matrix is row-major on the plaquette's corners in order TL, TR, BR,
BL with corner 0 as the most significant bit.  Certificate files:
    {"alpha": {"x,y": 0|1, ...}, "beta": {...}}
Floats serialize as shortest round-trip decimals, so save/load is
bit-exact.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import lattice
from .lattice import LatticeSpec
from .model import CommutingModel
from .verifier import Certificate


class FormatError(ValueError):
    """Malformed model or certificate file."""


def model_to_dict(model: CommutingModel) -> dict:
    terms = []
    for p in lattice.plaquettes(model.spec):
        m = model.terms[p]
        terms.append(
            {
                "plaquette": [p[0], p[1]],
                "matrix": [[[float(c.real), float(c.imag)] for c in row] for row in m],
            }
        )
    return {
        "lattice": {
            "lx": model.spec.lx,
            "ly": model.spec.ly,
            "boundary": model.spec.boundary,
        },
        "terms": terms,
    }


def _integer(value, what: str) -> int:
    if type(value) is not int:  # JSON true, 3.0 and 3.7 are not integers
        raise FormatError(f"{what} = {value!r} is not an integer")
    return value


def model_from_dict(data: dict) -> CommutingModel:
    try:
        lat = data["lattice"]
        lx, ly = (_integer(lat[k], k) for k in ("lx", "ly"))
        spec = LatticeSpec(lx, ly, str(lat["boundary"]))
        terms = {}
        for entry in data["terms"]:
            x, y = entry["plaquette"]
            p = (_integer(x, "plaquette x"), _integer(y, "plaquette y"))
            if p in terms:
                raise FormatError(f"plaquette {p} is listed twice")
            rows = entry["matrix"]
            m = np.array(
                [[complex(c[0], c[1]) for c in row] for row in rows], dtype=complex
            )
            terms[p] = m
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise FormatError(f"malformed model data: {exc}") from exc
    return CommutingModel(spec, terms)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "alpha": {f"{v[0]},{v[1]}": int(b) for v, b in sorted(cert.alpha.items())},
        "beta": {f"{v[0]},{v[1]}": int(b) for v, b in sorted(cert.beta.items())},
    }


def certificate_from_dict(data: dict) -> Certificate:
    def side(name: str) -> dict:
        out = {}
        for key, b in data.get(name, {}).items():
            x, y = key.split(",")
            out[(int(x), int(y))] = _integer(b, f"{name}[{key}]")
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
