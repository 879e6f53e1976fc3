"""JSON serialization for quantum groups, Cayley tables and states.

Complex numbers are always stored as ``[re, im]`` pairs; rank-3 tensors as
sparse triplet lists ``[i, j, k, re, im]``.  Floats go through ``repr``
round-tripping, so decimal fidelity exceeds 15 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .cayley import CayleyTable
from .core import FiniteQuantumGroup, StructuralError
from .states import State


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _vector_out(v) -> list:
    return [_pair(z) for z in np.asarray(v)]


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_in(pair, name) -> complex:
    """The complex number of an [re, im] pair of JSON numbers."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))):
        raise StructuralError(f"{name}: values must be [re, im] pairs of numbers, got {pair!r}")
    return complex(*pair)


def _vector_in(data, n, name) -> np.ndarray:
    if len(data) != n:
        raise StructuralError(f"{name}: expected {n} entries, got {len(data)}")
    return np.array([_complex_in(z, name) for z in data], dtype=np.complex128)


def _matrix_out(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m)]


def _matrix_in(data, n, name) -> np.ndarray:
    if len(data) != n or any(len(row) != n for row in data):
        raise StructuralError(f"{name}: expected {n}x{n} matrix")
    return np.array([[_complex_in(z, name) for z in row] for row in data], dtype=np.complex128)


def _tensor_out(t) -> list:
    t = np.asarray(t)
    idx = np.nonzero(t)  # row-major, the order of np.ndenumerate
    z = t[idx]
    cols = [a.tolist() for a in idx] + [z.real.tolist(), z.imag.tolist()]
    return [list(entry) for entry in zip(*cols)]


def _is_int(x) -> bool:
    """A JSON integer: an int, not a bool and not a float."""
    return isinstance(x, int) and not isinstance(x, bool)


def _tensor_in(items, n, name) -> np.ndarray:
    """The tensor of a triplet list; each index must be an integer in
    range(n), each [i, j, k] may appear once, and re and im are numbers."""
    t = np.zeros((n, n, n), dtype=np.complex128)
    seen = set()
    for entry in items:
        if len(entry) != 5:
            raise StructuralError(f"{name}: triplet entries must be [i,j,k,re,im]")
        i, j, k, re, im = entry
        ijk = (i, j, k)
        if not all(_is_int(x) for x in ijk):
            raise StructuralError(f"{name}: indices must be integers in {entry}")
        if not all(0 <= x < n for x in ijk):
            raise StructuralError(f"{name}: index out of range in {entry}")
        if ijk in seen:
            raise StructuralError(f"{name}: repeated index {list(ijk)}")
        seen.add(ijk)
        t[ijk] = _complex_in([re, im], name)
    return t


def qg_to_dict(qg: FiniteQuantumGroup) -> dict:
    return {
        "dim": qg.dim,
        "mult": _tensor_out(qg.mult),
        "comult": _tensor_out(qg.comult),
        "unit": _vector_out(qg.unit),
        "counit": _vector_out(qg.counit),
        "haar": _vector_out(qg.haar),
        "star": _matrix_out(qg.star),
        "antipode": _matrix_out(qg.antipode),
        "tol": qg.tol,
    }


def qg_from_dict(data: dict) -> FiniteQuantumGroup:
    try:
        n = data["dim"]
    except (KeyError, TypeError) as exc:
        raise StructuralError(f"missing or bad 'dim' field: {exc}") from exc
    if not _is_int(n) or n < 1:
        raise StructuralError(f"'dim' must be a positive integer, got {n!r}")
    required = ("mult", "comult", "unit", "counit", "haar", "star", "antipode")
    missing = [key for key in required if key not in data]
    if missing:
        raise StructuralError(f"missing fields: {missing}")
    tol = data.get("tol", 1e-9)
    if not _is_number(tol):
        raise StructuralError(f"'tol' must be a number, got {tol!r}")
    return FiniteQuantumGroup(
        dim=n,
        mult=_tensor_in(data["mult"], n, "mult"),
        comult=_tensor_in(data["comult"], n, "comult"),
        unit=_vector_in(data["unit"], n, "unit"),
        counit=_vector_in(data["counit"], n, "counit"),
        haar=_vector_in(data["haar"], n, "haar"),
        star=_matrix_in(data["star"], n, "star"),
        antipode=_matrix_in(data["antipode"], n, "antipode"),
        tol=tol,
    )


def cayley_to_dict(ct: CayleyTable) -> dict:
    return {
        "order": ct.order,
        "table": [int(x) for x in ct.table.ravel()],
        "identity": ct.identity,
        "inverse": [int(x) for x in ct.inverse],
    }


def _int_in(x, name) -> int:
    """x itself when it is a JSON integer; a float would be truncated."""
    if not _is_int(x):
        raise StructuralError(f"{name} must be an integer, got {x!r}")
    return x


def cayley_from_dict(data: dict) -> CayleyTable:
    n = _int_in(data["order"], "'order'")
    flat = [_int_in(x, "each 'table' entry") for x in data["table"]]
    if len(flat) != n * n:
        raise ValueError(f"table must have {n * n} row-major entries")
    ct = CayleyTable(np.array(flat, dtype=np.int64).reshape(n, n))
    if "identity" in data and _int_in(data["identity"], "'identity'") != ct.identity:
        raise ValueError("declared identity does not match the table")
    if "inverse" in data:
        inverse = [_int_in(x, "each 'inverse' entry") for x in data["inverse"]]
        if inverse != list(ct.inverse):
            raise ValueError("declared inverses do not match the table")
    return ct


def content_hash(qg: FiniteQuantumGroup) -> str:
    """Stable digest of the structure tensors (rounded to 12 decimals).

    Each tensor is hashed as complex128 whatever its storage dtype, and
    adding 0.0 turns each -0.0 into 0.0 (rounding a tiny negative entry
    gives -0.0, and a JSON round trip drops the zero entries of a tensor),
    so the digest depends on the values alone.  It is computed once per
    quantum group and kept on the (immutable) instance.
    """
    return qg._content_hash


def state_to_dict(state: State) -> dict:
    return {"coeffs": _vector_out(state.coeffs), "qg_hash": content_hash(state.qg)}


def state_from_dict(data: dict, qg: FiniteQuantumGroup) -> State:
    coeffs = _vector_in(data["coeffs"], qg.dim, "coeffs")
    if "qg_hash" in data and data["qg_hash"] != content_hash(qg):
        raise ValueError(
            "state was serialized against a different quantum group "
            "(content hash mismatch)"
        )
    return State(qg, coeffs)


def save_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
