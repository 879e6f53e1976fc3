import dataclasses
import hashlib
import json

import numpy as np
import pytest

import qgidem as qg
from qgidem import core, serialize
from qgidem.core import StructuralError
from qgidem.serialize import (
    cayley_from_dict,
    cayley_to_dict,
    content_hash,
    load_json,
    qg_from_dict,
    qg_to_dict,
    save_json,
    state_from_dict,
    state_to_dict,
)
from helpers import algebra, change_basis, group, oracle_states

TENSORS = ("mult", "comult", "unit", "counit", "haar", "star", "antipode")


@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "Q8"), ("fn", "Z1")])
def test_quantum_group_round_trip_exact(kind, name, tmp_path):
    g = algebra(kind, name)
    path = tmp_path / "qg.json"
    save_json(path, qg_to_dict(g))
    loaded = qg_from_dict(load_json(path))
    # repr-based floats round-trip exactly, well past 15 significant digits
    for field in ("mult", "comult", "unit", "counit", "haar", "star", "antipode"):
        assert np.array_equal(getattr(g, field), getattr(loaded, field)), field
    assert qg.validate(loaded).passed


def test_round_trip_preserves_irrational_entries(tmp_path):
    g = qg.dual(algebra("fn", "S3"))
    path = tmp_path / "dual.json"
    save_json(path, qg_to_dict(g))
    loaded = qg_from_dict(load_json(path))
    assert np.array_equal(g.haar, loaded.haar)

    # quotient constructions carry genuinely irrational structure constants
    from qgidem.analysis import quotient_quantum_group
    from qgidem.states import subgroup_state_fn

    ct = group("S3")
    fn = algebra("fn", "S3")
    a3 = [s for s in qg.all_subgroups(ct) if len(s) == 3][0]
    b = quotient_quantum_group(fn, subgroup_state_fn(fn, ct, a3).coeffs).quotient
    save_json(path, qg_to_dict(b))
    loaded = qg_from_dict(load_json(path))
    for field in ("mult", "comult", "unit", "counit", "haar", "star", "antipode"):
        assert np.array_equal(getattr(b, field), getattr(loaded, field)), field
    assert qg.validate(loaded).passed


def test_malformed_quantum_group_errors():
    g = algebra("fn", "Z2")
    data = qg_to_dict(g)
    del data["haar"]
    with pytest.raises(StructuralError, match="missing fields"):
        qg_from_dict(data)
    data = qg_to_dict(g)
    data["mult"][0] = [5, 0, 0, 1.0, 0.0]
    with pytest.raises(StructuralError, match="out of range"):
        qg_from_dict(data)
    data = qg_to_dict(g)
    data["unit"] = [[1.0, 0.0]]
    with pytest.raises(StructuralError, match="expected 2 entries"):
        qg_from_dict(data)


@pytest.mark.parametrize("field,value,message", [
    ("mult", [0.9, 0, 0, 1.0, 0.0], "indices must be integers"),
    ("mult", [True, 1, 1, 1.0, 0.0], "indices must be integers"),
    ("comult", [0, 0, "0", 1.0, 0.0], "indices must be integers"),
    ("comult", [1, 1, 0, 2.0, 0.0], "repeated index"),
    ("dim", 2.9, "'dim' must be a positive integer"),
    ("dim", True, "'dim' must be a positive integer"),
    ("dim", 0, "'dim' must be a positive integer"),
])
def test_reader_refuses_what_it_would_change(field, value, message):
    # a float or bool index would be truncated, a repeated triplet would
    # overwrite the earlier value and a float dim would be rounded down
    data = qg_to_dict(algebra("fn", "Z2"))
    if field == "dim":
        data["dim"] = value
    else:
        data[field].append(value)
    with pytest.raises(StructuralError, match=message):
        qg_from_dict(data)


@pytest.mark.parametrize("field,value", [
    ("tol", True),
    ("tol", "1e-3"),
    ("unit", [True, 0]),
    ("counit", ["1", 0]),
    ("haar", [0.5, 0, 0]),
    ("star", [0, False]),
    ("antipode", "1"),
    ("mult", [True, 0.0]),
    ("comult", [1.0, "0"]),
])
def test_reader_refuses_values_that_are_not_numbers(field, value):
    # a bool would be read as 0 or 1 and a numeric string parsed, and a
    # malformed pair is an input error like any other structural one
    data = qg_to_dict(algebra("fn", "Z2"))
    if field == "tol":
        data["tol"] = value
    elif field in ("mult", "comult"):
        data[field][0] = data[field][0][:3] + value
    elif field in ("star", "antipode"):
        data[field][0][0] = value
    else:
        data[field][0] = value
    with pytest.raises(StructuralError, match="number"):
        qg_from_dict(data)


def test_reader_refuses_a_matrix_of_the_wrong_shape():
    data = qg_to_dict(algebra("fn", "Z2"))
    data["star"] = data["star"][:1]
    with pytest.raises(StructuralError, match=r"^star: expected 2x2 matrix$"):
        qg_from_dict(data)


def test_reader_refuses_a_triplet_entry_of_the_wrong_length():
    data = qg_to_dict(algebra("fn", "Z2"))
    data["mult"].append([0, 0, 0, 1.0])
    with pytest.raises(StructuralError, match=r"^mult: triplet entries must be \[i,j,k,re,im\]$"):
        qg_from_dict(data)


def test_reader_refuses_a_quantum_group_that_is_not_an_object():
    with pytest.raises(StructuralError, match=r"^missing or bad 'dim' field: list indices"):
        qg_from_dict([2])


def test_state_reader_refuses_values_that_are_not_numbers():
    g = algebra("fn", "Z2")
    data = state_to_dict(oracle_states("fn", "Z2")[0])
    data["coeffs"][0] = [True, 0]
    with pytest.raises(StructuralError, match="coeffs: values must be"):
        state_from_dict(data, g)


def test_cayley_round_trip():
    ct = group("D4")
    data = cayley_to_dict(ct)
    loaded = cayley_from_dict(data)
    assert np.array_equal(ct.table, loaded.table)
    assert loaded.identity == ct.identity
    data["identity"] = (ct.identity + 1) % 8
    with pytest.raises(ValueError, match="identity"):
        cayley_from_dict(data)


@pytest.mark.parametrize("field,message", [
    ("order", "'order' must be an integer"),
    ("table", "each 'table' entry must be an integer"),
    ("identity", "'identity' must be an integer"),
    ("inverse", "each 'inverse' entry must be an integer"),
])
def test_cayley_reader_refuses_non_integers(field, message):
    # the right value as a float: int() and the int64 table would accept it
    data = cayley_to_dict(group("D4"))
    if field in ("table", "inverse"):
        data[field][1] = float(data[field][1])
    else:
        data[field] = float(data[field])
    with pytest.raises(StructuralError, match=message):
        cayley_from_dict(data)


@pytest.mark.parametrize("data,message", [
    ({"order": 2.9, "table": [0, 1, 1, 0], "identity": 0.7}, "'order'"),
    ({"order": 2, "table": [0, 1, 1, 0], "identity": 0.7}, "'identity'"),
    ({"order": 2, "table": [0, 1, 1.5, 0]}, "'table'"),
])
def test_cayley_reader_refuses_what_it_would_truncate(data, message):
    # the order read as 2, the identity as 0 and the entry as 1
    with pytest.raises(StructuralError, match=message):
        cayley_from_dict(data)


def test_cayley_reader_refuses_a_table_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^table must have 4 row-major entries$"):
        cayley_from_dict({"order": 2, "table": [0, 1, 1]})


def test_cayley_reader_refuses_mismatched_inverses():
    data = cayley_to_dict(group("Z4"))
    data["inverse"] = [0, 1, 2, 3]  # 1 + 1 = 2 in Z4, so 1 is not its own inverse
    with pytest.raises(ValueError, match=r"^declared inverses do not match the table$"):
        cayley_from_dict(data)


def test_state_round_trip_and_hash_check():
    g = algebra("fn", "S3")
    st = oracle_states("fn", "S3")[2]
    data = state_to_dict(st)
    loaded = state_from_dict(data, g)
    assert np.array_equal(loaded.coeffs, st.coeffs)
    other = algebra("ga", "S3")
    with pytest.raises(ValueError, match="hash mismatch"):
        state_from_dict(data, other)


def test_content_hash_distinguishes_structures():
    assert content_hash(algebra("fn", "S3")) != content_hash(algebra("ga", "S3"))
    assert content_hash(algebra("fn", "S3")) == content_hash(algebra("fn", "S3"))


def test_content_hash_is_pinned():
    # the digests of the complex128 tensors: state files saved before the
    # tensors of real inputs were stored as float64 must still load
    assert content_hash(algebra("fn", "S3")) == (
        "17998ce9d55ed257d00b642a7de722fc5c677290902bed671191787024342e41"
    )
    h = hashlib.sha256()
    for name in qg.builtin_group_names():
        for kind in ("fn", "ga"):
            g = algebra(kind, name)
            for x in (g, qg.dual(g)):
                h.update(content_hash(x).encode())
    assert h.hexdigest() == (
        "cd733236364009f482329ecf5d58a3cb60f6dcf85385d9c48a7c4adc4b8b2ad4"
    )


def test_content_hash_ignores_the_storage_dtype():
    g = algebra("ga", "D4")
    as_complex = qg.FiniteQuantumGroup(
        dim=g.dim, tol=g.tol,
        **{f: getattr(g, f).astype(np.complex128) for f in TENSORS},
    )
    assert as_complex.mult.dtype == np.float64  # the rule drops the zero part
    assert content_hash(as_complex) == content_hash(g)


@pytest.mark.parametrize("twist", [False, True])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "Q8")])
def test_round_trip_keeps_tensors_and_dtypes(kind, name, twist):
    g = algebra(kind, name)
    if twist:  # a phase basis change makes the tensors complex
        theta = np.random.default_rng(2).uniform(0.0, 2.0 * np.pi, g.dim)
        g = change_basis(g, np.diag(np.exp(1j * theta)))
        assert g.mult.dtype == np.complex128
    loaded = qg_from_dict(json.loads(json.dumps(qg_to_dict(g))))
    for field in TENSORS:
        a, b = getattr(g, field), getattr(loaded, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert content_hash(loaded) == content_hash(g)


def test_json_is_plain_data(tmp_path):
    payload = qg_to_dict(algebra("ga", "Z4"))
    text = json.dumps(payload)
    assert "complex" not in text and "(" not in text


def loop_tensor_out(t):
    """Reference: the per-entry loop the triplet list was first built with."""
    items = []
    for (i, j, k), z in np.ndenumerate(np.asarray(t)):
        if z != 0:
            items.append([int(i), int(j), int(k), z.real, z.imag])
    return items


@pytest.mark.parametrize("case", ["fn:S4", "ga:S4", "twisted ga:S3"])
def test_tensor_triplets_match_the_entry_loop(case, monkeypatch):
    if case == "twisted ga:S3":  # complex entries
        g = algebra("ga", "S3")
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, g.dim)
        g = change_basis(g, np.diag(np.exp(1j * theta)))
        assert g.comult.dtype == np.complex128
    else:
        g = algebra(*case.split(":"))
    text = json.dumps(qg_to_dict(g))
    monkeypatch.setattr(serialize, "_tensor_out", loop_tensor_out)
    assert json.dumps(qg_to_dict(g)) == text


def test_content_hash_is_computed_once_per_quantum_group(monkeypatch):
    g = dataclasses.replace(algebra("fn", "S3"))  # a fresh instance
    calls, sha256 = [], hashlib.sha256

    def counting_sha256(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(core.hashlib, "sha256", counting_sha256)
    states = oracle_states("fn", "S3")
    digests = {state_to_dict(qg.State(g, st.coeffs))["qg_hash"] for st in states}
    assert content_hash(g) in digests and len(digests) == 1
    assert len(calls) == 1
    assert content_hash(g) == content_hash(algebra("fn", "S3"))
