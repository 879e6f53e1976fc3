"""The storage dtype rule and the real and complex paths it selects.

A structure tensor and a state's coefficient vector are stored as float64
when their imaginary part is exactly zero and as complex128 otherwise, by
one rule in ``core``; derived data (GNS basis, V, its slices, invariant
subalgebras, null spaces, quotients) follow.  A diagonal phase basis change
gives a complex twin of each real input, on which the same checks run in
complex arithmetic: their residuals, ranks and verdicts must agree with the
real ones.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import qgidem as qg
from qgidem import analysis, cli, serialize
from qgidem.analysis import (
    classify,
    invariant_subalgebra,
    null_space,
    quotient_quantum_group,
)
from qgidem.core import (
    _real_matmul,
    pentagon_defect,
    unitarity_defect,
)
from qgidem.states import State, as_coeffs

from helpers import (
    algebra,
    change_basis,
    coproduct_defect,
    gns_and_unitary,
    oracle_states,
    phase_twin,
    solved,
)

TENSORS = ("mult", "unit", "star", "comult", "counit", "antipode", "haar")
TWIN_CASES = [(kind, name) for kind in ("fn", "ga") for name in ("S3", "Q8", "D4")]


@pytest.mark.parametrize("name", qg.builtin_group_names())
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_builtin_tensors_are_real(kind, name):
    g = algebra(kind, name)
    for x in (g, qg.dual(g)):
        for field in TENSORS:
            assert getattr(x, field).dtype == np.float64, field


@pytest.mark.parametrize("kind,name", TWIN_CASES)
def test_builtin_gns_unitary_and_slices_are_real(kind, name):
    gd, mu = gns_and_unitary(kind, name)
    for arr in (gd.gram, gd.onb, gd.onb_inv, gd.left_reg, mu.v):
        assert arr.dtype == np.float64
    assert mu.legs.exact
    assert mu.legs.factors.dtype == np.float64
    assert gd._hs_structure[0].dtype == np.float64


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_builtin_quotient_tensors_are_real(kind):
    g = algebra(kind, "S3")
    built = 0
    for st in oracle_states(kind, "S3"):
        try:
            q = quotient_quantum_group(g, st)
        except qg.QuantumGroupError:
            continue  # not a Haar idempotent
        built += 1
        assert q.projection.dtype == np.float64
        assert q.section.dtype == np.float64
        assert q.haar_mu.coeffs.dtype == np.float64
        for field in TENSORS:
            assert getattr(q.quotient, field).dtype == np.float64, field
    assert built


@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("ga", "D4"), ("ga", "Q8")])
def test_states_on_builtin_inputs_are_real(kind, name):
    for st in solved(kind, name) + oracle_states(kind, name):
        assert st.coeffs.dtype == np.float64
    g = algebra(kind, name)
    st = solved(kind, name)[-1]
    loaded = serialize.state_from_dict(json.loads(json.dumps(serialize.state_to_dict(st))), g)
    assert loaded.coeffs.dtype == np.float64
    assert np.array_equal(loaded.coeffs, st.coeffs)


def test_cli_walk_default_start_is_real(monkeypatch, capsys):
    starts = []

    def recording_walk(g, mu, n):
        starts.append(as_coeffs(mu))
        return qg.cesaro_walk(g, mu, n)

    monkeypatch.setattr(cli, "cesaro_walk", recording_walk)
    assert cli.main(["walk", "fn:Z4", "--steps", "1000"]) == 0
    capsys.readouterr()
    assert len(starts) == 1 and starts[0].dtype == np.float64


def z4_phase_twin():
    """(twin, t): fn:Z4 carried by t = diag(exp(i (0, 0.7, 1.9, 2.6))), whose
    comultiplication is complex while its counit stays real."""
    t = np.diag(np.exp(1j * np.array([0.0, 0.7, 1.9, 2.6])))
    return change_basis(algebra("fn", "Z4"), t), t


def test_cesaro_walk_of_a_real_start_on_complex_tensors():
    g = algebra("fn", "Z4")
    twin, t = z4_phase_twin()
    assert twin.comult.dtype == np.complex128 and twin.counit.dtype == np.float64
    for st in qg.cesaro_walk(twin, twin.counit, 5):  # the counit is idempotent
        assert np.abs(st.coeffs - twin.counit).max() <= 1e-12
    # a real start on the twin is a complex one on fn:Z4, moved by t
    w = np.array([0.4, 0.3, 0.2, 0.1])
    walk = qg.cesaro_walk(twin, w, 16)
    ref = qg.cesaro_walk(g, w @ t, 16)
    ti = np.linalg.inv(t)
    for a, b in zip(walk, ref, strict=True):
        assert np.abs(a.coeffs - b.coeffs @ ti).max() <= 1e-12
    # on real tensors a real start keeps float64 sums
    assert all(st.coeffs.dtype == np.float64 for st in qg.cesaro_walk(g, w, 16))


def test_cli_walk_from_a_real_start_on_complex_tensors(capsys, tmp_path):
    twin, _ = z4_phase_twin()
    path, init = tmp_path / "twin.json", tmp_path / "eps.json"
    serialize.save_json(path, serialize.qg_to_dict(twin))
    serialize.save_json(init, serialize.state_to_dict(State(twin, twin.counit)))
    code = cli.main(["walk", str(path), "--init", str(init), "--steps", "16"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert "extrapolated limit point is an idempotent state" in out.out


def test_any_imaginary_part_keeps_a_state_complex():
    g = algebra("fn", "S3")
    w = g.haar.astype(np.complex128)
    assert State(g, w).coeffs.dtype == np.float64  # the rule drops the zero part
    assert as_coeffs(w).dtype == np.float64
    w[1] += 1e-300j
    st = State(g, w)
    assert st.coeffs.dtype == np.complex128 and st.coeffs[1].imag == 1e-300
    assert as_coeffs(w).dtype == np.complex128
    assert not st.coeffs.flags.writeable and st.coeffs is not w


def test_state_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="shape"):
        State(algebra("fn", "S3"), np.ones(3) / 3)


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_analysis_of_a_real_state_is_real(kind):
    g = algebra(kind, "S3")
    for st in oracle_states(kind, "S3"):
        assert null_space(g, st).dtype == np.float64
        assert invariant_subalgebra(g, st).basis.dtype == np.float64


def test_analysis_module_leaves_the_dtype_to_core():
    # the real/complex storage decision lives in core; analysis takes the
    # result type of its operands
    source = Path(analysis.__file__).read_text()
    assert "complex128" not in source


def test_any_imaginary_part_keeps_a_tensor_complex():
    g = algebra("fn", "S3")
    mult = g.mult.astype(np.complex128)
    mult[0, 0, 0] += 1e-300j
    x = qg.FiniteQuantumGroup(
        dim=g.dim, mult=mult, unit=g.unit, star=g.star, comult=g.comult,
        counit=g.counit, antipode=g.antipode, haar=g.haar,
    )
    assert x.mult.dtype == np.complex128 and x.mult[0, 0, 0].imag == 1e-300
    assert x.comult.dtype == np.float64
    twin, _ = phase_twin("ga", "S3")
    assert twin.mult.dtype == np.complex128


def test_real_matmul_matches_the_complex_product():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 4))
    x = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    ref = m.astype(np.complex128) @ x
    assert np.abs(_real_matmul(m, x) - ref).max() <= 1e-14
    # a transposed (non-contiguous) operand
    assert np.abs(_real_matmul(m, x[:, :, 0].T) - (m @ x[:, :, 0].T)).max() <= 1e-14
    # real operands, and a complex matrix, take the plain product
    assert _real_matmul(m, x.real).dtype == np.float64
    mc = m + 1j * rng.standard_normal(m.shape)
    assert np.array_equal(_real_matmul(mc, x), mc @ x)


@pytest.mark.parametrize("kind,name", TWIN_CASES)
def test_validate_agrees_on_the_phase_twin(kind, name):
    g = algebra(kind, name)
    twin, _ = phase_twin(kind, name)
    real, cplx = qg.validate(g), qg.validate(twin)
    assert real.passed and cplx.passed
    assert real.cancellation_ranks == cplx.cancellation_ranks
    assert real.residuals.keys() == cplx.residuals.keys()
    for key in real.residuals:
        assert abs(real.residuals[key] - cplx.residuals[key]) <= 1e-12, key


@pytest.mark.parametrize("kind,name", TWIN_CASES)
def test_unitary_defects_agree_on_the_phase_twin(kind, name):
    g = algebra(kind, name)
    gd, mu = gns_and_unitary(kind, name)
    twin, _ = phase_twin(kind, name)
    gd_t = qg.gns(twin)
    mu_t = qg.multiplicative_unitary(twin, gd_t)
    assert mu_t.v.dtype == np.complex128
    pairs = [
        (unitarity_defect(mu.v), unitarity_defect(mu_t.v)),
        (pentagon_defect(mu.v), pentagon_defect(mu_t.v)),
        # the sampled pentagon, with complex vectors meeting a real V
        (pentagon_defect(mu.v, max_dense_dim=1), pentagon_defect(mu_t.v, max_dense_dim=1)),
        (coproduct_defect(g, gd, mu.v), coproduct_defect(twin, gd_t, mu_t.v)),
    ]
    for a, b in pairs:
        assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("kind,name", TWIN_CASES)
def test_classify_agrees_on_the_phase_twin(kind, name):
    g = algebra(kind, name)
    gd, mu = gns_and_unitary(kind, name)
    twin, t = phase_twin(kind, name)
    gd_t = qg.gns(twin)
    mu_t = qg.multiplicative_unitary(twin, gd_t)
    ti = np.linalg.inv(t)
    for st in oracle_states(kind, name):
        a = classify(g, st, gd=gd, mu=mu)
        b = classify(twin, st.coeffs @ ti, gd=gd_t, mu=mu_t)
        assert a.state.coeffs.dtype == np.float64
        assert b.state.coeffs.dtype == np.complex128
        assert a.is_haar == b.is_haar
        assert a.null_space_dim == b.null_space_dim
