import dataclasses
import tracemalloc

import numpy as np
import pytest

import qgidem as qg
from qgidem import analysis, core
from qgidem.analysis import (
    CLASSIFY_TOL,
    _algebra_residuals,
    _kernel_basis,
    _symmetry_residual_dense,
    antipode_invariance,
    build_lattice,
    classify,
    coaction_checks,
    homogeneous_space_check,
    ideal_residual,
    invariant_subalgebra,
    multiplicative_domain_check,
    null_space,
    omega_c_identity_residual,
    orthonormal_columns,
    projection_defect,
    quotient_quantum_group,
    right_invariance_residual,
    state_from_subalgebra,
    subspace_defect,
    symmetry_residual,
    v_projection,
    verify_conditional_expectation,
)
from qgidem.core import InternalConsistencyError, MultUnitary, QuantumGroupError, frobenius
from qgidem.states import (
    left_slice,
    subgroup_state_fn,
    subgroup_state_ga,
)

from helpers import (
    SOLVER_CASES,
    algebra,
    badly_conditioned,
    basis_vector,
    dense_algebra,
    first_leg_twist,
    gns_and_unitary,
    kac_paljutkin,
    non_associative_case,
    group,
    match_state,
    oracle_states,
    phase_twin,
    pinv_v_projection,
    random_state,
    random_unitary,
    right_regular_twist,
    solved,
)


def subgroups_by_order(name):
    ct = group(name)
    out = {}
    for sub in qg.all_subgroups(ct):
        out.setdefault(len(sub), []).append(sub)
    return out


# -- null spaces and ideals ----------------------------------------------


def test_null_space_examples():
    fn2 = algebra("fn", "Z2")
    assert null_space(fn2, fn2.haar).shape[1] == 0
    eps_null = null_space(fn2, fn2.counit)
    assert eps_null.shape[1] == 1
    assert abs(abs(eps_null[1, 0]) - 1.0) < 1e-12  # spanned by the off-identity point

    ct = group("S3")
    ga = algebra("ga", "S3")
    order2 = subgroups_by_order("S3")[2][0]
    assert null_space(ga, subgroup_state_ga(ga, ct, order2).coeffs).shape[1] == 3


def test_is_ideal_examples():
    fn = algebra("fn", "S3")
    assert ideal_residual(fn, np.zeros((6, 0))) <= CLASSIFY_TOL
    assert ideal_residual(fn, null_space(fn, fn.counit)) <= CLASSIFY_TOL
    ct = group("S3")
    ga = algebra("ga", "S3")
    order2 = subgroups_by_order("S3")[2][0]
    bad = null_space(ga, subgroup_state_ga(ga, ct, order2).coeffs)
    assert ideal_residual(ga, bad) > 0.1


def test_ideal_residual_does_not_depend_on_the_basis_of_the_null_space():
    # a maximum over the columns of one orthonormal basis of N_omega would
    # move when that basis is rotated; per-operator norms do not
    g = algebra("ga", "S4")
    rng = np.random.default_rng(0)
    non_haar = 0
    for st in oracle_states("ga", "S4"):
        nsp = null_space(g, st)
        value = ideal_residual(g, nsp)
        if value <= CLASSIFY_TOL:
            continue
        non_haar += 1
        rotated = nsp @ random_unitary(nsp.shape[1], rng)
        assert abs(ideal_residual(g, rotated) - value) <= 1e-12
    assert non_haar == 26


# -- invariant subalgebras -----------------------------------------------


def test_invariant_subalgebra_extremes():
    g = algebra("fn", "S3")
    sub_eps = invariant_subalgebra(g, g.counit)
    assert sub_eps.dim == 6
    assert np.abs(sub_eps.exp - np.eye(6)).max() < 1e-12
    sub_h = invariant_subalgebra(g, g.haar)
    assert sub_h.dim == 1
    assert np.abs(sub_h.exp - np.outer(g.unit, g.haar)).max() < 1e-12
    for sub in (sub_eps, sub_h):
        assert sub.is_algebra and sub.is_selfadjoint
        assert sub.is_right_invariant and sub.is_expected


def test_invariant_subalgebra_coset_functions():
    ct = group("S3")
    g = algebra("fn", "S3")
    a3 = subgroups_by_order("S3")[3][0]
    sub = invariant_subalgebra(g, subgroup_state_fn(g, ct, a3).coeffs)
    assert sub.dim == 2
    assert sub.is_algebra and sub.is_right_invariant and sub.is_expected


def test_invariant_subalgebra_rejects_non_idempotent():
    g = algebra("fn", "Z2")
    with pytest.raises(ValueError, match="idempotent"):
        invariant_subalgebra(g, np.array([0.7, 0.3]))


def test_slice_is_conditional_expectation_only_for_idempotents():
    # the L(a) L(b) = L(L(a) b) identity characterizes idempotent states
    for g in (algebra("fn", "Z2"), dense_algebra("fn", "Z2")[0], dense_algebra("ga", "S3")[0]):
        m = g.mult

        def cond_defect(w):
            lw = left_slice(g, w)
            return np.abs(
                np.einsum("pi,qj,pqr->rij", lw, lw, m)
                - np.einsum("rq,pi,pjq->rij", lw, lw, m)
            ).max()

        assert cond_defect(g.haar) < 1e-14
        assert cond_defect(g.counit) < 1e-14
        # 0.4 eps + 0.6 h, [0.7, 0.3] on fn:Z2, is a state and not idempotent
        assert cond_defect(0.4 * g.counit + 0.6 * g.haar) > 0.1


def test_conditional_expectation_reports():
    g = algebra("fn", "Z2")
    # identity onto the full algebra
    rep = verify_conditional_expectation(g, np.eye(2), np.eye(2))
    assert rep.passed and rep.dim_subalgebra == 2 and rep.dim_kernel == 0
    # Haar projection onto scalars
    e_h = np.outer(g.unit, g.haar)
    rep = verify_conditional_expectation(g, e_h, g.unit[:, None])
    assert rep.passed and rep.dim_subalgebra == 1 and rep.dim_kernel == 1
    # oblique projection onto scalars (counit instead of Haar) is a
    # projection but fails Haar preservation and Haar orthogonality
    e_bad = np.outer(g.unit, g.counit)
    rep = verify_conditional_expectation(g, e_bad, g.unit[:, None])
    assert not rep.passed
    assert rep.residuals["idempotent"] < 1e-12
    assert rep.residuals["haar_preserving"] > 0.1
    assert rep.residuals["haar_orthogonal_projection"] > 0.1


def test_conditional_expectation_for_every_sample_idempotent():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        gd, _ = gns_and_unitary(kind, name)
        for st in solved(kind, name):
            sub = invariant_subalgebra(g, st.coeffs)
            rep = verify_conditional_expectation(g, sub.exp, sub.basis, gd=gd)
            assert rep.passed, (kind, name, rep.residuals)
            assert rep.dim_subalgebra + rep.dim_kernel == g.dim


# -- symmetry ------------------------------------------------------------


def test_symmetric_subalgebra_examples():
    ct = group("S3")
    g = algebra("ga", "S3")
    gd, mu = gns_and_unitary("ga", "S3")
    assert symmetry_residual(g, gd, mu, g.unit[:, None]) <= CLASSIFY_TOL
    by_order = subgroups_by_order("S3")
    a3_basis = np.eye(6)[:, list(by_order[3][0])]
    assert symmetry_residual(g, gd, mu, a3_basis) <= CLASSIFY_TOL
    order2_basis = np.eye(6)[:, list(by_order[2][0])]
    assert symmetry_residual(gd=gd, mu=mu, qg=g, c_basis=order2_basis) > 0.1


def kron_symmetry_residual(g, gd, v, c_basis):
    """symmetry_residual with 1 (x) pi(c) as a dense Kronecker factor: the
    root of the sum of squares of the per-c defects over the basis c."""
    n = g.dim
    u = orthonormal_columns(c_basis)
    q = orthonormal_columns(
        np.stack([gd.rep(u[:, i]).ravel() for i in range(u.shape[1])], axis=1)
    )
    sq = 0.0
    for i in range(u.shape[1]):
        x = v.conj().T @ np.kron(np.eye(n), gd.rep(u[:, i])) @ v
        rows = x.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        sq += np.linalg.norm(rows - rows @ q.conj() @ q.T) ** 2
    return np.sqrt(sq)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("fn", "Q8"), ("ga", "Q8")])
def test_symmetry_residual_matches_kron_reference(kind, name, dense):
    base = algebra(kind, name)
    g, t = dense_algebra(kind, name) if dense else (base, np.eye(base.dim))
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    residuals = []
    for st in oracle_states(kind, name):
        c_basis = left_slice(g, st.coeffs @ np.linalg.inv(t))
        res = symmetry_residual(g, gd, mu, c_basis)
        assert abs(res - kron_symmetry_residual(g, gd, mu.v, c_basis)) <= 1e-12
        residuals.append(res)
    # on ga:S3 the order-2 subgroups are not normal: the parity is not 0 = 0
    if (kind, name) == ("ga", "S3"):
        assert max(residuals) > 0.1


def dense_symmetry_residual(g, gd, v, c_basis):
    """symmetry_residual through its dense loop, whatever V's factors."""
    u = orthonormal_columns(c_basis)
    reps = [gd.rep(u[:, i]) for i in range(u.shape[1])]
    q = orthonormal_columns(np.stack([x.ravel() for x in reps], axis=1))
    return _symmetry_residual_dense(v, reps, q)


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_factored_symmetry_residual_matches_dense_on_s4(kind):
    g = algebra(kind, "S4")
    gd, mu = gns_and_unitary(kind, "S4")
    assert mu.legs.exact
    states = oracle_states(kind, "S4")
    residuals = []
    for st in states[::5]:  # 6 of the 30 subgroups, orders 1 to 24
        c_basis = left_slice(g, st.coeffs)
        res = symmetry_residual(g, gd, mu, c_basis)
        assert abs(res - dense_symmetry_residual(g, gd, mu.v, c_basis)) <= 1e-12
        residuals.append(res)
    if kind == "ga":  # non-normal subgroups among them: not 0 = 0
        assert max(residuals) > 0.1


@pytest.mark.parametrize("exact", [True, False])
def test_symmetry_residual_depends_on_c_alone(exact):
    # a rotated orthonormal basis of C gives the same residual, on the
    # slices of V and in the dense loop; the largest defect over the basis
    # moves by several percent under such a rotation on dense ga:S4
    g, t = dense_algebra("ga", "S4")
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    if not exact:
        mu = MultUnitary(v=mu.v, legs=dataclasses.replace(mu.legs, exact=False))
    rng = np.random.default_rng(3)
    moved = 0
    for st in oracle_states("ga", "S4")[::3]:
        u = orthonormal_columns(left_slice(g, st.coeffs @ np.linalg.inv(t)))
        res = symmetry_residual(g, gd, mu, u)
        rotated = u @ random_unitary(u.shape[1], rng)
        assert abs(symmetry_residual(g, gd, mu, rotated) - res) <= 1e-12 * max(1.0, res)
        moved += res > 0.1
    assert moved >= 3


def test_symmetry_fallback_on_a_valid_v_outside_pi_a():
    g = algebra("ga", "S3")
    gd, mu = gns_and_unitary("ga", "S3")
    # u commutes with pi(A), so V^*(1 (x) u^* pi(c) u)V is unchanged
    twisted = MultUnitary(v=right_regular_twist(g, gd, mu, 1))
    assert not twisted.leg_factors(gd).exact
    for st in oracle_states("ga", "S3"):
        c_basis = left_slice(g, st.coeffs)
        res = symmetry_residual(g, gd, twisted, c_basis)
        assert abs(res - symmetry_residual(g, gd, mu, c_basis)) <= 1e-12
        assert abs(res - kron_symmetry_residual(g, gd, twisted.v, c_basis)) <= 1e-12


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_symmetry_fallback_when_pi_a_is_not_closed(kind):
    g, gd, v = non_associative_case(kind, "S3")
    mu = MultUnitary(v=v)
    assert not mu.leg_factors(gd).exact
    for st in oracle_states(kind, "S3"):
        c_basis = left_slice(g, st.coeffs)
        res = symmetry_residual(g, gd, mu, c_basis)
        assert abs(res - kron_symmetry_residual(g, gd, v, c_basis)) <= 1e-12


def zoo_input(label):
    """(g, states) for a label "fn:S4", "dense ga:S4", "phase ga:D4", "KP"
    or "dual:KP": the oracle states moved with the basis, or on the Kac-
    Paljutkin inputs the solver's eight."""
    if label in ("KP", "dual:KP"):
        g = kac_paljutkin() if label == "KP" else qg.dual(kac_paljutkin())
        return g, [st.coeffs for st in qg.solve_idempotents(g)]
    form, _, spec = label.rpartition(" ")
    kind, name = spec.split(":")
    if form:
        g, t = (dense_algebra if form == "dense" else phase_twin)(kind, name)
    else:
        g, t = algebra(kind, name), np.eye(algebra(kind, name).dim)
    return g, [st.coeffs @ np.linalg.inv(t) for st in oracle_states(kind, name)]


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_symmetry_of_a_first_leg_twist_takes_the_dense_loop(kind, monkeypatch):
    # V (u (x) 1) keeps its second leg in pi(A), so its slices are exact,
    # but u is outside the dual and the first leg is not closed; u is
    # unitary, so V^*(1 (x) x)V only moves by it and the residual stays
    g = algebra(kind, "S3")
    gd, mu = gns_and_unitary(kind, "S3")
    a = basis_vector(g.dim, 1) if kind == "ga" else np.ones(g.dim) - 2 * basis_vector(g.dim, 1)
    twisted = MultUnitary(v=first_leg_twist(g, gd, mu, a))
    legs = twisted.leg_factors(gd)
    assert legs.exact and legs.conjugation is None
    dense_calls = []

    def counted(*args):
        dense_calls.append(1)
        return _symmetry_residual_dense(*args)

    monkeypatch.setattr(analysis, "_symmetry_residual_dense", counted)
    states = oracle_states(kind, "S3")
    for st in states:
        c_basis = left_slice(g, st.coeffs)
        res = symmetry_residual(g, gd, twisted, c_basis)
        assert abs(res - kron_symmetry_residual(g, gd, twisted.v, c_basis)) <= 1e-12
        assert abs(res - symmetry_residual(g, gd, mu, c_basis)) <= 1e-12
    assert len(dense_calls) == len(states)


ZOO = [
    f"{form}{kind}:{name}"
    for form in ("", "dense ", "phase ")
    for kind in ("fn", "ga")
    for name in ("S3", "D4", "Q8")
] + ["KP", "dual:KP"]


@pytest.mark.parametrize("label", ZOO)
def test_valid_inputs_take_the_fast_symmetry_path(label, monkeypatch):
    def fallback(*args):
        raise AssertionError("dense symmetry loop taken on a valid input")

    monkeypatch.setattr(analysis, "_symmetry_residual_dense", fallback)
    g, states = zoo_input(label)
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    assert mu.legs.conjugation is not None
    for w in states:
        symmetry_residual(g, gd, mu, left_slice(g, w))


@pytest.mark.parametrize("label", ["KP", "dual:KP"])
def test_symmetry_residual_matches_dense_on_kac_paljutkin(label):
    # noncommutative and noncocommutative: neither leg of V is a group's
    g, states = zoo_input(label)
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    residuals = []
    for w in states:
        c_basis = left_slice(g, w)
        res = symmetry_residual(g, gd, mu, c_basis)
        assert abs(res - dense_symmetry_residual(g, gd, mu.v, c_basis)) <= 1e-12
        residuals.append(res)
    assert sum(res > 0.1 for res in residuals) == 2  # Pal's two non-Haar states


@pytest.mark.parametrize(
    "label", ["fn:S4", "ga:S4", "KP", "dual:KP", "dense ga:S4", "phase ga:D4"]
)
def test_tracial_witness_agrees_with_classify(label):
    # a Haar idempotent is exactly a tracial one; the smallest non-tracial
    # residual over these inputs is 0.707 (on KP and dual:KP)
    g, states = zoo_input(label)
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    for w in states:
        res = analysis._trace_residual(g, w)
        if classify(g, w, gd=gd, mu=mu).is_haar:
            assert res <= 1e-12
        else:
            assert res > 0.5


def test_a_tracial_disagreement_raises(monkeypatch):
    g = algebra("ga", "S3")
    gd, mu = gns_and_unitary("ga", "S3")
    monkeypatch.setattr(analysis, "_trace_residual", lambda qg, w: 0.25)
    with pytest.raises(InternalConsistencyError, match="tracial residual 2.50e-01"):
        classify(g, g.haar, gd=gd, mu=mu)


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_invariant_subalgebra_on_dense_basis(kind):
    # L_omega is not symmetric in a dense basis, so the conditional
    # expectation check must read it the right way round
    g, t = dense_algebra(kind, "S3")
    for st in oracle_states(kind, "S3"):
        base = invariant_subalgebra(algebra(kind, "S3"), st)
        sub = invariant_subalgebra(g, st.coeffs @ np.linalg.inv(t))
        assert sub.dim == base.dim
        assert sub.is_algebra and sub.is_selfadjoint
        assert sub.is_right_invariant and sub.is_expected
        # C transports with the basis: t C_base = C
        moved = t @ base.basis
        assert np.linalg.norm(moved - sub.basis @ (sub.basis.conj().T @ moved)) < 1e-10


# -- the batched subspace check against the per-column loops it replaced --


def loop_membership(x, basis):
    x = np.asarray(x, dtype=np.complex128).ravel()
    if basis.shape[1] == 0:
        return frobenius(x)
    return frobenius(x - basis @ (basis.conj().T @ x))


def loop_ideal_residual(g, basis):
    # per operator, the Frobenius norm of its projected image of the basis
    u = orthonormal_columns(basis)

    def outside(images):
        return frobenius(images - u @ (u.conj().T @ images))

    worst = 0.0
    for i in range(g.dim):
        e_i = basis_vector(g.dim, i)
        left = g.left_mult_matrix(e_i) @ u
        right = g.right_mult_matrix(e_i) @ u
        worst = max(worst, outside(left), outside(right))
    return max(worst, outside(g.star_vec(u)))


def loop_algebra_residuals(g, u):
    prod = 0.0
    for i in range(u.shape[1]):
        left = g.left_mult_matrix(u[:, i]) @ u
        for j in range(u.shape[1]):
            prod = max(prod, loop_membership(left[:, j], u))
    star = max(loop_membership(g.star_vec(u[:, i]), u) for i in range(u.shape[1]))
    return prod, star, loop_membership(g.unit, u)


def loop_right_invariance(g, u):
    worst = 0.0
    for k in range(g.dim):
        img = g.comult[:, :, k].T @ u
        for col in range(u.shape[1]):
            worst = max(worst, loop_membership(img[:, col], u))
    return worst


def loop_span_mismatch(a, b):
    return max(
        max((loop_membership(a[:, i], b) for i in range(a.shape[1])), default=0.0),
        max((loop_membership(b[:, i], a) for i in range(b.shape[1])), default=0.0),
    )


def test_subspace_defect_matches_column_loop():
    rng = np.random.default_rng(3)
    u = orthonormal_columns(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    images = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
    expected = max(
        loop_membership(images[b][:, c], u) for b in range(4) for c in range(5)
    )
    assert abs(subspace_defect(images, u) - expected) <= 1e-12
    assert subspace_defect(u @ images[0, :3], u) <= 1e-12
    # an empty basis leaves each image whole; no images leave no defect
    whole = np.linalg.norm(images[0], axis=0).max()
    assert abs(subspace_defect(images[0], u[:, :0]) - whole) <= 1e-12
    assert subspace_defect(images[0][:, :0], u) == 0.0


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_subspace_residuals_match_column_loops(kind, dense):
    base = algebra(kind, "S3")
    g, t = dense_algebra(kind, "S3") if dense else (base, np.eye(base.dim))
    haar_seen = 0
    for st in oracle_states(kind, "S3"):
        w = st.coeffs @ np.linalg.inv(t)
        nsp = null_space(g, w)
        ideal = ideal_residual(g, nsp)
        assert abs(ideal - loop_ideal_residual(g, nsp)) <= 1e-12
        lw = left_slice(g, w)
        u = orthonormal_columns(lw)
        for got, ref in zip(_algebra_residuals(g, u), loop_algebra_residuals(g, u)):
            assert abs(got - ref) <= 1e-12
        assert abs(right_invariance_residual(g, u) - loop_right_invariance(g, u)) <= 1e-12
        rep = verify_conditional_expectation(g, lw, u)
        ref = max(loop_membership(lw[:, i], u) for i in range(g.dim))
        assert abs(rep.residuals["range_in_subalgebra"] - ref) <= 1e-12
        if ideal <= CLASSIFY_TOL:
            haar_seen += 1
            q = quotient_quantum_group(g, w)
            hs = homogeneous_space_check(g, w, q)
            n, nb = g.dim, q.quotient.dim
            op = np.einsum("bp,ipt->bti", q.projection, g.comult).reshape(nb * n, n)
            unit = np.einsum("b,ti->bti", q.quotient.unit, np.eye(n))
            fixed = _kernel_basis(op - unit.reshape(nb * n, n), rel_tol=1e-10)
            ref = loop_span_mismatch(fixed, u)
            assert abs(hs.values["span_mismatch"] - ref) <= 1e-12
    assert haar_seen == (6 if kind == "fn" else 3)


@pytest.mark.parametrize("dense", [False, True])
def test_non_invariant_subspace_exceeds_classify_tol(dense):
    # the span of one point mass on S3 is moved by every right translation
    base = algebra("fn", "S3")
    g, t = dense_algebra("fn", "S3") if dense else (base, np.eye(base.dim))
    u = orthonormal_columns(t @ basis_vector(g.dim, 1)[:, None])
    res = right_invariance_residual(g, u)
    assert res > CLASSIFY_TOL
    assert abs(res - loop_right_invariance(g, u)) <= 1e-12


# -- classification -------------------------------------------------------


def test_classify_normal_subgroups_of_s3():
    ct = group("S3")
    g = algebra("ga", "S3")
    gd, mu = gns_and_unitary("ga", "S3")
    for sub, normal in [(s, qg.is_normal_subgroup(ct, s)) for s in qg.all_subgroups(ct)]:
        c = classify(g, subgroup_state_ga(g, ct, sub).coeffs, gd=gd, mu=mu)
        assert c.is_haar == normal
        assert c.null_space_dim == 6 - (6 // len(sub) if normal else 6 - 3)
        # witnesses carry the residuals of both criteria
        assert set(c.witnesses) == {"ideal_residual", "symmetry_residual", "quotient_built"}


def test_classify_epsilon_and_haar():
    g = algebra("fn", "S3")
    gd, mu = gns_and_unitary("fn", "S3")
    assert classify(g, g.counit, gd=gd, mu=mu).is_haar
    assert classify(g, g.haar, gd=gd, mu=mu).is_haar


def test_classify_every_solver_state_on_fn_s4():
    g = algebra("fn", "S4")
    gd, mu = gns_and_unitary("fn", "S4")
    found = solved("fn", "S4", seed=0)
    assert len(found) == 30
    for st in found:
        c = classify(g, st, gd=gd, mu=mu)  # raises if the criteria disagree
        assert c.is_haar
        assert c.null_space_dim == g.dim - np.count_nonzero(np.abs(st.coeffs) > 1e-6)


def test_tracial_idempotents_are_haar():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        gd, mu = gns_and_unitary(kind, name)
        for st in solved(kind, name):
            w = st.coeffs
            commutator = g.mult - g.mult.transpose(1, 0, 2)
            tracial_defect = float(np.abs(np.tensordot(commutator, w, axes=(2, 0))).max())
            if tracial_defect < 1e-12:
                assert classify(g, w, gd=gd, mu=mu).is_haar


def test_kawada_ito_on_commutative_samples():
    for name in ["Z2", "Z4", "Z2xZ2", "S3"]:
        g = algebra("fn", name)
        gd, mu = gns_and_unitary("fn", name)
        for st in solved("fn", name):
            assert classify(g, st.coeffs, gd=gd, mu=mu).is_haar


def test_all_q8_idempotents_are_haar():
    g = algebra("ga", "Q8")
    gd, mu = gns_and_unitary("ga", "Q8")
    for st in solved("ga", "Q8"):
        assert classify(g, st.coeffs, gd=gd, mu=mu).is_haar


def test_three_criteria_never_disagree():
    # classify raises InternalConsistencyError on any disagreement
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        gd, mu = gns_and_unitary(kind, name)
        for st in solved(kind, name):
            classify(g, st.coeffs, gd=gd, mu=mu)


# -- quotients -------------------------------------------------------------


def test_quotient_by_counit_is_trivial():
    g = algebra("fn", "S3")
    q = quotient_quantum_group(g, g.counit)
    assert q.quotient.dim == 1
    assert qg.validate(q.quotient).passed


def test_quotient_by_haar_is_whole_group():
    g = algebra("fn", "S3")
    q = quotient_quantum_group(g, g.haar)
    assert q.quotient.dim == 6


def test_quotient_fn_s3_by_a3():
    # B = A / N_omega is the function algebra of the subgroup A3 itself
    # (dimension 3); the coset picture of dimension 2 is the homogeneous
    # space, checked separately below
    ct = group("S3")
    g = algebra("fn", "S3")
    a3 = subgroups_by_order("S3")[3][0]
    st = subgroup_state_fn(g, ct, a3)
    q = quotient_quantum_group(g, st.coeffs)
    b = q.quotient
    assert b.dim == 3
    assert qg.validate(b).passed
    assert np.abs(b.mult - b.mult.transpose(1, 0, 2)).max() < 1e-12  # commutative
    # haar_mu pulls back to omega and pi kills exactly N_omega
    assert np.abs(q.projection.T @ q.haar_mu.coeffs - st.coeffs).max() < 1e-10
    nsp = null_space(g, st.coeffs)
    assert np.abs(q.projection @ nsp).max() < 1e-10
    assert nsp.shape[1] + b.dim == g.dim


def test_quotient_ga_s3_by_a3():
    ct = group("S3")
    g = algebra("ga", "S3")
    a3 = subgroups_by_order("S3")[3][0]
    q = quotient_quantum_group(g, subgroup_state_ga(g, ct, a3).coeffs)
    assert q.quotient.dim == 2
    assert qg.validate(q.quotient).passed


def test_quotient_rejects_non_haar():
    ct = group("S3")
    g = algebra("ga", "S3")
    order2 = subgroups_by_order("S3")[2][0]
    with pytest.raises(QuantumGroupError, match="not an ideal"):
        quotient_quantum_group(g, subgroup_state_ga(g, ct, order2).coeffs)


def test_quotient_and_coaction_sweep():
    # across every idempotent of every sample: Haar ones quotient cleanly
    # (dim = Gram rank, kernel = null space, validated quantum group,
    # matching homogeneous space); all of them carry a coaction on the
    # invariant subalgebra, Haar or not
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        gd, mu = gns_and_unitary(kind, name)
        for st in solved(kind, name):
            c = classify(g, st.coeffs, gd=gd, mu=mu)
            sub = invariant_subalgebra(g, st.coeffs)
            rep = coaction_checks(g, sub.basis)
            assert rep.passed, (kind, name, rep.values)
            assert rep.values["density_rank"] == sub.dim * g.dim
            if not c.is_haar:
                continue
            q = quotient_quantum_group(g, st.coeffs)
            nsp = null_space(g, st.coeffs)
            gram_rank = g.dim - nsp.shape[1]
            assert q.quotient.dim == gram_rank
            assert qg.validate(q.quotient).passed
            if nsp.shape[1]:
                assert np.abs(q.projection @ nsp).max() < 1e-9
            assert np.abs(q.projection.T @ q.haar_mu.coeffs - st.coeffs).max() < 1e-9
            hs = homogeneous_space_check(g, st.coeffs, q)
            assert hs.passed, (kind, name, hs.values)
            assert hs.values["fixed_point_dim"] == sub.dim


def test_homogeneous_space_checks():
    g = algebra("fn", "S3")
    q = quotient_quantum_group(g, g.counit)
    rep = homogeneous_space_check(g, g.counit, q)
    assert rep.passed and rep.values["fixed_point_dim"] == 6
    q = quotient_quantum_group(g, g.haar)
    rep = homogeneous_space_check(g, g.haar, q)
    assert rep.passed and rep.values["fixed_point_dim"] == 1
    ct = group("S3")
    a3 = subgroups_by_order("S3")[3][0]
    st = subgroup_state_fn(g, ct, a3)
    rep = homogeneous_space_check(g, st.coeffs, quotient_quantum_group(g, st.coeffs))
    assert rep.passed and rep.values["fixed_point_dim"] == 2


def test_coaction_checks_examples():
    g = algebra("fn", "S3")
    rep = coaction_checks(g, np.eye(6))
    assert rep.passed and rep.values["density_rank"] == 36
    rep = coaction_checks(g, g.unit[:, None])
    assert rep.passed and rep.values["density_rank"] == 6
    ct = group("S3")
    a3 = subgroups_by_order("S3")[3][0]
    sub = invariant_subalgebra(g, subgroup_state_fn(g, ct, a3).coeffs)
    rep = coaction_checks(g, sub.basis)
    assert rep.passed
    assert rep.values["density_rank"] == 12
    assert rep.values["nondegeneracy_rank"] == 6


def assert_same_quotient(a, b):
    for name in ("mult", "unit", "star", "comult", "counit", "antipode", "haar"):
        x, y = getattr(a.quotient, name), getattr(b.quotient, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for x, y in ((a.projection, b.projection), (a.section, b.section)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert np.array_equal(a.haar_mu.coeffs, b.haar_mu.coeffs)
    assert a.report.residuals == b.report.residuals
    assert a.report.cancellation_ranks == b.report.cancellation_ranks


def test_classify_and_quotient_build_one_quotient_per_state(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return core.validate(*args, **kwargs)

    monkeypatch.setattr(analysis, "validate", counted)
    g = algebra("fn", "S3")
    gd, mu = gns_and_unitary("fn", "S3")
    a3 = subgroups_by_order("S3")[3][0]
    st = subgroup_state_fn(g, group("S3"), a3)
    c = classify(g, st, gd=gd, mu=mu)
    assert c.is_haar and c.witnesses["quotient_built"]
    assert c.state is st  # so the quotient kept on st is on c.state
    q = quotient_quantum_group(g, st)
    assert len(calls) == 1 and calls[0] is q.quotient
    assert quotient_quantum_group(g, st) is q
    assert quotient_quantum_group(g, c.state) is q
    assert len(calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.projection = np.eye(2)
    for arr in (q.projection, q.section):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # a bare array, or the State passed with another quantum group object,
    # builds anew and bit for bit the same quotient
    fresh = quotient_quantum_group(g, st.coeffs)
    assert len(calls) == 2 and fresh is not q
    assert_same_quotient(fresh, q)
    bare = classify(g, st.coeffs, gd=gd, mu=mu).state
    assert len(calls) == 3 and bare is not st and bare.qg is g
    assert np.array_equal(bare.coeffs, st.coeffs)
    other = quotient_quantum_group(dataclasses.replace(g), st)
    assert len(calls) == 4 and other is not q
    assert_same_quotient(other, q)
    assert quotient_quantum_group(g, st) is q


def test_quotient_unit_checks_that_pi_l_omega_is_omega_times_the_unit():
    # the counit of fn:S3 with an empty null space: pi is invertible and
    # L_eps = id, so pi . L_eps = pi is not the rank-one eps(.) pi(1)
    g = algebra("fn", "S3")
    with pytest.raises(
        core.InternalConsistencyError, match=r"pi \. L_omega != omega\(\.\) pi\(1\) \(defect"
    ):
        analysis._quotient(g, g.counit, np.zeros((6, 0)))


def test_coaction_checks_certify_once_per_quantum_group(monkeypatch):
    sides = []

    def counted(g, side, *args, **kwargs):
        sides.append(side)
        return bound(g, side, *args, **kwargs)

    bound = core._cancellation_bound
    monkeypatch.setattr(core, "_cancellation_bound", counted)
    g = dataclasses.replace(algebra("ga", "S3"))  # a new instance, nothing cached
    a3 = subgroups_by_order("S3")[3][0]
    sub = invariant_subalgebra(g, subgroup_state_ga(g, group("S3"), a3))
    reps = [coaction_checks(g, c) for c in (np.eye(6), g.unit[:, None], sub.basis)]
    assert sides == ["left"]
    assert all(rep.passed for rep in reps)
    assert g._left_cancellation == bound(g, "left", core._associativity_defect(g.mult))
    # validate takes its own certificates on every call
    qg.validate(g)
    qg.validate(g)
    assert sides == ["left", "right", "left", "right", "left"]


def test_homogeneous_space_check_forms_no_full_u():
    # fn:S4's Haar state has N_omega = 0, so the fixed-point operator is
    # (24 * 24) x 24 and its full U alone would take 576^2 * 8 B = 2.6 MiB
    g = algebra("fn", "S4")
    q = quotient_quantum_group(g, g.haar)
    rep = homogeneous_space_check(g, g.haar, q)
    tracemalloc.start()
    try:
        assert homogeneous_space_check(g, g.haar, q).values == rep.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    n, nb = g.dim, q.quotient.dim
    op = np.einsum("bp,ipt->bti", q.projection, g.comult).reshape(nb * n, n)
    op -= np.einsum("b,ti->bti", q.quotient.unit, np.eye(n)).reshape(nb * n, n)
    u, s, vh = np.linalg.svd(op, full_matrices=True)
    assert u.nbytes > 2.5 * 2**20
    fixed = vh.conj().T[:, int(np.sum(s > 1e-10 * max(s[0], 1.0))) :]
    c = orthonormal_columns(left_slice(g, g.haar))
    assert rep.passed
    assert rep.values == {
        "fixed_point_dim": fixed.shape[1],
        "subalgebra_dim": c.shape[1],
        "span_mismatch": max(subspace_defect(fixed, c), subspace_defect(c, fixed)),
    }


# -- order and lattice -----------------------------------------------------


def order(g, states):
    """leq[i, j] of build_lattice for the states in the given order."""
    lat = build_lattice(g, states)
    at = [next(k for k, st in enumerate(lat.states) if st is s) for s in states]
    return lat.leq[np.ix_(at, at)]


def test_counit_below_everything_below_haar():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        found = list(solved(kind, name))
        counit = match_state(found, g.counit)
        haar = match_state(found, g.haar)
        leq = order(g, found)
        assert leq[counit].all()
        assert leq[:, haar].all()


def test_order_matches_subgroup_inclusion_on_fn_s3():
    ct = group("S3")
    g = algebra("fn", "S3")
    subs = qg.all_subgroups(ct)
    leq = order(g, [subgroup_state_fn(g, ct, h) for h in subs])
    for i, h1 in enumerate(subs):
        for j, h2 in enumerate(subs):
            assert leq[i, j] == set(h1).issubset(h2)


def test_incomparable_subgroup_states():
    ct = group("S3")
    g = algebra("fn", "S3")
    by_order = subgroups_by_order("S3")
    st2 = subgroup_state_fn(g, ct, by_order[2][0])
    st3 = subgroup_state_fn(g, ct, by_order[3][0])
    leq = order(g, [st2, st3])
    assert not leq[0, 1] and not leq[1, 0]


def test_lattice_of_fn_s3_matches_subgroup_lattice():
    g = algebra("fn", "S3")
    lat = build_lattice(g, list(solved("fn", "S3")))
    assert len(lat.states) == 6
    # subgroup lattice of S3: 8 covering edges and 9 strict order pairs
    assert len(lat.hasse_edges) == 8
    assert int(lat.leq.sum()) - 6 == 9
    assert lat.absorption_residual < 1e-10


def test_lattice_isomorphic_to_subgroup_lattice():
    ct = group("S3")
    g = algebra("fn", "S3")
    subs = qg.all_subgroups(ct)
    lat = build_lattice(g, list(solved("fn", "S3")))
    index_of = [
        match_state(lat.states, subgroup_state_fn(g, ct, sub).coeffs) for sub in subs
    ]
    for i, h1 in enumerate(subs):
        for j, h2 in enumerate(subs):
            assert lat.leq[index_of[i], index_of[j]] == set(h1).issubset(h2)


def test_lattice_rejects_non_idempotent():
    from qgidem.states import State

    g = algebra("fn", "Z2")
    with pytest.raises(ValueError, match="reflexive|idempotent"):
        build_lattice(g, [State(g, np.array([0.7, 0.3]))])


# -- structural identities -------------------------------------------------


def test_omega_c_identity_for_all_sample_idempotents():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        for st in solved(kind, name):
            assert omega_c_identity_residual(g, st.coeffs) <= 1e-10


def test_antipode_invariance_of_idempotents():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        assert antipode_invariance(g, g.haar) < 1e-12
        for st in solved(kind, name):
            assert antipode_invariance(g, st.coeffs) <= 1e-9


def test_v_projection_for_idempotents():
    for kind, name in [("fn", "Z4"), ("fn", "S3"), ("ga", "S3")]:
        g = algebra(kind, name)
        gd, mu = gns_and_unitary(kind, name)
        for st in solved(kind, name):
            p = v_projection(g, gd, mu, st.coeffs)
            assert projection_defect(p) <= 1e-10


FRAME_INPUTS = [
    f"{form}{kind}:{name}"
    for form in ("", "dense ", "phase ")
    for kind in ("fn", "ga")
    for name in ("S3", "Q8")
] + ["KP", "dual:KP"]


@pytest.mark.parametrize("label", FRAME_INPUTS)
def test_v_projection_matches_the_pseudo_inverse_lift(label):
    # sum_k F_k (r^-1 w)_k against every second-leg block of V lifted to A
    # through the pseudo-inverse of pi, on the idempotent states and one
    # that is not
    g, ws = zoo_input(label)
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    for w in list(ws) + [random_state(g, np.random.default_rng(0)).coeffs]:
        p = v_projection(g, gd, mu, w)
        assert np.abs(p - pinv_v_projection(gd, mu, w)).max() <= 1e-12


@pytest.mark.parametrize("label", FRAME_INPUTS + ["badly conditioned ga:S3"])
def test_hs_frame_gives_pi_of_the_basis(label):
    # g is Hilbert-Schmidt orthonormal and pi(e_i) = sum_k r[i, k] g_k
    g = badly_conditioned("ga", "S3") if label.startswith("badly") else zoo_input(label)[0]
    gd = qg.gns(g)
    frame, r = gd._hs_frame
    gmat = frame.reshape(g.dim, -1)
    assert np.abs(gmat.conj() @ gmat.T - np.eye(g.dim)).max() <= 1e-13
    assert np.abs(gd.left_reg - np.tensordot(r, frame, axes=(1, 0))).max() <= 1e-13


def test_v_projection_generic_state_fails():
    g = algebra("fn", "Z4")
    gd, mu = gns_and_unitary("fn", "Z4")
    p = v_projection(g, gd, mu, np.array([0.4, 0.3, 0.2, 0.1]))
    assert projection_defect(p) > 1e-2


def test_multiplicative_domain():
    g = algebra("fn", "S3")
    for st in solved("fn", "S3"):
        assert multiplicative_domain_check(g, st.coeffs).passed
    # generic states fail the check on the would-be subalgebra
    g2 = algebra("fn", "Z2")
    w = np.array([0.7, 0.3])
    u = orthonormal_columns(left_slice(g2, w))
    worst = 0.0
    for i in range(u.shape[1]):
        c = u[:, i]
        worst = max(worst, np.abs(w @ g2.right_mult_matrix(c) - np.dot(w, c) * w).max())
    assert worst > 1e-2


# -- the bijection with expected right-invariant subalgebras ----------------


def test_state_from_subalgebra_extremes():
    g = algebra("fn", "S3")
    assert np.abs(state_from_subalgebra(g, np.eye(6)).coeffs - g.counit).max() < 1e-10
    assert np.abs(state_from_subalgebra(g, g.unit[:, None]).coeffs - g.haar).max() < 1e-10


def test_state_from_subalgebra_round_trips():
    for kind, name, _ in SOLVER_CASES:
        g = algebra(kind, name)
        for st in solved(kind, name):
            sub = invariant_subalgebra(g, st.coeffs)
            back = state_from_subalgebra(g, sub.basis)
            assert np.abs(back.coeffs - st.coeffs).max() <= 1e-8
            sub2 = invariant_subalgebra(g, back.coeffs)
            # same span both ways
            mix = np.hstack([sub.basis, sub2.basis])
            assert np.linalg.matrix_rank(mix, tol=1e-8) == sub.dim == sub2.dim


def test_state_from_subalgebra_rejects_non_invariant():
    g = algebra("fn", "Z2")
    with pytest.raises(QuantumGroupError, match="not right invariant"):
        state_from_subalgebra(g, basis_vector(2, 0)[:, None])


def test_correspondence_reverses_order():
    # smaller subgroup means larger invariant subalgebra
    ct = group("S3")
    g = algebra("fn", "S3")
    subs = qg.all_subgroups(ct)
    dims = {}
    for sub in subs:
        st = subgroup_state_fn(g, ct, sub)
        dims[sub] = invariant_subalgebra(g, st.coeffs).dim
    for h1 in subs:
        for h2 in subs:
            if set(h1).issubset(h2):
                st1 = subgroup_state_fn(g, ct, h1)
                st2 = subgroup_state_fn(g, ct, h2)
                c1 = invariant_subalgebra(g, st1.coeffs).basis
                c2 = invariant_subalgebra(g, st2.coeffs).basis
                # C_{omega_{h2}} inside C_{omega_{h1}}
                stacked = np.hstack([c1, c2])
                assert np.linalg.matrix_rank(stacked, tol=1e-8) == c1.shape[1]


def test_haar_gram_orthogonal_decomposition():
    # A = C + C_perp with C_perp = {a : h(c^* a) = 0 for all c in C}
    g = algebra("ga", "S3")
    gd, _ = gns_and_unitary("ga", "S3")
    for st in solved("ga", "S3"):
        sub = invariant_subalgebra(g, st.coeffs)
        rep = verify_conditional_expectation(g, sub.exp, sub.basis, gd=gd)
        assert rep.dim_subalgebra + rep.dim_kernel == 6
        assert rep.residuals["kernel_haar_orthogonal"] < 1e-10
