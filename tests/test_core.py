import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

import qgidem as qg
from qgidem.core import (
    QuantumGroupError,
    StructuralError,
    _cancellation_pair,
    _coproduct_defect_dense,
    _full_rank_certified,
    _pentagon_defect,
    _pentagon_defect_factored,
    _rank,
    antipode_slice_defect,
    coproduct_defect,
    intertwiner_defect,
    multiplicative_unitary,
    pentagon_defect,
    second_leg_factors,
    unitarity_defect,
)

from helpers import (
    algebra,
    basis_vector,
    change_basis,
    dense_algebra,
    first_leg_twist,
    gns_and_unitary,
    lift,
    non_associative_case,
    group,
    right_regular_twist,
)


SMALL_GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "S3", "D4", "Q8"]


@pytest.mark.parametrize("name", SMALL_GROUPS)
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_constructors_validate(kind, name):
    g = algebra(kind, name)
    report = qg.validate(g, tol=1e-12)
    assert report.passed, str(report)
    assert report.cancellation_ranks == (g.dim**2, g.dim**2)


def test_every_group_of_order_up_to_eight():
    # together with the registry this covers all groups of order <= 8 up
    # to isomorphism (Z1..Z8, Z2xZ2, Z2xZ4, Z2xZ2xZ2, S3, D4, Q8)
    z2 = qg.cyclic_group(2)
    extras = [
        qg.direct_product(z2, qg.cyclic_group(4)),
        qg.direct_product(z2, qg.direct_product(z2, z2)),
    ]
    for ct in extras:
        for ctor in (qg.function_algebra, qg.group_algebra):
            report = qg.validate(ctor(ct), tol=1e-12)
            assert report.passed, (ct.name, ctor.__name__, report.failures)


def test_cancellation_ranks_s3():
    report = qg.validate(algebra("ga", "S3"))
    assert report.cancellation_ranks == (36, 36)


def reference_spans(g):
    """The cancellation span matrices for Delta(a)(b (x) 1), Delta(a)(1 (x) b),
    built independently of the library."""
    n = g.dim
    right = np.einsum("iaq,ajp->pqij", g.comult, g.mult).reshape(n * n, n * n)
    left = np.einsum("ipb,bjq->pqij", g.comult, g.mult).reshape(n * n, n * n)
    return right, left


def assert_certified_ranks_match_svd(g):
    report = qg.validate(g)
    full = g.dim**2
    assert report.cancellation_ranks == tuple(_rank(t) for t in reference_spans(g))
    assert report.cancellation_ranks == (full, full)
    for side, ref in zip(("right", "left"), reference_spans(g)):
        t, x = _cancellation_pair(g, side)
        assert np.abs(t - ref).max() <= 1e-14
        # the SVD is skipped on every valid input
        assert _full_rank_certified(t, x)


@pytest.mark.parametrize("name", SMALL_GROUPS)
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_certified_cancellation_ranks_match_svd(kind, name):
    assert_certified_ranks_match_svd(algebra(kind, name))


@pytest.mark.parametrize("name", ["S3", "Q8", "S4"])
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_certified_cancellation_ranks_match_svd_on_dense_basis(kind, name):
    assert_certified_ranks_match_svd(dense_algebra(kind, name)[0])


def test_deficient_cancellation_ranks_come_from_the_svd():
    # the semigroup algebra of the monoid {0,1} x {0,1} under multiplication,
    # Delta(x) = x (x) x: a bialgebra without antipode, and
    # span{x (x) xy} has dimension sum_x |xM| = (1 + 2)^2 = 9 < 16
    elems = [(a, b) for a in (0, 1) for b in (0, 1)]
    n = len(elems)
    mult = np.zeros((n, n, n))
    comult = np.zeros((n, n, n))
    for i, (a, b) in enumerate(elems):
        comult[i, i, i] = 1.0
        for j, (c, d) in enumerate(elems):
            mult[i, j, elems.index((a * c, b * d))] = 1.0
    monoid = qg.FiniteQuantumGroup(
        dim=n, mult=mult, unit=basis_vector(n, elems.index((1, 1))), star=np.eye(n),
        comult=comult, counit=np.ones(n), antipode=np.eye(n), haar=np.full(n, 1 / n),
    )
    report = qg.validate(monoid)
    assert report.cancellation_ranks == (9, 9)
    assert {"cancellation_left", "cancellation_right"} <= set(report.failures)
    assert report.cancellation_ranks == tuple(_rank(t) for t in reference_spans(monoid))


def test_wrong_antipode_falls_back_to_the_svd():
    g = algebra("ga", "S3")
    wrong = dataclasses.replace(g, antipode=np.eye(g.dim))
    for side in ("right", "left"):
        assert not _full_rank_certified(*_cancellation_pair(wrong, side))
    report = qg.validate(wrong)
    # the spans do not involve S: still full, now by SVD
    assert report.cancellation_ranks == (36, 36)
    assert {"antipode_left", "antipode_right"} <= set(report.failures)
    assert not {"cancellation_left", "cancellation_right"} & set(report.failures)


def test_invalid_haar_fails_validation():
    base = algebra("ga", "Z2")
    bad = qg.FiniteQuantumGroup(
        dim=2, mult=base.mult, unit=base.unit, star=base.star,
        comult=base.comult, counit=base.counit, antipode=base.antipode,
        haar=base.counit,  # counit is not invariant
    )
    report = qg.validate(bad)
    assert not report.passed
    assert report.residuals["haar_left_invariant"] > 0.4
    assert "haar_left_invariant" in report.failures


def test_dimension_mismatch_is_structural_error():
    base = algebra("fn", "Z2")
    with pytest.raises(StructuralError):
        qg.FiniteQuantumGroup(
            dim=3, mult=base.mult, unit=base.unit, star=base.star,
            comult=base.comult, counit=base.counit, antipode=base.antipode,
            haar=base.haar,
        )
    with pytest.raises(StructuralError):
        qg.FiniteQuantumGroup(
            dim=0, mult=np.zeros((0, 0, 0)), unit=np.zeros(0), star=np.zeros((0, 0)),
            comult=np.zeros((0, 0, 0)), counit=np.zeros(0),
            antipode=np.zeros((0, 0)), haar=np.zeros(0),
        )


@pytest.mark.parametrize("tol", [np.inf, -np.inf, np.nan, 0.0, -1e-9])
def test_non_finite_or_non_positive_tol_is_structural_error(tol):
    base = algebra("fn", "Z2")
    with pytest.raises(StructuralError, match="tol") as err:
        qg.FiniteQuantumGroup(
            dim=2, mult=base.mult, unit=base.unit, star=base.star,
            comult=base.comult, counit=base.counit, antipode=base.antipode,
            haar=base.haar, tol=tol,
        )
    messages = {str(err.value)}
    with pytest.raises(StructuralError, match="tol"):
        qg.function_algebra(group("Z2"), tol=tol)
    # an explicit tol to validate or multiplicative_unitary gets the same
    # check: with nan every residual test fails in validate, and V of a
    # broken coproduct (unitarity defect about 0.45) would be accepted
    g = algebra("ga", "S3")
    rng = np.random.default_rng(0)
    broken = dataclasses.replace(g, comult=g.comult + 1e-2 * rng.standard_normal(g.comult.shape))
    gd = qg.gns(broken)
    with pytest.raises(QuantumGroupError, match="right-invariance defect"):
        multiplicative_unitary(broken, gd)
    for call in (
        lambda: qg.validate(g, tol=tol),
        lambda: multiplicative_unitary(broken, gd, tol=tol),
    ):
        with pytest.raises(StructuralError, match="tol") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


def test_trivial_quantum_group():
    g = algebra("fn", "Z1")
    assert g.dim == 1
    assert qg.validate(g, tol=1e-14).passed
    gd = qg.gns(g)
    assert np.allclose(gd.gram, [[1.0]])
    assert np.allclose(multiplicative_unitary(g, gd).v, [[1.0]])


def test_function_algebra_structure():
    g = algebra("fn", "Z2")
    # Delta(delta_g) = delta_e (x) delta_g + delta_g (x) delta_e
    assert np.allclose(g.comultiply(basis_vector(2, 1)), [[0, 1], [1, 0]])
    assert np.allclose(g.comultiply(basis_vector(2, 0)), [[1, 0], [0, 1]])
    s3 = algebra("fn", "S3")
    assert np.allclose(s3.haar, np.full(6, 1 / 6))
    assert np.allclose(s3.counit @ s3.unit, 1.0)


def test_group_algebra_structure():
    g = algebra("ga", "Z2")
    assert np.allclose(g.comultiply(basis_vector(2, 1)), [[0, 0], [0, 1]])
    assert g.haar_value(basis_vector(2, 1)) == 0
    s3 = algebra("ga", "S3")
    # noncommutative algebra, cocommutative coproduct
    assert np.abs(s3.mult - s3.mult.transpose(1, 0, 2)).max() > 0.5
    assert np.abs(s3.comult - s3.comult.transpose(0, 2, 1)).max() < 1e-15
    assert qg.validate(algebra("ga", "Q8")).passed


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3", "Q8"])
def test_dual_of_function_algebra_is_group_algebra(name):
    fn = algebra("fn", name)
    ga = algebra("ga", name)
    assert intertwiner_defect(qg.dual(fn), ga, np.eye(fn.dim)) < 1e-12
    assert intertwiner_defect(qg.dual(ga), fn, np.eye(fn.dim)) < 1e-12


def test_dual_z2_fourier_intertwiner():
    # the 2x2 change of basis lambda_e -> 1, lambda_g -> delta_e - delta_g
    # identifies the group algebra of Z2 with functions on its dual group
    fourier = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert intertwiner_defect(algebra("ga", "Z2"), algebra("fn", "Z2"), fourier) < 1e-12
    assert (
        intertwiner_defect(qg.dual(algebra("fn", "Z2")), algebra("fn", "Z2"), fourier)
        < 1e-12
    )


@pytest.mark.parametrize("kind,name", [("fn", "Z3"), ("fn", "S3"), ("ga", "D4")])
def test_bidual_is_identity(kind, name):
    g = algebra(kind, name)
    assert intertwiner_defect(qg.dual(qg.dual(g)), g, np.eye(g.dim)) < 1e-12


def test_dual_of_cocommutative_is_commutative():
    d = qg.dual(algebra("ga", "Z2"))
    assert d.dim == 2
    assert np.abs(d.mult - d.mult.transpose(1, 0, 2)).max() < 1e-15
    assert qg.validate(d).passed


def test_dual_rejects_invalid_input():
    base = algebra("ga", "Z2")
    bad = qg.FiniteQuantumGroup(
        dim=2, mult=base.mult, unit=base.unit, star=base.star,
        comult=base.comult, counit=base.counit, antipode=base.antipode,
        haar=base.counit,
    )
    with pytest.raises(QuantumGroupError, match="failing axioms"):
        qg.dual(bad)


def test_gns_grams():
    assert np.allclose(qg.gns(algebra("fn", "Z2")).gram, np.diag([0.5, 0.5]))
    assert np.allclose(qg.gns(algebra("ga", "Z2")).gram, np.eye(2))


def test_gns_representation_properties():
    g = algebra("fn", "S3")
    gd = qg.gns(g)
    assert np.allclose(gd.onb.conj().T @ gd.gram @ gd.onb, np.eye(6), atol=1e-12)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    # pi(a) Lambda(b) = Lambda(ab), pi(a)^H = pi(a^*), pi(1) = 1
    assert np.allclose(gd.rep(a) @ gd.vector(b), gd.vector(g.multiply(a, b)))
    assert np.allclose(gd.rep(a).conj().T, gd.rep(g.star_vec(a)))
    assert np.allclose(gd.rep(g.unit), np.eye(6))
    lifted, residual = lift(gd, gd.rep(a))
    assert residual < 1e-10 and np.allclose(lifted, a)


def test_gns_requires_faithful_haar():
    base = algebra("fn", "Z2")
    bad = qg.FiniteQuantumGroup(
        dim=2, mult=base.mult, unit=base.unit, star=base.star,
        comult=base.comult, counit=base.counit, antipode=base.antipode,
        haar=np.array([1.0, 0.0]),
    )
    with pytest.raises(QuantumGroupError, match="not faithful"):
        qg.gns(bad)


def test_multiplicative_unitary_group_algebra_z2():
    _, mu = gns_and_unitary("ga", "Z2")
    # V(Lambda(x) (x) Lambda(y)) = Lambda(x) (x) Lambda(xy): controlled shift
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    assert np.allclose(mu.v, expected)


@pytest.mark.parametrize("kind,name", [("fn", "Z2"), ("fn", "S3"), ("ga", "S3"), ("ga", "Q8")])
def test_multiplicative_unitary_invariants(kind, name):
    g = algebra(kind, name)
    gd, mu = gns_and_unitary(kind, name)
    assert unitarity_defect(mu.v) < 1e-12
    assert pentagon_defect(mu.v) < 1e-12
    assert coproduct_defect(g, gd, mu.v) < 1e-10
    slice_defect, span_rank = antipode_slice_defect(g, gd, mu)
    assert slice_defect < 1e-10
    assert span_rank == g.dim


def two_sided_unitarity_defect(v):
    eye = np.eye(v.shape[0])
    return max(np.linalg.norm(v @ v.conj().T - eye), np.linalg.norm(v.conj().T @ v - eye))


def test_unitarity_defect_matches_two_sided_value():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    _, mu = gns_and_unitary("fn", "S3")
    bent = mu.v + 1e-3 * rng.standard_normal(mu.v.shape)
    for v in (z, bent):
        ref = two_sided_unitarity_defect(v)
        assert ref > 1e-3
        assert abs(unitarity_defect(v) - ref) <= 1e-12 * ref
    # on V itself both values are rounding, so they agree absolutely
    assert abs(unitarity_defect(mu.v) - two_sided_unitarity_defect(mu.v)) <= 1e-12


def test_pentagon_defect_sampled_path_agrees():
    _, mu = gns_and_unitary("fn", "S3")
    dense = pentagon_defect(mu.v)
    sampled = pentagon_defect(mu.v, max_dense_dim=1, rng=np.random.default_rng(0))
    assert dense < 1e-12 and sampled < 1e-12


# reference formulas with dense Kronecker factors, kept only to pin the
# leg contractions in the library to them
def kron_unitary(g, gd):
    n = g.dim
    t = np.einsum("ipb,bjq->pqij", g.comult, g.mult).reshape(n * n, n * n)
    return np.kron(gd.onb_inv, gd.onb_inv) @ t @ np.kron(gd.onb, gd.onb)


def kron_coproduct_defect(g, gd, v):
    n = g.dim
    worst = 0.0
    for i in range(n):
        delta_rep = sum(
            g.comult[i, j, k] * np.kron(gd.left_reg[j], gd.left_reg[k])
            for j in range(n)
            for k in range(n)
        )
        conj_rep = v @ np.kron(gd.left_reg[i], np.eye(n)) @ v.conj().T
        worst = max(worst, np.linalg.norm(delta_rep - conj_rep))
    return worst


def kron_pentagon_defect(v):
    n = int(round(np.sqrt(v.shape[0])))
    eye = np.eye(n)
    swap = np.eye(n * n)[[j * n + i for i in range(n) for j in range(n)]]
    sig = np.kron(eye, swap)
    v12, v23 = np.kron(v, eye), np.kron(eye, v)
    v13 = sig @ v12 @ sig
    return np.linalg.norm(v12 @ v13 @ v23 - v23 @ v12)


def second_leg_permuted(v):
    """(1 (x) P) V for the transposition P of the first two basis vectors:
    still unitary, but it no longer implements the coproduct."""
    n = int(round(np.sqrt(v.shape[0])))
    p = np.eye(n)[[1, 0] + list(range(2, n))]
    return np.kron(np.eye(n), p) @ v


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("fn", "Q8"), ("ga", "Q8")])
def test_multiplicative_unitary_matches_kron_reference(kind, name, dense):
    g = dense_algebra(kind, name)[0] if dense else algebra(kind, name)
    gd = qg.gns(g)
    v = multiplicative_unitary(g, gd).v
    ref = kron_unitary(g, gd)
    assert np.abs(v - ref).max() <= 1e-12
    assert abs(coproduct_defect(g, gd, v) - kron_coproduct_defect(g, gd, ref)) <= 1e-12
    wrong = second_leg_permuted(v)
    assert unitarity_defect(wrong) < 1e-12
    defect = coproduct_defect(g, gd, wrong)
    assert abs(defect - kron_coproduct_defect(g, gd, wrong)) <= 1e-12
    # far above tol (1e-9): the one-GEMM check still rejects a wrong V
    assert defect > 0.1


@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("ga", "Z4")])
def test_dense_pentagon_matches_kron_reference(kind, name):
    _, mu = gns_and_unitary(kind, name)
    for v in (mu.v, second_leg_permuted(mu.v)):
        assert abs(pentagon_defect(v) - kron_pentagon_defect(v)) <= 1e-12
    # the permuted V breaks the pentagon, so the parity above is not 0 = 0
    assert pentagon_defect(second_leg_permuted(mu.v)) > 0.1


@functools.lru_cache(maxsize=None)
def twin_algebra(kind, name, basis):
    """(g, t): algebra(kind, name) carried by t to another basis: none
    (t = 1), a dense unitary (``helpers.dense_algebra``), or a seeded
    non-unitary t, after which pi(e_i) is neither orthogonal nor of equal
    Hilbert-Schmidt norms."""
    base = algebra(kind, name)
    if basis == "sparse":
        return base, np.eye(base.dim)
    if basis == "dense":
        return dense_algebra(kind, name)
    t = np.eye(base.dim) + 0.3 * np.random.default_rng(1).standard_normal((base.dim, base.dim))
    return change_basis(base, t), t


def unitary_twist_element(kind, name, t, s=1):
    """A unitary a of algebra(kind, name), moved by t, that is not a scalar:
    the group element e_s on ga:, the +-1 function 1 - 2 e_s on fn:."""
    n = algebra(kind, name).dim
    e_s = basis_vector(n, s)
    return t @ (e_s if kind == "ga" else np.ones(n) - 2 * e_s)


def checked_pentagon(g, gd, v, tol=None):
    """The pentagon defect multiplicative_unitary would report for v."""
    legs = second_leg_factors(gd, v)
    udef, cdef = unitarity_defect(v), coproduct_defect(g, gd, v)
    return _pentagon_defect(g, gd, v, legs, udef, cdef, g.tol if tol is None else tol)


@pytest.mark.parametrize("basis", ["sparse", "dense", "skewed"])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("fn", "Q8"), ("ga", "Q8")])
def test_factored_pentagon_matches_kron_reference(kind, name, basis, monkeypatch):
    g, t = twin_algebra(kind, name, basis)
    gd = qg.gns(g)
    mu = multiplicative_unitary(g, gd)
    ref = kron_pentagon_defect(mu.v)
    assert abs(_pentagon_defect_factored(g, gd, mu.legs)[0] - ref) <= 1e-12
    # the reported value carries the bound of what the slices drop: it may
    # sit above the dense value, never below it by more than rounding
    assert ref - 1e-14 <= mu.defects["pentagon"] <= 1e-12

    twisted = first_leg_twist(g, gd, mu, unitary_twist_element(kind, name, t))
    legs = second_leg_factors(gd, twisted)
    assert legs.exact
    assert unitarity_defect(twisted) < 1e-12
    assert coproduct_defect(g, gd, twisted) < 1e-12
    ref = kron_pentagon_defect(twisted)
    value = _pentagon_defect_factored(g, gd, legs)[0]
    assert value > 1
    assert abs(value - ref) <= 1e-12 * ref

    def unexpected(*args):
        raise AssertionError("exact slices fell back to the dense pentagon")

    monkeypatch.setattr(qg.core, "pentagon_defect", unexpected)
    assert checked_pentagon(g, gd, twisted) >= ref * (1 - 1e-12)


@pytest.mark.parametrize(
    "case", ["permuted", "right_twist", "inner_twist", "non_associative_fn", "non_associative_ga"]
)
def test_pentagon_falls_back_off_the_exact_path(case, monkeypatch):
    if case.startswith("non_associative"):
        g, gd, v = non_associative_case(case[-2:], "S3")
    else:
        g = algebra("ga", "S3")
        gd, mu = gns_and_unitary("ga", "S3")
        twists = {
            "permuted": second_leg_permuted,
            "right_twist": lambda v: right_regular_twist(g, gd, mu, 1),
            # (1 (x) pi(e_1)) V: unitary, second leg in pi(A), but it does
            # not implement the coproduct, which the factored value assumes
            "inner_twist": lambda v: np.kron(np.eye(g.dim), gd.left_reg[1]) @ v,
        }
        v = twists[case](mu.v)
        if case == "inner_twist":
            assert second_leg_factors(gd, v).exact and unitarity_defect(v) < 1e-12
            assert coproduct_defect(g, gd, v) > 1

    def unexpected(*args):
        raise AssertionError("the factored pentagon ran on a V it does not describe")

    monkeypatch.setattr(qg.core, "_pentagon_defect_factored", unexpected)
    assert checked_pentagon(g, gd, v) == pentagon_defect(v)


@pytest.mark.parametrize("eps", [1e-8, 1e-4])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("ga", "Q8")])
def test_reported_pentagon_bounds_the_dense_value_on_a_perturbed_v(kind, name, eps):
    g = algebra(kind, name)
    gd, mu = gns_and_unitary(kind, name)
    n = g.dim
    # V + eps sum_r Y_r (x) pi(e_r): the slices stay exact, while V is no
    # longer unitary nor implements the coproduct, the two things the
    # factored value assumes
    y = np.random.default_rng(0).standard_normal((n, n, n))
    v = mu.v + eps * np.einsum("rac,rbd->abcd", y, gd.left_reg).reshape(n * n, n * n)
    legs = second_leg_factors(gd, v)
    assert legs.exact
    ref = kron_pentagon_defect(v)
    assert _pentagon_defect_factored(g, gd, legs)[0] < ref
    assert ref <= checked_pentagon(g, gd, v, tol=1.0) <= 10 * ref


@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "Q8"), ("ga", "S4")])
def test_multiplicative_unitary_keeps_its_defects(kind, name):
    g = algebra(kind, name)
    gd, mu = gns_and_unitary(kind, name)
    assert set(mu.defects) == {"unitarity", "pentagon", "coproduct"}
    assert mu.defects["unitarity"] == unitarity_defect(mu.v)
    assert mu.defects["coproduct"] == coproduct_defect(g, gd, mu.v)
    assert 0.0 <= mu.defects["pentagon"] <= 1e-12
    # the residuals are data about the check, not part of V's identity
    assert qg.MultUnitary(v=mu.v, legs=mu.legs) == mu


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("kind,name", [("fn", "S3"), ("ga", "S3"), ("fn", "Q8"), ("ga", "Q8")])
def test_second_leg_factors_rebuild_v(kind, name, dense):
    g = dense_algebra(kind, name)[0] if dense else algebra(kind, name)
    gd = qg.gns(g)
    mu = multiplicative_unitary(g, gd)
    n = g.dim
    legs = mu.legs
    assert legs.exact and legs.remainder < 1e-13
    # sum_k F_k (x) g_k, legs ordered as in V[(a, b), (c, d)]
    rebuilt = np.einsum("kac,kbd->abcd", legs.factors, legs.basis).reshape(n * n, n * n)
    assert np.abs(rebuilt - mu.v).max() < 1e-13
    gram = np.einsum("kbd,lbd->kl", legs.basis.conj(), legs.basis)
    assert np.abs(gram - np.eye(n)).max() < 1e-13


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_factored_coproduct_defect_matches_dense_on_s4(kind):
    g = algebra(kind, "S4")
    gd, mu = gns_and_unitary(kind, "S4")
    # the V that multiplicative_unitary builds is checked on its factors
    assert mu.legs.exact and mu.legs.remainder < 1e-13
    dense = _coproduct_defect_dense(g, gd, mu.v)
    assert abs(coproduct_defect(g, gd, mu.v) - dense) <= 1e-12


@pytest.mark.parametrize("s", [1, 3, 5])
def test_coproduct_fallback_on_a_valid_v_outside_pi_a(s):
    g = algebra("ga", "S3")
    gd, mu = gns_and_unitary("ga", "S3")
    twisted = right_regular_twist(g, gd, mu, s)
    assert unitarity_defect(twisted) < 1e-12
    legs = second_leg_factors(gd, twisted)
    assert not legs.exact
    assert 4.2 <= legs.remainder <= 4.9
    defect = coproduct_defect(g, gd, twisted)
    assert defect < 1e-12
    assert abs(defect - kron_coproduct_defect(g, gd, twisted)) <= 1e-12


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_coproduct_fallback_when_pi_a_is_not_closed(kind):
    g, gd, v = non_associative_case(kind, "S3")
    assert gd._hs_structure[1] > 1e-6
    legs = second_leg_factors(gd, v)
    # the slices rebuild v, but g_k g_l^* leaves their span
    assert legs.remainder < 1e-13 and not legs.exact
    assert abs(coproduct_defect(g, gd, v) - kron_coproduct_defect(g, gd, v)) <= 1e-12


def test_coproduct_defect_memory_on_d16():
    g = qg.function_algebra(qg.dihedral_group(16))  # n = 32
    gd = qg.gns(g)
    v = multiplicative_unitary(g, gd).v
    tracemalloc.start()
    try:
        defect = coproduct_defect(g, gd, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert defect < 1e-12
    # the dense check held about 80 MiB here (V^* and two n^2 x n^2
    # products); the factored one keeps about three n^4 arrays
    assert peak <= 80 * 2**20


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_validate_and_unitary_memory_on_d12():
    small = algebra("fn", "S3")  # warm imports and einsum paths
    multiplicative_unitary(small, qg.gns(small))
    g = qg.function_algebra(qg.dihedral_group(12))  # n = 24, fresh caches
    gd = qg.gns(g)
    # real tensors keep every n^2 x n^2 product in float64: validate peaks
    # near 13 MiB and V near 11 MiB, against 26 and 17 MiB in complex128
    assert _traced_peak(qg.validate, g) <= 18 * 2**20
    assert _traced_peak(multiplicative_unitary, g, gd) <= 13 * 2**20


def test_multiplicative_unitary_flags_noninvariant_haar():
    base = algebra("fn", "Z2")
    skew = qg.FiniteQuantumGroup(
        dim=2, mult=base.mult, unit=base.unit, star=base.star,
        comult=base.comult, counit=base.counit, antipode=base.antipode,
        haar=np.array([0.7, 0.3]),
    )
    gd = qg.gns(skew)  # faithful, so the GNS space exists
    with pytest.raises(QuantumGroupError, match="right-invariance defect"):
        multiplicative_unitary(skew, gd)


def test_immutability():
    g = algebra("fn", "Z2")
    with pytest.raises(ValueError):
        g.mult[0, 0, 0] = 2.0
    ct = group("S3")
    with pytest.raises(ValueError):
        ct.table[0, 0] = 1
