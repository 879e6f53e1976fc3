import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import qgidem as qg
from qgidem import analysis, core
from qgidem.core import (
    QuantumGroupError,
    StructuralError,
    _associativity_defect,
    _cancellation_bound,
    _cancellation_span,
    _coproduct_defect_dense,
    _out,
    _pentagon_defect,
    _pentagon_defect_factored,
    _rank,
    _transport,
    frobenius,
    intertwiner_defect,
    multiplicative_unitary,
    pentagon_defect,
    second_leg_factors,
    unitarity_defect,
)

from helpers import (
    algebra,
    badly_conditioned,
    basis_vector,
    change_basis,
    coproduct_defect,
    dense_algebra,
    first_leg_twist,
    gns_and_unitary,
    kac_paljutkin,
    lift,
    loop_antipode_slice_defect,
    non_associative_case,
    group,
    phase_twin,
    random_unitary,
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


# the inverse span maps a Hopf algebra with S^2 = id has, X[(i, j), (r, s)]:
#   right: a (x) b -> b_(2) (x) S^-1(b_(1)) a;  left: a (x) b -> a_(1) (x) S(a_(2)) b
REFERENCE_INVERSES = {"right": "sui,tu,trj->ijrs", "left": "rik,tk,tsj->ijrs"}


def reference_certificate(g, side):
    """(||T X - 1||_F, ||T||_F, ||X||_F) with T and X formed and multiplied
    (one n^2 x n^2 GEMM): the certificate validate used before it bounded
    the product from n^5 data."""
    n = g.dim
    t = dict(zip(("right", "left"), reference_spans(g)))[side]
    x = np.einsum(REFERENCE_INVERSES[side], g.comult, g.antipode, g.mult, optimize=True)
    x = x.reshape(n * n, n * n)
    r = t @ x
    r.flat[:: r.shape[0] + 1] -= 1.0
    return frobenius(r), frobenius(t), frobenius(x)


def reference_certified(g, side, rel_tol=1e-8):
    defect, norm_t, norm_x = reference_certificate(g, side)
    return defect <= 0.5 and norm_t * norm_x < 0.5 / rel_tol


def certified(g, side, rel_tol=1e-8):
    bound, norm_t, norm_x = _cancellation_bound(g, side, _associativity_defect(g.mult))
    return bound <= 0.5 and norm_t * norm_x < 0.5 / rel_tol


# x[b, i, k]: the slice of Delta(e_i) at e_b on the leg that is not multiplied
REFERENCE_SLICES = {"right": "ikb->bik", "left": "ibk->bik"}


def reference_bound(g, side, assoc):
    """The terms of ``_cancellation_bound`` with every operator formed:
    the blocks L_{P_bc - delta_bc 1}, L_1 and K = sum_i x[b, i] (x) y[i, c]."""
    n = g.dim
    ein = functools.partial(np.einsum, optimize=True)
    x = ein(REFERENCE_SLICES[side], g.comult)
    y = ein("tk,ick->ict", g.antipode, x)
    k = ein("bik,icl->bkcl", x, y)
    q = ein("bkcl,klp->bcp", k, g.mult) - ein("bc,p->bcp", np.eye(n), g.unit)
    blocks = ein("bck,kjq->bcqj", q, g.mult)
    unit_block = ein("k,kjq->qj", g.unit, g.mult) - np.eye(n)
    return frobenius(blocks) + np.sqrt(n) * frobenius(unit_block) + frobenius(k) * assoc


def assert_bound_covers_the_product(g):
    """The n^5 bound is its terms formed, never below the dense
    ||T X - 1||_F, and its norms are the dense ones."""
    assoc = _associativity_defect(g.mult)
    for side in ("right", "left"):
        bound, norm_t, norm_x = _cancellation_bound(g, side, assoc)
        defect, ref_t, ref_x = reference_certificate(g, side)
        assert bound >= defect, (side, bound, defect)
        ref_bound = reference_bound(g, side, assoc)
        assert abs(bound - ref_bound) <= 1e-12 + 1e-10 * ref_bound, (side, bound, ref_bound)
        assert abs(norm_t - ref_t) <= 1e-12 * ref_t
        assert abs(norm_x - ref_x) <= 1e-12 * max(ref_x, 1.0)


def assert_certified_ranks_match_svd(g):
    report = qg.validate(g)
    full = g.dim**2
    assert report.cancellation_ranks == tuple(_rank(t) for t in reference_spans(g))
    assert report.cancellation_ranks == (full, full)
    for side, ref in zip(("right", "left"), reference_spans(g)):
        assert np.abs(_cancellation_span(g, side) - ref).max() <= 1e-14
        # the SVD is skipped on every valid input
        assert certified(g, side) and reference_certified(g, side)
    assert_bound_covers_the_product(g)


@pytest.mark.parametrize("name", SMALL_GROUPS)
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_certified_cancellation_ranks_match_svd(kind, name):
    assert_certified_ranks_match_svd(algebra(kind, name))


@pytest.mark.parametrize("name", ["S3", "Q8", "S4"])
@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_certified_cancellation_ranks_match_svd_on_dense_basis(kind, name):
    assert_certified_ranks_match_svd(dense_algebra(kind, name)[0])


@pytest.mark.parametrize("kind", ["fn", "ga"])
def test_certified_cancellation_ranks_match_svd_on_s4_and_phase_twin(kind):
    assert_certified_ranks_match_svd(algebra(kind, "S4"))
    assert_certified_ranks_match_svd(phase_twin(kind, "Q8")[0])


def test_cancellation_bound_on_dense_basis_is_rounding():
    # the bound adds up terms the dense product cancels, so it reads 3-13
    # times the dense value (1.7e-14 to 6.7e-13 here), both at rounding level
    for kind, name in (("fn", "S3"), ("ga", "S3"), ("fn", "S4"), ("ga", "S4")):
        g = dense_algebra(kind, name)[0]
        for side in ("right", "left"):
            bound, _, _ = _cancellation_bound(g, side, _associativity_defect(g.mult))
            assert bound <= 1e-11


@pytest.mark.parametrize("size", [1e-10, 1e-6, 1e-2])
@pytest.mark.parametrize("kind,name,dense", [("fn", "S3", False), ("ga", "S3", False),
                                             ("ga", "Q8", False), ("ga", "S3", True)])
def test_cancellation_bound_on_a_perturbed_product(kind, name, dense, size):
    # the dense twin is complex and gets complex noise, in the coproduct too
    base = dense_algebra(kind, name)[0] if dense else algebra(kind, name)
    rng = np.random.default_rng(1)
    noise = rng.standard_normal(base.mult.shape)
    g = dataclasses.replace(base, mult=base.mult + size * noise)
    if dense:
        noise = rng.standard_normal((3,) + base.mult.shape)
        g = dataclasses.replace(
            base,
            mult=base.mult + size * (noise[0] + 1j * noise[1]),
            comult=base.comult + size * (noise[2] + 1j * noise[0]),
        )
    assert_bound_covers_the_product(g)
    report = qg.validate(g)
    # a failed certificate leaves the rank to the SVD, which must agree
    assert report.cancellation_ranks == tuple(_rank(t) for t in reference_spans(g))
    if size == 1e-10:
        assert certified(g, "right") and certified(g, "left")
    if size == 1e-2:
        assert not (certified(g, "right") or certified(g, "left"))


def test_badly_scaled_basis_leaves_the_rank_to_the_svd():
    # ga:Z3 with one basis vector scaled by 1e-4: T X = 1 still holds to
    # rounding, but ||T||_F ||X||_F = 2e8 exceeds 1 / (2 rel_tol), and the
    # SVD's relative cutoff reads a deficient rank that the bound alone
    # would have called full
    g = change_basis(algebra("ga", "Z3"), np.diag([1.0, 1e-4, 1.0]))
    assoc = _associativity_defect(g.mult)
    for side in ("right", "left"):
        bound, norm_t, norm_x = _cancellation_bound(g, side, assoc)
        assert bound <= 0.5 and norm_t * norm_x >= 0.5 / 1e-8
    ranks = tuple(_rank(t) for t in reference_spans(g))
    assert ranks == (7, 7)
    assert qg.validate(g).cancellation_ranks == ranks


def sweedler_algebra(inverse_antipode=False):
    """Sweedler's 4-dimensional Hopf algebra, basis 1, g, x, gx with
    g^2 = 1, x^2 = 0, xg = -gx, Delta(g) = g (x) g, Delta(x) = x (x) 1 +
    g (x) x: S(x) = -gx, so S^2 != id.  Its star and Haar state are
    placeholders (the input fails those axioms)."""
    n = 4
    mult = np.zeros((n, n, n))
    for j in range(n):
        mult[0, j, j] = mult[j, 0, j] = 1.0
    for i, j, sign, k in [(1, 1, 1, 0), (1, 2, 1, 3), (1, 3, 1, 2), (2, 1, -1, 3), (3, 1, -1, 2)]:
        mult[i, j, k] = sign
    comult = np.zeros((n, n, n))
    for i, j, k in [(0, 0, 0), (1, 1, 1), (2, 2, 0), (2, 1, 2), (3, 3, 1), (3, 0, 3)]:
        comult[i, j, k] = 1.0
    s = np.zeros((n, n))
    s[0, 0] = s[1, 1] = s[2, 3] = 1.0
    s[3, 2] = -1.0
    return qg.FiniteQuantumGroup(
        dim=n, mult=mult, unit=basis_vector(n, 0), star=np.eye(n), comult=comult,
        counit=np.array([1.0, 1.0, 0.0, 0.0]),
        antipode=np.linalg.inv(s) if inverse_antipode else s, haar=basis_vector(n, 0),
    )


@pytest.fixture
def rank_shapes(monkeypatch):
    """The shapes of the matrices np.linalg.matrix_rank is called on."""
    shapes = []
    matrix_rank = np.linalg.matrix_rank

    def recording_rank(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return matrix_rank(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", recording_rank)
    return shapes


def test_each_span_is_certified_by_its_own_inverse(rank_shapes):
    # the left inverse uses S and the right one S^-1, equal for a Kac
    # antipode; with S^2 != id each S certifies one side only, the other
    # side's full rank comes from the SVD
    shapes = rank_shapes
    for inverse, certified_side in ((False, "left"), (True, "right")):
        g = sweedler_algebra(inverse)
        assert _associativity_defect(g.mult) == 0.0
        assert [certified(g, side) for side in ("right", "left")] == [
            side == certified_side for side in ("right", "left")
        ]
        assert_bound_covers_the_product(g)
        assert qg.validate(g).cancellation_ranks == (16, 16)
        # the coaction density matrix restricts the left span: only a
        # certified left span skips its SVD
        shapes.clear()
        rep = analysis.coaction_checks(g, np.eye(4))
        assert rep.values["density_rank"] == 16
        assert ((16, 16) in shapes) == (certified_side != "left")


def test_no_valid_builtin_input_reaches_the_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the cancellation rank was taken by SVD")

    monkeypatch.setattr(core, "_rank", no_svd)
    inputs = [algebra(kind, name) for kind in ("fn", "ga") for name in SMALL_GROUPS + ["S4"]]
    inputs += [dense_algebra(kind, name)[0] for kind in ("fn", "ga") for name in ("S3", "Q8")]
    inputs += [phase_twin("ga", "S3")[0], qg.dual(algebra("ga", "D4"))]
    for g in inputs:
        report = qg.validate(g)
        assert report.passed and report.cancellation_ranks == (g.dim**2, g.dim**2)


def monoid_bialgebra():
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
    return qg.FiniteQuantumGroup(
        dim=n, mult=mult, unit=basis_vector(n, elems.index((1, 1))), star=np.eye(n),
        comult=comult, counit=np.ones(n), antipode=np.eye(n), haar=np.full(n, 1 / n),
    )


def test_deficient_cancellation_ranks_come_from_the_svd():
    monoid = monoid_bialgebra()
    for side in ("right", "left"):
        assert not certified(monoid, side)
    assert_bound_covers_the_product(monoid)
    report = qg.validate(monoid)
    assert report.cancellation_ranks == (9, 9)
    assert {"cancellation_left", "cancellation_right"} <= set(report.failures)
    assert report.cancellation_ranks == tuple(_rank(t) for t in reference_spans(monoid))


def test_one_sided_cancellation_failure_names_its_side():
    # functions on the left-zero semigroup {a, b} (xy = x): Delta(f)(x, y) =
    # f(x), so Delta(e_x)(e_y (x) 1) spans only the diagonal, while
    # Delta(e_x)(1 (x) e_y) = e_x (x) e_y spans everything
    n = 2
    mult = np.zeros((n, n, n))
    comult = np.zeros((n, n, n))
    for x in range(n):
        mult[x, x, x] = 1.0
        comult[x, x, :] = 1.0
    g = qg.FiniteQuantumGroup(
        dim=n, mult=mult, unit=np.ones(n), star=np.eye(n), comult=comult,
        counit=basis_vector(n, 0), antipode=np.eye(n), haar=np.full(n, 0.5),
    )
    assert tuple(_rank(t) for t in reference_spans(g)) == (2, 4)
    report = qg.validate(g)
    assert report.cancellation_ranks == (2, 4)
    assert "cancellation_right" in report.failures
    assert "cancellation_left" not in report.failures
    assert "cancellation ranks: right 2, left 4 (need 4)" in str(report)


def test_coaction_density_rank_of_the_monoid_comes_from_the_svd(rank_shapes):
    monoid = monoid_bialgebra()
    n = monoid.dim
    shapes = rank_shapes
    rep = analysis.coaction_checks(monoid, np.eye(n))
    assert (n * n, n * n) in shapes
    assert rep.values["density_rank"] == 9 == _rank(reference_spans(monoid)[1])
    assert not rep.passed
    # a valid input certifies the density rank and takes no n^2-column SVD
    shapes.clear()
    g = algebra("ga", "D4")
    rep = analysis.coaction_checks(g, np.eye(g.dim))
    assert rep.passed and rep.values["density_rank"] == g.dim**2
    assert all(shape[-1] != g.dim**2 for shape in shapes)


def test_wrong_antipode_falls_back_to_the_svd():
    g = algebra("ga", "S3")
    wrong = dataclasses.replace(g, antipode=np.eye(g.dim))
    for side in ("right", "left"):
        assert not certified(wrong, side)
        assert not reference_certified(wrong, side)
    assert_bound_covers_the_product(wrong)
    report = qg.validate(wrong)
    # the spans do not involve S: still full, now by SVD
    assert report.cancellation_ranks == (36, 36)
    assert {"antipode_left", "antipode_right"} <= set(report.failures)
    assert not {"cancellation_left", "cancellation_right"} & set(report.failures)


def reference_residuals(g):
    """validate's associativity, coassociativity and comult_multiplicative
    residuals in the einsum forms the library used before its contiguous
    layouts, and its star and antipode residuals in the einsum forms it
    used before its leg transports."""
    m, d, n = g.mult, g.comult, g.dim
    st, s = g.star, g.antipode
    ein = functools.partial(np.einsum, optimize=True)
    lhs = ein("ijk,kpq->ipjq", m, d).reshape(n * n, n * n)
    t1 = ein("iab,acp->ipbc", d, m).reshape(n * n, n * n)
    u1 = ein("jce,beq->bcjq", d, m).reshape(n * n, n * n)
    comult_star = ein("pj,pkq->jkq", st, d) - ein("ijk,pj,qk->ipq", np.conj(d), st, st)
    target = np.outer(g.counit, g.unit)
    return {
        "associativity": frobenius(ein("ijk,klp->ijlp", m, m) - ein("jlk,ikp->ijlp", m, m)),
        "coassociativity": frobenius(ein("ijc,jab->iabc", d, d) - ein("iak,kbc->iabc", d, d)),
        "comult_multiplicative": frobenius(lhs - t1 @ u1),
        "star_antimultiplicative": frobenius(
            ein("ijp,kp->ijk", np.conj(m), st) - ein("pj,qi,pqk->ijk", st, st, m)
        ),
        "comult_star": frobenius(comult_star),
        "antipode_left": frobenius(ein("ijk,pj,pkq->iq", d, s, m) - target),
        "antipode_right": frobenius(ein("ijk,pk,jpq->iq", d, s, m) - target),
    }


def residual_cases():
    cases = [(kind, name, variant) for kind in ("fn", "ga") for name in ("S3", "Q8", "S4")
             for variant in ("sparse", "dense")]
    return cases + [("ga", "S3", "phase"), ("fn", "Q8", "phase"),
                    ("fn", "S3", "perturbed"), ("ga", "Q8", "perturbed"),
                    ("ga", "S3", "complex_comult"), ("fn", "Q8", "complex_mult")]


@pytest.mark.parametrize("kind,name,variant", residual_cases())
def test_residual_layouts_match_the_einsum_forms(kind, name, variant):
    g = algebra(kind, name)
    if variant == "dense":
        g = dense_algebra(kind, name)[0]
    elif variant == "phase":
        g = phase_twin(kind, name)[0]
    elif variant != "sparse":
        # complex noise in both tensors, or in one while the other stays
        # real, so validate's workspace is complex and some products real
        noise = np.random.default_rng(2).standard_normal((4,) + g.mult.shape)
        mult = g.mult + 1e-3 * (noise[0] + 1j * noise[1])
        comult = g.comult + 1e-3 * (noise[2] + 1j * noise[3])
        g = dataclasses.replace(
            g,
            mult=g.mult if variant == "complex_comult" else mult,
            comult=g.comult if variant == "complex_mult" else comult,
        )
        assert (g.mult.dtype.kind, g.comult.dtype.kind) == {
            "perturbed": ("c", "c"), "complex_comult": ("f", "c"), "complex_mult": ("c", "f")
        }[variant]
    got = qg.validate(g).residuals
    refs = reference_residuals(g)
    for key, ref in refs.items():
        assert abs(got[key] - ref) <= 1e-12, (key, got[key], ref)
    if variant in ("perturbed", "complex_mult"):
        assert refs["associativity"] > 1e-4
        assert refs["star_antimultiplicative"] > 1e-4
    if variant in ("perturbed", "complex_comult"):
        assert refs["coassociativity"] > 1e-4
        assert refs["comult_star"] > 1e-4
    if variant in ("perturbed", "complex_comult", "complex_mult"):
        assert refs["comult_multiplicative"] > 1e-4
        assert min(refs["antipode_left"], refs["antipode_right"]) > 1e-4


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("tensor_kind", ["real", "complex"])
@pytest.mark.parametrize("matrix_kind", ["real", "complex"])
def test_transport_matches_einsum(matrix_kind, tensor_kind, layout):
    rng = np.random.default_rng(5)

    def draw(shape, kind):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

    # rectangular everywhere: each leg changes its length
    x = draw((3, 4, 5), tensor_kind)
    if layout == "transposed":
        x = draw((4, 3, 5), tensor_kind).swapaxes(0, 1)
    mats = [draw((6, 3), matrix_kind), draw((2, 4), matrix_kind), draw((7, 5), matrix_kind)]
    for given in itertools.product((False, True), repeat=3):
        legs = [mat if keep else None for mat, keep in zip(mats, given)]
        full = [mat if keep else np.eye(mat.shape[1]) for mat, keep in zip(mats, given)]
        got = _transport(x, *legs)
        ref = np.einsum("ai,bj,ck,ijk->abc", *full, x)
        assert got.shape == ref.shape, (given, got.shape)
        assert np.iscomplexobj(got) == np.iscomplexobj(ref), given
        assert np.abs(got - ref).max() <= 1e-13, given


def single_product_associativity_defect(m):
    """The associativity residual with each side one product over every i,
    two n^4 arrays: the form before the row blocks."""
    m = np.ascontiguousarray(m)
    n = m.shape[0]
    m2 = m.reshape(n * n, n)
    r = m2 @ m.reshape(n, n * n)
    r -= np.matmul(m2, m).reshape(n * n, n * n)
    return frobenius(r)


def single_product_comult_multiplicative_defect(m, d):
    """The comult_multiplicative residual with t1, u1, their product and
    Delta(e_i e_j) each one n^4 array: the form before the row blocks."""
    n = m.shape[0]
    shape = (n * n, n * n)
    t1 = np.matmul(
        np.ascontiguousarray(d.transpose(0, 2, 1))[:, None],
        np.ascontiguousarray(m.transpose(2, 0, 1))[None],
    ).reshape(shape)
    u1 = np.matmul(d.transpose(1, 0, 2).reshape(n * n, n), m).reshape(shape)
    diff = (t1 @ u1).reshape(n, n, n, n)
    ref = m.reshape(n * n, n) @ d.reshape(n, n * n)
    diff -= ref.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return frobenius(diff)


def single_product_residuals(g):
    return {
        "associativity": single_product_associativity_defect(g.mult),
        "coassociativity": single_product_associativity_defect(g.comult.transpose(1, 2, 0)),
        "comult_multiplicative": single_product_comult_multiplicative_defect(g.mult, g.comult),
    }


def blocked_residual_cases():
    # n = 1, 2, 3, 6 and 14 (D7: blocks of 3, the last one of 2)
    groups = [("fn", "Z1"), ("ga", "Z2"), ("fn", "Z3"), ("ga", "S3"), ("fn", "D7"), ("ga", "D7")]
    cases = [(kind, name, variant) for kind, name in groups for variant in ("sparse", "perturbed")]
    return cases + [("fn", "S3", "dense"), ("ga", "Q8", "dense"), ("ga", "S3", "phase"),
                    ("ga", "S3", "complex_comult"), ("fn", "Q8", "complex_mult")]


def blocked_residual_input(kind, name, variant):
    if name == "D7":
        ct = qg.dihedral_group(7)
        g = qg.function_algebra(ct) if kind == "fn" else qg.group_algebra(ct)
    else:
        g = algebra(kind, name)
    rng = np.random.default_rng(6)
    if variant == "dense":
        return dense_algebra(kind, name)[0]
    if variant == "phase":
        return phase_twin(kind, name)[0]
    if variant == "perturbed":
        return dataclasses.replace(g, mult=g.mult + 1e-6 * rng.standard_normal(g.mult.shape))
    if variant != "sparse":
        noise = rng.standard_normal((2,) + g.mult.shape)
        name = "comult" if variant == "complex_comult" else "mult"
        moved = getattr(g, name) + 1e-3 * (noise[0] + 1j * noise[1])
        return dataclasses.replace(g, **{name: moved})
    return g


@pytest.mark.parametrize("kind,name,variant", blocked_residual_cases())
def test_blocked_residuals_match_single_products(kind, name, variant):
    g = blocked_residual_input(kind, name, variant)
    report = qg.validate(g)
    refs = single_product_residuals(g)
    for key, ref in refs.items():
        got = report.residuals[key]
        if ref == 0.0:
            assert got == 0.0, (key, got)
        else:
            assert abs(got - ref) <= 1e-12 * ref, (key, got, ref)
    if variant == "sparse":
        assert set(refs.values()) == {0.0}
    if variant in ("perturbed", "complex_mult"):
        # a product on one basis vector is associative whatever its value
        assert refs["associativity"] > 1e-7 or g.dim == 1
        assert refs["comult_multiplicative"] > 1e-7
    if variant == "complex_comult":
        assert refs["coassociativity"] > 1e-4 and refs["comult_multiplicative"] > 1e-4
    # the ranks, and which axioms fail, are those of the single products
    ranks = tuple(_rank(t) for t in reference_spans(g))
    assert report.cancellation_ranks == ranks
    expected = qg.ValidationReport(g.dim, report.tol, {**report.residuals, **refs}, ranks)
    assert (report.passed, report.failures) == (expected.passed, expected.failures)
    # the helpers give the same values with and without a workspace
    assert _associativity_defect(g.mult) == report.residuals["associativity"]
    assert _associativity_defect(g.mult, core._workspace(g.dim, 1, 2, np.complex128)) == (
        report.residuals["associativity"]
    )


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
    # an explicit tol to validate gets the same check: with nan every
    # residual test fails in validate
    g = algebra("ga", "S3")
    with pytest.raises(StructuralError, match="tol") as err:
        qg.validate(g, tol=tol)
    messages.add(str(err.value))
    assert len(messages) == 1
    # V is checked at g.tol, which the constructor has checked: a broken
    # coproduct (unitarity defect about 0.45) is rejected
    rng = np.random.default_rng(0)
    broken = dataclasses.replace(g, comult=g.comult + 1e-2 * rng.standard_normal(g.comult.shape))
    with pytest.raises(QuantumGroupError, match="right-invariance defect"):
        multiplicative_unitary(broken, qg.gns(broken))


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
    assert g.haar @ basis_vector(2, 1) == 0
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


def test_intertwiner_requires_equal_dimensions():
    with pytest.raises(qg.StructuralError, match=r"^intertwiner requires equal dimensions$"):
        intertwiner_defect(algebra("fn", "Z2"), algebra("fn", "Z3"), np.eye(2))


@pytest.mark.parametrize("t", [np.eye(5), np.ones(6)], ids=["5x5", "1-D"])
def test_intertwiner_requires_a_matrix_of_the_dimension(t):
    g = algebra("fn", "S3")
    with pytest.raises(qg.StructuralError, match=r"^intertwiner must have shape \(6, 6\), got"):
        intertwiner_defect(g, g, t)


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
    slice_defect, span_rank = loop_antipode_slice_defect(g, gd, mu)
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
    """The pentagon defect multiplicative_unitary would report for v, with
    g.tol replaced by ``tol`` when one is given."""
    legs = second_leg_factors(gd, v)
    udef, cdef = unitarity_defect(v), coproduct_defect(g, gd, v)
    if tol is not None:
        g = dataclasses.replace(g, tol=tol)
    return _pentagon_defect(g, gd, v, legs, udef, cdef)


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
    small = algebra("fn", "S3")  # warm imports
    multiplicative_unitary(small, qg.gns(small))
    g = qg.function_algebra(qg.dihedral_group(12))  # n = 24, fresh caches
    gd = qg.gns(g)
    # real tensors keep every n^2 x n^2 product in float64: validate peaks
    # near 13 MiB and V near 11 MiB, against 26 and 17 MiB in complex128
    assert _traced_peak(qg.validate, g) <= 18 * 2**20
    assert _traced_peak(multiplicative_unitary, g, gd) <= 13 * 2**20


def test_symmetry_map_memory_on_d12():
    small = algebra("fn", "S3")  # warm imports
    analysis.symmetry_residual(small, *gns_and_unitary("fn", "S3"), small.unit[:, None])
    g = qg.function_algebra(qg.dihedral_group(12))  # n = 24, fresh caches
    gd = qg.gns(g)
    mu = multiplicative_unitary(g, gd)  # fresh legs: the map is built below
    # the conjugation map is built in blocks of n^4 / 4 beside a few n^3
    # arrays: about 2.0 MiB, where the per-state products of F_k^* F_l and
    # g_k g_m took 7.6 MiB
    c_basis = qg.left_slice(g, g.haar)
    assert _traced_peak(analysis.symmetry_residual, g, gd, mu, c_basis) <= 3 * 2**20


def test_validate_memory_on_d16():
    small = algebra("fn", "S3")  # warm imports
    qg.validate(small)
    g = qg.function_algebra(qg.dihedral_group(16))  # n = 32
    # the three n^4 buffers of the workspace (8 MiB each); forming the
    # cancellation spans, their inverses and the n^2 x n^2 certificate
    # product held about 40 MiB
    assert _traced_peak(qg.validate, g) <= 30 * 2**20


def test_multiplicative_unitary_memory_on_d16():
    small = algebra("fn", "S3")  # warm imports
    multiplicative_unitary(small, qg.gns(small))
    g = qg.function_algebra(qg.dihedral_group(16))  # n = 32, fresh caches
    gd = qg.gns(g)
    # four n^4 float64 arrays (8 MiB each); V, pi(e_i) F_l^* of the
    # coproduct check and its blocks of n^4 / 4 entries peak near 24 MiB
    assert _traced_peak(multiplicative_unitary, g, gd) <= 32 * 2**20


def test_validate_memory_in_row_blocks():
    small = algebra("fn", "S3")  # warm imports
    qg.validate(small)
    # the workspace is u1 (n^4) and two row blocks of n^4 / 4, 12 MiB at
    # n = 32 (float64), and peaks near 14 MiB with the certificates' n^3
    # arrays; three n^4 buffers peaked near 26 MiB
    bound = 16 * 2**20
    assert _traced_peak(qg.validate, qg.function_algebra(qg.dihedral_group(16))) <= bound
    # n = 24: the same bound scaled by n^4 (about 4.7 MiB measured)
    scaled = bound * (24 / 32) ** 4
    assert _traced_peak(qg.validate, qg.function_algebra(qg.dihedral_group(12))) <= scaled


def test_multiplicative_unitary_memory_with_one_workspace():
    small = algebra("fn", "S3")  # warm imports
    multiplicative_unitary(small, qg.gns(small))
    g = qg.function_algebra(qg.dihedral_group(16))  # n = 32, fresh caches
    gd = qg.gns(g)
    # V (8 MiB) and one workspace of 1.375 n^4 (11 MiB) that the unitarity
    # product and the coproduct's z and blocks take in turn: about 21 MiB,
    # where V, z and three blocks of n^4 / 4 peaked near 24 MiB
    assert _traced_peak(multiplicative_unitary, g, gd) <= 22 * 2**20


@pytest.mark.parametrize("kind,k", [("fn", 16), ("ga", 12)])
def test_valid_inputs_never_reach_the_dense_fallbacks(kind, k, monkeypatch):
    # the fallbacks give the same values at n^7 (coproduct), n^8 or a
    # sampled lower bound (pentagon) and n^6 (cancellation SVD), so only
    # this test sees a builtin input leave the fast paths; a valid input in
    # a badly conditioned basis does need them (the test below)
    def fallback(*args, **kwargs):
        raise AssertionError("dense fallback taken on a valid input")

    for name in ("_coproduct_defect_dense", "pentagon_defect", "_cancellation_span"):
        monkeypatch.setattr(core, name, fallback)
    ct = qg.dihedral_group(k)
    g = qg.function_algebra(ct) if kind == "fn" else qg.group_algebra(ct)
    report = qg.validate(g)
    assert report.passed and report.cancellation_ranks == (g.dim**2,) * 2
    mu = multiplicative_unitary(g)
    assert max(mu.defects.values()) <= g.tol


def test_the_pipeline_runs_no_einsum(monkeypatch):
    # every contraction is a fixed product (_contract, _transport or a
    # plain matmul), so none searches a path or runs a scalar loop per call
    def forbidden(*args, **kwargs):
        raise AssertionError("einsum called")

    # fresh instances, so no cached property or kept quotient is reused
    inputs = [
        qg.function_algebra(group("S3")),
        qg.group_algebra(group("S3")),
        dataclasses.replace(kac_paljutkin()),  # complex comult
    ]
    monkeypatch.setattr(np, "einsum", forbidden)
    monkeypatch.setattr(np, "einsum_path", forbidden)
    for g in inputs:
        assert qg.validate(g).passed
        qg.dual(g)
        t = random_unitary(g.dim, np.random.default_rng(3))
        assert intertwiner_defect(g, change_basis(g, t), t) < 1e-12
        gd = qg.gns(g)
        mu = multiplicative_unitary(g, gd)
        states = qg.solve_idempotents(g)
        for state in states:
            if analysis.classify(g, state, gd=gd, mu=mu).is_haar:
                analysis.quotient_quantum_group(g, state)
        analysis.build_lattice(g, states)


def test_a_badly_conditioned_valid_input_needs_the_dense_fallbacks(monkeypatch):
    # ga:S3 carried by u diag(1 .. 100) w^T: the input is valid, but
    # rounding leaves V's slicing remainder above the cutoff of
    # LegFactors.exact, and the factored pentagon bound, evaluated on those
    # slices anyway, exceeds tol; only the dense paths accept V
    g = badly_conditioned("ga", "S3")
    assert qg.validate(g).passed
    taken = []

    def recorded(name):
        dense = getattr(core, name)

        def call(*args, **kwargs):
            taken.append(name)
            return dense(*args, **kwargs)

        return call

    for name in ("_coproduct_defect_dense", "pentagon_defect"):
        monkeypatch.setattr(core, name, recorded(name))
    gd = qg.gns(g)
    mu = multiplicative_unitary(g, gd)
    assert taken == ["_coproduct_defect_dense", "pentagon_defect"]
    assert not mu.legs.exact
    assert mu.legs.remainder > 64 * np.finfo(float).eps * frobenius(mu.v)
    assert max(mu.defects.values()) <= g.tol
    exact = dataclasses.replace(mu.legs, exact=True)
    udef, cdef = mu.defects["unitarity"], mu.defects["coproduct"]
    assert _pentagon_defect(g, gd, mu.v, exact, udef, cdef) > g.tol


def test_workspace_of_the_wrong_dtype_is_never_cast_into():
    g = phase_twin("ga", "S3")[0]  # complex mult
    n = g.dim
    real, cplx = np.empty((3, n**4)), np.empty((3, n**4), dtype=np.complex128)
    # a real product uses the leading bytes of a complex buffer; a complex
    # one does not fit a real buffer and gets its own array
    view = _out(cplx[0], (n * n, n * n), np.float64)
    assert view.dtype == np.float64 and np.shares_memory(view, cplx[0])
    fresh = _out(real[0], (n * n, n * n), g.mult)
    assert fresh.dtype == np.complex128 and not np.shares_memory(fresh, real)
    assert _out(None, (2, 3), np.float64).shape == (2, 3)
    assert not np.shares_memory(_out(real[0, :5], (2, 3), np.float64), real)
    noise = np.random.default_rng(4).standard_normal((2,) + g.mult.shape)
    for m in (g.mult + 1e-2 * (noise[0] + 1j * noise[1]), 1e-2 * noise[0]):
        ref = _associativity_defect(m)
        assert ref > 1e-5
        assert _associativity_defect(m, real) == _associativity_defect(m, cplx) == ref


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
