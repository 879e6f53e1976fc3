"""Everything an idempotent state generates.

Produces and verifies: the right-invariant expected subalgebra
L_omega(A) with its conditional expectation, the null space
N_omega = {a : omega(a^* a) = 0}, the three equivalent Haar criteria
(symmetric subalgebra / null-space ideal / quantum-subgroup quotient),
the quotient quantum group, the partial order of idempotent states, and
coaction checks on invariant subalgebras.

Tolerance ladder: constructions verify at ``CONSTRUCTION_TOL`` (1e-10),
classification decides at ``CLASSIFY_TOL`` (1e-8), and the three-way
equivalence is cross-checked at ``EQUIVALENCE_TOL`` (1e-6); each stage
consumes the previous stage's error.  The ladder is fixed: no function here
takes a tolerance.  ``FiniteQuantumGroup.tol`` governs only ``validate``,
the GNS faithfulness test and the checks of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FiniteQuantumGroup,
    GnsData,
    InternalConsistencyError,
    MultUnitary,
    QuantumGroupError,
    ValidationReport,
    _contract,
    _kernel_basis,
    _transport,
    frobenius,
    gns,
    multiplicative_unitary,
    orthonormal_columns,
    validate,
)
from .states import (
    State,
    as_coeffs,
    canonical_order,
    idempotency_defect,
    is_idempotent,
    left_slice,
)

CONSTRUCTION_TOL = 1e-10
CLASSIFY_TOL = 1e-8
EQUIVALENCE_TOL = 1e-6


def subspace_defect(images, u) -> float:
    """Largest column norm of (1 - u u^*) images.

    ``images`` stacks the vectors to test as the columns of a (..., n, k)
    array; ``u`` has orthonormal columns spanning the subspace.  Zero iff
    every image lies in span(u).
    """
    images = np.asarray(images)
    if images.size == 0:
        return 0.0
    outside = images - u @ (u.conj().T @ images)
    return float(np.linalg.norm(outside, axis=-2).max())


def _require_idempotent(qg, w):
    if not is_idempotent(qg, w, CLASSIFY_TOL):
        raise ValueError(
            f"not an idempotent state (defect {idempotency_defect(qg, w):.2e})"
        )


# -- null space and ideals ----------------------------------------------


def null_space(qg: FiniteQuantumGroup, omega) -> np.ndarray:
    """Orthonormal basis of N_omega = {a : omega(a^* a) = 0}, the kernel of
    the positive semidefinite Gram matrix omega(e_i^* e_j)."""
    g = qg.functional_gram(as_coeffs(omega))
    g = (g + g.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(g)
    scale = max(1.0, float(np.abs(eigvals).max()))
    return np.ascontiguousarray(eigvecs[:, np.abs(eigvals) <= CONSTRUCTION_TOL * scale])


def ideal_residual(qg: FiniteQuantumGroup, basis) -> float:
    """How far the subspace is from being a two-sided *-closed ideal.

    The largest Frobenius norm of (1 - u u^*) T u over the operators T:
    left and right multiplication by each basis element e_i, and the star.
    Rotating the orthonormal basis u of the subspace leaves each norm
    unchanged, so the value depends on the subspace alone.
    """
    basis = np.asarray(basis)
    if basis.shape[1] == 0:
        return 0.0
    u = orthonormal_columns(basis)
    images = np.concatenate(
        [
            qg.right_mult_matrix(u.T).transpose(2, 1, 0),  # [i, :, c] = e_i u_c
            qg.left_mult_matrix(u.T).transpose(2, 1, 0),  # [i, :, c] = u_c e_i
            qg.star_vec(u)[None],
        ]
    )
    outside = images - u @ (u.conj().T @ images)
    return float(np.linalg.norm(outside, axis=(-2, -1)).max())


# -- invariant subalgebras and conditional expectations -----------------


@dataclass
class Subalgebra:
    """A subspace C of A with verified structure flags.

    ``basis`` has orthonormal columns spanning C; ``exp`` is a conditional
    expectation onto C when one is attached.
    """

    basis: np.ndarray
    is_algebra: bool = False
    is_selfadjoint: bool = False
    is_right_invariant: bool = False
    is_expected: bool = False
    exp: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _algebra_residuals(qg, u):
    prod = subspace_defect(qg.left_mult_matrix(u.T) @ u, u)  # u_i u_c
    star = subspace_defect(qg.star_vec(u), u)
    unit = subspace_defect(qg.unit[:, None], u)
    return prod, star, unit


def right_invariance_residual(qg, u) -> float:
    """max over the dual basis nu of the defect of R_nu(C) in C."""
    # R_{f_k} u_c = Delta(u_c)[:, k]
    return subspace_defect(qg.comultiply(u.T).transpose(2, 1, 0), u)


def invariant_subalgebra(qg: FiniteQuantumGroup, omega) -> Subalgebra:
    """C_omega = L_omega(A), with E = L_omega as conditional expectation.

    Verifies L(a) L(b) = L(L(a) b) (so the range is an algebra and L a
    conditional expectation onto it), right invariance against the dual
    basis, self-adjointness, and Haar preservation h . L = h.
    """
    w = as_coeffs(omega)
    _require_idempotent(qg, w)
    lw = left_slice(qg, w)
    u = orthonormal_columns(lw)

    # L(e_i) L(e_j) = L(L(e_i) e_j): P[i] = L_{L(e_i)}, so P lw = lw P
    p = qg.left_mult_matrix(lw.T)
    cond = frobenius(p @ lw - lw @ p)
    scale = CONSTRUCTION_TOL * qg.dim
    if cond > scale:
        raise QuantumGroupError(
            f"L_omega is not a conditional expectation (defect {cond:.2e})"
        )
    prod, star, unit = _algebra_residuals(qg, u)
    rinv = right_invariance_residual(qg, u)
    haar_pres = float(np.abs(qg.haar @ lw - qg.haar).max())
    return Subalgebra(
        basis=u,
        is_algebra=(prod <= scale and unit <= scale),
        is_selfadjoint=star <= scale,
        is_right_invariant=rinv <= scale,
        is_expected=haar_pres <= scale,
        exp=lw,
    )


@dataclass
class ExpectationReport:
    """Residuals of the conditional-expectation axioms for E onto C."""

    residuals: dict
    dim_algebra: int
    dim_subalgebra: int
    dim_kernel: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            all(v <= CLASSIFY_TOL for v in self.residuals.values())
            and self.dim_subalgebra + self.dim_kernel == self.dim_algebra
        )


def verify_conditional_expectation(
    qg: FiniteQuantumGroup,
    e,
    c_basis,
    gd: GnsData | None = None,
) -> ExpectationReport:
    """Check that e is the Haar-preserving conditional expectation onto C.

    Checks: idempotency, range = C, complete positivity (the block matrix
    [pi(E(e_i^* e_j))] is positive semidefinite in the GNS representation),
    the C-bimodule property, h-preservation, equality with the h-orthogonal
    projection onto C (which is the unique h-preserving expectation), and
    the splitting A = C + C_perp with C_perp = ker E = {a : h(c^* a) = 0}.

    Cost: n^5 for the Choi blocks, n^6 for the eigenvalues of the
    n^2 x n^2 Choi matrix (the dominant term), k^2 n^3 for the bimodule
    test over the k basis vectors of C.
    """
    e = np.asarray(e)
    n = qg.dim
    u = orthonormal_columns(c_basis)
    gd = gns(qg) if gd is None else gd
    r = {}

    r["idempotent"] = frobenius(e @ e - e)
    r["fixes_subalgebra"] = frobenius(e @ u - u)
    r["range_in_subalgebra"] = subspace_defect(e, u)

    # block (i, j) is pi(E(e_i^* e_j)); row (i, j) of _star_mult is e_i^* e_j
    blocks = (qg._star_mult @ e.T @ gd.left_reg.reshape(n, n * n)).reshape(n, n, n, n)
    choi = blocks.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    r["complete_positivity"] = max(0.0, -float(eigs.min()))

    r["bimodule"] = _bimodule_defect(qg, e, u)
    r["haar_preserving"] = float(np.abs(qg.haar @ e - qg.haar).max())
    r["haar_orthogonal_projection"] = frobenius(e - _haar_projection(qg, u))

    kernel = _kernel_basis(e)
    g = np.asarray(qg.haar_gram)
    r["kernel_haar_orthogonal"] = (
        frobenius(u.conj().T @ g @ kernel) if kernel.shape[1] else 0.0
    )

    return ExpectationReport(
        residuals=r,
        dim_algebra=n,
        dim_subalgebra=u.shape[1],
        dim_kernel=kernel.shape[1],
    )


def _haar_projection(qg, u) -> np.ndarray:
    """The h-orthogonal projection onto span(u), the unique h-preserving
    conditional expectation when span(u) is an expected subalgebra."""
    g = np.asarray(qg.haar_gram)
    return u @ np.linalg.solve(u.conj().T @ g @ u, u.conj().T @ g)


def _bimodule_defect(qg, e, u) -> float:
    """max over pairs of basis vectors c, d of C of |[e, x]| for x: a -> c a d,
    that is, how far e is from a C-bimodule map (k^2 n^3 for k columns)."""
    x = qg.right_mult_matrix(u.T)[None] @ qg.left_mult_matrix(u.T)[:, None]
    return float(np.abs(e @ x - x @ e).max(initial=0.0))


# -- symmetry under the dual action -------------------------------------


def symmetry_residual(
    qg: FiniteQuantumGroup, gd: GnsData, mu: MultUnitary, c_basis
) -> float:
    """The defect of c -> V^*(1 (x) c)V from B(H) (x) C, as its
    Hilbert-Schmidt norm on C: sqrt(sum_c defect_c^2) over an orthonormal
    basis c of C, which depends on C alone, not on the basis.

    X = r^T u, the g-coordinates of pi(C) (``GnsData._hs_frame``; n x r,
    r = dim C), and Q, an orthonormal basis of its columns, come first.
    With the conjugation map of V's slices (``LegFactors.conjugation``, n^5
    once per V) the defect is ||(1 - Q Q^*) Phi X||, r n^3 per state.
    Without it (1 (x) pi(c)) V contracts pi(c) into V's second output leg,
    projected on the lift of Q by g, at one n^2 x n^2 GEMM with V^* per
    basis vector of C, n^6.
    """
    u = orthonormal_columns(c_basis)
    if u.shape[1] == 0:
        return 0.0
    n = gd.dim
    g, r = gd._hs_frame
    x = r.T @ u  # x[j, c] = <g_j, pi(u_c)>
    q = orthonormal_columns(x)
    phi = mu.leg_factors(gd).conjugation
    if phi is None:
        reps = np.tensordot(u, gd.left_reg, axes=(0, 0))  # reps[c] = pi(u_c)
        return _symmetry_residual_dense(mu.v, reps, g.reshape(n, n * n).T @ q)
    images = (phi.reshape(n * n, n) @ x).reshape(n, -1)  # [m, (p, c)]
    return frobenius(images - q @ (q.conj().T @ images))


def _symmetry_residual_dense(v, reps, q) -> float:
    """One n^2 x n^2 GEMM with V^* per basis vector of C (n^6 each)."""
    n = reps[0].shape[0]
    vh = v.conj().T
    v_legs = v.reshape(n, n, n * n)  # [a, b, (c, d)]
    sq = 0.0
    for rep_c in reps:
        x = vh @ (rep_c @ v_legs).reshape(n * n, n * n)
        rows = x.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
        sq += frobenius(rows - rows @ q.conj() @ q.T) ** 2
    return math.sqrt(sq)


# -- Haar classification -------------------------------------------------


@dataclass
class Classification:
    """Verdict of the three equivalent Haar-idempotent criteria."""

    state: State
    null_space_dim: int
    is_haar: bool
    witnesses: dict


def classify(
    qg: FiniteQuantumGroup,
    omega,
    gd: GnsData | None = None,
    mu: MultUnitary | None = None,
) -> Classification:
    """Decide whether an idempotent state is a Haar idempotent.

    Evaluates (a) symmetry of C_omega under the dual action, (b) the ideal
    property of N_omega, and (c) success of the quantum-subgroup quotient
    construction (attempted only when N_omega is an ideal, as the quotient
    needs it).  The three answers must agree; a disagreement is raised as
    an internal error because it contradicts the classification theorem.
    A fourth answer is cross-checked the same way but not reported: omega
    is a Haar idempotent iff it is a trace (:func:`_trace_residual`).

    The idempotency test, N_omega (one n x n eigh) and its ideal residual
    (n^4) run once and serve (b) and (c): the quotient is built from them
    by :func:`_quotient`, whose validation of B (n_B^6) dominates a Haar
    state's cost.  The symmetry residual (a) costs r n^3 for r = dim
    C_omega, after one n^5 map per V that every state shares
    (:func:`symmetry_residual`), and the trace test n^3.  When omega is a
    State of qg the quotient is kept on it, it is the returned ``state``,
    and :func:`quotient_quantum_group` on it returns that quotient.
    """
    w = as_coeffs(omega)
    _require_idempotent(qg, w)
    gd = gns(qg) if gd is None else gd
    mu = multiplicative_unitary(qg, gd) if mu is None else mu

    nsp = null_space(qg, w)
    ideal_res = ideal_residual(qg, nsp)
    sym_res = symmetry_residual(qg, gd, mu, left_slice(qg, w))
    trace_res = _trace_residual(qg, w)
    ideal_ok = ideal_res <= CLASSIFY_TOL
    sym_ok = sym_res <= CLASSIFY_TOL
    trace_ok = trace_res <= CLASSIFY_TOL

    quotient_built = False
    quotient_error = None
    if ideal_ok:
        try:
            _keep_quotient(qg, omega, _quotient(qg, w, nsp))
            quotient_built = True
        except QuantumGroupError as exc:
            quotient_error = str(exc)

    if not (sym_ok == ideal_ok == quotient_built == trace_ok):
        raise InternalConsistencyError(
            "Haar criteria disagree: "
            f"symmetry residual {sym_res:.2e}, ideal residual {ideal_res:.2e}, "
            f"tracial residual {trace_res:.2e}, quotient built {quotient_built}"
            + (f" ({quotient_error})" if quotient_error else "")
        )
    return Classification(
        state=omega if _state_of(qg, omega) else State(qg, w),
        null_space_dim=nsp.shape[1],
        is_haar=ideal_ok,
        witnesses={
            "ideal_residual": ideal_res,
            "symmetry_residual": sym_res,
            "quotient_built": quotient_built,
        },
    )


def _trace_residual(qg: FiniteQuantumGroup, w) -> float:
    """||M - M^T|| for M[i, j] = omega(e_i e_j), zero iff omega is a trace
    (n^3).  The Haar state is a faithful trace, and an idempotent state is
    omega = h(q . q) / h(q) with q its support projection, so
    N_omega = A(1 - q) is a two-sided ideal iff q is central, that is, iff
    omega(ab) = omega(ba): a Haar idempotent is exactly a tracial one."""
    m = _contract(qg.mult, w, 2)
    return frobenius(m - m.T)


# -- quantum subgroup quotients ------------------------------------------


@dataclass(frozen=True)
class QuotientQG:
    """The compact quantum subgroup B = A / N_omega of a Haar idempotent.

    ``projection`` is the matrix of the surjection pi: A -> B (a unital
    *-homomorphism with kernel N_omega, intertwining the coproducts);
    ``section`` maps B-coordinates back to the Haar-orthogonal complement
    of N_omega; ``haar_mu`` is the faithful invariant state with
    haar_mu . pi = omega, i.e. the Haar state of B; ``report`` is the
    (passed) validation of B.  Instances are immutable (``projection`` and
    ``section`` are read-only), so one may be kept on its State and shared.
    """

    quotient: FiniteQuantumGroup
    projection: np.ndarray
    haar_mu: State
    section: np.ndarray
    report: ValidationReport

    def __post_init__(self):
        self.projection.setflags(write=False)
        self.section.setflags(write=False)


def _state_of(qg, omega) -> bool:
    return isinstance(omega, State) and omega.qg is qg


def _keep_quotient(qg, omega, q: QuotientQG) -> QuotientQG:
    """Store q in the __dict__ of omega when omega is a State of qg, where
    ``functools.cached_property`` would keep it; return q."""
    if _state_of(qg, omega):
        omega.__dict__["_quotient"] = q
    return q


def quotient_quantum_group(qg: FiniteQuantumGroup, omega) -> QuotientQG:
    """Quotient A by N_omega and equip the result with quantum group data.

    When omega is a State of qg the quotient is built once and kept on it
    (also by :func:`classify`); a later call with that State returns the
    same object.  A bare coefficient array is built on every call: the
    idempotency test, N_omega (one n x n eigh), its ideal residual (n^4)
    and :func:`_quotient`.
    """
    if _state_of(qg, omega) and "_quotient" in omega.__dict__:
        return omega.__dict__["_quotient"]
    w = as_coeffs(omega)
    _require_idempotent(qg, w)
    nsp = null_space(qg, w)
    res = ideal_residual(qg, nsp)
    if res > CLASSIFY_TOL:
        raise QuantumGroupError(
            f"null space is not an ideal (residual {res:.2e}); "
            "no quantum subgroup quotient exists"
        )
    return _keep_quotient(qg, omega, _quotient(qg, w, nsp))


def _quotient(qg: FiniteQuantumGroup, w, nsp) -> QuotientQG:
    """A / N_omega for the idempotent state w whose null space has the
    orthonormal basis nsp, an ideal: the induced structure tensors
    (the product's legs moved by the section and the projection,
    :func:`_transport`, n^4), the checks that the unit, coproduct,
    counit and antipode descend, and the validation of B (n_B^6)."""
    n = qg.dim
    k = nsp.shape[1]
    nb = n - k
    g = np.asarray(qg.haar_gram)

    # Haar-orthonormal complement of the null space
    if k == 0:
        comp = np.eye(n)
    else:
        comp = _kernel_basis(nsp.conj().T @ g, rel_tol=1e-12)
    if comp.shape[1] != nb:
        raise InternalConsistencyError("complement dimension mismatch")
    gq = comp.conj().T @ g @ comp
    chol = np.linalg.cholesky((gq + gq.conj().T) / 2)
    section = comp @ np.linalg.inv(chol.conj().T)
    # section is Haar-orthonormal and Haar-orthogonal to nsp, so section^* G
    # is 1 on section and 0 on nsp: the left inverse of [section, nsp]
    proj = section.conj().T @ g

    # induced product and star
    mult_b = _transport(qg.mult, section.T, section.T, proj)
    star_b = proj @ qg.star @ np.conj(section)

    # unit: pi(1), checked against pi . L_omega = omega(.) 1_B
    unit_b = proj @ qg.unit
    unit_defect = np.abs(proj @ left_slice(qg, w) - np.outer(unit_b, w)).max()
    if unit_defect > EQUIVALENCE_TOL:
        raise InternalConsistencyError(
            f"pi . L_omega != omega(.) pi(1) (defect {unit_defect:.2e})"
        )

    # coproduct descends: (pi (x) pi) Delta kills N_omega
    img = np.linalg.norm(proj @ qg.comultiply(nsp.T) @ proj.T, axis=(-2, -1))
    if np.any(img > EQUIVALENCE_TOL):
        raise InternalConsistencyError(
            f"(pi (x) pi) Delta does not vanish on the null space "
            f"({img[img > EQUIVALENCE_TOL][0]:.2e}), contradicting the ideal property"
        )
    comult_b = proj @ qg.comultiply(section.T) @ proj.T

    # counit and antipode descend as well
    if k and np.abs(qg.counit @ nsp).max() > EQUIVALENCE_TOL:
        raise InternalConsistencyError("counit does not vanish on the null space")
    counit_b = qg.counit @ section
    if k and np.abs(proj @ qg.antipode @ nsp).max() > EQUIVALENCE_TOL:
        raise InternalConsistencyError("antipode does not preserve the null space")
    antipode_b = proj @ qg.antipode @ section

    haar_b = w @ section
    pullback_defect = np.abs(proj.T @ haar_b - w).max()
    if pullback_defect > CONSTRUCTION_TOL * n:
        raise InternalConsistencyError(
            f"haar_mu . pi != omega (defect {pullback_defect:.2e})"
        )

    quotient = FiniteQuantumGroup(
        dim=nb,
        mult=mult_b,
        unit=unit_b,
        star=star_b,
        comult=comult_b,
        counit=counit_b,
        antipode=antipode_b,
        haar=haar_b,
        tol=qg.tol,
    )
    report = validate(quotient)
    if not report.passed:
        raise QuantumGroupError(
            f"quotient failed quantum-group validation: {report.failures}"
        )
    return QuotientQG(
        quotient=quotient,
        projection=proj,
        haar_mu=State(quotient, haar_b),
        section=section,
        report=report,
    )


# -- homogeneous space and coactions -------------------------------------


@dataclass
class CheckReport:
    """Generic report: named residuals/values plus a verdict, each residual
    judged at ``CLASSIFY_TOL``."""

    values: dict
    passed: bool


def homogeneous_space_check(qg: FiniteQuantumGroup, omega, q: QuotientQG) -> CheckReport:
    """Fixed points {a : (pi (x) id) Delta(a) = 1_B (x) a} equal L_omega(A)."""
    w = as_coeffs(omega)
    n, nb = qg.dim, q.quotient.dim
    # column i: (pi (x) id)Delta(e_i) - 1_B (x) e_i, with Delta(e_i) = comult[i]
    op = (q.projection @ qg.comult).transpose(1, 2, 0).reshape(nb * n, n)
    target = np.multiply.outer(q.quotient.unit, np.eye(n)).reshape(nb * n, n)
    fixed = _kernel_basis(op - target, rel_tol=1e-10)
    c = orthonormal_columns(left_slice(qg, w))
    mismatch = max(subspace_defect(fixed, c), subspace_defect(c, fixed))
    passed = fixed.shape[1] == c.shape[1] and mismatch <= CLASSIFY_TOL
    return CheckReport(
        values={
            "fixed_point_dim": fixed.shape[1],
            "subalgebra_dim": c.shape[1],
            "span_mismatch": mismatch,
        },
        passed=passed,
    )


def coaction_checks(qg: FiniteQuantumGroup, c_basis) -> CheckReport:
    """The coproduct restricts to a coaction on a right-invariant expected C.

    Verifies alpha = Delta|_C maps C into C (x) A, the counit law
    (id (x) eps) alpha = id, the density rank
    dim span alpha(C)(1 (x) A) = dim C * dim A, and nondegeneracy
    span C A = A.

    For the k basis vectors of C: k n^3 to build alpha(C) and the k n rows
    of the nondegeneracy span.  The density matrix is T (u (x) 1) for the
    left cancellation span T of A and orthonormal u, so sigma_min of it is
    at least sigma_min(T) >= (1 - bound) / ||X||_F, with the bound and the
    inverse X of the left cancellation certificate of qg
    (``FiniteQuantumGroup._left_cancellation``: n^5 with the associativity
    residual it needs, on the first call per quantum group only; later
    calls read it).  When that exceeds the absolute
    cutoff 1e-8 the rank is k n; only otherwise are the (k n) x n^2
    density rows built (k n^4) and their rank taken by SVD (k^2 n^4, n^6
    when C = A).
    """
    n = qg.dim
    u = orthonormal_columns(c_basis)
    kdim = u.shape[1]

    x = qg.comultiply(u.T)  # x[c] = alpha(u_c)
    outside = x - u @ (u.conj().T @ x)
    membership = float(np.linalg.norm(outside, axis=(-2, -1)).max(initial=0.0))
    counit_law = float(np.abs(x @ qg.counit - u.T).max(initial=0.0))
    bound, _, norm_x = qg._left_cancellation
    if 1.0 - bound > 1e-8 * norm_x:
        density_rank = kdim * n
    else:
        # row (c, j) of density: alpha(u_c)(1 (x) e_j), from
        # sum_q x[c, p, q] mult[q, j, r]
        density = (x.reshape(kdim * n, n) @ qg.mult.reshape(n, n * n)).reshape(kdim, n, n, n)
        density = density.transpose(0, 2, 1, 3).reshape(kdim * n, n * n)
        density_rank = int(np.linalg.matrix_rank(density, tol=1e-8))
    # row (c, j) of nondeg: u_c e_j
    nondeg = qg.left_mult_matrix(u.T).transpose(0, 2, 1).reshape(kdim * n, n)
    nondeg_rank = int(np.linalg.matrix_rank(nondeg, tol=1e-8))

    passed = (
        membership <= CLASSIFY_TOL
        and counit_law <= CLASSIFY_TOL
        and density_rank == kdim * n
        and nondeg_rank == n
    )
    return CheckReport(
        values={
            "membership_residual": membership,
            "counit_residual": counit_law,
            "density_rank": density_rank,
            "density_rank_expected": kdim * n,
            "nondegeneracy_rank": nondeg_rank,
        },
        passed=passed,
    )


# -- idempotent order and lattice ----------------------------------------


@dataclass
class Lattice:
    """Partial order of idempotent states with its Hasse diagram."""

    states: list
    leq: np.ndarray
    hasse_edges: list
    absorption_residual: float


def build_lattice(qg: FiniteQuantumGroup, states) -> Lattice:
    """Verify the order axioms and return the covering relations.

    omega is below omega' iff omega * omega' = omega' (to ``CLASSIFY_TOL``,
    sup norm), which ``leq[i, j]`` records for the states in canonical order.

    Checks reflexivity, antisymmetry (distinct comparable-both-ways states
    are a data error), transitivity, and the two-sided absorption
    omega' * omega = omega' whenever omega is below omega'.

    For m states: the coproduct with its two output legs moved by the
    stacked coefficients (:func:`_transport`, m n^3 + m^2 n^2) gives every
    convolution omega_i * omega_j; the order, absorption and covering
    relations are then read from it and from m x m boolean matrix
    products (m^3).
    """
    states = list(states)
    m = len(states)
    w = np.array([st.coeffs for st in states]).reshape(m, qg.dim)
    order = canonical_order(w)
    states, w = [states[i] for i in order], w[order]
    # conv[i, j] = omega_i * omega_j, for every pair at once
    conv = _transport(qg.comult, second=w, third=w).transpose(1, 2, 0)
    leq = np.abs(conv - w[None]).max(axis=-1) <= CLASSIFY_TOL
    not_reflexive = np.flatnonzero(~leq.diagonal())
    if not_reflexive.size:
        raise ValueError(
            f"state {not_reflexive[0]} is not idempotent (order not reflexive)"
        )
    strict = leq & ~np.eye(m, dtype=bool)
    # the error raised is that of the first offending pair (i, j), i strictly
    # below j, in row-major order; antisymmetry is tested before transitivity
    apart = np.abs(w[:, None] - w[None]).max(axis=-1) > CLASSIFY_TOL
    antisym = strict & strict.T & apart
    intransitive = strict & (((~leq).astype(int) @ leq.T.astype(int)) > 0)
    bad = np.argwhere(antisym | intransitive)
    if bad.size:
        i, j = bad[0]
        if antisym[i, j]:
            raise ValueError(f"antisymmetry violation between states {i} and {j}")
        raise ValueError("order not transitive")
    # omega_j * omega_i = omega_j whenever i is strictly below j
    absorbed = np.abs(conv - w[:, None]).max(axis=-1).T
    absorption = float(absorbed[strict].max(initial=0.0))
    # (i, j) covers unless some l sits strictly between them
    between = (strict.astype(int) @ strict.astype(int)) > 0
    edges = [(int(i), int(j)) for i, j in np.argwhere(strict & ~between)]
    return Lattice(
        states=states, leq=leq, hasse_edges=edges, absorption_residual=absorption
    )


# -- structural identities for idempotent states --------------------------


def antipode_invariance(qg: FiniteQuantumGroup, omega) -> float:
    """max_i |omega(S(e_i)) - omega(e_i)|; zero for idempotent states."""
    w = as_coeffs(omega)
    return float(np.abs(qg.antipode.T @ w - w).max())


def v_projection(qg: FiniteQuantumGroup, gd: GnsData, mu: MultUnitary, omega):
    """p = (id (x) omega) V, the second leg read in A-coordinates.

    For an idempotent state p is an orthogonal projection (p^2 = p = p^*).
    With V = sum_k F_k (x) g_k (``MultUnitary.leg_factors``) and
    pi(e_i) = sum_k r[i, k] g_k (``GnsData._hs_frame``),
    p = sum_k F_k (r^-1 w)_k: n^3 once the slices exist.
    """
    w = as_coeffs(omega)
    n = qg.dim
    f = mu.leg_factors(gd).factors
    return (np.linalg.solve(gd._hs_frame[1], w) @ f.reshape(n, n * n)).reshape(n, n)


def projection_defect(p) -> float:
    p = np.asarray(p)
    return max(frobenius(p @ p - p), frobenius(p - p.conj().T))


def multiplicative_domain_check(qg: FiniteQuantumGroup, omega) -> CheckReport:
    """L_omega(A) lies in the multiplicative domain of omega:
    omega(a c) = omega(a) omega(c) = omega(c a) for all a, c in L_omega(A)."""
    w = as_coeffs(omega)
    _require_idempotent(qg, w)
    u = orthonormal_columns(left_slice(qg, w))
    expected = (w @ u)[:, None] * w  # row c: omega(c) omega
    right = w @ qg.right_mult_matrix(u.T)  # row c: a -> omega(a c)
    left = w @ qg.left_mult_matrix(u.T)  # row c: a -> omega(c a)
    worst = float(max(np.abs(right - expected).max(), np.abs(left - expected).max()))
    return CheckReport(values={"max_defect": worst}, passed=worst <= CLASSIFY_TOL)


def omega_c_identity_residual(qg: FiniteQuantumGroup, omega) -> float:
    """max_b || omega * (omega( . b)) - omega(b) omega ||_inf over basis b."""
    w = as_coeffs(omega)
    shifted = w @ qg.right_mult_matrix(np.eye(qg.dim))  # row b: a -> omega(a e_b)
    lhs = shifted @ left_slice(qg, w)  # row b: omega * omega( . e_b)
    return float(np.abs(lhs - w[:, None] * w).max())


# -- the inverse map of the state/subalgebra correspondence ---------------


def state_from_subalgebra(qg: FiniteQuantumGroup, c_basis) -> State:
    """The idempotent state counit . E_C of a right-invariant expected C.

    E_C is constructed as the Haar-orthogonal projection onto C (the unique
    Haar-preserving conditional expectation); right invariance and the
    bimodule property are verified, not assumed.
    """
    u = orthonormal_columns(c_basis)
    cutoff = max(CONSTRUCTION_TOL * qg.dim, CLASSIFY_TOL)
    rinv = right_invariance_residual(qg, u)
    if rinv > cutoff:
        raise QuantumGroupError(
            f"subalgebra is not right invariant (residual {rinv:.2e})"
        )
    unit = subspace_defect(qg.unit[:, None], u)
    if unit > cutoff:
        raise QuantumGroupError(
            f"subspace does not contain the unit (defect {unit:.2e}); "
            "it is not a unital subalgebra"
        )
    e = _haar_projection(qg, u)
    bimod = _bimodule_defect(qg, e, u)
    if bimod > cutoff:
        raise QuantumGroupError(
            "Haar-orthogonal projection onto the subalgebra is not a bimodule "
            f"map (residual {bimod:.2e}); the subalgebra is not expected"
        )
    w = qg.counit @ e
    if not is_idempotent(qg, w, CLASSIFY_TOL):
        raise InternalConsistencyError(
            "counit . E_C failed the idempotent-state test "
            f"(defect {idempotency_defect(qg, w):.2e})"
        )
    return State(qg, w)
