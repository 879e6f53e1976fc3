"""Shared constructions for the test suite, cached across modules."""

import dataclasses
import functools

import numpy as np

import qgidem as qg
from qgidem.cayley import all_subgroups
from qgidem.core import _change_basis as change_basis
from qgidem.core import (
    _coproduct_defect,
    _rank,
    frobenius,
    second_leg_factors,
)
from qgidem.states import (
    SolveConfig,
    State,
    _vector_state,
    solve_idempotents,
    subgroup_state_fn,
    subgroup_state_ga,
)

# solver cases with oracle counts from brute-force subgroup enumeration
SOLVER_CASES = [
    ("fn", "Z4", 3),
    ("fn", "Z2xZ2", 5),
    ("fn", "S3", 6),
    ("ga", "S3", 6),
    ("ga", "D4", 10),
    ("ga", "Q8", 6),
]

PROPERTY_GROUPS = ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", "Q8"]


@functools.lru_cache(maxsize=None)
def group(name):
    return qg.builtin_group(name)


@functools.lru_cache(maxsize=None)
def algebra(kind, name):
    ct = group(name)
    return qg.function_algebra(ct) if kind == "fn" else qg.group_algebra(ct)


@functools.lru_cache(maxsize=None)
def kac_paljutkin():
    """The Kac-Paljutkin quantum group, A = C^4 (+) M_2, the smallest one
    that is neither commutative nor cocommutative.

    The basis is e1..e4, E11, E12, E21, E22 (indices 0..7), with the
    matrix-unit products and E_ij^* = E_ji; the counit is e1, the antipode
    swaps E12 and E21 and fixes the rest, the Haar state is 1/8 on each e_i
    and 1/4 on E11 and E22.  The coproduct is the one written out by
    Franz and Skalski (J. Algebra 2009).
    """
    e1, e2, e3, e4, E11, E12, E21, E22 = range(8)
    units = {(0, 0): E11, (0, 1): E12, (1, 0): E21, (1, 1): E22}
    mult = np.zeros((8, 8, 8))
    for i in (e1, e2, e3, e4):
        mult[i, i, i] = 1.0
    for (a, b), x in units.items():
        for (c, d), y in units.items():
            if b == c:
                mult[x, y, units[a, d]] = 1.0
    h, i = 0.5, 0.5j
    coproduct = {
        e1: [(1, e1, e1), (1, e2, e2), (1, e3, e3), (1, e4, e4)]
        + [(h, x, x) for x in units.values()],
        e2: [(1, e1, e2), (1, e2, e1), (1, e3, e4), (1, e4, e3),
             (h, E11, E22), (h, E22, E11), (i, E21, E12), (-i, E12, E21)],
        e3: [(1, e1, e3), (1, e3, e1), (1, e2, e4), (1, e4, e2),
             (h, E11, E22), (h, E22, E11), (-i, E21, E12), (i, E12, E21)],
        e4: [(1, e1, e4), (1, e4, e1), (1, e2, e3), (1, e3, e2),
             (h, E11, E11), (h, E22, E22), (-h, E12, E12), (-h, E21, E21)],
        E11: [(1, e1, E11), (1, E11, e1), (1, e2, E22), (1, E22, e2),
              (1, e3, E22), (1, E22, e3), (1, e4, E11), (1, E11, e4)],
        E22: [(1, e1, E22), (1, E22, e1), (1, e2, E11), (1, E11, e2),
              (1, e3, E11), (1, E11, e3), (1, e4, E22), (1, E22, e4)],
        E12: [(1, e1, E12), (1, E12, e1), (1j, e2, E21), (-1j, E21, e2),
              (-1j, e3, E21), (1j, E21, e3), (-1, e4, E12), (-1, E12, e4)],
    }
    comult = np.zeros((8, 8, 8), dtype=np.complex128)
    for x, terms in coproduct.items():
        for c, j, k in terms:
            comult[x, j, k] += c
    # Delta(E21) is the adjoint of Delta(E12)
    star = np.eye(8)[:, [e1, e2, e3, e4, E11, E21, E12, E22]]
    comult[E21] = np.conj(star @ comult[E12] @ star.T)
    return qg.FiniteQuantumGroup(
        dim=8,
        mult=mult,
        unit=np.array([1, 1, 1, 1, 1, 0, 0, 1.0]),
        star=star,
        comult=comult,
        counit=np.eye(8)[e1],
        antipode=star.copy(),
        haar=np.array([1, 1, 1, 1, 2, 0, 0, 2]) / 8,
    )


def tensor_product(g1, g2):
    """The quantum group g1 (x) g2 on the basis e_i (x) f_j, index i n2 + j:
    every structure tensor is the Kronecker product of the two."""
    n = g1.dim * g2.dim

    def kron3(a, b):
        return np.einsum("ikp,jlq->ijklpq", a, b).reshape(n, n, n)

    return qg.FiniteQuantumGroup(
        dim=n,
        mult=kron3(g1.mult, g2.mult),
        unit=np.kron(g1.unit, g2.unit),
        star=np.kron(g1.star, g2.star),
        comult=kron3(g1.comult, g2.comult),
        counit=np.kron(g1.counit, g2.counit),
        antipode=np.kron(g1.antipode, g2.antipode),
        haar=np.kron(g1.haar, g2.haar),
    )


@functools.lru_cache(maxsize=None)
def gns_and_unitary(kind, name):
    g = algebra(kind, name)
    gd = qg.gns(g)
    return gd, qg.multiplicative_unitary(g, gd)


def right_regular_twist(g, gd, mu, s):
    """(1 (x) u) V with u the right multiplication by e_s on H.

    For a group algebra and a group element e_s, u is unitary and commutes
    with pi(A), so (1 (x) u) V is unitary and implements the coproduct, but
    its second leg leaves pi(A) unless e_s is the identity.
    """
    e_s = np.zeros(g.dim)
    e_s[s] = 1.0
    u = gd.onb_inv @ g.right_mult_matrix(e_s) @ gd.onb
    return np.kron(np.eye(g.dim), u) @ mu.v


def first_leg_twist(g, gd, mu, a):
    """V (u (x) 1) with u the right multiplication by a unitary element a on H.

    u commutes with pi(A), so V (u (x) 1) is unitary, implements the
    coproduct and keeps its second leg in pi(A), but breaks the pentagon
    unless a is a scalar.  On a group algebra a may be a group element; on
    a function algebra, a +-1 function, for which u = pi(a).
    """
    u = gd.onb_inv @ g.right_mult_matrix(a) @ gd.onb
    return mu.v @ np.kron(u, np.eye(g.dim))


def rep_pinv(gd):
    """The pseudo-inverse of pi as an n x n^2 matrix: the least-squares
    coordinates in A of an operator on H."""
    return np.linalg.pinv(gd.left_reg.reshape(gd.dim, -1).T)


def second_leg_blocks(v):
    """blocks[i, j] = B(H)-entry (i, j) of the first leg of v; for V each
    block is an operator on the second H and lies in pi(A)."""
    n = int(round(np.sqrt(np.shape(v)[0])))
    return np.asarray(v).reshape(n, n, n, n).transpose(0, 2, 1, 3)


def lift(gd, x, pinv=None):
    """Invert pi on its range: (a, residual) with pi(a) ~ x, through the
    pseudo-inverse of pi (:func:`rep_pinv`, formed here unless given)."""
    a = (rep_pinv(gd) if pinv is None else pinv) @ np.asarray(x).ravel()
    return a, float(np.linalg.norm(gd.rep(a) - x))


def pinv_v_projection(gd, mu, w):
    """(id (x) omega) V with every second-leg block of V lifted to A through
    the pseudo-inverse of pi (n^5)."""
    n = gd.dim
    lifts = second_leg_blocks(mu.v).reshape(n * n, n * n) @ rep_pinv(gd).T
    return (lifts @ np.asarray(w)).reshape(n, n)


def coproduct_defect(g, gd, v):
    """max_i || (pi (x) pi) Delta(e_i) - V (pi(e_i) (x) 1) V^* || for any v,
    by the path :func:`qgidem.multiplicative_unitary` takes for it."""
    return _coproduct_defect(g, gd, v, second_leg_factors(gd, v))


def loop_antipode_slice_defect(g, gd, mu):
    """(residual, rank) of S((sigma (x) id)V) = (sigma (x) id)V^* over the
    matrix-unit functionals sigma, one block at a time.

    Each second-leg block of V and of V^* is lifted through pi to A; the
    residual is the largest of the lift residuals and of |S(a) - b| for
    the lifts a of V and b of V^*, and the rank is that of the lifts of V,
    which span A.
    """
    n = g.dim
    blocks = second_leg_blocks(mu.v)
    vstar_blocks = second_leg_blocks(mu.v.conj().T)
    pinv = rep_pinv(gd)
    lifted = np.empty((n * n, n), dtype=np.complex128)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            a, res_a = lift(gd, blocks[i, j], pinv)
            b, res_b = lift(gd, vstar_blocks[i, j], pinv)
            worst = max(worst, res_a, res_b)
            worst = max(worst, frobenius(g.antipode @ a - b))
            lifted[i * n + j] = a
    return worst, _rank(lifted)


def non_associative_case(kind, name, size=1e-3, seed=0):
    """(g, gd, v): algebra(kind, name) with its product perturbed by a seeded
    Gaussian of scale ``size``, and v = sum_r X_r (x) pi(e_r) for random X_r.

    The perturbed product is not associative, so span pi(A) is not closed
    under products, while v's second leg still lies in that span.  The unit
    stays a left unit, so pi(1) = 1 still lies in the span.
    """
    base = algebra(kind, name)
    rng = np.random.default_rng(seed)
    p = size * rng.standard_normal(base.mult.shape)
    u = base.unit / np.vdot(base.unit, base.unit)
    p = p - np.multiply.outer(np.conj(u), np.tensordot(base.unit, p, axes=(0, 0)))
    g = dataclasses.replace(base, mult=base.mult + p)
    gd = qg.gns(g)
    n = g.dim
    x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    v = np.einsum("rac,rbd->abcd", x, gd.left_reg).reshape(n * n, n * n)
    return g, gd, v


def random_unitary(n, rng):
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@functools.lru_cache(maxsize=None)
def dense_algebra(kind, name, seed=0):
    """(g, t): algebra(kind, name) carried by a seeded random unitary t to a
    basis in which every structure tensor is dense."""
    t = random_unitary(algebra(kind, name).dim, np.random.default_rng(seed))
    return change_basis(algebra(kind, name), t), t


def badly_conditioned(kind, name):
    """algebra(kind, name) carried by u diag(1 .. 100) w^T, u and w seeded
    random unitaries: a valid input in a basis of condition number 100."""
    base = algebra(kind, name)
    rng = np.random.default_rng(0)
    u, w = random_unitary(base.dim, rng), random_unitary(base.dim, rng)
    return change_basis(base, u @ np.diag(np.logspace(0, 2, base.dim)) @ w.T)


def phase_twin(kind, name, seed=0):
    """(twin, t): algebra(kind, name) carried by t = diag(e^{i theta_k})."""
    g = algebra(kind, name)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, g.dim)
    t = np.diag(np.exp(1j * theta))
    return change_basis(g, t), t


def random_state(g, rng):
    """A random state omega(x) = h(a^* x a) / h(a^* a), a Gaussian."""
    a = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    return State(g, _vector_state(g, a))


@functools.lru_cache(maxsize=None)
def solved(kind, name, starts=500, seed=0):
    return tuple(
        solve_idempotents(algebra(kind, name), SolveConfig(starts=starts, seed=seed))
    )


@functools.lru_cache(maxsize=None)
def oracle_states(kind, name):
    ct = group(name)
    g = algebra(kind, name)
    build = subgroup_state_fn if kind == "fn" else subgroup_state_ga
    return tuple(build(g, ct, sub) for sub in all_subgroups(ct))


def hausdorff(states_a, states_b):
    """Sup-norm Hausdorff distance between two finite sets of states."""
    if not states_a or not states_b:
        return np.inf
    d_ab = max(
        min(np.abs(a.coeffs - b.coeffs).max() for b in states_b) for a in states_a
    )
    d_ba = max(
        min(np.abs(a.coeffs - b.coeffs).max() for a in states_a) for b in states_b
    )
    return max(d_ab, d_ba)


def basis_vector(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def match_state(states, target, tol=1e-7):
    """Index of the state matching the target coefficients."""
    for i, st in enumerate(states):
        if np.abs(st.coeffs - np.asarray(target)).max() <= tol:
            return i
    raise AssertionError("no matching state found")
