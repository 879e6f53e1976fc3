"""States and the convolution algebra of a finite quantum group.

A functional is a coefficient vector ``w`` with ``omega(e_i) = w[i]``;
convolution is ``(omega * nu)(a) = (omega (x) nu) Delta(a)``.  ``State``
wraps a coefficient vector together with its parent quantum group; whether
the vector actually is a state (positive, normalized) is checked by
:func:`is_state`, not enforced at construction, because several operations
legitimately produce non-state functionals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .cayley import CayleyTable, is_subgroup
from .core import (
    _RANK_REL_TOL,
    FiniteQuantumGroup,
    GnsData,
    InternalConsistencyError,
    _change_basis,
    _contract,
    _dual,
    _kernel_basis,
    _numerical_rank,
    _real_matmul,
    _stored,
    gns,
    orthonormal_columns,
)


def as_coeffs(x) -> np.ndarray:
    """Coefficient vector of a State, or of a bare array by ``core._stored``."""
    if isinstance(x, State):
        return x.coeffs
    return _stored(x)


@dataclass(frozen=True)
class State:
    """A functional on a quantum group, tagged with its parent; ``coeffs``
    is a read-only copy stored like the tensors (``core._stored``)."""

    qg: FiniteQuantumGroup
    coeffs: np.ndarray

    def __post_init__(self):
        c = _stored(self.coeffs)
        if c.shape != (self.qg.dim,):
            raise ValueError(f"coefficients must have shape ({self.qg.dim},)")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _of_rows(cls, qg: FiniteQuantumGroup, ws: np.ndarray) -> list["State"]:
        """``State(qg, w)`` for each row w of ws, a new C-contiguous float64
        or complex128 ``(k, qg.dim)`` array that no caller keeps: ws is made
        read-only and its rows become the coefficients as they are, without
        a check and a copy per row.  Only a complex row with no imaginary
        part goes through the constructor, which stores it as float64."""
        ws.setflags(write=False)
        real = ~ws.imag.any(axis=-1) if ws.dtype.kind == "c" else np.zeros(len(ws), bool)
        out = []
        for w, to_float in zip(ws, real.tolist()):
            if to_float:
                out.append(cls(qg, w))
                continue
            st = object.__new__(cls)
            object.__setattr__(st, "qg", qg)
            object.__setattr__(st, "coeffs", w)
            out.append(st)
        return out

    def convolve(self, other: "State") -> "State":
        if other.qg is not self.qg:
            raise ValueError("convolution requires the same parent quantum group")
        return State(self.qg, convolve(self.qg, self.coeffs, other.coeffs))

    def sort_key(self):
        c = np.round(self.coeffs, 9) + 0.0
        return tuple(float(x) for pair in zip(c.real, c.imag) for x in pair)


def epsilon_state(qg: FiniteQuantumGroup) -> State:
    return State(qg, qg.counit)


def haar_state(qg: FiniteQuantumGroup) -> State:
    return State(qg, qg.haar)


def convolve(qg: FiniteQuantumGroup, w, v) -> np.ndarray:
    """(omega * nu)(e_i) = sum_{j,k} comult[i,j,k] omega(e_j) nu(e_k); two
    stacks of functionals ``(..., n)`` are convolved row by row, ``n^3``
    per row."""
    return (_contract(qg.comult, as_coeffs(v), 2) @ as_coeffs(w)[..., None])[..., 0]


def left_slice(qg: FiniteQuantumGroup, w) -> np.ndarray:
    """Matrix of L_omega = (omega (x) id) Delta on A-coordinates; a stack
    of functionals ``(..., n)`` gives the stack of their matrices."""
    return _contract(qg.comult, as_coeffs(w), 1).swapaxes(-1, -2)


def right_slice(qg: FiniteQuantumGroup, w) -> np.ndarray:
    """Matrix of R_omega = (id (x) omega) Delta on A-coordinates."""
    return _contract(qg.comult, as_coeffs(w), 2).swapaxes(-1, -2)


def _blocks(count: int, n: int) -> list[slice]:
    """Slices covering range(count) in blocks of max(1, 2**13 // n**2) rows.

    A block's largest intermediate (the Gram matrices of its functionals)
    holds about 2**13 numbers whatever n is.
    """
    size = max(1, 2**13 // (n * n))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def _state_mask(qg: FiniteQuantumGroup, ws, tol: float, idempotent: bool) -> np.ndarray:
    """Which rows of ``ws`` are states (idempotent states with ``idempotent``).

    A row passes when it is normalized at the unit, its Gram matrix is
    Hermitian and its smallest eigenvalue is >= -tol, each within ``tol``;
    with ``idempotent`` also ``max |w * w - w| <= tol``.  Rows are tested in
    blocks of :func:`_blocks`, at ``n^3`` per row for the square (one
    :func:`convolve` of the block), the Gram and its eigenvalues.
    """
    ok = np.empty(len(ws), dtype=bool)
    for sl in _blocks(len(ws), qg.dim):
        w = ws[sl]
        good = ok[sl]  # a view: clearing a row of good clears it in ok
        good[:] = np.abs(w @ qg.unit - 1.0) <= tol
        if idempotent:
            good &= np.abs(convolve(qg, w, w) - w).max(axis=-1) <= tol
        rows = np.flatnonzero(good)
        g = qg.functional_gram(w[rows])
        gh = np.conj(g.swapaxes(-1, -2))
        herm = np.abs(g - gh).max(axis=(-2, -1)) <= tol
        good[rows[~herm]] = False
        low = np.linalg.eigvalsh((g[herm] + gh[herm]) / 2).min(axis=-1)
        good[rows[herm][low < -tol]] = False
    return ok


def is_state(qg: FiniteQuantumGroup, w, tol: float = 1e-9) -> bool:
    """Normalized at the unit, with a Hermitian positive semidefinite Gram
    matrix (smallest eigenvalue >= -tol)."""
    return bool(_state_mask(qg, as_coeffs(w)[None], tol, idempotent=False)[0])


def is_idempotent(qg: FiniteQuantumGroup, w, tol: float = 1e-9) -> bool:
    """A state with idempotency defect ``max |w * w - w| <= tol``."""
    return bool(_state_mask(qg, as_coeffs(w)[None], tol, idempotent=True)[0])


def idempotency_defect(qg: FiniteQuantumGroup, w) -> float:
    w = as_coeffs(w)
    return float(np.abs(convolve(qg, w, w) - w).max())


def subgroup_state_fn(qg: FiniteQuantumGroup, ct: CayleyTable, subset) -> State:
    """Uniform probability measure on a subgroup, as a state on the
    function algebra of ct."""
    members = sorted(set(int(x) for x in subset))
    if not is_subgroup(ct, members):
        raise ValueError(f"{members} is not a subgroup")
    w = np.zeros(qg.dim)
    w[members] = 1.0 / len(members)
    return State(qg, w)


def subgroup_state_ga(qg: FiniteQuantumGroup, ct: CayleyTable, subset) -> State:
    """Indicator of a subgroup, as a state on the group algebra of ct.

    The indicator of a non-subgroup subset is not positive definite, so the
    subgroup requirement is enforced here.
    """
    members = sorted(set(int(x) for x in subset))
    if not is_subgroup(ct, members):
        raise ValueError(f"{members} is not a subgroup")
    w = np.zeros(qg.dim)
    w[members] = 1.0
    return State(qg, w)


def _vector_state(qg: FiniteQuantumGroup, a) -> np.ndarray:
    """Coefficients of omega(x) = h(a^* x a) / h(a^* a), for each row of a.

    With y_r = h(a^* e_r), read from hm[p, r] = h(e_p e_r),
    omega(e_j) = sum_{q,r} mult[j, q, r] a_q y_r = (y R_a)_j for the right
    multiplication R_a: ``n^3`` per row, in A's coordinates.
    """
    a = np.asarray(a)
    y = _real_matmul(qg.star, np.conj(a)[..., None])[..., 0] @ (qg.mult @ qg.haar)
    w = (y[..., None, :] @ qg.right_mult_matrix(a))[..., 0, :]
    return w / (w @ qg.unit)[..., None]


# -- idempotent states as coideal subalgebras -------------------------------


@dataclass(frozen=True)
class SolveConfig:
    """Settings accepted by :func:`solve_idempotents`.  Both are checked and
    neither is read: the construction is exact and deterministic, so it
    has no start budget, and the one random draw it makes (the split of
    each centre) comes from a fixed seed."""

    starts: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class _Side:
    """One side of the duality, A or its dual, in GNS-orthonormal
    coordinates: ``g`` is the quantum group there (Haar Gram 1), and
    ``to_other`` maps the coefficient column of a functional on g to the
    other side's coordinates; ``from_other`` is its inverse."""

    g: FiniteQuantumGroup
    to_other: np.ndarray
    from_other: np.ndarray

    @property
    def real(self) -> bool:
        return not any(np.iscomplexobj(x) for x in (self.g.mult, self.g.comult, self.g.star))


def _sides(qg: FiniteQuantumGroup, gd: GnsData) -> tuple[_Side, _Side]:
    """A and its dual, each carried to GNS-orthonormal coordinates.

    The dual's basis is the dual basis of A's orthonormal one, so a
    functional w on A is the dual element w, at ``t w`` in the dual's
    orthonormal coordinates (t its ``onb_inv``), and an element x of A is
    the functional ``t^-T x`` on them.
    """
    a = _change_basis(qg, gd.onb_inv)
    b = _dual(a)
    gd_b = gns(b)
    t, t_inv = gd_b.onb_inv, gd_b.onb
    b = _change_basis(b, t)
    return _Side(a, t, t_inv), _Side(b, t.T, t_inv.T)


def _central_projections(g: FiniteQuantumGroup) -> tuple[np.ndarray, np.ndarray]:
    """The minimal central projections p of g, as columns, and the
    dimension of each one's block, rank L_p.

    The centre is the kernel of a -> (e_i a - a e_i)_i (one ``n^2 x n``
    SVD, ``n^4``).  A self-adjoint central element c with random complex
    coefficients has the minimal central projections as eigenvectors of
    a -> c a on the centre; each is scaled so that p^2 = p.  Its value on a
    block is the real part of a random complex number, so it also splits
    the pairs of blocks that complex conjugation of the coordinates swaps
    on a real input, which every real c gives one eigenvalue.  The squares
    take one stacked ``left_mult_matrix``, ``n^3`` per projection, and the
    rank of the idempotent L_p is its trace, ``n`` per projection.
    """
    n = g.dim
    comm = (g.mult - g.mult.transpose(1, 0, 2)).transpose(0, 2, 1).reshape(n * n, n)
    centre = _kernel_basis(comm)
    r = np.random.default_rng(0).standard_normal((2, centre.shape[1]))
    c = centre @ (r[0] + 1j * r[1])
    c = (c + g.star_vec(c)) / 2
    on_centre = np.conj(centre.T) @ g.left_mult_matrix(c) @ centre
    v = centre @ np.linalg.eigh((on_centre + np.conj(on_centre.T)) / 2)[1]
    squares = (g.left_mult_matrix(v.T) @ v.T[..., None])[..., 0].T  # column a: v_a v_a
    scale = np.sum(np.abs(v) ** 2, axis=0) / np.sum(np.conj(v) * squares, axis=0)
    p = v * scale
    defect = np.abs(squares * scale**2 - p).max(initial=0.0)
    if defect > _RANK_REL_TOL:
        raise InternalConsistencyError(
            f"the central split left a non-projection (defect {defect:.2e})"
        )
    traces = np.trace(g.mult, axis1=1, axis2=2)  # tr L_{e_i}
    return p, np.rint((traces @ p).real).astype(int)


def _generated_algebra(g: FiniteQuantumGroup, u) -> np.ndarray:
    """Orthonormal basis of the unital *-algebra generated by span(u).

    It is the span of the words in the generators 1, u and u^*, a set
    closed under *: starting from the generators, each round multiplies
    only the directions the last round added by every generator and keeps
    what lies outside the span so far, until nothing does.  Each direction
    is multiplied once, ``n^3`` per dimension of the result.
    """
    gens = orthonormal_columns(np.hstack([g.unit[:, None], u, g.star_vec(u)]))
    basis = new = gens
    while new.shape[1]:
        # the products new_a gens_b as columns, in the order (a, b)
        outside = (g.left_mult_matrix(new.T) @ gens).transpose(1, 0, 2).reshape(g.dim, -1)
        for _ in range(2):  # twice, so the new directions are orthogonal to rounding
            outside = outside - basis @ (np.conj(basis.T) @ outside)
        new = orthonormal_columns(outside)
        basis = np.hstack([basis, new])
    return basis


def _realified(u) -> np.ndarray:
    """A real orthonormal basis of span(u) when span(u) equals its complex
    conjugate (the real and imaginary parts of u span no more), else u."""
    if np.iscomplexobj(u):
        parts = orthonormal_columns(np.hstack([u.real, u.imag]))
        if parts.shape[1] == u.shape[1]:
            return parts
    return u


def _atoms(side: _Side, own, other) -> list[np.ndarray]:
    """Right coideal *-subalgebras of side.g, as orthonormal bases, from
    the minimal central projections and block ranks ``own`` of g and
    ``other`` of the other side (:func:`_central_projections`).

    - for each character chi(a) = h(a p) / h(p), p a projection of a
      block of rank one, the fixed points of L_chi, which are the range
      of L of the Cesaro limit (1/m) sum_{k<m} chi^{*k} (L_chi is unitary
      of order m).  chi . S is a character too, with
      L_{chi . S} = L_chi^-1 and so the same fixed points: the rows of
      chi are matched against those of chi . S (within ``_RANK_REL_TOL``
      of the largest value).  All characters go through one stacked
      :func:`left_slice`, and one of each matched pair through one
      batched SVD; other repeats (the powers chi^k) are dropped by the
      family.  The counit is one of them, and L_eps = id, so the full
      algebra is an atom;
    - for each projection q of a larger block of the other side, read as
      a functional on g, the unital *-algebra generated by the coefficient
      space (q (x) id)Delta(A) of one irreducible corepresentation.

    For a block of rank one the coefficient algebra is the algebra
    generated by one group-like element, which phi takes to the fixed
    points of the character on the other side, so it reaches the family
    through :func:`_phi` and is not built here.  So does the trivial
    algebra C 1, as phi of the other side's full algebra.
    """
    g = side.g
    n = g.dim
    projections, ranks = own
    p = projections[:, ranks == 1]
    chi = ((g.mult @ g.haar @ p) / (g.haar @ p)).T  # rows: h(e_i p) / h(p)
    inverse = chi @ g.antipode  # rows: chi . S
    tol = _RANK_REL_TOL * np.abs(chi).max()
    keep = [not (np.abs(inverse[:a] - x).max(axis=-1) <= tol).any() for a, x in enumerate(chi)]
    _, s, vh = np.linalg.svd(left_slice(g, chi)[keep] - np.eye(n), full_matrices=False)
    atoms = [v.conj().T[:, _numerical_rank(sv, _RANK_REL_TOL) :] for sv, v in zip(s, vh)]
    projections, ranks = other
    for lq in left_slice(g, (side.from_other @ projections[:, ranks > 1]).T):
        span = orthonormal_columns(lq)
        atoms.append(_generated_algebra(g, _realified(span) if side.real else span))
    return atoms


def _density(g: FiniteQuantumGroup, u) -> np.ndarray:
    """rho = q / h(q) with eps U U^* = h(rho .), for an orthonormal basis u."""
    return np.conj((g.counit @ u) @ np.conj(u.T))


def _phi(side: _Side, u) -> np.ndarray:
    """Takeuchi's map C -> (C^+ A)^perp to the other side.  C^+ A = (1 - q) A
    (:func:`_density`), so phi(C) = {f : f(a) = f(qa)}, the range of L_rho^T:
    ``n^3`` per member.  A Hopf algebra is free over its coideal subalgebras
    (Skryabin), so dim C * dim phi(C) = n."""
    g = side.g
    image = orthonormal_columns(side.to_other @ g.left_mult_matrix(_density(g, u)).T)
    k, d = u.shape[1], image.shape[1]
    if k * d != g.dim:
        raise InternalConsistencyError(f"phi failed dim C * dim phi(C) = n: {k} * {d} != {g.dim}")
    return image


# a singular value of U_i^* U_j counts to the meet past 1 - _RANK_REL_TOL,
# an eigenvalue of its Gram past this
_MEET_CUT = (1 - _RANK_REL_TOL) ** 2


class _Family:
    """Distinct subspaces of C^n, each an orthonormal basis, with every
    inclusion among them.

    The members are also kept in persistent stacks of the rows of U_j^*,
    one stack per dimension.  A subspace u is tested against the members
    of one dimension k_j by one product of their stack with u, and the
    Grams of the U_j^* u, each formed on its smaller side, go to one
    batched ``eigvalsh`` per Gram size.  The eigenvalues are the squared
    cosines of the principal angles (Bjorck-Golub); those past
    ``(1 - _RANK_REL_TOL)^2`` count the dimension r of span(u) n span(U_j):
    r = dim u = k_j is equality, r = dim u or r = k_j containment.  Per
    pair that is ``k_i k_j n`` for the product and
    ``min(k_i, k_j)^3 <= k_i^3`` for the eigenvalues, with no SVD.  Each
    pair of members is tested once, when the later one is added
    (:meth:`add`), so whether a meet is already a member is known exactly,
    and eigenvectors are computed only for meets that are not
    (:meth:`intersect`).  On a side
    with real tensors a subspace that equals its complex conjugate is kept
    by a real basis (:func:`_realified`, run when a member is appended), so
    real inputs keep real states.
    """

    def __init__(self, real: bool):
        self.real = real
        self.bases: list[np.ndarray] = []
        self.below: list[set] = []  # below[i]: the members inside member i
        # _pending[i]: (j, dim of the meet) for the earlier members j that
        # neither contain member i nor lie in it
        self._pending: list[list[tuple[int, int]]] = []
        # k: (the rows of U_j^* for the members j of dimension k, stacked; j)
        self._stacks: dict[int, tuple[np.ndarray, list[int]]] = {}

    def _overlaps(self, u, count: int, dims=None):
        """(the members j < count, of the dimensions ``dims`` or of all, and
        the dimension of each meet span(u) n span(U_j)): one product
        U_j^* u per dimension, and one ``eigvalsh`` per size of the Grams,
        each formed on the smaller side of U_j^* u (a 1 x 1 Gram is its
        own eigenvalue)."""
        k = u.shape[1]
        by_size: dict[int, tuple[list, list]] = {}  # Gram size: (members, Grams)
        for kj in self._stacks if dims is None else dims:
            rows, idx = self._stacks[kj]
            c = bisect.bisect_left(idx, count)
            if c:
                m = _real_matmul(rows[: c * kj], u).reshape(c, kj, k)
                mh = np.conj(m.swapaxes(-1, -2))
                members, grams = by_size.setdefault(min(kj, k), ([], []))
                members += idx[:c]
                grams.append(m @ mh if kj <= k else mh @ m)
        order, meets = [], []
        for size, (members, grams) in by_size.items():
            gram = np.concatenate(grams)
            eig = gram[..., 0].real if size == 1 else np.linalg.eigvalsh(gram)
            order += members
            meets.append(np.sum(eig > _MEET_CUT, axis=-1))
        return order, np.concatenate(meets) if meets else np.empty(0, dtype=int)

    def add(self, u) -> int:
        """The index of the member span(u), appended unless it is one.

        u is first tested against the members of its own dimension alone,
        so a repeat costs one product and one ``eigvalsh``.  A new member
        is then tested against the other dimensions as well: every
        inclusion between it and an earlier member is recorded in
        ``below``, and the earlier members that neither contain it nor lie
        in it are kept, with the dimension of each meet, as its pending
        pairs for :meth:`intersect`.
        """
        k = u.shape[1]
        i = len(self.bases)
        members, r = self._overlaps(u, i, [k] if k in self._stacks else [])
        if (r == k).any():
            return members[int(np.argmax(r == k))]
        u = _realified(u) if self.real else u
        others, r_others = self._overlaps(u, i, [kj for kj in self._stacks if kj != k])
        rows, same = self._stacks.get(k, (np.empty((0, u.shape[0])), []))
        c = len(same) * k
        if c == len(rows) or (np.iscomplexobj(u) and not np.iscomplexobj(rows)):
            grown = np.empty((max(4 * k, 2 * c), u.shape[0]), np.result_type(rows, u))
            grown[:c] = rows[:c]
            rows = grown
        rows[c : c + k] = np.conj(u.T)
        same.append(i)
        self._stacks[k] = (rows, same)
        self.bases.append(u)
        self.below.append({i})
        pending = []
        for j, rj in zip(members + others, np.concatenate([r, r_others]).tolist()):
            if rj == k:
                self.below[j].add(i)
            elif rj == self.bases[j].shape[1]:
                self.below[i].add(j)
            else:
                pending.append((j, rj))
        self._pending.append(sorted(pending))
        return i

    def _known(self, i: int, j: int, r: int) -> bool:
        """Whether a member of dimension r is known to lie inside i and j:
        exact, since every pair of members was tested when the later one
        was added, so it holds when the meet of i and j is a member."""
        return any(self.bases[l].shape[1] == r for l in self.below[i] & self.below[j])

    def intersect(self, i: int):
        """Add the meet of member i with each earlier member that neither
        contains it nor lies in it (its pending pairs, from :meth:`add`),
        unless the meet is already a member.

        No overlap test runs here.  The meet of dimension r is U_i x for
        the eigenvectors x of the Gram (U_j^* U_i)^* (U_j^* U_i) past the
        cutoff, taken in one batched ``eigh`` for the pairs whose meet is
        not a member (:meth:`_known`), and added, which records it inside
        both.  Two pairs of one batch with the same meet both pay for the
        ``eigh``, and the second adds nothing.
        """
        u = self.bases[i]
        k = u.shape[1]
        pairs = [p for p in self._pending[i] if not self._known(i, *p)]
        if not pairs:
            return
        products = [np.conj(self.bases[j].T) @ u for j, _ in pairs]
        vectors = np.linalg.eigh(np.stack([np.conj(m.T) @ m for m in products]))[1]
        for (j, r), x in zip(pairs, vectors):
            if not self._known(i, j, r):
                self.add(u @ x[:, k - r :])


def _closure(sides, atoms) -> list[_Family]:
    """Both families, closed under pairwise intersection and under the map
    :func:`_phi` to the other side, starting from the atoms.  phi is an
    involution up to the identification of the dual of the dual with A,
    so a member that arrived as the image of one on the other side is not
    sent back."""
    families = [_Family(side.real) for side in sides]
    for family, members in zip(families, atoms):
        for u in members:
            family.add(u)
    sent, intersected, paired = [0, 0], [0, 0], [set(), set()]
    while any(min(sent[s], intersected[s]) < len(families[s].bases) for s in (0, 1)):
        for s in (0, 1):
            family, other = families[s], families[1 - s]
            while sent[s] < len(family.bases):
                if sent[s] not in paired[s]:
                    paired[1 - s].add(other.add(_phi(sides[s], family.bases[sent[s]])))
                sent[s] += 1
            while intersected[s] < len(family.bases):
                family.intersect(intersected[s])
                intersected[s] += 1
    return families


def _coideal_families(qg: FiniteQuantumGroup, gd: GnsData):
    """(A in GNS-orthonormal coordinates, the closed families of A and of
    its dual)."""
    sides = _sides(qg, gd)
    blocks = [_central_projections(side.g) for side in sides]
    atoms = [_atoms(sides[0], *blocks), _atoms(sides[1], *blocks[::-1])]
    return sides[0].g, _closure(sides, atoms)


def solve_idempotents(
    qg: FiniteQuantumGroup, cfg: SolveConfig | None = None
) -> list[State]:
    """Every idempotent state reached from the atoms, as the lattice of
    right coideal *-subalgebras.

    Idempotent states correspond one to one to right-invariant expected
    subalgebras, and on a finite quantum group, whose Haar state is a
    faithful trace, every unital *-subalgebra is expected: the idempotent
    states are exactly the states ``eps . E_C`` of the right coideal
    *-subalgebras C (Delta(C) in C (x) A), with E_C the Haar-orthogonal
    projection onto C.  A larger state has a smaller C, so the join of
    two states is the state of C_1 n C_2.  Takeuchi's map
    phi(C) = (C^+ A)^perp (:func:`_phi`) carries C to a right coideal
    *-subalgebra of the dual, reversing the order, so a meet on one side
    is an intersection on the other.

    The construction runs on A and on its dual (:func:`_sides`), each in
    GNS-orthonormal coordinates, where the Haar Gram is 1, every cutoff
    is basis-free and the state of C with orthonormal basis U is
    ``eps U U^*``.  On both sides the atoms (:func:`_atoms`) come from the
    minimal central projections of both sides (:func:`_central_projections`).
    Each member goes through phi to the other side, and both families are
    closed under pairwise intersection until neither grows
    (:func:`_closure`).  Every rank cutoff is ``core._RANK_REL_TOL``, read
    from singular values; the intersection and dedup tests read the same
    cutoff from the Gram eigenvalues, the squared singular values of
    U_i^* U_j, as ``lambda > (1 - _RANK_REL_TOL)^2``.  The families are
    closed under phi and intersection, and their sizes must be equal, or
    InternalConsistencyError is raised.  No random start and no budget:
    ``cfg`` is accepted and unread (:class:`SolveConfig`).

    The states are returned in :func:`canonical_order`, each read back in
    the basis of A and kept only when it passes the idempotent-state test
    at ``1e-9`` as ``State`` stores it.  The counit, the state of A itself,
    passes it on every quantum group; on an input that is valid only at a
    looser ``tol`` it may not, and then nothing is built and the result is
    empty.

    Cost, for m states in all: the transports, the dual and the centres
    ``n^4``, the block ranks ``n`` each (a trace); the atoms ``n^3`` per
    character and ``n^3`` per dimension of each generated algebra, so up
    to ``n^4`` each; phi ``n^3`` per member (one ``n x n`` operator and
    its SVD), ``m n^3`` in all; the intersection test of members of
    dimensions k_i and k_j ``k_i k_j n + k_i^3`` (:class:`_Family`), so
    ``m^2 n^3`` at most, and each candidate's dedup the same per member of
    its dimension; the read-back (:func:`_vector_state`, in A's
    coordinates) and the state test ``n^3`` per state.  In all
    ``O(m^2 n^3)`` plus the atoms; each product or coproduct applied to
    a stack of vectors is one GEMM in ``core``.  Each pair of members is
    tested once, when the later one joins its family, by one product per
    member dimension and one ``eigvalsh`` per Gram size, whatever m is;
    ``eigh`` runs only for the meets that are not yet members.
    """
    if not _state_mask(qg, qg.counit[None], 1e-9, idempotent=True)[0]:
        return []
    gd = gns(qg)
    g, families = _coideal_families(qg, gd)
    if len(families[0].bases) != len(families[1].bases):
        raise InternalConsistencyError(
            f"the coideal families of A and its dual differ in size "
            f"({len(families[0].bases)} and {len(families[1].bases)})"
        )
    rho = np.array([_density(g, u) for u in families[0].bases])
    w = _vector_state(qg, rho @ gd.onb.T)
    states = w[canonical_order(w)]
    # the final state test reads each row as State stores it: float64 when
    # its imaginary part is zero (core._stored)
    real = ~np.iscomplex(states).any(axis=-1)
    ok = np.empty(len(states), dtype=bool)
    ok[real] = _state_mask(qg, states[real].real, 1e-9, idempotent=True)
    ok[~real] = _state_mask(qg, states[~real], 1e-9, idempotent=True)
    return [State(qg, w) for w in states[ok]]


def canonical_order(ws) -> np.ndarray:
    """Indices that sort the rows of ws as ``State.sort_key`` sorts states.

    Rows compare lexicographically on (re w_0, im w_0, re w_1, ...), each
    rounded to 9 digits; the sort is stable, so tied rows keep their order.
    """
    c = np.round(np.asarray(ws), 9)
    keys = np.stack([c.real, c.imag], axis=-1).reshape(len(c), 2 * c.shape[1])
    return np.lexsort(keys.T[::-1])


# -- random walks --------------------------------------------------------


def cesaro_walk(qg: FiniteQuantumGroup, mu, n: int) -> list[State]:
    """Cesaro means nu_k = (1/k) sum_{j<=k} mu^{*j} for k = 1..n.

    Every mean of convolution powers of a state is a state; the limit
    points of the sequence are idempotent.  The sums are kept in the result
    type of the start and the step, so a real start on complex structure
    tensors sums in complex128, and a real start on a real input in float64.
    The powers are taken one mat-vec at a time into one ``(n, dim)`` array,
    summed along it and divided by k in place, in the operations and order
    of a running sum, and the rows become the States (:meth:`State._of_rows`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = as_coeffs(mu)
    # the step nu -> nu * mu
    step = right_slice(qg, w).T
    means = np.empty((n, qg.dim), dtype=np.result_type(step, w))
    means[0] = power = w
    for k in range(1, n):
        power = step.dot(power)
        means[k] = power
    np.add.accumulate(means, axis=0, out=means)
    means[1:] /= np.arange(2, n + 1)[:, None]
    return State._of_rows(qg, means)


# -- slice-operator recovery ---------------------------------------------


def recover_slice(qg: FiniteQuantumGroup, t) -> State | None:
    """If t commutes with every right slice R_nu, t = L_mu for mu = counit . t.

    Returns the recovered functional, or None when some commutator exceeds
    1e-9.  Commutation without t = L_mu (within ``1e-8 n``) is impossible
    and raises.
    """
    t = np.asarray(t)
    n = qg.dim
    r = qg.comult.transpose(2, 1, 0)  # r[k] = R_{f_k}: r[k, j, i] = comult[i, j, k]
    if np.abs(t @ r - r @ t).max() > 1e-9:
        return None
    mu = qg.counit @ t
    defect = np.abs(t - left_slice(qg, mu)).max()
    if defect > 1e-8 * n:
        raise InternalConsistencyError(
            f"t commutes with all right slices but t != L_mu (defect {defect:.2e})"
        )
    return State(qg, mu)
