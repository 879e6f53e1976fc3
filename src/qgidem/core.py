"""Finite quantum groups given by structure constants.

Conventions (fixed once, used everywhere):

* elements of the algebra ``A`` are coordinate vectors ``a`` with
  ``a = sum_i a[i] e_i`` over a fixed basis ``e_0 .. e_{n-1}``;
* ``mult[i, j, k]``:   ``e_i e_j = sum_k mult[i, j, k] e_k``;
* ``comult[i, j, k]``: ``Delta(e_i) = sum_{j,k} comult[i, j, k] e_j (x) e_k``;
* the star map is antilinear and stored as a matrix applied to conjugated
  coordinates: ``(a^*)_coords = star @ conj(a)``;
* the antipode is the linear map ``a -> antipode @ a``;
* functionals (counit, Haar state, general states) are vectors ``w`` with
  ``omega(e_i) = w[i]``;
* elements of ``A (x) A`` are ``n x n`` coefficient matrices ``X[p, q]``.

Structure tensors and state coefficients are stored by one rule,
:func:`_stored`: float64 when the imaginary part is exactly zero, else
complex128.  Derived data (GNS basis, V and its slices, null spaces,
invariant subalgebras, quotients) take their operands' result type, so a
real input with real states runs in real BLAS: half the bytes and a
quarter of the flops of complex products.  Where a real matrix meets a
complex operand (a structure tensor applied to complex vectors, sampled
vectors) :func:`_real_matmul` applies it as one real product.  Every
contraction of ``mult`` or ``comult`` with a vector or a stack of vectors,
here and in the other modules, is :func:`_contract`: one GEMM; every
change of a tensor's legs by matrices is :func:`_transport`.  An
orthonormal basis g of pi(A) and the coordinates r of each pi(e_i) on it
are formed once, in ``GnsData._hs_frame``, and read by V's checks, the
symmetry residual and ``analysis.v_projection`` (n^3 per call).

All residual norms are Frobenius norms unless a sup-norm is stated.
Multiplier algebras, affiliated elements and modular elements are trivial
at finite dimension (``M(A) = A``, every affiliated element is bounded,
the modular element is 1) and are deliberately not represented.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cayley import CayleyTable


class QuantumGroupError(Exception):
    """A quantum-group axiom or contract failed."""


class StructuralError(QuantumGroupError):
    """Input tensors are dimensionally inconsistent (not an axiom failure)."""


class InternalConsistencyError(QuantumGroupError):
    """A mathematically impossible disagreement; flags numerical trouble."""


def frobenius(x) -> float:
    return float(np.linalg.norm(np.asarray(x).ravel()))


def _checked_tol(tol) -> float:
    """``tol`` as a float; a non-positive or non-finite one is an input error
    (with ``nan`` every ``residual > tol`` test is False, so nothing fails)."""
    if not (tol > 0 and math.isfinite(tol)):
        raise StructuralError(f"tol must be a positive finite number, got {tol!r}")
    return float(tol)


def _stored(x) -> np.ndarray:
    """A contiguous copy of x: float64 when its imaginary part is exactly
    zero, complex128 otherwise (for tensors and coefficient vectors)."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c" and arr.imag.any():
        return np.array(arr, dtype=np.complex128, order="C")
    return np.array(arr.real, dtype=np.float64, order="C")


def _real_matmul(m, x):
    """``m @ x`` for a real matrix m, as one real product when x is complex.

    Given a complex x, numpy casts a real m to complex (a copy of m) and
    runs a complex product with 4x the flops.  Here the real and imaginary
    parts of x are read as interleaved columns of one real matrix instead,
    so m is used as stored.  x is a matrix (q, k) or a stack of them
    (..., q, k); a complex m, or a real x, gives the plain product.
    """
    if np.iscomplexobj(m) or not np.iscomplexobj(x):
        return m @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    return (m @ x.view(np.float64)).view(np.complex128)


def _contract(t, a, axis: int) -> np.ndarray:
    """The rank-3 tensor t contracted over its index ``axis`` with a vector
    a (n,) or with each vector of a stack (..., n): the matrices of the two
    other indices, in their order, as (..., n, n).

    One GEMM through :func:`_real_matmul`, with t on the left as stored,
    so a real t stays in real BLAS against complex vectors; over the
    middle index it is n batched products, which need no copy of t.
    n^3 per vector.
    """
    a = np.asarray(a)
    n = t.shape[0]
    x = a.reshape(-1, n).T
    if axis == 0:
        out = _real_matmul(t.reshape(n, n * n).T, x).reshape(n, n, -1)
    elif axis == 1:
        out = _real_matmul(t.transpose(0, 2, 1), x)
    else:
        out = _real_matmul(t.reshape(n * n, n), x).reshape(n, n, -1)
    return np.moveaxis(out, -1, 0).reshape(a.shape[:-1] + (n, n))


def _transport(x, first=None, second=None, third=None) -> np.ndarray:
    """The rank-3 tensor x with its legs moved by (possibly rectangular)
    matrices, y[a, b, c] = sum_ijk first[a, i] second[b, j] third[c, k]
    x[i, j, k]; a ``None`` leg is left as it is.  One product through
    :func:`_real_matmul` per given matrix, with the matrix on the left, so
    a real matrix stays in real BLAS against a complex x: n^4 per leg."""
    if first is not None:
        x = _real_matmul(first, x.reshape(x.shape[0], -1)).reshape((-1,) + x.shape[1:])
    if second is not None:
        x = _real_matmul(second, x)
    if third is not None:
        x = _real_matmul(third, x.swapaxes(1, 2)).swapaxes(1, 2)
    return x


_TENSOR_RANKS = dict(mult=3, unit=1, star=2, comult=3, counit=1, antipode=2, haar=1)


@dataclass(frozen=True)
class FiniteQuantumGroup:
    """A finite-dimensional Hopf *-algebra with a faithful invariant state.

    Instances are immutable; operations on them are pure functions, so a
    quantum group may be shared freely across threads.  Each tensor, like
    each ``State``'s coefficients, is stored by :func:`_stored`: float64
    for every ``function_algebra``, ``group_algebra`` and their duals.
    """

    dim: int
    mult: np.ndarray
    unit: np.ndarray
    star: np.ndarray
    comult: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    haar: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        n = int(self.dim)
        if n <= 0:
            raise StructuralError("dim must be a positive integer")
        object.__setattr__(self, "dim", n)
        for name, rank in _TENSOR_RANKS.items():
            arr, shape = _stored(getattr(self, name)), (n,) * rank
            if arr.shape != shape:
                raise StructuralError(f"{name} must have shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _checked_tol(self.tol)

    # -- pointwise operations on coordinate vectors --------------------

    def multiply(self, a, b):
        return self.left_mult_matrix(a) @ b

    def star_vec(self, a):
        return self.star @ np.conj(a)

    # operators of an element: each takes one coordinate vector (n,) or a
    # stack of them (..., n) and returns one matrix per vector (..., n, n),
    # one GEMM over the stack (:func:`_contract`), n^3 per vector

    def comultiply(self, a):
        """Delta(a) as an n x n coefficient matrix."""
        return _contract(self.comult, a, 0)

    def left_mult_matrix(self, a):
        """Matrix of b -> a b on coordinates."""
        return _contract(self.mult, a, 0).swapaxes(-1, -2)

    def right_mult_matrix(self, a):
        """Matrix of b -> b a on coordinates."""
        return _contract(self.mult, a, 1).swapaxes(-1, -2)

    @cached_property
    def haar_gram(self) -> np.ndarray:
        """Gram matrix G[i, j] = h(e_i^* e_j); positive definite iff h is
        a faithful state.  Two products, n^3."""
        g = self.star.T @ (self.mult @ self.haar)
        g.setflags(write=False)
        return g

    @cached_property
    def _left_cancellation(self) -> tuple[float, float, float]:
        """(bound, ||T||_F, ||X||_F) of :func:`_cancellation_bound` for the
        left span at the associativity residual of ``mult``: two n^5 terms,
        computed once per instance.  ``validate`` takes its certificates
        afresh on every call."""
        return _cancellation_bound(self, "left", _associativity_defect(self.mult))

    @cached_property
    def _content_hash(self) -> str:
        """The digest :func:`qgidem.serialize.content_hash` returns, computed
        once per instance (a sha256 over every tensor)."""
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        for name in ("mult", "comult", "unit", "counit", "haar", "star", "antipode"):
            rounded = np.round(getattr(self, name), 12)
            rounded += 0.0
            h.update(np.ascontiguousarray(rounded, dtype=np.complex128).tobytes())
        return h.hexdigest()

    @cached_property
    def _star_mult(self) -> np.ndarray:
        """Coefficients of e_i^* e_j as an (n*n, n) matrix: row i*n + j."""
        n = self.dim
        s = (self.star.T @ self.mult.reshape(n, n * n)).reshape(n * n, n)
        s.setflags(write=False)
        return s

    def functional_gram(self, w) -> np.ndarray:
        """Gram matrix omega(e_i^* e_j) of the functional with coefficients w.

        A stack of functionals ``(..., n)`` gives a stack of Grams
        ``(..., n, n)``; each costs ``n^3`` against the cached contraction
        of ``star`` with ``mult``.
        """
        w = np.asarray(w)
        g = _real_matmul(self._star_mult, w.reshape(-1, self.dim).T).T
        return np.ascontiguousarray(g).reshape(w.shape[:-1] + (self.dim, self.dim))


@dataclass
class ValidationReport:
    """Per-axiom residuals for a candidate quantum group."""

    dim: int
    tol: float
    residuals: dict
    cancellation_ranks: tuple  # one per side, in the order of _CANCELLATION_SPECS
    passed: bool = field(init=False)
    failures: list = field(init=False)

    def __post_init__(self):
        full = self.dim * self.dim
        self.failures = [k for k, v in self.residuals.items() if not v <= self.tol]
        for side, rank in zip(_CANCELLATION_SPECS, self.cancellation_ranks):
            if rank != full:
                self.failures.append(f"cancellation_{side}")
        self.passed = not self.failures

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def __str__(self):
        lines = [f"validation ({'pass' if self.passed else 'FAIL'}), dim={self.dim}, tol={self.tol:g}"]
        for k in sorted(self.residuals):
            mark = "ok " if self.residuals[k] <= self.tol else "BAD"
            lines.append(f"  [{mark}] {k:<24s} {self.residuals[k]:.3e}")
        ranks = ", ".join(
            f"{side} {rank}" for side, rank in zip(_CANCELLATION_SPECS, self.cancellation_ranks)
        )
        lines.append(f"  cancellation ranks: {ranks} (need {self.dim ** 2})")
        return "\n".join(lines)


# singular values up to this share of the largest do not count to a rank
_RANK_REL_TOL = 1e-8


def _rank(matrix):
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > _RANK_REL_TOL * s[0]))


def _numerical_rank(s, rel_tol: float) -> int:
    """How many singular values s (descending) exceed rel_tol * max(s[0], 1);
    the floor at 1 keeps a numerically-zero matrix from reading as full rank."""
    cutoff = rel_tol * max(float(s[0]) if s.size else 0.0, 1.0)
    return int(np.sum(s > cutoff))


def orthonormal_columns(m) -> np.ndarray:
    """Orthonormal basis of the column space (Frobenius geometry); singular
    values up to ``_RANK_REL_TOL`` times the largest (at least 1) are
    dropped."""
    m = np.atleast_2d(np.asarray(m))
    if m.shape[1] == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : _numerical_rank(s, _RANK_REL_TOL)]


def _kernel_basis(e, rel_tol: float = _RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis of the kernel of the (m, n) matrix e: the right
    singular vectors past its numerical rank.  For m >= n the thin SVD
    (m n^2) gives the same singular values and the same n x n V^H as the
    full one without forming the m x m U; for m < n the full SVD is needed
    for the n - m rows of V^H that span the rest of the kernel."""
    rows, cols = np.shape(e)
    _, s, vh = np.linalg.svd(e, full_matrices=rows < cols)
    return vh.conj().T[:, _numerical_rank(s, rel_tol) :]


# no workspace: every product allocates its own result
_NO_WORK = (None, None, None, None)


def _row_blocks(n: int, parts: int) -> list:
    """The first index in blocks of max(1, n // parts) values, as slices;
    the last block is shorter when the step does not divide n."""
    step = max(1, n // parts)
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


def _workspace(n: int, step: int, blocks: int, dtype) -> tuple:
    """One per-call array as views: n^4 entries, then ``blocks`` blocks of
    ``step`` n^3 (the products of ``step`` values of a first index)."""
    full, block = n**4, step * n**3
    buf = np.empty(full + blocks * block, dtype)
    starts = range(full, full + blocks * block, block)
    return (buf[:full],) + tuple(buf[start : start + block] for start in starts)


def _out(buf, shape, *operands) -> np.ndarray:
    """An uninitialised array of ``shape`` in the result type of the
    operands, for a product to write into through ``out=``.

    It is the leading bytes of the workspace ``buf`` (a 1-D array held by
    one call) when they are enough, so a real product may use a complex
    workspace; otherwise, or when ``buf`` is None, a new array.
    """
    dtype = np.result_type(*operands)
    nbytes = math.prod(shape) * dtype.itemsize
    if buf is None or nbytes > buf.nbytes:
        return np.empty(shape, dtype)
    return buf.view(np.uint8)[:nbytes].view(dtype).reshape(shape)


def _associativity_defect(m, work=_NO_WORK) -> float:
    """||(e_i e_j) e_l - e_i (e_j e_l)|| over the basis for the product m.

    Both sides are contiguous products in the layout [i, (j, l), p],
    taken in row blocks of max(1, n // 4) values of i: per block one
    b n x n x n^2 GEMM and one batched n^2 x n x n matmul (n^5 in all),
    written into the two block buffers of ``work`` (``work[1]``,
    ``work[2]``; see :func:`_out`), the second subtracted from the first
    in place and the block reduced to its sum of squares before the next.
    Without a workspace each block allocates its two arrays of b n^3
    (n^4 / 4) entries.  Applied to ``comult.transpose(1, 2, 0)``, the
    product of the dual, it is the coassociativity residual.
    """
    m = np.ascontiguousarray(m)
    n = m.shape[0]
    m2, mm = m.reshape(n * n, n), m.reshape(n, n * n)
    sq = 0.0
    for rows in _row_blocks(n, 4):
        b, lo, hi = rows.stop - rows.start, rows.start * n, rows.stop * n
        r = np.matmul(m2[lo:hi], mm, out=_out(work[1], (b * n, n * n), m))
        r -= np.matmul(m2, m[rows], out=_out(work[2], (b, n * n, n), m)).reshape(b * n, n * n)
        sq += frobenius(r) ** 2
    return math.sqrt(sq)


def _comult_multiplicative_defect(m, d, work=_NO_WORK) -> float:
    """||Delta(e_i) Delta(e_j) - Delta(e_i e_j)|| over the basis.

    Delta(e_i) Delta(e_j) = sum t1[(i, p), (b, c)] u1[(b, c), (j, q)]
    e_p (x) e_q, with the n x n blocks t1[i, p] = d[i]^T m[:, :, p] and the
    rows u1[b, c, j] = d[j, c] m[b], both built contiguous (n^5); their
    product is the one n^6 GEMM.  u1 is the one full n^4 operand
    (``work[0]``); t1, the product and Delta(e_i e_j) are taken in row
    blocks of max(1, n // 4) values of i, t1 and then Delta(e_i e_j) in
    ``work[1]``, the product in ``work[2]``, the reference subtracted in
    place and the block reduced to its sum of squares before the next:
    n^4 + 2 b n^3 (1.5 n^4) entries in all.
    """
    n = m.shape[0]
    u1 = np.matmul(
        d.transpose(1, 0, 2).reshape(n * n, n), m, out=_out(work[0], (n, n * n, n), d, m)
    ).reshape(n * n, n * n)
    dt = np.ascontiguousarray(d.transpose(0, 2, 1))
    mt = np.ascontiguousarray(m.transpose(2, 0, 1))[None]
    m2, dd = m.reshape(n * n, n), d.reshape(n, n * n)
    sq = 0.0
    for rows in _row_blocks(n, 4):
        b, lo, hi = rows.stop - rows.start, rows.start * n, rows.stop * n
        t1 = np.matmul(dt[rows, None], mt, out=_out(work[1], (b, n, n, n), d, m))
        diff = np.matmul(
            t1.reshape(b * n, n * n), u1, out=_out(work[2], (b * n, n * n), d, m)
        ).reshape(b, n, n, n)
        del t1
        ref = np.matmul(m2[lo:hi], dd, out=_out(work[1], (b * n, n * n), m, d))
        diff -= ref.reshape(b, n, n, n).transpose(0, 2, 1, 3)
        sq += frobenius(diff) ** 2
    return math.sqrt(sq)


# the cancellation span matrices, T[(p, q), (i, j)]:
#   right: e_i (x) e_j -> Delta(e_i)(e_j (x) 1),
#   left:  e_i (x) e_j -> Delta(e_i)(1 (x) e_j),
# each named by the axes that carry comult to x[b, i, k]: the slice of
# Delta(e_i) at e_b on the leg that is not multiplied.  With the rows of the
# right span taken in (q, p) order, T = [L_{x[b, i]}] in n x n blocks (b, i).
# In a Hopf algebra with S^2 = id the inverse span map is X = [L_{S(x[i, c])}]
# in blocks (i, c) (Van Daele, Trans. AMS 1994):
#   right: a (x) b -> b_(2) (x) S^-1(b_(1)) a,
#   left:  a (x) b -> a_(1) (x) S(a_(2)) b.
_CANCELLATION_SPECS = {"right": (2, 0, 1), "left": (1, 0, 2)}


def _cancellation_span(qg: FiniteQuantumGroup, side: str) -> np.ndarray:
    """The n^2 x n^2 span matrix T of one side, built in n^5: one GEMM
    gives t[b, i, j, l] = sum_k x[b, i, k] mult[k, j, l], whose rows
    (b, l) are those of T, taken in (l, b) order on the right side."""
    n = qg.dim
    x = qg.comult.transpose(_CANCELLATION_SPECS[side])
    t = (x.reshape(n * n, n) @ qg.mult.reshape(n, n * n)).reshape(n, n, n, n)
    return t.transpose((0, 3, 1, 2) if side == "left" else (3, 0, 1, 2)).reshape(n * n, n * n)


def _cancellation_bound(qg: FiniteQuantumGroup, side: str, assoc: float, work=_NO_WORK):
    """(bound, ||T||_F, ||X||_F) for one cancellation span T and its inverse
    X, with bound >= ||T X - 1||_F.

    Neither T nor X is formed.  (T X)_bc = sum_i L_{x[b, i]} L_{y[i, c]}
    with y = S(x), and L_a L_b - L_{ab} is the associativity tensor
    contracted with a (x) b, whose norm ``assoc`` is.  So with
    P_bc = sum_i x[b, i] y[i, c] in A and K = sum_i x[b, i] (x) y[i, c],

        ||T X - 1|| <= ||[L_{P_bc - delta_bc 1}]|| + sqrt(n) ||L_1 - 1||
                       + ||K|| assoc.

    P costs n^5: per row block of max(1, n // 4) values of b, one
    b n x n x n^2 GEMM into the block buffer ``work[1]`` (b n^3 entries,
    allocated per block without a workspace; see :func:`_out`) and one
    batched matmul that writes the block's rows of P.  Every norm comes
    from the n x n Gram G = M M^H of a -> L_a, since ||L_v||^2 = v G v^H,
    and ||K||^2 = tr((x^H x)(y y^H)): n^4.
    """
    n = qg.dim
    m = qg.mult
    x = np.ascontiguousarray(qg.comult.transpose(_CANCELLATION_SPECS[side]))
    y = x @ qg.antipode.T  # y[i, c] = S(x[i, c])
    # u[b, i, l] = x[b, i] e_l, then P[b, c] = sum_{i, l} y[i, c, l] u[b, i, l]
    x2, mm = x.reshape(n * n, n), m.reshape(n, n * n)
    yt = y.transpose(1, 0, 2).reshape(n, n * n)
    p = np.empty((n, n, n), np.result_type(y, x, m))
    for rows in _row_blocks(n, 4):
        b, lo, hi = rows.stop - rows.start, rows.start * n, rows.stop * n
        u = np.matmul(x2[lo:hi], mm, out=_out(work[1], (b * n, n * n), x, m))
        np.matmul(yt, u.reshape(b, n * n, n), out=p[rows])
    p = p - np.multiply.outer(np.eye(n), qg.unit)
    gram = mm @ mm.conj().T

    def sq_norm(v):  # sum over the rows v of ||L_v||_F^2
        v = v.reshape(-1, n)
        return max(0.0, float(np.vdot(v, v @ gram).real))

    xr = x.transpose(1, 0, 2).reshape(n, n * n)  # [i, (b, k)]
    yr = y.reshape(n, n * n)  # [i, (c, l)]
    k_sq = max(0.0, float(np.sum((xr.conj() @ xr.T) * (yr.conj() @ yr.T)).real))
    unit_defect = frobenius(qg.left_mult_matrix(qg.unit) - np.eye(n))
    bound = math.sqrt(sq_norm(p)) + math.sqrt(n) * unit_defect + math.sqrt(k_sq) * assoc
    return bound, math.sqrt(sq_norm(x)), math.sqrt(sq_norm(y))


def _cancellation_rank(qg: FiniteQuantumGroup, side: str, assoc: float, work=_NO_WORK) -> int:
    """Rank of one cancellation span as ``_rank`` counts it.

    With R = T X - 1, sigma_min(T) >= (1 - ||R||) / ||X|| and
    sigma_max(T) <= ||T||_F, so a bound ||R||_F <= 1/2 from
    :func:`_cancellation_bound` (n^5) and
    ||T||_F ||X||_F < 1 / (2 ``_RANK_REL_TOL``) prove the rank full.
    Otherwise T is built and the rank read off its SVD (n^6), the only
    path that can report a deficient rank.
    """
    bound, norm_t, norm_x = _cancellation_bound(qg, side, assoc, work)
    if bound <= 0.5 and norm_t * norm_x < 0.5 / _RANK_REL_TOL:
        return qg.dim * qg.dim
    return _rank(_cancellation_span(qg, side))


def validate(qg: FiniteQuantumGroup, tol: float | None = None) -> ValidationReport:
    """Check every axiom and report the max residual of each.

    Residuals are exact tensor identities evaluated on the basis; the
    report passes iff all residuals are within ``tol`` and both quantum
    cancellation spans have full dimension ``n^2``.

    Each cancellation rank is first certified full through the explicit
    inverse X of its span map T that the antipode gives (Van Daele, Trans.
    AMS 1994), by a bound of ||T X - 1|| from n^5 data that forms neither
    T, X nor their product (:func:`_cancellation_bound`).  Only when that
    certificate fails (a wrong or non-Kac antipode, a deficient or badly
    scaled span) is the span matrix built (n^5) and its rank taken from
    an SVD (n^6), the only path that can report a deficient rank.  The
    residuals are contiguous products (the star and antipode identities
    as leg transports, :func:`_transport`), at most n^5 each, except
    comult_multiplicative, whose one n^2 x n^2 GEMM is the only n^6 term
    on a valid input.  The associativity, coassociativity and
    comult_multiplicative products and the certificates' P run in row
    blocks of b = max(1, n // 4) values of their first index, each block
    reduced to its sum of squares (or to its rows of P) before the next.
    One workspace in the result type of ``mult`` and ``comult`` is made
    per call, as one array: a full n^4 buffer for the one full operand of
    comult_multiplicative and two blocks of b n^3 entries, n^4 + 2 b n^3
    (1.5 n^4 for n >= 4) in all.  The products write into it through
    ``out=`` (a real product into the leading bytes of a complex buffer,
    :func:`_out`), so the memory is not faulted in again for each
    residual or block.  Nothing outlives the call, so a quantum group
    stays shareable across threads.  The exponents do not depend on the
    dtype; for real structure tensors every product runs in real BLAS
    (dgemm, a quarter of the flops of zgemm).
    """
    n = qg.dim
    tol = qg.tol if tol is None else _checked_tol(tol)
    m, d = qg.mult, qg.comult
    u, eps, h = qg.unit, qg.counit, qg.haar
    st, s = qg.star, qg.antipode
    eye = np.eye(n)
    r = {}

    # the blocked products of the residuals and certificates below write
    # into this workspace, held for this call only
    work = _workspace(n, max(1, n // 4), 2, np.result_type(m, d))
    r["associativity"] = _associativity_defect(m, work)
    r["unit"] = max(
        frobenius(qg.left_mult_matrix(u) - eye),
        frobenius(qg.right_mult_matrix(u) - eye),
    )
    r["star_involution"] = frobenius(st @ np.conj(st) - eye)
    # (e_i e_j)^* = e_j^* e_i^*
    lhs = np.conj(m) @ st.T
    rhs = _transport(m.swapaxes(0, 1), st.T, st.T)
    r["star_antimultiplicative"] = frobenius(lhs - rhs)

    r["coassociativity"] = _associativity_defect(d.transpose(1, 2, 0), work)
    # (eps (x) id)Delta = id = (id (x) eps)Delta
    r["counit"] = max(
        frobenius(_contract(d, eps, 1) - eye),
        frobenius(_contract(d, eps, 2) - eye),
    )
    r["comult_unital"] = frobenius(qg.comultiply(u) - np.outer(u, u))

    r["comult_multiplicative"] = _comult_multiplicative_defect(m, d, work)
    # Delta(a^*) = Delta(a)^{* (x) *}
    lhs = (st.T @ d.reshape(n, n * n)).reshape(n, n, n)
    rhs = _transport(np.conj(d), second=st, third=st)
    r["comult_star"] = frobenius(lhs - rhs)

    # m(S (x) id)Delta = eps(.)1 = m(id (x) S)Delta
    left = _transport(d, second=s).reshape(n, n * n) @ m.reshape(n * n, n)
    right = _transport(d, third=s).reshape(n, n * n) @ m.reshape(n * n, n)
    target = np.outer(eps, u)
    r["antipode_left"] = frobenius(left - target)
    r["antipode_right"] = frobenius(right - target)
    r["antipode_squared"] = frobenius(s @ s - eye)
    # S(a^*) = S(a)^*  (Kac property)
    r["antipode_star"] = frobenius(s @ st - st @ np.conj(s))

    r["haar_unital"] = abs(np.dot(h, u) - 1.0)
    gram = qg.haar_gram
    r["haar_hermitian"] = frobenius(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    r["haar_positive"] = max(0.0, -float(eigs.min()))
    # faithfulness is a rank condition: smallest Gram eigenvalue bounded away
    # from zero (the shipped constructors give eigenvalues >= 1/n); the floor
    # sits far above tol so a singular Gram cannot pass within tolerance
    floor = max(np.sqrt(tol), 1e3 * np.finfo(float).eps) * max(1.0, float(eigs.max()))
    r["haar_faithful"] = max(0.0, floor - float(eigs.min()))

    # (h (x) id)Delta = h(.)1 = (id (x) h)Delta
    r["haar_left_invariant"] = frobenius(_contract(d, h, 1) - np.outer(h, u))
    r["haar_right_invariant"] = frobenius(_contract(d, h, 2) - np.outer(h, u))

    # quantum cancellation laws as rank conditions, one span at a time
    assoc = r["associativity"]
    ranks = tuple(_cancellation_rank(qg, side, assoc, work=work) for side in _CANCELLATION_SPECS)

    return ValidationReport(dim=n, tol=tol, residuals=r, cancellation_ranks=ranks)


# -- standard constructors ---------------------------------------------


def function_algebra(ct: CayleyTable, tol: float = 1e-9) -> FiniteQuantumGroup:
    """Functions on a finite group: basis of point indicators, pointwise
    product, Delta(f)(x, y) = f(xy), Haar = normalized counting measure."""
    n = ct.order
    mult = np.zeros((n, n, n))
    idx = np.arange(n)
    mult[idx, idx, idx] = 1.0
    comult = np.zeros((n, n, n))
    comult[ct.table[idx[:, None], idx[None, :]], idx[:, None], idx[None, :]] = 1.0
    counit = np.zeros(n)
    counit[ct.identity] = 1.0
    antipode = np.zeros((n, n))
    antipode[ct.inverse, idx] = 1.0
    return FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=np.ones(n),
        star=np.eye(n),
        comult=comult,
        counit=counit,
        antipode=antipode,
        haar=np.full(n, 1.0 / n),
        tol=tol,
    )


def group_algebra(ct: CayleyTable, tol: float = 1e-9) -> FiniteQuantumGroup:
    """Group algebra of a finite group: basis of group elements,
    Delta(x) = x (x) x, Haar = coefficient of the identity."""
    n = ct.order
    idx = np.arange(n)
    mult = np.zeros((n, n, n))
    mult[idx[:, None], idx[None, :], ct.table] = 1.0
    star = np.zeros((n, n))
    star[ct.inverse, idx] = 1.0
    comult = np.zeros((n, n, n))
    comult[idx, idx, idx] = 1.0
    unit = np.zeros(n)
    unit[ct.identity] = 1.0
    haar = np.zeros(n)
    haar[ct.identity] = 1.0
    return FiniteQuantumGroup(
        dim=n,
        mult=mult,
        unit=unit,
        star=star,
        comult=comult,
        counit=np.ones(n),
        antipode=star.copy(),
        haar=haar,
        tol=tol,
    )


def dual(qg: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """The dual quantum group on A^*, with convolution as product.

    In the dual basis f_i (f_i(e_j) = [i = j]): the product is the adjoint
    of the coproduct, the coproduct the adjoint of the product, the unit is
    the counit, and the dual Haar state is the unique solution of
    h_dual(h(. a)) = c eps(a), normalized so h_dual is a state.
    """
    report = validate(qg)
    if not report.passed:
        raise QuantumGroupError(
            f"dual() requires a valid quantum group; failing axioms: {report.failures}"
        )
    return _dual(qg)


def _dual(qg: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """The tensors of :func:`dual`, built without validating qg first."""
    m, d = qg.mult, qg.comult
    star_dual = (np.conj(qg.star) @ qg.antipode).T
    antipode_dual = qg.antipode.T.copy()

    hmat = m @ qg.haar  # hmat[i, j] = h(e_i e_j)
    h0 = np.linalg.solve(hmat.T, qg.counit)
    h_dual = h0 / np.dot(h0, qg.counit)

    return FiniteQuantumGroup(
        dim=qg.dim,
        mult=d.transpose(1, 2, 0),
        unit=qg.counit.copy(),
        star=star_dual,
        comult=m.transpose(2, 0, 1),
        counit=qg.unit.copy(),
        antipode=antipode_dual,
        haar=h_dual,
        tol=qg.tol,
    )


def _change_basis(qg: FiniteQuantumGroup, t) -> FiniteQuantumGroup:
    """The quantum group for which ``a -> t a`` is an isomorphism from qg.

    Every structure tensor is transported; a rank-3 one by
    :func:`_transport`, three products of n^4; functionals move as
    ``w t^-1``.
    """
    t = np.asarray(t)
    ti = np.linalg.inv(t)
    n = qg.dim
    return FiniteQuantumGroup(
        dim=n,
        mult=_transport(qg.mult, ti.T, ti.T, t),
        unit=t @ qg.unit,
        star=t @ qg.star @ np.conj(ti),
        comult=_transport(qg.comult, ti.T, t, t),
        counit=qg.counit @ ti,
        antipode=t @ qg.antipode @ ti,
        haar=qg.haar @ ti,
        tol=qg.tol,
    )


def intertwiner_defect(qg1: FiniteQuantumGroup, qg2: FiniteQuantumGroup, t) -> float:
    """Max residual of t: A1 -> A2 transporting every structure tensor.

    Zero (up to rounding) means t is an isomorphism of quantum groups.
    """
    if qg1.dim != qg2.dim:
        raise StructuralError("intertwiner requires equal dimensions")
    t = np.asarray(t)
    if t.shape != (qg1.dim, qg1.dim):
        raise StructuralError(f"intertwiner must have shape {(qg1.dim,) * 2}, got {t.shape}")
    res = [
        frobenius(_transport(qg1.mult, third=t) - _transport(qg2.mult, t.T, t.T)),
        frobenius(t @ qg1.unit - qg2.unit),
        frobenius(_transport(qg1.comult, second=t, third=t) - _transport(qg2.comult, t.T)),
        frobenius(qg2.counit @ t - qg1.counit),
        frobenius(t @ qg1.star - qg2.star @ np.conj(t)),
        frobenius(t @ qg1.antipode - qg2.antipode @ t),
        frobenius(qg2.haar @ t - qg1.haar),
    ]
    return max(res)


# -- GNS construction and the multiplicative unitary -------------------


@dataclass(frozen=True)
class GnsData:
    """GNS space of the Haar state: H = A with <a, b> = h(a^* b).

    ``onb`` maps orthonormal coordinates to A-coordinates (its columns are
    an orthonormal basis of H); ``left_reg[i]`` is the matrix of left
    multiplication by e_i on H in orthonormal coordinates.
    """

    gram: np.ndarray
    onb: np.ndarray
    onb_inv: np.ndarray
    left_reg: np.ndarray

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def vector(self, a):
        """H-coordinates of Lambda(a)."""
        return self.onb_inv @ np.asarray(a)

    def rep(self, a):
        """The GNS representation pi(a) (faithful, unital, *-preserving)."""
        return np.tensordot(np.asarray(a), self.left_reg, axes=(0, 0))

    @cached_property
    def _hs_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(g, r): an orthonormal basis g_0 .. g_{n-1} of pi(A) for the
        Hilbert-Schmidt inner product tr(x^* y), as an (n, n, n) stack, and
        the coordinates pi(e_i) = sum_k r[i, k] g_k.  g is the Q of a QR of
        pi (n^4); r is pi times conj(Q), not the QR's triangle, which
        differs by rounding."""
        n = self.dim
        reg = self.left_reg.reshape(n, n * n)
        q, _ = np.linalg.qr(reg.T)
        g = np.ascontiguousarray(q.T).reshape(n, n, n)
        r = reg @ q.conj()
        for arr in (g, r):
            arr.setflags(write=False)
        return g, r

    @cached_property
    def _hs_structure(self) -> tuple[np.ndarray, float]:
        """(gamma, defect) for the basis g of :attr:`_hs_frame` (n^5).

        g_k g_l^* = sum_m gamma[m, k, l] g_m + E_kl, and ``defect`` is the
        larger of ||E|| and the distance of the identity from span g.  It is
        rounding exactly when span g is a unital *-algebra, which holds when
        pi is multiplicative, so for every valid input.  The products are
        taken in blocks by :func:`_product_coefficients`.
        """
        n = self.dim
        g = self._hs_frame[0]
        gamma, err, _ = _product_coefficients(g, g, g)
        gmat = g.reshape(n, n * n)
        eye = np.eye(n).ravel()
        defect = max(err, frobenius(eye - (gmat.conj() @ eye) @ gmat))
        gamma.setflags(write=False)
        return gamma, defect


def gns(qg: FiniteQuantumGroup) -> GnsData:
    """Build the GNS data of the Haar state (requires h faithful)."""
    gram = np.asarray(qg.haar_gram)
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min() <= qg.tol * max(1.0, eigs.max()):
        raise QuantumGroupError("Haar state not faithful: singular Gram matrix")
    chol = np.linalg.cholesky(gram)  # gram = chol chol^H
    onb = np.linalg.inv(chol.conj().T)  # onb^H gram onb = 1
    onb_inv = chol.conj().T
    left_reg = onb_inv @ qg.left_mult_matrix(np.eye(qg.dim)) @ onb
    for arr in (gram, onb, onb_inv, left_reg):
        arr.setflags(write=False)
    return GnsData(gram=gram, onb=onb, onb_inv=onb_inv, left_reg=left_reg)


def _product_coefficients(left, right, onb) -> tuple[np.ndarray, float, float]:
    """(coef, defect, size) of the products left_k right_l^* on the
    Hilbert-Schmidt orthonormal stack ``onb`` (n^5 for n x n stacks of n).

    left_k right_l^* = sum_m coef[m, k, l] onb_m + E_kl, ``defect`` is
    ||E|| and ``size`` the norm of the products, both over all (k, l).
    The k are taken in blocks of max(1, n // 4): one GEMM gives
    left_k right_l^* for the block and every l, and one batched matmul
    their coefficients, an n x n^2 x n product per k (a single wider GEMM
    takes another OpenBLAS kernel and moves coef, and the coproduct defect
    read off it, by rounding).  A block holds two arrays of b n^3 (n^4 / 4)
    entries at a time.
    """
    n, d = left.shape[0], left.shape[1]
    omat = onb.reshape(onb.shape[0], d * d)
    omat_c = omat.conj()
    rows = left.reshape(n * d, d)  # [(k, x), y]
    adj = np.conj(right.reshape(n * d, d)).T  # [y, (l, z)]
    coef = np.empty((onb.shape[0], n, n), dtype=np.result_type(left, right, onb))
    err_sq = size_sq = 0.0
    for ks in _row_blocks(n, 4):
        b = ks.stop - ks.start
        # left_k right_l^* as rows (k, l) of d^2 coordinates
        prods = (rows[ks.start * d : ks.stop * d] @ adj).reshape(b, d, n, d)
        prods = np.ascontiguousarray(prods.transpose(0, 2, 1, 3)).reshape(b, n, d * d)
        size_sq += frobenius(prods) ** 2
        c = np.matmul(omat_c, prods.transpose(0, 2, 1))  # [k, m, l]
        coef[:, ks, :] = c.transpose(1, 0, 2)
        prods -= np.matmul(c.transpose(0, 2, 1), omat)
        err_sq += frobenius(prods) ** 2
    return coef, math.sqrt(err_sq), math.sqrt(size_sq)


@dataclass(frozen=True)
class LegFactors:
    """V = sum_k F_k (x) g_k + R, sliced against an orthonormal basis of pi(A).

    ``basis[k]`` is g_k (``GnsData._hs_frame``, Hilbert-Schmidt
    orthonormal), ``factors[k]`` is F_k = (id (x) tr(g_k^* .))V, and
    ``remainder`` is ||R||.  The factored checks assume two things: that R
    is rounding (V lies in B(H) (x) pi(A), Baaj-Skandalis) and that span g
    is closed under products and adjoints (``GnsData._hs_structure``,
    whose gamma is kept as ``structure``).  ``exact`` says both hold,
    R <= 64 eps ||V|| and the closure defect <= 64 eps n; when it is false
    the checks run their dense loops.
    """

    basis: np.ndarray
    factors: np.ndarray
    remainder: float
    exact: bool
    structure: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def conjugation(self) -> np.ndarray | None:
        """x -> V^*(1 (x) x)V on pi(A) in g-coordinates, or None when the
        slices cannot give it (:func:`_conjugation_map`); built on first use."""
        return _conjugation_map(self)


def _conjugation_map(legs: LegFactors) -> np.ndarray | None:
    """Phi[m, p, j] with V^*(1 (x) g_j)V = sum_pm Phi[m, p, j] Ft_p (x) g_m
    (n^5, once per V), for an orthonormal basis Ft of span{F_k}.

    V^*(1 (x) x)V = sum_kl F_k^* F_l (x) g_k^* x g_l.  The first-leg slices
    of a multiplicative unitary span a *-algebra (the dual), so
    F_k^* F_l = sum_p beta[p, k, l] Ft_p (:func:`_product_coefficients`).
    In g-coordinates g_k^* g_j g_l has the coefficient
    sum_s conj(tau[s, k, m]) tau[s, j, l] on g_m, with
    tau[s, a, b] = <g_s, g_a g_b> read off the kept gamma in n^4:
    g_b = sum_u tr(g_u g_b) g_u^*.  Phi takes the m in blocks of
    max(1, n // 4), one GEMM for the sums over s and one batched matmul
    for those over (k, l), so a block holds b n^3 (n^4 / 4) entries.

    None unless ``legs.exact`` holds and the products F_k^* F_l lie in
    span Ft up to 64 eps times their norm, the cutoff of ``exact``; a
    V (u (x) 1) with u a unitary outside the dual keeps its second leg in
    pi(A) but not its first leg closed.
    """
    if not legs.exact:
        return None
    g, f = legs.basis, legs.factors  # g[k, b, d], f[k, a, c]
    n = g.shape[0]
    onb = np.linalg.qr(f.reshape(n, n * n).T)[0].T.reshape(n, n, n)
    f_adj = np.conj(f.transpose(0, 2, 1))
    beta, defect, size = _product_coefficients(f_adj, f_adj, onb)
    if defect > 64 * np.finfo(float).eps * size:
        return None
    gmat = g.reshape(n, n * n)
    traces = gmat @ g.transpose(0, 2, 1).reshape(n, n * n).T  # tr(g_u g_b)
    tau = (legs.structure.reshape(n * n, n) @ traces).reshape(n, n, n)
    left = np.ascontiguousarray(np.conj(tau).transpose(2, 1, 0)).reshape(n * n, n)
    right = np.ascontiguousarray(tau.transpose(0, 2, 1)).reshape(n, n * n)
    beta_rows = beta.reshape(n, n * n)  # [p, (k, l)]
    phi = np.empty((n, n, n), dtype=np.result_type(beta, tau))
    for ms in _row_blocks(n, 4):
        b = ms.stop - ms.start
        # sum_s conj(tau[s, k, m]) tau[s, j, l] as [m, (k, l), j]
        prods = (left[ms.start * n : ms.stop * n] @ right).reshape(b, n * n, n)
        phi[ms] = np.matmul(beta_rows, prods)
    phi.setflags(write=False)
    return phi


def second_leg_factors(gd: GnsData, v) -> LegFactors:
    """Slice the second leg of V against the basis g of ``gd._hs_frame`` (n^5).

    V[(a, b), (c, d)] has first leg (a, c) and second leg (b, d).  The
    rows a of the first leg are sliced in blocks of max(1, n // 4): one
    GEMM per block, which holds two arrays of b n^3 (n^4 / 4) entries.
    """
    n = gd.dim
    g = gd._hs_frame[0]
    gmat = g.reshape(n, n * n)
    gmat_h = gmat.conj().T
    v = np.asarray(v)
    v4 = v.reshape(n, n, n, n)
    dtype = np.result_type(v, g)
    factors = np.empty((n, n, n), dtype=dtype)  # [k, a, c]
    rem_sq = 0.0
    for rows in _row_blocks(n, 4):
        size = rows.stop - rows.start
        block = np.empty((size, n, n, n), dtype)  # [a, c, (b, d)]
        np.copyto(block, v4[rows].transpose(0, 2, 1, 3))
        block = block.reshape(size * n, n * n)
        f = block @ gmat_h  # [(a, c), k]
        factors[:, rows, :] = f.reshape(size, n, n).transpose(2, 0, 1)
        block -= f @ gmat
        rem_sq += frobenius(block) ** 2
    remainder = math.sqrt(rem_sq)
    eps = np.finfo(float).eps
    gamma, closure = gd._hs_structure
    exact = remainder <= 64 * eps * frobenius(v) and closure <= 64 * eps * n
    factors.setflags(write=False)
    return LegFactors(basis=g, factors=factors, remainder=remainder, exact=exact, structure=gamma)


@dataclass(frozen=True)
class MultUnitary:
    """The right multiplicative unitary V on H (x) H.

    V(Lambda(a) (x) Lambda(b)) = (Lambda (x) Lambda)(Delta(a)(1 (x) b)),
    so that Delta(a) = V (pi(a) (x) 1) V^* and the pentagon identity
    V12 V13 V23 = V23 V12 holds.  ``legs`` keeps the factorization that
    :func:`multiplicative_unitary` computed, for reuse by later checks, and
    ``defects`` the residuals it checked (keys ``unitarity``, ``pentagon``
    and ``coproduct``).
    """

    v: np.ndarray
    legs: LegFactors | None = field(default=None, repr=False, compare=False)
    defects: dict = field(default_factory=dict, compare=False)

    def leg_factors(self, gd: GnsData) -> LegFactors:
        """V sliced against ``gd``'s basis of pi(A); the kept factorization
        when it was made from that basis, else a new one (n^5)."""
        if self.legs is not None and self.legs.basis is gd._hs_frame[0]:
            return self.legs
        return second_leg_factors(gd, self.v)


def unitarity_defect(v, work=None) -> float:
    """||V V^* - 1||, which equals ||V^* V - 1|| for a square V: both
    products have the eigenvalues sigma_k^2.  One GEMM, written into the
    leading bytes of the 1-D buffer ``work`` when it is large enough
    (:func:`_out`)."""
    v = np.asarray(v)
    p = np.matmul(v, v.conj().T, out=_out(work, v.shape, v))
    p.flat[:: p.shape[0] + 1] -= 1
    return frobenius(p)


def _apply_leg(v, x, legs):
    """Apply V to two legs of x, of shape (n, n, n, batch): one GEMM."""
    n = x.shape[0]
    perm = list(legs) + [k for k in range(3) if k not in legs] + [3]
    xt = np.transpose(x, perm).reshape(n * n, -1)
    yt = _real_matmul(v, xt).reshape(x.shape)
    return np.transpose(yt, np.argsort(perm))


def pentagon_defect(v, max_dense_dim: int = 2000, rng=None) -> float:
    """|| V12 V13 V23 - V23 V12 || on H (x) H (x) H.

    Dense evaluation when n^3 is small (both sides applied to the n^3 x n^3
    identity, a batch of n^3 vectors); otherwise both sides are applied to
    a batch of eight normalised complex Gaussian vectors of H (x) H (x) H
    (full vectors, not product vectors) with the same contraction, n^5
    each.  The sampled value is the largest of those eight norms, a lower
    bound of the operator norm of the difference and so of the dense value.
    A real V stays real: it meets the complex vectors through
    :func:`_real_matmul`, one real GEMM per leg with no complex copy of V.
    :func:`multiplicative_unitary` calls it only for a V whose slices it
    cannot use (:func:`_pentagon_defect`).
    """
    v = np.asarray(v)
    n = int(round(np.sqrt(v.shape[0])))

    def difference(x):
        # the last leg (0, 1) leaves lhs contiguous, so it takes the
        # difference in place
        lhs = _apply_leg(v, _apply_leg(v, _apply_leg(v, x, (1, 2)), (0, 2)), (0, 1))
        lhs -= _apply_leg(v, _apply_leg(v, x, (0, 1)), (1, 2))
        return lhs.reshape(n**3, -1)

    if n**3 <= max_dense_dim:
        return frobenius(difference(np.eye(n**3).reshape(n, n, n, n**3)))

    rng = np.random.default_rng(0) if rng is None else rng
    x = np.stack(
        [rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)) for _ in range(8)],
        axis=-1,
    )
    x /= np.linalg.norm(x.reshape(n**3, 8), axis=0)
    return float(np.linalg.norm(difference(x), axis=0).max())


def _coproduct_defect(qg, gd, v, legs: LegFactors, work=_NO_WORK) -> float:
    """max_i || (pi (x) pi) Delta(e_i) - V (pi(e_i) (x) 1) V^* ||.

    When the slices ``legs`` of V (:func:`second_leg_factors`) describe V
    up to rounding the identity is checked on them at n^6; otherwise by
    one n^2 x n^2 GEMM with V^* per basis element, n^7 in all.
    """
    if legs.exact:
        return _coproduct_defect_factored(qg, gd, legs, work)
    return _coproduct_defect_dense(qg, gd, v)


def _coproduct_defect_factored(qg, gd, legs: LegFactors, work=_NO_WORK) -> float:
    """The coproduct defect from V = sum_k F_k (x) g_k, at n^6.

    V (pi(e_i) (x) 1) V^* = sum_kl F_k pi(e_i) F_l^* (x) g_k g_l^*, and
    g_k g_l^* = sum_m gamma[m, k, l] g_m because pi(A) is a *-algebra
    (``GnsData._hs_structure``; ``legs.exact`` says it is one).  With
    g orthonormal the defect for e_i is the norm of the n matrices
    D_m = sum_kl gamma[m, k, l] F_k pi(e_i) F_l^* - (id (x) tr(g_m^* .))
    (pi (x) pi)Delta(e_i), the last term from the coordinates r of
    ``GnsData._hs_frame``.  The m are taken in blocks of max(1, n // 8):
    one (b n x n^2)(n^2 x n^2) GEMM gives D_m for a block of b values of m
    and every e_i at once, and the reference term, formed for the block
    by one GEMM in the same layout, is subtracted from it in place.  The
    n^4 array z = pi(e_i) F_l^* (one batched matmul, built in the layout
    the GEMM reads) is ``work[0]``.  Per block, sum_k gamma[m, k, l] F_k
    goes into ``work[1]``, its copy in the GEMM's layout into ``work[2]``,
    the product into ``work[3]`` and the reference into ``work[1]`` again:
    three buffers of b n^3 = n^4 / 8 entries, 3/8 n^4 beside z.  Without a
    workspace z and every block are allocated here.
    """
    n = qg.dim
    f = legs.factors  # f[k, a, c]
    reg = gd.left_reg  # reg[i, x, y] = pi(e_i)
    reg_flat = reg.reshape(n, n * n)
    gamma = gd._hs_structure[0]
    # pi(e_i) F_l^* as z[(l, x), (i, c)]: per l, reg[x, i, y] @ conj(F_l)^T
    reg_xi = np.ascontiguousarray(reg.transpose(1, 0, 2)).reshape(n * n, n)
    f_adj = f.conj().transpose(0, 2, 1)
    z = np.matmul(reg_xi, f_adj, out=_out(work[0], (n, n * n, n), reg_xi, f_adj))
    z = z.reshape(n * n, n * n)
    # (pi (x) pi)Delta(e_i) = sum_{p,m} coef[m, i, p] pi(e_p) (x) g_m, in
    # the result type of the products, which the difference is taken in
    coef = (qg.comult @ gd._hs_frame[1]).transpose(2, 0, 1)
    coef = np.ascontiguousarray(coef, dtype=np.result_type(coef, z, gamma))
    f_rows = f.reshape(n, n * n)
    sq = np.zeros(n)
    for block in _row_blocks(n, 8):
        b = block.stop - block.start
        # sum_k gamma[m, k, l] F_k as h[(m, a), (l, x)], from the GEMM
        # [(m, l), k] x [k, (a, x)]
        gam = gamma[block].transpose(0, 2, 1).reshape(b * n, n)
        h = np.matmul(gam, f_rows, out=_out(work[1], (b * n, n * n), gam, f_rows))
        h_ma = _out(work[2], (b, n, n, n), h)
        np.copyto(h_ma, h.reshape(b, n, n, n).transpose(0, 2, 1, 3))
        h_ma = h_ma.reshape(b * n, n * n)
        d = np.matmul(h_ma, z, out=_out(work[3], (b * n, n * n), h_ma, z))
        d = d.reshape(b, n, n, n)  # [m, a, i, c]
        c_rows = coef[block].reshape(b * n, n)
        diff = np.matmul(c_rows, reg_flat, out=_out(work[1], (b * n, n * n), c_rows, reg_flat))
        diff = diff.reshape(b, n, n, n)  # [m, i, a, c]
        diff -= d.transpose(0, 2, 1, 3)
        del d
        if np.iscomplexobj(diff):
            diff = diff.real**2 + diff.imag**2
        else:
            np.square(diff, out=diff)
        for row in diff.sum(axis=(2, 3)):  # m in order
            sq += row
    return float(np.sqrt(sq.max()))


def _pentagon_defect_factored(qg, gd, legs: LegFactors) -> tuple[float, float]:
    """The pentagon defect of V = sum_k F_k (x) g_k, at n^5 (n^3 memory).

    V12 V13 = sum_pm F_p F_m (x) g_p (x) g_m.  When V implements Delta,
    V23 V12 V23^* = sum_k F_k (x) (pi (x) pi)Delta(g_k), which is
    sum_pm (sum_k D[k, p, m] F_k) (x) g_p (x) g_m with
    D[k, p, m] = sum_ijl c[k, i] comult[i, j, l] r[j, p] r[l, m], where
    pi(e_j) = sum_p r[j, p] g_p (``GnsData._hs_frame``) and c = r^-1.  The
    g_p (x) g_m are orthonormal and V23 is unitary, so ||V12 V13 V23 -
    V23 V12|| is the norm of the n^2 matrices F_p F_m - sum_k D[k, p, m]
    F_k: per p, two GEMMs of n^4 flops.  D takes n^4 (one product per
    leg, :func:`_transport`).  Returns (value, weight), weight =
    sum_k ||F_k|| sum_i |c[k, i]|, the factor that carries the coproduct
    defect into the bound of :func:`_pentagon_defect`.
    """
    n = qg.dim
    f = legs.factors  # f[k, a, c]
    r = gd._hs_frame[1]
    c = np.linalg.inv(r)
    d = _transport(qg.comult, c, r.T, r.T).transpose(1, 2, 0)
    # both terms as transposes, [(m, c), a], so neither needs a copy per p
    f_t = np.ascontiguousarray(f.transpose(0, 2, 1))  # F_m^T: [m, c, a]
    sq = 0.0
    for p in range(n):
        prods = f_t.reshape(n * n, n) @ f[p].T  # (F_p F_m)^T
        sq += frobenius(prods - (d[p] @ f_t.reshape(n, n * n)).reshape(n * n, n)) ** 2
    weight = float(np.linalg.norm(f.reshape(n, n * n), axis=1) @ np.abs(c).sum(axis=1))
    return math.sqrt(sq), weight


def _pentagon_defect(qg, gd, v, legs: LegFactors, udef, cdef) -> float:
    """The pentagon defect that :func:`multiplicative_unitary` reports.

    On exact slices of a V that passes the unitarity and coproduct checks,
    an upper bound of the dense value from the factored one (n^5);
    otherwise :func:`pentagon_defect` (dense n^8 up to n = 12, sampled
    above).  The factored value evaluates V' = sum_k F_k (x) g_k as if V'
    were unitary and implemented Delta exactly.  With s = sqrt(1 + udef)
    + remainder, a bound of ||V|| and ||V'||, u = udef + 2 s remainder, a
    bound of ||V'^* V' - 1||, and the Frobenius norm of a one- or two-leg
    operator on H (x) H (x) H being sqrt(n) times its own, the dense
    defect of V' is at most s (value + weight cdef) + s^2 sqrt(n) u, and
    V - V' moves it by at most sqrt(n) remainder (3 s^2 + 2 s).  Rounding
    in the slicing and in the bases aside, the result is never below the
    dense value.  The factored path needs udef and cdef within ``qg.tol``.
    """
    if not (legs.exact and udef <= qg.tol and cdef <= qg.tol):
        return pentagon_defect(v)
    value, weight = _pentagon_defect_factored(qg, gd, legs)
    rem = legs.remainder
    s = math.sqrt(1.0 + udef) + rem
    u = udef + 2.0 * s * rem
    return s * (value + weight * cdef) + math.sqrt(qg.dim) * (s * s * u + rem * (3 * s * s + 2 * s))


def _coproduct_defect_dense(qg, gd, v) -> float:
    """The coproduct defect by one n^2 x n^2 GEMM with V^* per e_i (n^7).

    V (pi(e_i) (x) 1) contracts pi(e_i) into V's first input leg (n^5, no
    n^2 x n^2 Kronecker factor).
    """
    n = qg.dim
    v = np.asarray(v)
    vh = v.conj().T
    v_legs = v.reshape(n * n, n, n)  # [(a, b), c, d]
    reg_flat = gd.left_reg.reshape(n, n * n)
    worst = 0.0
    for i in range(n):
        pairs = reg_flat.T @ (qg.comult[i] @ reg_flat)  # [(a,b), (c,d)]
        conj_rep = (gd.left_reg[i].T @ v_legs).reshape(n * n, n * n) @ vh
        diff = conj_rep.reshape(n, n, n, n)
        diff -= pairs.reshape(n, n, n, n).transpose(0, 2, 1, 3)
        worst = max(worst, frobenius(diff))
    return worst


def multiplicative_unitary(qg: FiniteQuantumGroup, gd: GnsData | None = None) -> MultUnitary:
    """Construct V and verify unitarity, the pentagon identity and
    Delta(a) = V (a (x) 1) V^*, each within ``qg.tol``.

    ``qg.tol`` is the one tolerance of these checks; the CLI sets it from
    ``--tol`` for builtin and JSON inputs alike.

    V = (U (x) U) T (W (x) W) with U = onb_inv, W = onb and T the matrix of
    Lambda(e_i) (x) Lambda(e_j) -> Delta(e_i)(1 (x) e_j).  Each one-leg
    factor is folded into the structure tensor that carries the leg
    (:func:`_transport`, n^4 each), which leaves one n^5 contraction over
    the index shared by the coproduct and the product: a batched matmul of
    n^2 n x n products that writes each block of V in place, so V is built
    in n^5 with no transposed n^4 copy.  V is then sliced against a basis of
    pi(A) once (n^5; kept on the result as ``legs``), and the checks cost
    n^6 in all at every n.  Only two products are n^6: the one n^2 x n^2
    product of the unitarity test and the coproduct identity on the slices
    (blocked GEMMs, :func:`_coproduct_defect_factored`); the pentagon is
    checked on the slices at n^5 (:func:`_pentagon_defect_factored`, plus an
    explicit bound of what it drops, so the reported value is never below
    the dense one).  The dense checks are fallbacks: slices that do not
    describe V send the coproduct to its n^7 loop, and those, or a V that
    fails the unitarity or coproduct test, send the pentagon to
    :func:`pentagon_defect` (dense n^8 up to n = 12, sampled above, where it
    is only a lower bound).  A valid input in a badly conditioned basis can
    take them too, when rounding in V leaves a slicing remainder above the
    cutoff of ``LegFactors.exact``.  The three defects are kept on the
    result as ``defects``.  V has the result type of ``gd`` and the
    structure tensors, so for real inputs V, its slices and every check run
    in real BLAS, with the same exponents.

    Memory, in units of n^4 entries: besides V (1), the slicing holds two
    blocks of 1/4 and the structure constants of pi(A) two more, both
    freed before the workspace is made.  That one per-call workspace of
    1 + 3 b / n (1.375 for n >= 8, blocks of b = max(1, n // 8)),
    allocated as one array, takes in turn the unitarity product and
    pi(e_i) F_l^* with the coproduct's blocks, which are never alive
    together; the peak is V plus the workspace.  glibc raises its trim
    threshold to twice the largest block it has returned to the system,
    so in a process with no larger allocation V and the workspace stay on
    the heap from the second call on instead of being faulted in again.

    A failure of unitarity or the pentagon signals that the supplied Haar
    functional is not right invariant; the defect is surfaced, never
    repaired automatically (for an h that is merely left invariant the
    correct repair — swapping legs versus flipping the coproduct — is not
    determined by the axioms alone).
    """
    gd = gns(qg) if gd is None else gd
    n = qg.dim
    # V[a, b, c, d] = sum_r left[a, c, r] right[b, r, d]: the (c, d) block
    # of each (a, b) is one n x n product, written straight into V
    left = _transport(qg.comult, gd.onb.T, gd.onb_inv).transpose(1, 0, 2)
    right = _transport(qg.mult, second=gd.onb.T, third=gd.onb_inv).transpose(2, 0, 1)
    left, right = np.ascontiguousarray(left), np.ascontiguousarray(right)
    v = np.matmul(left[:, None], right[None]).reshape(n * n, n * n)
    legs = second_leg_factors(gd, v)
    # the unitarity product, then pi(e_i) F_l^* and the coproduct blocks,
    # are never alive together: they share one block, made after the
    # slicing's own blocks are gone
    work = _workspace(n, max(1, n // 8), 3, np.result_type(v, gd.left_reg, qg.comult))
    udef = unitarity_defect(v, work[0])
    cdef = _coproduct_defect(qg, gd, v, legs, work)
    del work
    pdef = _pentagon_defect(qg, gd, v, legs, udef, cdef)
    if udef > qg.tol or pdef > qg.tol:
        raise QuantumGroupError(
            "right-invariance defect: V is not a multiplicative unitary "
            f"(unitarity {udef:.2e}, pentagon {pdef:.2e}); the Haar functional "
            "is not bi-invariant"
        )
    if cdef > qg.tol:
        raise QuantumGroupError(
            f"V does not implement the coproduct (defect {cdef:.2e})"
        )
    v.setflags(write=False)
    defects = {"unitarity": udef, "pentagon": pdef, "coproduct": cdef}
    return MultUnitary(v=v, legs=legs, defects=defects)

