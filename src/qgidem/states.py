"""States and the convolution algebra of a finite quantum group.

A functional is a coefficient vector ``w`` with ``omega(e_i) = w[i]``;
convolution is ``(omega * nu)(a) = (omega (x) nu) Delta(a)``.  ``State``
wraps a coefficient vector together with its parent quantum group; whether
the vector actually is a state (positive, normalized) is checked by
:func:`is_state`, not enforced at construction, because several operations
legitimately produce non-state functionals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import CayleyTable, is_subgroup
from .core import (
    FiniteQuantumGroup,
    GnsData,
    InternalConsistencyError,
    _real_matmul,
    _stored,
    gns,
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
    """(omega * nu)(e_i) = sum_{j,k} comult[i,j,k] omega(e_j) nu(e_k)."""
    return np.einsum("ijk,j,k->i", qg.comult, as_coeffs(w), as_coeffs(v))


def left_slice(qg: FiniteQuantumGroup, w) -> np.ndarray:
    """Matrix of L_omega = (omega (x) id) Delta on A-coordinates."""
    return np.einsum("ijk,j->ki", qg.comult, as_coeffs(w))


def right_slice(qg: FiniteQuantumGroup, w) -> np.ndarray:
    """Matrix of R_omega = (id (x) omega) Delta on A-coordinates."""
    return np.einsum("ijk,k->ji", qg.comult, as_coeffs(w))


def _state_mask(qg: FiniteQuantumGroup, ws, tol: float, idempotent: bool) -> np.ndarray:
    """Which rows of ``ws`` are states (idempotent states with ``idempotent``).

    A row passes when it is normalized at the unit, its Gram matrix is
    Hermitian and its smallest eigenvalue is >= -tol, each within ``tol``;
    with ``idempotent`` also ``max |w * w - w| <= tol``.  Rows are tested in
    blocks of :func:`_blocks`, at ``n^3`` per row for the Gram and its
    eigenvalues.
    """
    ok = np.empty(len(ws), dtype=bool)
    for sl in _blocks(len(ws), qg.dim):
        w = ws[sl]
        good = ok[sl]  # a view: clearing a row of good clears it in ok
        good[:] = np.abs(_rows(qg.unit[None], w)[:, 0] - 1.0) <= tol
        if idempotent:
            good &= np.abs(_square(qg.comult, w) - w).max(axis=-1) <= tol
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

    omega(e_i) = sum_{p,q} (a^*)_p h(e_p e_i e_q) a_q against the cached
    Haar triple product, ``n^3`` per row.
    """
    a = np.asarray(a)
    n = qg.dim
    rows = a.reshape(-1, n)
    a_star = _real_matmul(qg.star, np.conj(rows).T)  # [p, row]
    triple = np.ascontiguousarray(_real_matmul(qg._haar_triple.T, a_star).T)
    w = _rows(triple.reshape(-1, n, n), rows).reshape(a.shape)
    return w / (w @ qg.unit)[..., None]


def random_state(qg: FiniteQuantumGroup, rng) -> State:
    """A random state omega(x) = h(a^* x a) / h(a^* a), a Gaussian."""
    a = rng.standard_normal(qg.dim) + 1j * rng.standard_normal(qg.dim)
    return State(qg, _vector_state(qg, a))


# -- idempotent solver --------------------------------------------------


# fixed solver settings, described in solve_idempotents and _solver_starts
_POLISH_TOL = 1e-13
_NEWTON_TOL = 1e-10
_DEDUP_TOL = 1e-7
_MAX_ITER = 80
_PERTURBATION = 1.2


@dataclass(frozen=True)
class SolveConfig:
    """Multi-start Newton budget for the idempotent equation: ``starts``
    caps the number of starts (:func:`_solver_starts`) and ``seed`` seeds
    their random mixtures."""

    starts: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class _Chart:
    """Real affine chart of the hermitian, antipode-invariant functionals
    with omega(1) = 1, in the coordinates of a basis b_k of self-adjoint
    elements (b-coordinates): ``w_b = w_p + z t`` with t real.

    ``d`` is the coproduct tensor in b-coordinates, real because Delta is a
    *-homomorphism; ``to_b`` is the matrix T whose columns are the b_k
    (``w_b = Re(w T)`` for a functional w in input coordinates), and a chart
    point goes back as ``w = w_in + (w_b - w_p) back``.
    """

    d: np.ndarray
    w_p: np.ndarray
    z: np.ndarray
    to_b: np.ndarray
    w_in: np.ndarray
    back: np.ndarray

    def coords(self, ws) -> np.ndarray:
        """Chart coordinates t of the orthogonal projection of each row of
        ws (input coordinates) after taking its hermitian part."""
        w_b = _rows(self.to_b.T, ws).real
        return _rows(self.z.T, w_b - self.w_p)

    def functionals(self, w_b) -> np.ndarray:
        """Input coordinates of the chart points w_b (rows)."""
        return self.w_in + _rows(self.back.T, w_b - self.w_p)


def _real_part_if_rounding(x) -> np.ndarray:
    """x as float64 when its imaginary part is rounding (at most ``1e-13``
    of its largest entry), else as it is."""
    if np.iscomplexobj(x) and np.abs(x.imag).max() <= 1e-13 * np.abs(x).max():
        return np.ascontiguousarray(x.real)
    return x


def _constraint_chart(qg: FiniteQuantumGroup, gd: GnsData) -> _Chart:
    """The real affine chart {omega hermitian, omega S = omega, omega(1) = 1}.

    The self-adjoint elements x + iy are the +1 eigenspace of the realified
    star map ``[[Re *, Im *], [Im *, -Re *]]``, a real space of dimension
    exactly n (star is an antilinear involution).  The Haar state is a
    trace, so in GNS-orthonormal coordinates that map is a symmetric
    orthogonal involution, and an eigh with eigenvalues +-1 gives the
    eigenspace without a rank cutoff; a QR of its realified image in the
    coordinates of A gives the basis b_k, orthonormal there.  A functional
    is hermitian iff it is real on every b_k, and the antipode, which
    commutes with the star, is a real involution S' there; the
    antipode-invariant functionals are its +1 eigenspace, of dimension
    exactly ``r = (n + tr S) / 2``, so the top r left singular vectors of
    ``(1 + S'^T) / 2`` span it, again without a cutoff.  The chart is the
    affine plane of that space at the counit cut out by omega(1) = 1, with
    ``m = r - 1`` orthonormal directions z.  Building it costs ``n^4`` for
    d, as stacks of ``n x n`` products, which stay off BLAS's threaded
    path, and ``n^3`` for the rest.
    """
    n = qg.dim
    u = gd.onb_inv @ qg.star @ np.conj(gd.onb)
    realified = np.block([[u.real, u.imag], [u.imag, -u.real]])
    x = np.linalg.eigh((realified + realified.T) / 2)[1][:, n:]
    sa = gd.onb @ (x[:n] + 1j * x[n:])
    q = np.linalg.qr(np.concatenate([sa.real, sa.imag]))[0]
    t = _stored(q[:n] + 1j * q[n:])
    t_inv = np.linalg.inv(t)
    # d[i, j, k] = sum_pqr t[p, i] comult[p, q, r] t_inv[j, q] t_inv[k, r]
    d = np.matmul(t.T, qg.comult.transpose(1, 0, 2))  # [q, i, r]
    d = np.matmul(d, t_inv.T)  # [q, i, k]
    d = np.matmul(t_inv, d.transpose(1, 0, 2))  # [i, j, k]
    s_b = (t_inv @ qg.antipode @ t).real
    r = int(round((n + np.trace(s_b)) / 2))
    plus = np.linalg.svd((np.eye(n) + s_b.T) / 2, full_matrices=True)[0][:, :r]
    unit_b = (t_inv @ qg.unit).real
    z = plus @ np.linalg.svd((unit_b @ plus)[None, :], full_matrices=True)[2][1:].T
    w_p = (qg.counit @ t).real
    w_in = _real_part_if_rounding(w_p @ t_inv)
    back = _real_part_if_rounding(z @ (z.T @ t_inv))
    return _Chart(np.ascontiguousarray(d.real), w_p, np.ascontiguousarray(z), t, w_in, back)


def _cesaro_probe(qg, ws):
    """Extrapolated Cesaro means of convolution powers of each row of ws.

    Cesaro means approach an idempotent state at rate O(1/k); the
    Richardson combination 2 nu_{2k} - nu_k, here at k = 32, removes the
    1/k term, leaving a point exponentially close to an idempotent, which
    makes an excellent Newton start.  The step matrices nu -> nu * w are
    stacked, so the 2k - 1 powers are stacked mat-vecs (``n^3`` per row to
    build the step, ``n^2`` per power).
    """
    n, k = qg.dim, 32
    steps = _real_matmul(qg.comult.reshape(n * n, n), ws.T).T
    steps = np.ascontiguousarray(steps).reshape(-1, n, n)
    power = ws[..., None].copy()
    acc = ws.copy()
    nu_k = None
    for j in range(2, 2 * k + 1):
        power = steps @ power
        acc += power[..., 0]
        if j == k:
            nu_k = acc / j
    return 2.0 * (acc / (2 * k)) - nu_k


def _generated_supports(qg, combos) -> np.ndarray:
    """Boolean masks of basis indices reached by powers of sum(e_i, i in c),
    one row per index tuple c of combos.

    For a group algebra this is the subgroup generated by the chosen group
    elements; for a function algebra it is the chosen point set itself.
    Each row runs its own power iteration, at most n normalised powers,
    stacked over the rows still running in blocks of :func:`_blocks`: a row
    stops when a power vanishes (peak below ``1e-12``), or when its mask
    covers every index or stops growing.
    """
    n = qg.dim
    s = np.zeros((len(combos), n))
    for row, combo in enumerate(combos):
        s[row, list(combo)] = 1.0
    mask = np.abs(s) > 1e-9
    for sl in _blocks(len(s), n):
        times_s = qg.right_mult_matrix(s[sl])
        block = mask[sl]  # a view: setting a row of block sets it in mask
        live, cur = np.arange(len(block)), s[sl]
        for _ in range(n):
            cur = _rows(times_s[live], cur)
            peak = np.abs(cur).max(axis=-1)
            nonzero = peak >= 1e-12
            live, cur = live[nonzero], cur[nonzero] / peak[nonzero, None]
            new = block[live] | (np.abs(cur) > 1e-9)
            grew = ~(new.all(axis=-1) | (new == block[live]).all(axis=-1))
            block[live] = new
            live, cur = live[grew], cur[grew]
            if not live.size:
                break
    return mask


def _haar_scale(qg) -> np.ndarray:
    """Haar norm of each basis element over the smallest one,
    ``sqrt(h(e_i^* e_i) / min_j h(e_j^* e_j))``; 1 on a basis of equal norms."""
    d = np.diag(qg.haar_gram).real
    return np.sqrt(d / d.min())


def _solver_starts(qg, cfg, chart, gd):
    """Initial points for the multi-start Newton solve: at most
    ``max(2, cfg.starts)`` rows, in this order.

    - the counit and the Haar state;
    - the probes: each distinct generated support (:func:`_generated_supports`)
      of a single basis element or a pair, in that order, weighted by
      ``1 / _haar_scale``, made a vector state and pushed toward the
      idempotent set by Cesaro extrapolation, in blocks of :func:`_blocks`;
    - random simplex mixtures of the GNS-diagonal vector states plus a
      complex Gaussian of random scale up to ``_PERTURBATION``.

    Of the ``rest = starts - 2`` rows the mixtures take
    ``(rest - min(c, rest // 2) + 1) // 2``, with ``c`` the number of
    singles and pairs, and the probes at most the remainder.  Equal weights
    in Haar norm matter: the Cesaro limit of such a probe keeps exactly the
    coefficients that sit at the extreme value 1, and those form the
    state's multiplicative-domain subgroup.  Each start is returned as the
    real coordinates t of its point on ``chart`` (:meth:`_Chart.coords`):
    the real part of its coordinates in the self-adjoint basis (its
    hermitian part), projected orthogonally onto the antipode-invariant
    plane.  The counit and the Haar state lie on the chart and keep their
    place.
    """
    n = qg.dim
    rng = np.random.default_rng(cfg.seed)
    diag_states = np.einsum("jkk->jk", gd.left_reg)  # column i: psi_i(e_j)
    w_u = np.conj(qg.unit) / np.vdot(qg.unit, qg.unit).real
    eps = qg.counit

    def normalized(w):
        return w + (1.0 - w @ qg.unit)[..., None] * w_u

    combos = [(i,) for i in range(n)]
    combos += [(i, j) for i in range(n) for j in range(i + 1, n)]
    rest = max(0, cfg.starts - 2)
    n_random = (rest - min(len(combos), rest // 2) + 1) // 2
    masks = _generated_supports(qg, combos[: rest - n_random])
    _, first = np.unique(masks, axis=0, return_index=True)
    probes = (masks[np.sort(first)] / _haar_scale(qg)).astype(np.complex128)
    for sl in _blocks(len(probes), n):
        mu = _vector_state(qg, probes[sl])
        probes[sl] = normalized(_cesaro_probe(qg, 0.5 * (mu + eps)))
    p = rng.dirichlet(np.ones(n), size=n_random)
    sigma = rng.uniform(0.0, _PERTURBATION, size=(n_random, 1))
    noise = rng.standard_normal((n_random, n)) + 1j * rng.standard_normal((n_random, n))
    mixtures = normalized(p @ diag_states.T + sigma * noise)
    seeds = np.concatenate([eps[None], qg.haar[None], probes, mixtures])
    return chart.coords(seeds)


def _blocks(count: int, n: int) -> list[slice]:
    """Slices covering range(count) in blocks of max(1, 2**13 // n**2) rows.

    A block's largest intermediate (Gram matrices, Cesaro step matrices,
    Jacobians) holds about 2**13 complex numbers whatever n is.
    """
    size = max(1, 2**13 // (n * n))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def _rows(matrix, ws) -> np.ndarray:
    """matrix @ w for each row w of ws, as one mat-vec per row.

    A stacked mat-vec gives each row the same bits whatever the batch holds,
    which a single matrix product over all rows does not.
    """
    return _real_matmul(matrix, ws[..., None])[..., 0]


def _square(d, ws) -> np.ndarray:
    """sum_{j,k} d[i, j, k] w_j w_k for each row w of ws (``n^3`` per row)."""
    n = d.shape[0]
    dw = _rows(d.reshape(n * n, n), ws).reshape(ws.shape[:-1] + (n, n))
    return _rows(dw, ws)


def _newton_polish_batch(d, w_p, z, t0):
    """Polish each start of the idempotent system on the normalization chart.

    Unknown: t with w = w_p + z t.  Residual: F(w) = conv(w, w) - w where
    conv is the bilinear map with coefficients d.  The iteration is the one
    described in :func:`solve_idempotents`, run on the starts of one block
    of :func:`_blocks` at a time over the set of live starts: each live
    start takes one full Gauss-Newton step per iteration, and leaves the
    live set when ``max |F| <= _POLISH_TOL``; the rest stop after
    ``_MAX_ITER`` iterations.  The shift keeps the normal matrix positive
    definite, so its one stacked solve over the live starts never meets a
    singular matrix, not even at a zero Jacobian.  The Jacobian
    ``(sum_k (d[i,j,k] + d[i,k,j]) w_k - delta_ij) z`` comes from one
    precontracted ``(n m, n)`` matrix.  Per start and iteration the cost is
    ``n^2 m`` for the Jacobian, ``n m^2`` for the normal equations, one
    ``2 m^3 / 3`` LU solve of the shifted system, and ``n^3`` for the
    residual.  Each start is polished on its own bits, so equal starts give
    equal results; the solver passes only distinct starts.  Returns
    (solutions w, in the result type of w_p, z and t0, sup-norm residuals).
    """
    n = d.shape[0]
    m = z.shape[1]
    batch = t0.shape[0]
    eye = np.eye(m)
    # jac[i*m + a, k] = sum_j (d[i,j,k] + d[i,k,j]) z[j, a]
    jac = z.T @ d
    jac += (d @ z).swapaxes(-1, -2)
    jac = jac.reshape(n * m, n)

    out_w = np.empty((batch, n), dtype=np.result_type(w_p, z, t0))
    out_res = np.empty(batch)
    for sl in _blocks(batch, n):
        t = t0[sl].copy()
        w = w_p + _rows(z, t)
        f = _square(d, w) - w
        live = np.arange(len(t))
        for _ in range(_MAX_ITER if m else 0):
            live = live[np.abs(f[live]).max(axis=-1) > _POLISH_TOL]
            if not live.size:
                break
            j = _rows(jac, w[live]).reshape(-1, n, m) - z
            jh = np.conj(j.swapaxes(-1, -2))
            a = jh @ j
            rhs = -(jh @ f[live][..., None])
            lam = 1e-12 * (1.0 + np.trace(a, axis1=-2, axis2=-1).real / m)
            t[live] += np.linalg.solve(a + lam[:, None, None] * eye, rhs)[..., 0]
            w[live] = w_p + _rows(z, t[live])
            f[live] = _square(d, w[live]) - w[live]
        out_w[sl] = w
        out_res[sl] = np.abs(f).max(axis=-1)
    return out_w, out_res


def solve_idempotents(
    qg: FiniteQuantumGroup, cfg: SolveConfig | None = None
) -> list[State]:
    """Find idempotent states by multi-start Gauss-Newton.

    Idempotent states are hermitian and antipode-invariant (omega S =
    omega: their densities are group-like projections p of the dual, and
    applying m(S (x) id) to Delta(p)(1 (x) p) = p (x) p gives S(p) = p).
    So the quadratic system {omega * omega - omega = 0, omega(1) = 1} is
    solved as a real system on the affine chart of those functionals
    (:func:`_constraint_chart`): ``w_b = w_p + z t`` in the coordinates of a
    basis of self-adjoint elements, with ``m = (n + tr S) / 2 - 1`` real
    unknowns t against a real coproduct tensor.  Each distinct start is
    polished once by Gauss-Newton (equal starts give equal results): per
    iteration the normal equations J^T J delta = -J^T F are
    Levenberg-regularised with the shift ``1e-12 (1 + tr(J^T J) / m)`` and
    solved once, and the full step t + delta is taken.  Polishing stops at
    a residual of ``_POLISH_TOL`` (``1e-13``) or after ``_MAX_ITER``
    iterations (at once when ``m = 0``); solutions with a residual above
    ``_NEWTON_TOL`` are discarded, the rest are read back in the basis of A
    and filtered and snapped onto the state face by
    :func:`_idempotent_states`, whose positivity test in
    GNS-orthonormal coordinates does not depend on the basis of A (the
    chart also holds signed idempotent measures).  The states are then
    deduplicated at ``_DEDUP_TOL`` (sup norm of ``w / _haar_scale``) in the
    order of :func:`canonical_order`, and each passes the state test at
    ``1e-9`` once more as ``State`` stores it.  Deterministic for a fixed
    seed.  The counit and the Haar state are starts, returned only when
    they pass the state test: on an input that is valid only at a looser
    ``tol`` the result may be empty.  No completeness claim is made for a
    general quantum group (the CLI reports findings as "found").

    Starts, Newton polish and state test each run as array operations on
    blocks of ``max(1, 2**13 // n**2)`` starts, so the working set stays
    near 2**13 complex numbers.  The chart costs ``n^4`` once.  Per
    distinct start the cost is ``n^3`` for the probe and its Cesaro warm-up
    (once per distinct probe mask); per Newton iteration, in real flops,
    ``2 n^2 m`` for the Jacobian, ``2 n m^2`` for the normal equations,
    ``2 m^3 / 3`` for the LU solve and ``2 n^3`` for the residual (on S4,
    with ``m = 16``, about 61k flops per iteration, against 250k to 350k
    over all complex functionals with ``n - 1`` complex unknowns); per
    candidate one Gram, one ``n x n`` eigh and two state tests (``n^3``
    each); the dedup costs one ``n``-wide distance pass over the states per
    state kept.
    """
    cfg = SolveConfig() if cfg is None else cfg
    gd = gns(qg)
    chart = _constraint_chart(qg, gd)
    t0 = _solver_starts(qg, cfg, chart, gd)
    # each distinct start once, in the order of first appearance, which the
    # stable canonical order below keeps among near-equal solutions
    _, first = np.unique(t0, axis=0, return_index=True)
    t0 = t0[np.sort(first)]
    solutions, residuals = _newton_polish_batch(chart.d, chart.w_p, chart.z, t0)
    candidates = chart.functionals(solutions[residuals <= _NEWTON_TOL])
    states = _idempotent_states(qg, gd, candidates)
    states = states[canonical_order(states)]
    # distance in units of each basis element's Haar norm
    states = states[_distinct_rows(states / _haar_scale(qg), _DEDUP_TOL)]
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


def _distinct_rows(ws, tol: float) -> np.ndarray:
    """Indices of the rows of ws kept in order, each row dropped when within
    ``tol`` (sup norm) of one kept before it: one distance pass per kept row."""
    alive = np.ones(len(ws), dtype=bool)
    for i in range(len(ws)):
        if alive[i]:
            alive[i + 1 :] &= np.abs(ws[i + 1 :] - ws[i]).max(axis=-1) > tol
    return np.flatnonzero(alive)


def _snap_block(qg: FiniteQuantumGroup, gd: GnsData, ws, max_move: float):
    """(positive, snapped): for each row of ws, whether its Gram matrix in
    GNS-orthonormal coordinates has no eigenvalue below ``-1e-9`` times the
    largest, and the row moved onto the face of states that Gram spans.

    The Gram is taken as omega(f_k^* f_l) for an orthonormal basis f of
    L^2(h), whose spectrum does not depend on the basis of A.  Its
    Hermitian part loses the eigenvalues below ``1e-8`` times the largest,
    the Gram matrix G[i, j] = omega(e_i^* e_j) is rebuilt from it, omega is
    read back as omega(e_j) = sum_i conj(1_i) G[i, j] (the unit is
    sum_i 1_i e_i) and renormalised at the unit.  A row takes the snapped
    value only when that moved it by at most ``max_move`` (sup norm) and is
    still an idempotent state at ``1e-9``; otherwise it is kept as it was.
    One ``n x n`` eigh per row serves both.
    """
    # G = onb_inv^* G' onb_inv, so conj(1) G = conj(Lambda(1)) G' onb_inv
    unit_h = np.conj(gd.vector(qg.unit))
    g = np.conj(gd.onb.T) @ qg.functional_gram(ws) @ gd.onb
    g = (g + np.conj(g.swapaxes(-1, -2))) / 2
    vals, vecs = np.linalg.eigh(g)
    positive = vals[:, 0] >= -1e-9 * vals[:, -1]
    vals = np.where(vals >= 1e-8 * vals[..., -1:], vals, 0.0)
    g = (vecs * vals[..., None, :]) @ np.conj(vecs.swapaxes(-1, -2))
    w = (unit_h @ g) @ gd.onb_inv
    with np.errstate(divide="ignore", invalid="ignore"):
        w = w / (w @ qg.unit)[..., None]
    out = np.array(ws, dtype=w.dtype)
    keep = np.flatnonzero(np.abs(w - out).max(axis=-1) <= max_move)
    keep = keep[_state_mask(qg, w[keep], 1e-9, idempotent=True)]
    out[keep] = w[keep]
    return positive, out


def _idempotent_states(qg: FiniteQuantumGroup, gd: GnsData, ws) -> np.ndarray:
    """The rows of ws that are idempotent states, each snapped onto its face.

    A row must pass :func:`_state_mask` at ``1e-9`` in the basis of A and
    the positivity test of :func:`_snap_block` in GNS-orthonormal
    coordinates, which does not depend on the basis of A: a signed
    idempotent measure such as chi 1_H / |H|, with chi a real character of
    H, passes the first once a basis vector is scaled by 1e5.  A passing row
    is snapped with a move of at most ``_DEDUP_TOL``: Newton can stop on an
    idempotent functional a little off the state face, with a Gram
    eigenvalue of ~1e-10 where 0 is meant, which the later null-space
    cutoff would read as a nonzero direction.  In blocks of
    :func:`_blocks`, at one Gram, one ``n x n`` eigh and two state tests
    per row.
    """
    out = []
    for sl in _blocks(len(ws), qg.dim):
        w = ws[sl][_state_mask(qg, ws[sl], 1e-9, idempotent=True)]
        positive, snapped = _snap_block(qg, gd, w, _DEDUP_TOL)
        out.append(snapped[positive])
    return np.concatenate(out) if out else np.array(ws)


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
    step = _rows(qg.comult.reshape(-1, qg.dim), w).reshape(qg.dim, qg.dim)
    means = np.empty((n, qg.dim), dtype=np.result_type(step, w))
    means[0] = power = w
    for k in range(1, n):
        power = step @ power
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
