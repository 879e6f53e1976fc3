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
from scipy.linalg import cho_solve

from .cayley import CayleyTable, is_subgroup
from .core import (
    FiniteQuantumGroup,
    InternalConsistencyError,
    gns,
)


def as_coeffs(x) -> np.ndarray:
    """Coefficient vector of a State or a bare array."""
    if isinstance(x, State):
        return x.coeffs
    return np.asarray(x, dtype=np.complex128)


@dataclass(frozen=True)
class State:
    """A functional on a quantum group, tagged with its parent."""

    qg: FiniteQuantumGroup
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.qg.dim,):
            raise ValueError(f"coefficients must have shape ({self.qg.dim},)")
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def value(self, a) -> complex:
        return complex(np.dot(self.coeffs, a))

    def gram(self) -> np.ndarray:
        return self.qg.functional_gram(self.coeffs)

    def convolve(self, other: "State") -> "State":
        if other.qg is not self.qg:
            raise ValueError("convolution requires the same parent quantum group")
        return State(self.qg, convolve(self.qg, self.coeffs, other.coeffs))

    def right_shift(self, b) -> "State":
        """The functional a -> omega(a b)."""
        w = np.einsum("ijk,j,k->i", self.qg.mult, np.asarray(b), self.coeffs)
        return State(self.qg, w)

    def left_shift(self, b) -> "State":
        """The functional a -> omega(b a)."""
        w = np.einsum("jik,j,k->i", self.qg.mult, np.asarray(b), self.coeffs)
        return State(self.qg, w)

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


def is_state(qg: FiniteQuantumGroup, w, tol: float = 1e-9) -> bool:
    """Normalized at the unit, with a Hermitian positive semidefinite Gram
    matrix (smallest eigenvalue >= -tol)."""
    w = as_coeffs(w)
    if abs(np.dot(w, qg.unit) - 1.0) > tol:
        return False
    g = qg.functional_gram(w)
    if np.abs(g - g.conj().T).max() > tol:
        return False
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2).min()) >= -tol


def is_idempotent(qg: FiniteQuantumGroup, w, tol: float = 1e-9) -> bool:
    w = as_coeffs(w)
    defect = np.abs(convolve(qg, w, w) - w).max()
    return bool(defect <= tol) and is_state(qg, w, tol)


def idempotency_defect(qg: FiniteQuantumGroup, w) -> float:
    w = as_coeffs(w)
    return float(np.abs(convolve(qg, w, w) - w).max())


def subgroup_state_fn(qg: FiniteQuantumGroup, ct: CayleyTable, subset) -> State:
    """Uniform probability measure on a subgroup, as a state on the
    function algebra of ct."""
    members = sorted(set(int(x) for x in subset))
    if not is_subgroup(ct, members):
        raise ValueError(f"{members} is not a subgroup")
    w = np.zeros(qg.dim, dtype=np.complex128)
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
    w = np.zeros(qg.dim, dtype=np.complex128)
    w[members] = 1.0
    return State(qg, w)


def _vector_state(qg: FiniteQuantumGroup, a) -> np.ndarray:
    """Coefficients of omega(x) = h(a^* x a) / h(a^* a)."""
    a = np.asarray(a, dtype=np.complex128)
    a_star = qg.star_vec(a)
    # omega(e_i) = sum_{p,q,k,l} astar_p m[p,i,k] a_q m[k,q,l] h[l]
    w = np.einsum(
        "p,pik,q,kql,l->i", a_star, qg.mult, a, qg.mult, qg.haar, optimize=True
    )
    return w / np.dot(w, qg.unit)


def random_state(qg: FiniteQuantumGroup, rng) -> State:
    """A random state omega(x) = h(a^* x a) / h(a^* a), a Gaussian."""
    a = rng.standard_normal(qg.dim) + 1j * rng.standard_normal(qg.dim)
    return State(qg, _vector_state(qg, a))


# -- idempotent solver --------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    """Multi-start Newton configuration for the idempotent equation."""

    starts: int = 500
    seed: int = 0
    newton_tol: float = 1e-10
    dedup_tol: float = 1e-7
    max_iter: int = 80
    perturbation: float = 1.2

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.newton_tol > 0 and self.dedup_tol > 0):
            raise ValueError("tolerances must be positive")


def _constraint_chart(qg):
    """Affine chart of {omega(1) = 1}: w = w_p + z t with z an orthonormal
    basis of the null space of the unit pairing."""
    u = qg.unit
    w_p = qg.counit.copy()  # counit is unital, a convenient base point
    _, _, vh = np.linalg.svd(u[None, :])
    z = vh[1:].conj().T if qg.dim > 1 else np.zeros((1, 0), dtype=np.complex128)
    return w_p, np.ascontiguousarray(z)


def _cesaro_probe(qg, step_of, w, k: int = 32):
    """Extrapolated Cesaro mean of convolution powers of a state.

    Cesaro means approach an idempotent state at rate O(1/k); the
    Richardson combination 2 nu_{2k} - nu_k removes the 1/k term, leaving
    a point exponentially close to an idempotent, which makes an excellent
    Newton start.
    """
    step = step_of(w)
    power = w.copy()
    acc = w.copy()
    nu_k = None
    for j in range(2, 2 * k + 1):
        power = step @ power
        acc += power
        if j == k:
            nu_k = acc / j
    return 2.0 * (acc / (2 * k)) - nu_k


def _generated_support(qg, idxs) -> np.ndarray:
    """Boolean mask of basis indices reached by powers of sum(e_i, i in idxs).

    For a group algebra this is the subgroup generated by the chosen group
    elements; for a function algebra it is the chosen point set itself.
    """
    n = qg.dim
    s = np.zeros(n, dtype=np.complex128)
    s[list(idxs)] = 1.0
    mask = np.abs(s) > 1e-9
    cur = s.copy()
    for _ in range(n):
        cur = qg.multiply(cur, s)
        peak = np.abs(cur).max()
        if peak < 1e-12:
            break
        cur /= peak
        new = mask | (np.abs(cur) > 1e-9)
        if new.all() or np.array_equal(new, mask):
            mask = new
            break
        mask = new
    return mask


def _subset_probe(qg, mask) -> np.ndarray:
    """Vector state of the equal-weight sum of the masked basis elements.

    Equal weights matter: the Cesaro limit of such a state keeps exactly
    the coefficients that sit at the extreme value 1, and those form the
    state's multiplicative-domain subgroup.
    """
    a = np.where(mask, 1.0, 0.0).astype(np.complex128)
    return _vector_state(qg, a)


def _solver_starts(qg, cfg, z, w_p):
    """Initial points for the multi-start Newton solve.

    Always includes the counit and the Haar state.  Deterministic probes
    push the vector states of generated supports of single basis elements
    and pairs toward the idempotent set by Cesaro extrapolation; the rest
    of the budget alternates between random simplex mixtures of the
    GNS-diagonal vector states with heterogeneous perturbation and
    Cesaro-extrapolated equal-weight random-subset probes.
    """
    n = qg.dim
    rng = np.random.default_rng(cfg.seed)
    gd = gns(qg)
    diag_states = np.einsum("jkk->jk", gd.left_reg)  # column i: psi_i(e_j)
    w_u = np.conj(qg.unit) / np.vdot(qg.unit, qg.unit).real
    eps = qg.counit

    def step_of(w):
        return np.einsum("ijk,k->ij", qg.comult, w)

    def normalized(w):
        return w + (1.0 - np.dot(qg.unit, w)) * w_u

    def warmed(mu):
        return normalized(_cesaro_probe(qg, step_of, 0.5 * (mu + eps)))

    seeds = [eps.copy(), qg.haar.copy()]

    combos = [(i,) for i in range(n)]
    combos += [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in combos[: max(0, cfg.starts - 2) // 2]:
        seeds.append(warmed(_subset_probe(qg, _generated_support(qg, combo))))

    while len(seeds) < cfg.starts:
        if len(seeds) % 2 == 0:
            p = rng.dirichlet(np.ones(n))
            w0 = diag_states @ p
            sigma = rng.uniform(0.0, cfg.perturbation)
            w0 = w0 + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            seeds.append(normalized(w0))
        else:
            mask = rng.random(n) < rng.uniform(0.15, 0.9)
            if not mask.any():
                mask[rng.integers(n)] = True
            seeds.append(warmed(_subset_probe(qg, mask)))
    t0 = np.array([z.conj().T @ (w - w_p) for w in seeds], dtype=np.complex128)
    return np.ascontiguousarray(t0)


def _newton_polish_batch(d, w_p, z, t0, tol, max_iter):
    """Polish each start of the idempotent system on the normalization chart.

    Unknown: t with w = w_p + z t.  Residual: F(w) = conv(w, w) - w where
    conv is the bilinear map with coefficients d.  The iteration is the one
    described in :func:`solve_idempotents`.  Returns (solutions w, sup-norm
    residuals, convergence flags).
    """
    n = d.shape[0]
    m = z.shape[1]
    batch = t0.shape[0]
    eye = np.eye(m)

    out_w = np.empty((batch, n), dtype=np.complex128)
    out_res = np.empty(batch)
    out_ok = np.zeros(batch, dtype=bool)

    def residual(w):
        return np.einsum("ijk,j,k->i", d, w, w) - w

    for b in range(batch):
        t = t0[b].copy()
        w = w_p + z @ t
        f = residual(w)
        phi = float(np.vdot(f, f).real)
        for _ in range(max_iter):
            if np.abs(f).max() <= tol:
                break
            if m == 0:
                break
            jw = (
                np.einsum("ijk,k->ij", d, w)
                + np.einsum("ikj,k->ij", d, w)
                - np.eye(n)
            )
            j = jw @ z
            a = j.conj().T @ j
            rhs = -(j.conj().T @ f)
            lam = 1e-12 * (1.0 + float(a.trace().real) / m)
            delta = None
            for _ in range(4):
                try:
                    chol = np.linalg.cholesky(a + lam * eye)
                    delta = cho_solve((chol, True), rhs)
                    break
                except np.linalg.LinAlgError:
                    lam *= 100.0
            if delta is None:
                break
            step = 1.0
            accepted = False
            while step >= 2.0**-24:
                t_new = t + step * delta
                w_new = w_p + z @ t_new
                f_new = residual(w_new)
                phi_new = float(np.vdot(f_new, f_new).real)
                if phi_new <= phi * (1.0 - 1e-4 * step):
                    t, w, f, phi = t_new, w_new, f_new, phi_new
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        out_w[b] = w
        out_res[b] = np.abs(f).max()
        out_ok[b] = out_res[b] <= tol
    return out_w, out_res, out_ok


def solve_idempotents(
    qg: FiniteQuantumGroup, cfg: SolveConfig | None = None
) -> list[State]:
    """Find idempotent states by damped multi-start Newton.

    The quadratic system {omega * omega - omega = 0, omega(1) = 1} is solved
    on the affine normalization chart w = w_p + z t.  Each start is polished
    by damped Gauss-Newton: the normal equations J^* J delta = -J^* F are
    Levenberg-regularised (the shift grows a hundredfold while Cholesky
    fails) and the step is halved until the squared residual passes an
    Armijo test.  Solutions failing the state test are discarded and the
    rest deduplicated at ``dedup_tol`` (sup norm) in a canonical order.
    Deterministic for a fixed seed.  The result always contains the counit
    and the Haar state; no completeness claim is made for a general quantum
    group (the CLI reports findings as "found").
    """
    cfg = SolveConfig() if cfg is None else cfg
    n = qg.dim
    if n == 1:
        return [State(qg, np.ones(1) / qg.unit[0])]

    w_p, z = _constraint_chart(qg)
    t0 = _solver_starts(qg, cfg, z, w_p)
    solutions, residuals, _ = _newton_polish_batch(
        qg.comult, w_p, z, t0, min(cfg.newton_tol, 1e-13), cfg.max_iter
    )

    kept = []
    for w, res in zip(solutions, residuals):
        if res > cfg.newton_tol:
            continue
        if not is_idempotent(qg, w, 1e-9):
            continue
        kept.append(State(qg, w))

    kept.sort(key=State.sort_key)
    unique: list[State] = []
    for st in kept:
        if any(
            np.abs(st.coeffs - seen.coeffs).max() <= cfg.dedup_tol for seen in unique
        ):
            continue
        unique.append(st)
    return unique


# -- random walks --------------------------------------------------------


def cesaro_walk(qg: FiniteQuantumGroup, mu, n: int) -> list[State]:
    """Cesaro means nu_k = (1/k) sum_{j<=k} mu^{*j} for k = 1..n.

    Every mean of convolution powers of a state is a state; the limit
    points of the sequence are idempotent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = as_coeffs(mu)
    step = np.einsum("ijk,k->ij", qg.comult, w)  # nu -> nu * mu
    power = w.copy()
    acc = w.copy()
    out = [State(qg, acc.copy())]
    for k in range(2, n + 1):
        power = step @ power
        acc += power
        out.append(State(qg, acc / k))
    return out


# -- slice-operator recovery ---------------------------------------------


def recover_slice(qg: FiniteQuantumGroup, t, tol: float = 1e-9) -> State | None:
    """If t commutes with every right slice R_nu, t = L_mu for mu = counit . t.

    Returns the recovered functional, or None when some commutator is
    nonzero.  Commutation without t = L_mu is impossible and raises.
    """
    t = np.asarray(t, dtype=np.complex128)
    n = qg.dim
    for k in range(n):
        rk = qg.comult[:, :, k].T  # R_{f_k}[j, i] = comult[i, j, k]
        if np.abs(t @ rk - rk @ t).max() > tol:
            return None
    mu = qg.counit @ t
    defect = np.abs(t - left_slice(qg, mu)).max()
    if defect > max(tol, 1e-12) * 10 * n:
        raise InternalConsistencyError(
            f"t commutes with all right slices but t != L_mu (defect {defect:.2e})"
        )
    return State(qg, mu)
