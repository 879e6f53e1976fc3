"""Workloads, tracing and correctness gates of the qgidem benchmark.

Everything here calls qgidem through its public API only (``qgidem``,
``qgidem.analysis``, ``qgidem.serialize``), in the order the CLI commands
use, so the benchmark keeps working while the package's internals change.
``run.py`` is the command-line driver; ``README.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import qgidem
from qgidem import analysis, serialize

# the CLI's default solver budget and its oracle rule (sup-norm distance)
STARTS = 500
ORACLE_TOL = 1e-7
# the basis-change helper must transport every structure tensor this well
INTERTWINER_TOL = 1e-12
# the per-state analysis of a structure task covers at most this many
# idempotents per input, spread evenly over the oracle's subgroup order
# (trivial group first, whole group last): analysing all 30 idempotents of
# both S4 inputs takes about 33 s, too long to repeat within one run
STATES_PER_INPUT = 5
WALK_STEPS = 10000
WALK_LABEL = "walk:fn:Z4"

ZOO_GROUPS = ("S3", "D4", "Q8", "Z12", "Z2xZ2", "S4")
STRUCTURE_GROUPS = ("S4",)
DENSE_GROUPS = ("S3", "D4", "Q8", "S4")
# (kind, k): the dihedral group of order 2k
UNITARY_CASES = (("fn", 12), ("ga", 12), ("fn", 16))
# inputs whose timings give the scaling exponent in n: fn:D12 and fn:D16
EXPONENT_PAIR = ("fn:D12", "fn:D16")


# -- tracing -------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [name, 0.0, 0.0, stack[-1] if stack else None, tracer.task]
        )

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


_NULL = nullcontext()


class Tracer:
    """In-memory spans and counters recorded around public qgidem calls.

    A span is ``[name, start, end, parent_index, task]``.  A disabled
    tracer records nothing and hands out one shared null context, so the
    untimed bookkeeping stays out of untraced passes.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list = []

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name, k=1):
        if self.enabled:
            self.counts[name] += k


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict = {}
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            children.setdefault(sp[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


# -- inputs ----------------------------------------------------------------


@dataclass
class Input:
    """One quantum group of a workload, with its subgroup oracle.

    ``oracle`` holds the subgroup states in this input's basis, in the
    order of ``qgidem.all_subgroups``; ``expect_haar[j]`` says whether the
    j-th one is a Haar idempotent (every subgroup on ``fn:``, the normal
    ones on ``ga:``).
    """

    label: str
    qg: object
    oracle: list = field(default_factory=list)
    expect_haar: list = field(default_factory=list)


def builtin_input(kind: str, ct, label: str) -> Input:
    build = qgidem.function_algebra if kind == "fn" else qgidem.group_algebra
    qg = build(ct)
    subs = qgidem.all_subgroups(ct)
    state = qgidem.subgroup_state_fn if kind == "fn" else qgidem.subgroup_state_ga
    return Input(
        label=label,
        qg=qg,
        oracle=[state(qg, ct, s).coeffs for s in subs],
        expect_haar=[kind == "fn" or qgidem.is_normal_subgroup(ct, s) for s in subs],
    )


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def change_basis(qg, t):
    """The quantum group for which ``a -> t a`` is an isomorphism from qg.

    Every structure tensor is transported, so ``intertwiner_defect(qg,
    result, t)`` vanishes up to rounding; functionals move as ``w t^-1``.
    """
    ti = np.linalg.inv(t)
    return qgidem.FiniteQuantumGroup(
        dim=qg.dim,
        mult=np.einsum("ip,jq,ijk,lk->pql", ti, ti, qg.mult, t, optimize=True),
        unit=t @ qg.unit,
        star=t @ qg.star @ np.conj(ti),
        comult=np.einsum("il,ijk,pj,qk->lpq", ti, qg.comult, t, t, optimize=True),
        counit=qg.counit @ ti,
        antipode=t @ qg.antipode @ ti,
        haar=qg.haar @ ti,
        tol=qg.tol,
    )


def dense_input(base: Input, rng) -> Input:
    """``base`` after a seeded random unitary basis change, checked."""
    t = random_unitary(base.qg.dim, rng)
    qg = change_basis(base.qg, t)
    defect = qgidem.intertwiner_defect(base.qg, qg, t)
    if not defect <= INTERTWINER_TOL:
        raise RuntimeError(
            f"basis change of {base.label} is off by {defect:.2e}"
        )
    ti = np.linalg.inv(t)
    return Input(
        label="dense:" + base.label,
        qg=qg,
        oracle=[w @ ti for w in base.oracle],
        expect_haar=list(base.expect_haar),
    )


def make_inputs(workload: str, seed: int) -> list[Input]:
    """Build a workload's inputs; the same seed gives the same inputs."""
    if workload == "solve_zoo":
        walk = Input(label=WALK_LABEL, qg=qgidem.function_algebra(qgidem.builtin_group("Z4")))
        return [
            builtin_input(kind, qgidem.builtin_group(g), f"{kind}:{g}")
            for g in ZOO_GROUPS
            for kind in ("fn", "ga")
        ] + [walk]
    if workload == "structure_s4":
        return [
            builtin_input(kind, qgidem.builtin_group(g), f"{kind}:{g}")
            for g in STRUCTURE_GROUPS
            for kind in ("fn", "ga")
        ]
    if workload == "unitary_dk":
        # no oracle: this workload never solves
        out = []
        for kind, k in UNITARY_CASES:
            build = qgidem.function_algebra if kind == "fn" else qgidem.group_algebra
            out.append(Input(label=f"{kind}:D{k}", qg=build(qgidem.dihedral_group(k))))
        return out
    if workload == "dense_basis":
        rng = np.random.default_rng(seed)
        return [
            dense_input(builtin_input(kind, qgidem.builtin_group(g), f"{kind}:{g}"), rng)
            for g in DENSE_GROUPS
            for kind in ("fn", "ga")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def walk_start(qg) -> np.ndarray:
    """The CLI walk's default start: the vector state of 1 + 0.1 e_0,
    omega(x) = h(a^* x a) / h(a^* a)."""
    a = qg.unit + 0.1 * np.eye(qg.dim)[0]
    w = np.einsum(
        "p,pik,q,kql,l->i", qg.star_vec(a), qg.mult, a, qg.mult, qg.haar, optimize=True
    )
    return w / np.dot(w, qg.unit)


# -- correctness gate --------------------------------------------------------


@dataclass
class Tally:
    """Checked tasks of a run: a task fails when it raises or a check fails."""

    attempted: int = 0
    failed: int = 0
    oracle_total: int = 0
    oracle_matched: int = 0
    errors: Counter = field(default_factory=Counter)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[f"{name}: {detail}" if detail else name] += 1
        return ok

    def raised(self, name: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        last = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
        self.errors[f"{name}: {type(exc).__name__} at {where}: {exc}"[:300]] += 1


def oracle_match(found, oracle) -> tuple[int, float, list]:
    """Oracle states matched within ORACLE_TOL, the Hausdorff distance
    between the two sets, and for each found state the index of its
    nearest oracle state when that is within ORACLE_TOL (else None)."""
    if not found or not oracle:
        return 0, math.inf, [None] * len(found)
    d = np.array([[np.abs(f - o).max() for o in oracle] for f in found])
    hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
    matched = int((d.min(axis=0) <= ORACLE_TOL).sum())
    nearest = [int(j) if d[i, j] <= ORACLE_TOL else None for i, j in enumerate(d.argmin(axis=1))]
    return matched, float(hausdorff), nearest


def analysed_subset(n_oracle: int) -> list[int]:
    """Oracle indices whose states get the per-state analysis."""
    if n_oracle <= STATES_PER_INPUT:
        return list(range(n_oracle))
    return sorted({int(round(x)) for x in np.linspace(0, n_oracle - 1, STATES_PER_INPUT)})


# -- pipelines -----------------------------------------------------------


class Pipeline:
    """Runs one workload's pass, timing layers and gating every result."""

    def __init__(self, workload: str, inputs: list[Input], seed: int, tracer: Tracer, tally: Tally):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.tr = tracer
        self.tally = tally

    def run_pass(self) -> dict:
        """One pass over every input; returns per-input wall times."""
        task = {
            "solve_zoo": self.solve_task,
            "unitary_dk": self.unitary_task,
        }.get(self.workload, self.structure_task)
        per_input = {}
        with self.tr.span("bench.pass"):
            for inp in self.inputs:
                self.tr.task = inp.label
                t0 = time.perf_counter()
                with self.tr.span("bench.task"):
                    if inp.label == WALK_LABEL:
                        self.walk_task(inp)
                    else:
                        task(inp)
                per_input[inp.label] = time.perf_counter() - t0
            self.tr.task = None
        return per_input

    # each step returns None when it raised; the failure is already counted

    def _call(self, name, fn, *args, **kwargs):
        with self.tr.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # keep the run going; the gate counts it
                if name.startswith("analysis."):
                    self.tr.count("analysis.errors")
                self.tally.raised(f"{self.tr.task} {name}", exc)
                return None

    def _solve(self, inp: Input):
        found = self._call(
            "states.solve_idempotents",
            qgidem.solve_idempotents,
            inp.qg,
            qgidem.SolveConfig(starts=STARTS, seed=self.seed),
        )
        if found is None:
            return None, []
        self.tr.count("states.solve_idempotents.calls")
        self.tr.count("states.solve_idempotents.starts", STARTS)
        self.tr.count("states.solve_idempotents.found", len(found))
        matched, dist, nearest = oracle_match([s.coeffs for s in found], inp.oracle)
        self.tally.oracle_total += len(inp.oracle)
        self.tally.oracle_matched += matched
        self.tally.check(
            f"{inp.label} oracle",
            len(found) == len(inp.oracle) and dist <= ORACLE_TOL,
            f"found {len(found)} of {len(inp.oracle)}, {matched} matched",
        )
        for st in found:
            self._call("serialize.state_to_dict", serialize.state_to_dict, st)
        return found, nearest

    def solve_task(self, inp: Input):
        self._solve(inp)

    def walk_task(self, inp: Input):
        walk = self._call(
            "states.cesaro_walk", qgidem.cesaro_walk, inp.qg, walk_start(inp.qg), WALK_STEPS
        )
        if walk is not None:
            # the CLI's check: the Richardson-extrapolated limit is idempotent
            limit = 2.0 * walk[-1].coeffs - walk[WALK_STEPS // 2 - 1].coeffs
            self.tally.check(f"{inp.label} limit", qgidem.is_idempotent(inp.qg, limit, 1e-6))

    def _validate(self, qg, label):
        report = self._call("core.validate", qgidem.validate, qg)
        if report is None:
            return False
        self.tr.count("core.validate.calls")
        return self.tally.check(f"{label} validate", report.passed, str(report.failures))

    def _unitary(self, inp: Input):
        gd = self._call("core.gns", qgidem.gns, inp.qg)
        if gd is None:
            return None, None
        # multiplicative_unitary raises unless unitarity, the pentagon and
        # the coproduct identity all hold, so returning is the check
        mu = self._call("core.multiplicative_unitary", qgidem.multiplicative_unitary, inp.qg, gd)
        if mu is None:
            return gd, None
        self.tr.count("core.multiplicative_unitary.calls")
        self.tally.check(f"{inp.label} multiplicative_unitary", True)
        return gd, mu

    def unitary_task(self, inp: Input):
        if self._validate(inp.qg, inp.label):
            self._unitary(inp)

    def structure_task(self, inp: Input):
        """validate -> solve -> gns -> V -> classify -> lattice, then the
        quotient command's checks on every Haar idempotent analysed."""
        if not self._validate(inp.qg, inp.label):
            return
        found, nearest = self._solve(inp)
        if not found:
            return
        gd, mu = self._unitary(inp)
        if mu is None:
            return
        chosen = set(analysed_subset(len(inp.oracle)))
        haar_states = []
        for st, j in zip(found, nearest):
            if j not in chosen:
                continue
            c = self._call("analysis.classify", analysis.classify, inp.qg, st, gd=gd, mu=mu)
            if c is None:
                continue
            self.tr.count("analysis.classify.calls")
            self.tr.count("analysis.classify.haar", int(c.is_haar))
            self.tally.check(
                f"{inp.label} classify subgroup {j}",
                c.is_haar == inp.expect_haar[j],
                f"is_haar {c.is_haar}, expected {inp.expect_haar[j]}",
            )
            if c.is_haar:
                haar_states.append((j, st))
        lat = self._call("analysis.build_lattice", analysis.build_lattice, inp.qg, found)
        if lat is not None:
            self.tally.check(f"{inp.label} lattice", len(lat.states) == len(found))
        for j, st in haar_states:
            self.quotient_checks(inp, j, st)

    def quotient_checks(self, inp: Input, j: int, st):
        """The quotient command on one Haar idempotent."""
        name = f"{inp.label} quotient {j}"
        q = self._call("analysis.quotient_quantum_group", analysis.quotient_quantum_group, inp.qg, st)
        if q is None:
            return
        hs = self._call("analysis.homogeneous_space_check", analysis.homogeneous_space_check, inp.qg, st, q)
        sub = self._call("analysis.invariant_subalgebra", analysis.invariant_subalgebra, inp.qg, st)
        co = None
        if sub is not None:
            co = self._call("analysis.coaction_checks", analysis.coaction_checks, inp.qg, sub.basis)
        report = self._call("core.validate", qgidem.validate, q.quotient)
        if report is not None:
            self.tr.count("core.validate.calls")
        self._call("serialize.qg_to_dict", serialize.qg_to_dict, q.quotient)
        if hs is None or co is None or report is None:
            return  # the raise is already counted
        self.tally.check(
            name,
            report.passed and hs.passed and co.passed,
            f"validate {report.passed}, homogeneous {hs.passed}, coaction {co.passed}",
        )


# -- statistics ------------------------------------------------------------


def tail_percentile(samples) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its
    value; None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100.0 * (n - 10) / n
    xs = sorted(samples)
    return pct, xs[n - 11]


LAYER_SPANS = (
    "states.solve_idempotents",
    "states.cesaro_walk",
    "analysis.classify",
    "analysis.quotient_quantum_group",
    "analysis.invariant_subalgebra",
    "analysis.coaction_checks",
    "analysis.homogeneous_space_check",
    "analysis.build_lattice",
    "core.validate",
    "core.gns",
    "core.multiplicative_unitary",
    "serialize.state_to_dict",
    "serialize.qg_to_dict",
)


def layer_seconds(spans) -> dict:
    """Busy seconds per layer span name, and the benchmark's self time."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in LAYER_SPANS}
    bench = 0.0
    for sp, s in zip(spans, selfs):
        if sp[0] in out:
            out[sp[0]] += s
        elif sp[0].startswith("bench."):
            bench += s
    out["bench.self"] = bench
    return out


def scaling_exponent(spans, name: str, dims: dict) -> float:
    """log(t_big / t_small) / log(n_big / n_small) for one span name over
    the EXPONENT_PAIR inputs; 0 when the workload lacks either input."""
    small, big = EXPONENT_PAIR
    t = {small: 0.0, big: 0.0}
    for sp in spans:
        if sp[0] == name and sp[4] in t:
            t[sp[4]] += sp[2] - sp[1]
    if not (t[small] > 0 and t[big] > 0):
        return 0.0
    return math.log(t[big] / t[small]) / math.log(dims[big] / dims[small])


def median(xs) -> float:
    return float(statistics.median(xs))
