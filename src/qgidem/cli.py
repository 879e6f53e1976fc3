"""Batch CLI: validate quantum groups, find and classify idempotent states,
build lattices, quotients and random walks.

Inputs are either JSON files (see :mod:`qgidem.serialize`) or builtin
specs like ``fn:S3``, ``ga:D4``, ``dual:fn:Z4`` (``dual:`` may be
repeated).  Builtin groups: Z1..Z12, Z2xZ2, S3, D4, Q8, S4.

Every command takes ``--tol``, ``--format`` and ``--out``; idempotents,
classify, lattice and quotient accept ``--seed`` for scripts that pass
it, and do not read it (the solver is deterministic); ``--oracle`` goes
to idempotents and classify.

Exit status is 0 iff every requested check passed: 1 when a check
failed, the solver found no idempotent state or the reader closed
standard output before the report was written, 2 for a bad command
line, an unreadable or invalid input or a failed construction, 3 when
the library reports an internal inconsistency (a disagreement the theory
rules out, which flags numerical trouble).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import analysis, serialize
from .cayley import all_subgroups, builtin_group, builtin_group_names, is_normal_subgroup
from .core import (
    InternalConsistencyError,
    QuantumGroupError,
    dual,
    function_algebra,
    gns,
    group_algebra,
    multiplicative_unitary,
    validate,
)
from .states import (
    SolveConfig,
    State,
    _vector_state,
    cesaro_walk,
    idempotency_defect,
    is_idempotent,
    solve_idempotents,
    subgroup_state_fn,
    subgroup_state_ga,
)


class CliError(Exception):
    pass


class CheckFailed(Exception):
    """A check that failed before there was a report to print (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """Report a bad command line as a one-line CliError (exit 2), and take
    each option by its full name only: with prefix abbreviations what
    ``--s`` means would depend on the other options of the command."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a bad value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        )
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def parse_input(spec: str, tol: float):
    """Resolve a builtin spec or JSON path to a validated quantum group.

    Returns (qg, info): info carries the validation report and, for a
    group-derived input, the Cayley table and the effective kind ('fn' or
    'ga'); a dual flips the kind, since the dual of a function algebra is
    the group algebra of the same group (and vice versa).  ``tol`` becomes
    ``qg.tol`` for every input, a JSON file's own ``tol`` included, so
    ``validate`` and the checks of V run at the same tolerance.
    """
    info = {"kind": None, "cayley": None}
    if os.path.exists(spec) or spec.endswith(".json"):
        try:
            data = serialize.load_json(spec)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read {spec!r}: {exc}") from exc
        try:
            qg = dataclasses.replace(serialize.qg_from_dict(data), tol=tol)
        except (QuantumGroupError, ValueError, TypeError, KeyError) as exc:
            raise CliError(f"malformed quantum group in {spec!r}: {exc}") from exc
    else:
        parts = spec.split(":")
        duals = 0
        while parts and parts[0] == "dual":
            duals += 1
            parts.pop(0)
        if len(parts) != 2 or parts[0] not in ("fn", "ga"):
            raise CliError(
                f"unrecognized input {spec!r}; expected a JSON path or "
                "[dual:]*(fn|ga):GROUP with GROUP in "
                f"{{{', '.join(builtin_group_names())}}}"
            )
        kind, name = parts
        try:
            ct = builtin_group(name)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        qg = function_algebra(ct, tol) if kind == "fn" else group_algebra(ct, tol)
        for _ in range(duals):
            qg = dual(qg)
            kind = "ga" if kind == "fn" else "fn"
        info["kind"] = kind
        info["cayley"] = ct

    info["report"] = report = validate(qg)
    if not report.passed:
        raise CliError(
            f"input failed validation; failing axioms: {report.failures}\n{report}"
        )
    return qg, info


def _oracle_table(info):
    """The Cayley table behind a builtin input, which --oracle needs."""
    if info["cayley"] is None:
        raise CliError("--oracle requires a builtin group input")
    return info["cayley"]


def _oracle_states(qg, info):
    ct = _oracle_table(info)
    build = subgroup_state_fn if info["kind"] == "fn" else subgroup_state_ga
    return [build(qg, ct, sub) for sub in all_subgroups(ct)]


def _fmt_state(state, digits=6):
    vals = np.round(state.coeffs, digits)
    return "[" + ", ".join(
        f"{z.real:+.{digits}f}{z.imag:+.{digits}f}j" for z in vals
    ) + "]"


def _solve(qg, args):
    found = solve_idempotents(qg, SolveConfig(seed=args.seed))
    if not found:
        # the counit is an idempotent state of every valid input
        raise CheckFailed(
            "no idempotent state found, not even the counit, whose idempotency "
            f"defect is {idempotency_defect(qg, qg.counit):.1e}"
        )
    return found


def cmd_validate(qg, info, args):
    report = info["report"]
    data = {
        "residuals": report.residuals,
        "cancellation_ranks": list(report.cancellation_ranks),
        "failures": report.failures,
        "passed": report.passed,
    }
    return data, report.passed, [str(report)]


def cmd_idempotents(qg, info, args):
    found = _solve(qg, args)
    lines = [f"found {len(found)} idempotent state(s):"]
    for i, st in enumerate(found):
        lines.append(f"  [{i}] {_fmt_state(st)}")
    data = {
        "count": len(found),
        "states": [serialize.state_to_dict(st) for st in found],
    }
    passed = True
    if args.oracle:
        oracle = _oracle_states(qg, info)
        # sup-norm Hausdorff distance from the found x oracle distance matrix
        found_w = np.array([f.coeffs for f in found]).reshape(-1, qg.dim)
        oracle_w = np.array([o.coeffs for o in oracle]).reshape(-1, qg.dim)
        d = np.abs(found_w[:, None] - oracle_w[None]).max(axis=-1)
        dist = max(d.min(axis=1).max(), d.min(axis=0).max()) if d.size else np.inf
        passed = len(found) == len(oracle) and dist <= 1e-7
        data["oracle"] = {
            "subgroup_count": len(oracle),
            "hausdorff_distance": float(dist),
            "match": passed,
        }
        lines.append(
            f"oracle: {len(oracle)} subgroup states, hausdorff distance "
            f"{dist:.2e} -> {'match' if passed else 'MISMATCH'}"
        )
    return data, passed, lines


def cmd_classify(qg, info, args):
    gd = gns(qg)
    mu = multiplicative_unitary(qg, gd)
    found = _solve(qg, args)
    records = []
    lines = [f"classified {len(found)} idempotent state(s):"]
    for i, st in enumerate(found):
        c = analysis.classify(qg, st, gd=gd, mu=mu)
        records.append(
            {
                "coeffs": serialize._vector_out(st.coeffs),
                "null_space_dim": c.null_space_dim,
                "is_haar": c.is_haar,
                "residuals": {
                    "ideal": c.witnesses["ideal_residual"],
                    "symmetry": c.witnesses["symmetry_residual"],
                },
            }
        )
        lines.append(
            f"  [{i}] haar={str(c.is_haar):5s} null_dim={c.null_space_dim} "
            f"{_fmt_state(st)}"
        )
    n_haar = sum(r["is_haar"] for r in records)
    lines.append(f"{n_haar} of {len(records)} are Haar idempotents")
    data = {"count": len(records), "haar_count": n_haar, "states": records}
    passed = True
    if args.oracle:
        ct = _oracle_table(info)
        subs = all_subgroups(ct)
        expected = (
            len(subs)
            if info["kind"] == "fn"
            else sum(is_normal_subgroup(ct, s) for s in subs)
        )
        passed = n_haar == expected and len(records) == len(subs)
        data["oracle"] = {"expected_haar": expected, "match": passed}
        lines.append(f"oracle: expected {expected} Haar -> {'match' if passed else 'MISMATCH'}")
    return data, passed, lines


def cmd_lattice(qg, info, args):
    found = _solve(qg, args)
    lat = analysis.build_lattice(qg, found)
    lines = [f"lattice on {len(lat.states)} idempotent state(s):"]
    for i, st in enumerate(lat.states):
        lines.append(f"  [{i}] {_fmt_state(st)}")
    lines.append(f"covering relations: {lat.hasse_edges}")
    covers = {str(i): [] for i in range(len(lat.states))}
    for i, j in lat.hasse_edges:
        covers[str(i)].append(j)
    data = {
        "count": len(lat.states),
        "states": [serialize.state_to_dict(st) for st in lat.states],
        "leq": [[bool(x) for x in row] for row in lat.leq],
        "hasse_edges": [list(e) for e in lat.hasse_edges],
        "covers": covers,
    }
    return data, True, lines


def cmd_quotient(qg, info, args):
    found = _solve(qg, args)
    if args.state >= len(found):
        raise CliError(
            f"--state must index one of the {len(found)} states found "
            "(see the idempotents command)"
        )
    st = found[args.state]
    try:
        q = analysis.quotient_quantum_group(qg, st)
    except QuantumGroupError as exc:
        raise CliError(f"state [{args.state}] is not a Haar idempotent: {exc}") from exc
    hs = analysis.homogeneous_space_check(qg, st, q)
    sub = analysis.invariant_subalgebra(qg, st)
    co = analysis.coaction_checks(qg, sub.basis)
    passed = q.report.passed and hs.passed and co.passed
    lines = [
        f"quotient of dim {qg.dim} by state [{args.state}] -> dim {q.quotient.dim}",
        f"  quotient validates: {q.report.passed}",
        f"  haar state of quotient: {_fmt_state(q.haar_mu)}",
        f"  homogeneous-space check: {hs.values} passed={hs.passed}",
        f"  coaction checks: {co.values} passed={co.passed}",
    ]
    data = {
        "state_index": args.state,
        "quotient": serialize.qg_to_dict(q.quotient),
        "projection": serialize._matrix_out(q.projection),
        "haar_mu": serialize._vector_out(q.haar_mu.coeffs),
        "homogeneous_space": {**hs.values, "passed": hs.passed},
        "coaction": {**co.values, "passed": co.passed},
        "passed": passed,
    }
    return data, passed, lines


def cmd_walk(qg, info, args):
    if args.init is not None:
        try:
            st = serialize.state_from_dict(serialize.load_json(args.init), qg)
        except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
            raise CliError(
                f"cannot read the initial state {args.init!r}: {type(exc).__name__}: {exc}"
            ) from exc
        w0 = st.coeffs
    else:
        # faithful deterministic default: perturb the unit inside a vector state
        a = qg.unit + 0.1 * np.eye(qg.dim)[0]
        w0 = _vector_state(qg, a)
    walk = cesaro_walk(qg, w0, args.steps)
    checkpoints = sorted(
        {*(2**k for k in range(32) if 2**k <= args.steps), args.steps}
    )
    lines = [f"cesaro walk for {args.steps} step(s):"]
    diag = []
    for k in checkpoints:
        defect = idempotency_defect(qg, walk[k - 1])
        diag.append({"k": k, "idempotency_defect": float(defect)})
        lines.append(f"  k={k:>7d} idempotency defect {defect:.3e}")
    if args.steps >= 2:
        limit = 2.0 * walk[-1].coeffs - walk[args.steps // 2 - 1].coeffs
    else:
        limit = walk[-1].coeffs
    limit_ok = is_idempotent(qg, limit, 1e-6)
    lines.append(
        f"extrapolated limit point {'is' if limit_ok else 'is NOT'} an "
        f"idempotent state (tol 1e-6): {_fmt_state(State(qg, limit))}"
    )
    data = {
        "steps": args.steps,
        "diagnostics": diag,
        "limit": serialize._vector_out(limit),
        "limit_is_idempotent": bool(limit_ok),
    }
    return data, bool(limit_ok), lines


COMMANDS = {
    "validate": cmd_validate,
    "idempotents": cmd_idempotents,
    "classify": cmd_classify,
    "lattice": cmd_lattice,
    "quotient": cmd_quotient,
    "walk": cmd_walk,
}


def build_parser():
    parser = _Parser(
        prog="qgidem",
        description="finite quantum groups: idempotent states and their structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="builtin spec (fn:S3, ga:D4, dual:fn:Z4) or JSON path")
        p.add_argument("--tol", type=positive_float, default=1e-9)
        if name in ("idempotents", "classify", "lattice", "quotient"):
            p.add_argument("--seed", type=nonnegative_int, default=0)
        if name in ("idempotents", "classify"):
            p.add_argument("--oracle", action="store_true",
                           help="cross-check against the subgroup oracle (builtin groups)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        if name == "quotient":
            p.add_argument("--state", type=nonnegative_int, required=True,
                           help="index of the idempotent state (canonical order)")
        if name == "walk":
            p.add_argument("--steps", type=positive_int, default=1000)
            p.add_argument("--init", default=None,
                           help="JSON file with the initial state (default: a "
                                "faithful deterministic state)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        qg, info = parse_input(args.input, args.tol)
        data, passed, lines = COMMANDS[args.command](qg, info, args)
    except InternalConsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliError, QuantumGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "input": args.input,
        "passed": bool(passed),
        "data": data,
    }
    if args.format == "json":
        text = json.dumps(report, indent=1, default=float)
    else:
        text = "\n".join(lines + [f"passed: {passed}"])
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.out!r}: {reason}", file=sys.stderr)
            return 2
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed early; point stdout at devnull so the flush
            # at interpreter exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: standard output closed before the report was written",
                  file=sys.stderr)
            return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
