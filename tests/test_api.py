"""The public names of ``qgidem``: deleting code must not drop one; and
the signatures that say which functions take a tolerance."""

import ast
import inspect
import pathlib
import types

import qgidem
from qgidem import analysis, core, states

PUBLIC = {
    # cayley
    "CayleyTable",
    "all_subgroups",
    "builtin_group",
    "builtin_group_names",
    "cyclic_group",
    "dihedral_group",
    "direct_product",
    "is_normal_subgroup",
    "is_subgroup",
    "klein_four_group",
    "quaternion_group",
    "symmetric_group",
    # core
    "FiniteQuantumGroup",
    "GnsData",
    "InternalConsistencyError",
    "MultUnitary",
    "QuantumGroupError",
    "StructuralError",
    "ValidationReport",
    "dual",
    "function_algebra",
    "gns",
    "group_algebra",
    "intertwiner_defect",
    "multiplicative_unitary",
    "validate",
    # states
    "SolveConfig",
    "State",
    "cesaro_walk",
    "convolve",
    "epsilon_state",
    "haar_state",
    "is_idempotent",
    "is_state",
    "left_slice",
    "recover_slice",
    "right_slice",
    "solve_idempotents",
    "subgroup_state_fn",
    "subgroup_state_ga",
}


def test_public_names_are_pinned():
    # submodules (qgidem.core, ...) are attributes too, once imported
    exported = {
        name
        for name, value in vars(qgidem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    assert isinstance(qgidem.__version__, str)


# the analysis entry points decide at the fixed ladder of qgidem.analysis,
# and V is checked at qg.tol: none takes a tolerance of its own.  The
# positional order is the one the CLI and perfbench call them with.
FIXED_LADDER = {
    analysis.null_space: ["qg", "omega"],
    analysis.orthonormal_columns: ["m"],
    analysis.invariant_subalgebra: ["qg", "omega"],
    analysis.verify_conditional_expectation: ["qg", "e", "c_basis", "gd"],
    analysis.classify: ["qg", "omega", "gd", "mu"],
    analysis.quotient_quantum_group: ["qg", "omega"],
    analysis.homogeneous_space_check: ["qg", "omega", "q"],
    analysis.coaction_checks: ["qg", "c_basis"],
    analysis.build_lattice: ["qg", "states"],
    analysis.multiplicative_domain_check: ["qg", "omega"],
    analysis.state_from_subalgebra: ["qg", "c_basis"],
    core.multiplicative_unitary: ["qg", "gd"],
}


def test_no_tolerance_parameter_on_the_fixed_ladder():
    for fn, names in FIXED_LADDER.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_tolerances_kept_where_callers_set_them():
    for fn in (core.validate, states.is_state, states.is_idempotent):
        assert "tol" in inspect.signature(fn).parameters, fn.__name__
    assert "rel_tol" in inspect.signature(analysis._kernel_basis).parameters


def test_every_svd_says_which_factors_it_forms():
    # np.linalg.svd forms the full m x m U by default: each call in the
    # package passes full_matrices= or compute_uv= to say what it needs
    calls = []
    in_text = 0
    for path in sorted(pathlib.Path(qgidem.__file__).parent.glob("*.py")):
        text = path.read_text()
        in_text += text.count("linalg.svd(")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.svd"):
                keys = {kw.arg for kw in node.keywords}
                calls.append((path.name, node.lineno, bool(keys & {"full_matrices", "compute_uv"})))
    # the scan finds every call written in the package, and there are some
    assert len(calls) == in_text > 0
    assert [call for call in calls if not call[2]] == []
