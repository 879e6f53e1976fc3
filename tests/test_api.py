"""The public names of ``qgidem``: deleting code must not drop one."""

import types

import qgidem

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
