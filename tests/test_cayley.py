import numpy as np
import pytest

from qgidem.cayley import (
    CayleyTable,
    all_subgroups,
    builtin_group,
    builtin_group_names,
    cyclic_group,
    dihedral_group,
    direct_product,
    generated_subgroup,
    is_normal_subgroup,
    is_subgroup,
    quaternion_group,
    symmetric_group,
)


def test_registry_orders():
    expected = {"Z1": 1, "Z6": 6, "Z12": 12, "Z2xZ2": 4, "S3": 6, "D4": 8, "Q8": 8, "S4": 24}
    for name, order in expected.items():
        assert builtin_group(name).order == order
    assert "V4" in builtin_group_names()


def test_unknown_group():
    with pytest.raises(ValueError, match="unknown group"):
        builtin_group("E8")


def test_identity_and_inverse():
    ct = symmetric_group(3)
    assert ct.mul(ct.identity, 3) == 3
    for g in range(ct.order):
        assert ct.mul(g, ct.inv(g)) == ct.identity


def test_invalid_tables_rejected():
    # order-5 loop with identity and two-sided inverses but (1*1)*2 != 1*(1*2)
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(ValueError, match="associative"):
        CayleyTable(loop)
    with pytest.raises(ValueError, match="identity"):
        CayleyTable(np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError, match="inverse"):
        CayleyTable(np.array([[0, 1], [1, 1]]))
    # identity needs not sit at index 0
    assert CayleyTable(np.array([[1, 0], [0, 1]])).identity == 1
    with pytest.raises(ValueError):
        CayleyTable(np.array([[0, 1], [1, 5]]))
    with pytest.raises(ValueError):
        CayleyTable(np.zeros((0, 0), dtype=int))


@pytest.mark.parametrize(
    "name,count",
    [
        ("Z2", 2), ("Z3", 2), ("Z4", 3), ("Z5", 2), ("Z6", 4), ("Z7", 2),
        ("Z8", 4), ("Z2xZ2", 5), ("S3", 6), ("D4", 10), ("Q8", 6), ("S4", 30),
    ],
)
def test_subgroup_counts(name, count):
    ct = builtin_group(name)
    subs = all_subgroups(ct)
    assert len(subs) == count
    for sub in subs:
        assert is_subgroup(ct, sub)


def reference_all_subgroups(ct):
    """Closure extension with element-by-element products, no numpy."""

    def closure(gens):
        members = {ct.identity} | set(gens)
        frontier = list(members)
        while frontier:
            new = []
            for a in frontier:
                for b in list(members):
                    for c in (ct.mul(a, b), ct.mul(b, a), ct.inv(a)):
                        if c not in members:
                            members.add(c)
                            new.append(c)
            frontier = new
        return tuple(sorted(members))

    found = {(ct.identity,)}
    frontier = list(found)
    while frontier:
        nxt = []
        for sub in frontier:
            for g in set(range(ct.order)) - set(sub):
                new = closure(set(sub) | {g})
                if new not in found:
                    found.add(new)
                    nxt.append(new)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), s))


@pytest.mark.parametrize("name", builtin_group_names())
def test_all_subgroups_matches_reference(name):
    ct = builtin_group(name)
    assert all_subgroups(ct) == reference_all_subgroups(ct)


@pytest.mark.parametrize("k,count", [(12, 34), (16, 36)])
def test_dihedral_subgroup_counts(k, count):
    # D_k has tau(k) + sigma(k) subgroups: 6 + 28 for k = 12, 5 + 31 for k = 16
    subs = all_subgroups(dihedral_group(k))
    assert len(subs) == count
    assert len(set(subs)) == count


def test_generated_subgroup():
    ct = cyclic_group(6)
    assert generated_subgroup(ct, [2]) == (0, 2, 4)
    assert generated_subgroup(ct, [2, 3]) == tuple(range(6))


def test_normality():
    s3 = symmetric_group(3)
    subs = all_subgroups(s3)
    by_order = {}
    for sub in subs:
        by_order.setdefault(len(sub), []).append(sub)
    assert all(is_normal_subgroup(s3, sub) for sub in by_order[1])
    assert all(is_normal_subgroup(s3, sub) for sub in by_order[3])
    assert all(not is_normal_subgroup(s3, sub) for sub in by_order[2])
    q8 = quaternion_group()
    assert all(is_normal_subgroup(q8, sub) for sub in all_subgroups(q8))


def test_non_subgroup_detected():
    s3 = symmetric_group(3)
    transpositions = [g for g in range(6) if g != s3.identity and s3.inv(g) == g]
    assert not is_subgroup(s3, [s3.identity] + transpositions[:2])


def test_non_square_table_and_empty_cyclic_group_rejected():
    with pytest.raises(ValueError, match=r"^Cayley table must be a square matrix$"):
        CayleyTable(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match=r"^cyclic group order must be >= 1$"):
        cyclic_group(0)


@pytest.mark.parametrize("subset,why", [
    ([], "empty"),
    ([0, 4], "index out of range"),
    ([-1, 0], "negative index"),
    ([2], "no identity"),
    ([0, 1], "1 + 3 = 0, and 3 is missing"),
])
def test_is_subgroup_rejects(subset, why):
    assert is_subgroup(cyclic_group(4), subset) is False, why


def test_a_non_subgroup_is_not_normal():
    s3 = symmetric_group(3)
    transpositions = [g for g in range(6) if g != s3.identity and s3.inv(g) == g]
    assert is_normal_subgroup(s3, [s3.identity] + transpositions[:2]) is False


def test_dihedral_vs_direct_product():
    d4 = dihedral_group(4)
    assert not d4.is_abelian()
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert v4.is_abelian()
    assert sorted(len(s) for s in all_subgroups(v4)) == [1, 2, 2, 2, 4]


def test_quaternion_structure():
    q8 = quaternion_group()
    # exactly one element of order 2, six of order 4
    orders = []
    for g in range(8):
        k, x = 1, g
        while x != q8.identity:
            x = q8.mul(x, g)
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]
