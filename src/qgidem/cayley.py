"""Finite groups as Cayley tables, with 0-based element indices.

Groups enter the library only through multiplication tables; the quantum
group constructors in :mod:`qgidem.core` turn a table into structure
constants.  A small registry of named groups (cyclic, Klein four, S3, D4,
Q8, S4) backs the CLI and the test oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite group.

    ``table[i, j]`` is the index of the product of elements ``i`` and ``j``.
    Associativity, the two-sided identity and two-sided inverses are checked
    at construction.
    """

    table: np.ndarray
    name: str = "G"
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("Cayley table must be a square matrix")
        n = table.shape[0]
        if n == 0:
            raise ValueError("Cayley table must have positive order")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("Cayley table entries must be indices in [0, order)")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

        identity = None
        for e in range(n):
            if np.array_equal(table[e], np.arange(n)) and np.array_equal(
                table[:, e], np.arange(n)
            ):
                identity = e
                break
        if identity is None:
            raise ValueError("Cayley table has no two-sided identity")
        object.__setattr__(self, "identity", identity)

        inverse = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            hits = np.flatnonzero(table[g] == identity)
            if hits.size != 1 or table[hits[0], g] != identity:
                raise ValueError(f"element {g} has no two-sided inverse")
            inverse[g] = hits[0]
        inverse.setflags(write=False)
        object.__setattr__(self, "inverse", inverse)

        # associativity: (ij)k == i(jk) for all triples, vectorized
        left = table[table, :]          # left[i,j,k] = (ij)k
        right = table[:, table]         # right[i,j,k] = i(jk)
        if not np.array_equal(left, right):
            raise ValueError("Cayley table is not associative")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)


def _table_from_mul(elements, mul, name):
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.int64)
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            table[i, j] = index[mul(g, h)]
    return CayleyTable(table, name=name)


def cyclic_group(n: int) -> CayleyTable:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return CayleyTable((i + j) % n, name=f"Z{n}")


def direct_product(g: CayleyTable, h: CayleyTable) -> CayleyTable:
    elements = list(itertools.product(range(g.order), range(h.order)))
    return _table_from_mul(
        elements,
        lambda x, y: (g.mul(x[0], y[0]), h.mul(x[1], y[1])),
        name=f"{g.name}x{h.name}",
    )


def symmetric_group(n: int) -> CayleyTable:
    elements = sorted(itertools.permutations(range(n)))
    # composition (p*q)(x) = p(q(x))
    return _table_from_mul(
        elements, lambda p, q: tuple(p[q[x]] for x in range(n)), name=f"S{n}"
    )


def dihedral_group(n: int) -> CayleyTable:
    """Dihedral group of order 2n: pairs (rotation, flip)."""
    elements = [(r, s) for s in (0, 1) for r in range(n)]

    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        if s1 == 0:
            return ((r1 + r2) % n, s2)
        return ((r1 - r2) % n, 1 - s2)

    return _table_from_mul(elements, mul, name=f"D{n}")


def quaternion_group() -> CayleyTable:
    """Q8 = {1, -1, i, -i, j, -j, k, -k} via 2x2 complex matrices."""
    one = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    elements = []
    for m in (one, qi, qj, qk):
        elements.append(tuple(np.round(m, 12).ravel()))
        elements.append(tuple(np.round(-m, 12).ravel()))

    def mul(x, y):
        prod = np.array(x).reshape(2, 2) @ np.array(y).reshape(2, 2)
        return tuple(np.round(prod, 12).ravel())

    return _table_from_mul(elements, mul, name="Q8")


def klein_four_group() -> CayleyTable:
    ct = direct_product(cyclic_group(2), cyclic_group(2))
    return CayleyTable(ct.table, name="Z2xZ2")


_REGISTRY = {}


def _register():
    for n in range(1, 13):
        _REGISTRY[f"Z{n}"] = lambda n=n: cyclic_group(n)
    _REGISTRY["Z2xZ2"] = klein_four_group
    _REGISTRY["V4"] = klein_four_group
    _REGISTRY["S3"] = lambda: symmetric_group(3)
    _REGISTRY["S4"] = lambda: symmetric_group(4)
    _REGISTRY["D4"] = lambda: dihedral_group(4)
    _REGISTRY["Q8"] = quaternion_group


_register()


def builtin_group_names() -> list[str]:
    return sorted(_REGISTRY)


def builtin_group(name: str) -> CayleyTable:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown group {name!r}; available: {', '.join(builtin_group_names())}"
        ) from None
    return factory()


def is_subgroup(ct: CayleyTable, subset) -> bool:
    """True iff the given element indices form a subgroup."""
    elems = sorted(set(int(x) for x in subset))
    if not elems:
        return False
    if any(x < 0 or x >= ct.order for x in elems):
        return False
    members = set(elems)
    if ct.identity not in members:
        return False
    for a in elems:
        if ct.inv(a) not in members:
            return False
        for b in elems:
            if ct.mul(a, b) not in members:
                return False
    return True


def _closure(ct: CayleyTable, mask: np.ndarray) -> np.ndarray:
    """Boolean mask of the subgroup generated by the elements of ``mask``.

    Each round adds inverses and all products of members; a set holding
    words of length up to L then holds those up to 2L, so about
    log2(order) rounds of |members|^2 table lookups suffice.
    """
    mask = mask.copy()
    mask[ct.identity] = True
    while True:
        mask[ct.inverse[mask]] = True
        idx = np.flatnonzero(mask)
        grown = mask.copy()
        grown[ct.table[np.ix_(idx, idx)]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def generated_subgroup(ct: CayleyTable, generators) -> tuple[int, ...]:
    """Closure of a set of elements under the group operation."""
    mask = np.zeros(ct.order, dtype=bool)
    mask[[int(g) for g in generators]] = True
    return tuple(int(x) for x in np.flatnonzero(_closure(ct, mask)))


def all_subgroups(ct: CayleyTable) -> list[tuple[int, ...]]:
    """Every subgroup, as sorted index tuples, found by closure extension."""
    trivial = np.zeros(ct.order, dtype=bool)
    trivial[ct.identity] = True
    found = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in np.flatnonzero(~sub):
                grown = sub.copy()
                grown[g] = True
                new = _closure(ct, grown)
                key = new.tobytes()
                if key not in found:
                    found[key] = new
                    nxt.append(new)
        frontier = nxt
    subs = [tuple(int(x) for x in np.flatnonzero(m)) for m in found.values()]
    return sorted(subs, key=lambda s: (len(s), s))


def is_normal_subgroup(ct: CayleyTable, subset) -> bool:
    members = set(int(x) for x in subset)
    if not is_subgroup(ct, members):
        return False
    for g in range(ct.order):
        gi = ct.inv(g)
        for x in members:
            if ct.mul(ct.mul(g, x), gi) not in members:
                return False
    return True
