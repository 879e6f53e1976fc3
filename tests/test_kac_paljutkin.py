"""The Kac-Paljutkin quantum group: the first input that is neither
commutative nor cocommutative, with complex structure constants."""

import numpy as np
import pytest

import qgidem as qg
from qgidem.analysis import classify
from qgidem.states import SolveConfig, solve_idempotents

from helpers import kac_paljutkin

# its 8 idempotent states, in the solver's order: the Haar state of KP,
# Pal's two non-Haar states (Pal 1996), then the Haar states of the
# subgroups of its classical points Z2 x Z2 (the characters e1..e4),
# down to the counit
STATES = np.array([
    [1, 1, 1, 1, 2, 0, 0, 2],
    [2, 0, 0, 2, 0, 0, 0, 4],
    [2, 0, 0, 2, 4, 0, 0, 0],
    [2, 2, 2, 2, 0, 0, 0, 0],
    [4, 0, 0, 4, 0, 0, 0, 0],
    [4, 0, 4, 0, 0, 0, 0, 0],
    [4, 4, 0, 0, 0, 0, 0, 0],
    [8, 0, 0, 0, 0, 0, 0, 0],
]) / 8
NON_HAAR = [1, 2]


def test_kac_paljutkin_validates_exactly():
    g = kac_paljutkin()
    assert g.comult.dtype == np.complex128
    rep = qg.validate(g)
    assert rep.passed
    assert all(v == 0.0 for v in rep.residuals.values())
    assert rep.cancellation_ranks == (64, 64)


@pytest.fixture(scope="module")
def kp_states():
    g = kac_paljutkin()
    return [solve_idempotents(g, SolveConfig(starts=500, seed=seed)) for seed in range(4)]


def test_solver_finds_the_eight_states_at_every_seed(kp_states):
    first = np.array([st.coeffs for st in kp_states[0]])
    assert np.abs(first - STATES).max() <= 1e-12
    for found in kp_states[1:]:
        assert np.array_equal(np.array([st.coeffs for st in found]), first)


def test_classify_finds_pals_two_non_haar_states(kp_states):
    g = kac_paljutkin()
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    # classify raises InternalConsistencyError when its criteria disagree
    verdicts = [classify(g, st, gd=gd, mu=mu) for st in kp_states[0]]
    assert [c.is_haar for c in verdicts] == [i not in NON_HAAR for i in range(8)]
    for c in verdicts:
        assert c.witnesses["quotient_built"] == c.is_haar


def test_dual_has_the_same_eight_states_and_haar_split():
    # KP is self-dual: its dual has 8 idempotent states too, 6 of them Haar
    g = qg.dual(kac_paljutkin())
    found = solve_idempotents(g)
    assert len(found) == 8
    gd = qg.gns(g)
    mu = qg.multiplicative_unitary(g, gd)
    verdicts = [classify(g, st, gd=gd, mu=mu) for st in found]
    assert sum(c.is_haar for c in verdicts) == 6
    for c in verdicts:
        assert c.witnesses["quotient_built"] == c.is_haar
