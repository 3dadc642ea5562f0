"""One-round conformance of the two-draw samplers with the exact chain.

Two-choices and undecided-state step a replica batch in two NumPy calls
(every row's binomials, then every row's multinomial).  Here each
dynamics stacks all its starts, ``ROWS_PER_START`` rows each, plus one
zero-mass row into one batch and steps it with a single ``step_many``
call, so rows of different totals, widths and extinct columns share both
draws.  Starts with fewer colors ride in the batch with extinct colors
padded in (both rules never revive a color) and are compared at their
own width.

Each start's outcome frequencies are compared with its row of
:func:`~repro.analysis.markov.transition_matrix` by a chi-square
goodness-of-fit test, pooling cells whose expected count is below 5; an
outcome the chain gives probability 0 counts as p = 0.  The p-values are
Holm-corrected across the starts at family level ``FAMILY_ALPHA``, at a
fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.analysis.markov import transition_matrix
from repro.core.undecided import UndecidedState
from repro.core.voter import TwoChoices

ROWS_PER_START = 20_000
FAMILY_ALPHA = 0.01
MIN_EXPECTED = 5.0

#: name -> (class, extra state slots past the colors, starts).  Undecided
#: starts end with the undecided count.
CASES = {
    "two-choices": (
        TwoChoices,
        0,
        [(4, 2), (5, 3), (7, 1), (3, 2, 1), (2, 3, 3), (1, 1, 4)],
    ),
    "undecided-state": (
        UndecidedState,
        1,
        [(3, 2, 1), (4, 2, 0), (1, 1, 4), (2, 2, 1, 1), (3, 1, 1, 2), (1, 2, 2, 0)],
    ),
}


def pad(start: tuple[int, ...], width: int, extra: int) -> np.ndarray:
    """``start`` with extinct colors inserted before its extra slots."""
    colors, tail = start[: len(start) - extra], start[len(start) - extra :]
    return np.array([*colors, *[0] * (width - len(start)), *tail], dtype=np.int64)


def unpad(rows: np.ndarray, slots: int, extra: int) -> np.ndarray:
    """Drop the padded columns again (they must have stayed extinct)."""
    colors = slots - extra
    padded = rows[:, colors : rows.shape[1] - extra]
    assert not padded.any(), "an extinct color was revived"
    return np.concatenate([rows[:, :colors], rows[:, rows.shape[1] - extra :]], axis=1)


def pooled_chi_square(observed: np.ndarray, expected: np.ndarray) -> float:
    """p-value of the goodness-of-fit test, pooling cells expected below 5."""
    order = np.argsort(expected)
    below = int(np.count_nonzero(expected < MIN_EXPECTED))
    # Every cell below the floor goes into the pool, and then the next
    # smallest cells until the pool itself reaches the floor.
    reach = int(np.searchsorted(np.cumsum(expected[order]), MIN_EXPECTED)) + 1
    cut = min(max(below, reach), expected.size) if below else 0
    pool, keep = order[:cut], order[cut:]
    obs, exp = observed[keep], expected[keep]
    if cut:
        obs = np.append(obs, observed[pool].sum())
        exp = np.append(exp, expected[pool].sum())
    if obs.size < 2:
        return 1.0
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, df=obs.size - 1))


def holm_rejections(pvalues: list[float], alpha: float) -> list[int]:
    """Indices Holm's step-down procedure rejects at family level ``alpha``."""
    order = np.argsort(pvalues)
    rejected = []
    for rank, index in enumerate(order):
        if pvalues[index] > alpha / (len(pvalues) - rank):
            break
        rejected.append(int(index))
    return rejected


def start_pvalue(dynamics, start: tuple[int, ...], rows: np.ndarray) -> float:
    """p-value of one start's one-round outcomes against its exact-chain row.

    An outcome the chain gives probability 0 makes the p-value 0.
    """
    P, states = transition_matrix(dynamics, sum(start), len(start))
    index = {state: i for i, state in enumerate(states)}
    law = P[index[start]]
    outcomes, counts = np.unique(rows, axis=0, return_counts=True)
    observed = np.zeros(len(states))
    observed[[index[tuple(int(x) for x in row)] for row in outcomes]] = counts
    support = law > 0.0
    if observed[~support].any():
        return 0.0
    return pooled_chi_square(observed[support], law[support] * len(rows))


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_round_batch_matches_exact_chain(name):
    cls, extra, starts = CASES[name]
    dynamics = cls()
    width = max(len(start) for start in starts)
    batch = np.concatenate(
        [np.tile(pad(start, width, extra), (ROWS_PER_START, 1)) for start in starts]
        + [np.zeros((1, width), dtype=np.int64)]
    )
    out = dynamics.step_many(batch, np.random.default_rng(20_240_518))
    assert out.shape == batch.shape and out.dtype == np.int64
    np.testing.assert_array_equal(out[-1], 0)
    pvalues = [
        start_pvalue(
            dynamics,
            start,
            unpad(out[number * ROWS_PER_START : (number + 1) * ROWS_PER_START], len(start), extra),
        )
        for number, start in enumerate(starts)
    ]
    rejected = holm_rejections(pvalues, FAMILY_ALPHA)
    assert not rejected, {starts[i]: pvalues[i] for i in rejected}


def test_harness_rejects_a_sampler_with_the_wrong_law():
    """The test has power: two-choices stepped by its *marginal* law fails.

    Drawing ``Multinomial(n, color_law)`` has the right one-agent marginal
    but the wrong joint law, which the harness above must be able to see.
    """
    dynamics = TwoChoices()
    gen = np.random.default_rng(7)
    starts = CASES["two-choices"][2]
    pvalues = [
        start_pvalue(
            dynamics,
            start,
            gen.multinomial(sum(start), dynamics.color_law(np.array(start)), size=ROWS_PER_START),
        )
        for start in starts
    ]
    assert holm_rejections(pvalues, FAMILY_ALPHA)


def test_pooling_and_holm_helpers():
    # Cells below the floor pool into one; a perfect fit has p = 1.
    expected = np.array([100.0, 50.0, 2.0, 1.0, 1.5])
    assert pooled_chi_square(expected.copy(), expected) == pytest.approx(1.0)
    # Holm steps down: p_(1) = 0.001 <= 0.01/3, p_(2) = 0.004 <= 0.01/2,
    # p_(3) = 0.5 > 0.01 stops.
    assert sorted(holm_rejections([0.5, 0.001, 0.004], 0.01)) == [1, 2]
    assert holm_rejections([0.02, 0.5, 0.009], 0.01) == []
