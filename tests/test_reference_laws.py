"""The plurality laws against a reference that shares no code with them.

``enumerated_law`` (``tests/conftest.py``) runs every one of the ``k**h``
sample tuples through the rule the agent and graph engines run
(``agent_rule(k).reduce``) and splits tied tuples uniformly itself.  The
counts engine samples from ``color_law``: closed forms at ``h <= 3`` and
:func:`~repro.core.majority.plurality_law`, a generating function, above.
So agreement here checks the law and the rule against each other, where
the exact-chain tests can only check a sampler against its own law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Configuration, HPlurality, TwoSampleUniform
from repro.core.majority import plurality_law
from repro.experiments.workloads import theorem4_start

#: Starts per k: skewed, near-balanced, tied at the top, and one with an
#: extinct color.
STARTS = {
    3: ([45, 33, 22], [34, 33, 33], [40, 40, 20], [70, 0, 30]),
    4: ([40, 30, 20, 10], [26, 25, 25, 24], [35, 35, 15, 15], [50, 0, 30, 20]),
}


@pytest.mark.parametrize(
    "k,h", [(3, h) for h in range(1, 10)] + [(4, h) for h in range(1, 6)]
)
def test_hplurality_law_matches_enumeration(reference_law, k, h):
    # The law the engine samples (closed forms at h <= 3) and the
    # generating function itself, at every h.
    dyn = HPlurality(h)
    for counts in STARTS[k]:
        reference = reference_law(dyn, counts)
        p = np.array(counts) / sum(counts)
        np.testing.assert_allclose(dyn.color_law(np.array(counts)), reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plurality_law(p[None, :], h)[0], reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", sorted(STARTS))
def test_two_sample_uniform_law_matches_enumeration(reference_law, k):
    dyn = TwoSampleUniform()
    for counts in STARTS[k]:
        np.testing.assert_allclose(
            dyn.color_law(np.array(counts)), reference_law(dyn, counts), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("k", (32, 64))
@pytest.mark.parametrize("h", (16, 24, 32))
def test_law_is_stable_at_large_h(h, k):
    # E6's Theorem 4 start and a start one color dominates: every row is
    # a probability vector to round-off, with nothing below -1e-15.
    n = 100_000
    dominated = np.ones(k, dtype=np.int64)
    dominated[0] = n - (k - 1)
    counts = np.stack([theorem4_start(n, k).counts, dominated])
    law = HPlurality(h).color_law(counts)
    assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-12
    assert law.min() >= -1e-15
    # The plurality color gains: the Theorem 4 start's top count, and the
    # dominating color, both win more often than their share.
    p = counts / n
    assert (law[:, 0] > p[:, 0]).all()


def test_one_color_is_certain():
    assert plurality_law(np.array([[1.0]]), 7).tolist() == [[1.0]]
    law = HPlurality(9).color_law(Configuration([0, 12, 0]).counts)
    np.testing.assert_allclose(law, [0.0, 1.0, 0.0], rtol=0, atol=1e-15)
