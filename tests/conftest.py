"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A single moderate profile: deterministic, CI-friendly.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng_factory():
    """Factory for independently seeded generators inside one test."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


def enumerated_law(dynamics, counts) -> np.ndarray:
    """One agent's next-color law, enumerated through the declared agent rule.

    Every tuple of ``h`` samples (all ``k**h`` of them, each with
    probability ``prod c_s / n``) goes through ``agent_rule(k).reduce``.
    The rule must return one of the tuple's most frequent colors; the
    reference itself splits each tuple's mass uniformly over them, so it
    is the law of a plurality rule with uniform tie-breaking, computed
    without any closed form.  Sums are exactly rounded (``math.fsum``).
    """
    c = np.asarray(counts, dtype=np.int64)
    k = c.size
    rule = dynamics.agent_rule(k)
    seen = np.indices((k,) * rule.h).reshape(rule.h, -1).T
    prob = np.prod(c[seen] / c.sum(), axis=1)
    hist = (seen[:, :, None] == np.arange(k)).sum(axis=1)
    tied = hist == hist.max(axis=1, keepdims=True)
    chosen = rule.reduce(None, seen, np.random.default_rng(0) if rule.consumes_rng else None)
    assert tied[np.arange(seen.shape[0]), chosen].all(), "reduce left the tied set"
    share = prob[:, None] * tied / tied.sum(axis=1, keepdims=True)
    return np.array([math.fsum(column) for column in share.T])


@pytest.fixture
def reference_law():
    """:func:`enumerated_law`, the enumeration reference for plurality rules."""
    return enumerated_law
