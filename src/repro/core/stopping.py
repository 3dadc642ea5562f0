"""Composable stopping rules for the process runners.

A :class:`StoppingRule` decides when a trajectory may halt *before* the
natural absorbing state (a monochromatic configuration) is reached, and —
just as importantly — records *which* criterion fired, surfaced as
``ProcessResult.stopped_by`` / ``EnsembleResult.stopped_by``.  Rules are
checked after every round on the color counts only (for dynamics with
extra state, e.g. undecided-state, the undecided slot is excluded from the
counts but included in ``n``), and never consume randomness, so adding a
rule cannot perturb a trajectory — only truncate it.

Built-in rules (registry names in :data:`repro.core.registry.STOPPING`):

* ``monochromatic`` — some color holds all ``n`` agents (the runner always
  applies this as the absorbing condition; registering it makes the
  default expressible in a scenario file);
* ``plurality-fraction`` — the top color holds at least ``fraction · n``
  agents;
* ``bias-threshold`` — the additive bias ``s(c) = c_(1) - c_(2)`` reaches
  ``threshold``;
* ``round-budget`` — ``rounds`` rounds have elapsed (a *soft* budget that
  marks the replica as rule-stopped; a hard ``max_rounds`` expiry is
  labelled ``"max-rounds"`` instead);
* ``any-of`` — fires when any member rule fires, reporting the first
  member (in order) that did.

Serialization: ``rule.to_dict()`` ↔ :func:`stopping_from_dict` round-trip
through plain JSON-able dicts of the shape ``{"rule": <name>, **params}``.

Metric-threshold rules
----------------------
The configuration-dependent rules are thresholds over the same
:class:`~repro.core.metrics.Metric` objects the trace recorder uses
(``monochromatic`` and ``plurality-fraction`` over ``plurality-count``,
``bias-threshold`` over ``bias``), via the shared
:class:`MetricThresholdStop` base.  Every rule has one evaluation path:
it implements the batched :meth:`StoppingRule.met_many` (and
:meth:`StoppingRule.fired_many` where it reports a member's name), and
the scalar :meth:`StoppingRule.met` and :meth:`StoppingRule.fired` are
their one-row case, as :meth:`Metric.compute` is ``compute_many``'s, so
the two can never disagree.  The ``stopped_by`` label vocabulary is
unchanged from the pre-metric implementation (asserted in
``tests/test_stopping.py``).
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence

import numpy as np

from .metrics import Metric
from .registry import METRICS, STOPPING, checked_int

__all__ = [
    "StoppingRule",
    "MetricThresholdStop",
    "MonochromaticStop",
    "PluralityFractionStop",
    "BiasThresholdStop",
    "RoundBudgetStop",
    "AnyOfStop",
    "stopping_from_dict",
]

#: ``stopped_by`` label used by the runners when the hard round budget
#: (``max_rounds``) expires without convergence or a rule firing — distinct
#: from the soft ``"round-budget"`` *rule* label, so the two cases stay
#: distinguishable in ``stop_reasons()``.
BUDGET_EXHAUSTED = "max-rounds"


class StoppingRule(abc.ABC):
    """Base class: a pure predicate over (color counts, n, round index).

    A rule implements :meth:`met_many` on an ``(R, k)`` batch; the runners
    call only the batch methods, and :meth:`met`/:meth:`fired` are their
    one-row case.
    """

    #: Registry name; also the label recorded in ``stopped_by``.
    rule: str = "stopping-rule"

    @abc.abstractmethod
    def met_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        """Per-replica verdicts on an ``(R, k)`` batch of counts at round ``t``."""

    def met(self, counts: np.ndarray, n: int, t: int) -> bool:
        """True iff the rule fires on one configuration: the one-row :meth:`met_many`."""
        return bool(self.met_many(np.asarray(counts)[None, :], n, t)[0])

    @property
    def sparse_invariant(self) -> bool:
        """True when the rule may be evaluated on support-compacted counts.

        The sparse ensemble engine hands rules the ``(R, s)`` compacted
        columns instead of the dense ``(R, k)`` counts; a rule qualifies
        when its verdict is identical on both (built-in threshold rules
        inherit the answer from their metric, ``round-budget`` never looks
        at the counts at all).  Third-party rules default to False, which
        keeps ``engine="auto"`` dense and makes an explicit ``"sparse"``
        request fail loudly.
        """
        return False

    def fired(self, counts: np.ndarray, n: int, t: int) -> str | None:
        """Name of the (sub-)rule that fired, or None: the one-row :meth:`fired_many`."""
        return self.fired_many(np.asarray(counts)[None, :], n, t)[0]

    def fired_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        """Per-replica fired-rule names (object array of str | None)."""
        out = np.full(counts.shape[0], None, dtype=object)
        out[self.met_many(counts, n, t)] = self.rule
        return out

    def params(self) -> dict[str, object]:
        """JSON-able constructor parameters (inverse of the registry factory)."""
        return {}

    def to_dict(self) -> dict[str, object]:
        return {"rule": self.rule, **self.params()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoppingRule):
            return NotImplemented
        return type(self) is type(other) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(repr(sorted(self.to_dict().items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}={value!r}" for key, value in self.params().items())
        return f"{type(self).__name__}({inner})"


class MetricThresholdStop(StoppingRule):
    """A rule of the form ``metric(counts) >= threshold``.

    Subclasses name a registered metric via :attr:`metric_name` and return
    the (possibly ``n``-dependent) threshold from :meth:`threshold_for`.
    :meth:`met_many` runs through the metric's single vectorized
    ``compute_many``.
    """

    #: Name of the metric (in :data:`repro.core.registry.METRICS`) compared
    #: against the threshold.
    metric_name: str = "metric"

    @property
    def metric(self) -> Metric:
        cached = getattr(self, "_metric", None)
        if cached is None:
            cached = METRICS.build(self.metric_name)
            assert isinstance(cached, Metric)
            self._metric = cached
        return cached

    def threshold_for(self, n: int):
        """The firing threshold at population size ``n``."""
        raise NotImplementedError

    @property
    def sparse_invariant(self) -> bool:
        return self.metric.sparse_invariant

    def met_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        values = self.metric.compute_many(np.asarray(counts), n)
        return values >= self.threshold_for(n)


@STOPPING.register("monochromatic")
class MonochromaticStop(MetricThresholdStop):
    """Stop when one color holds every agent (the absorbing state)."""

    rule = "monochromatic"
    metric_name = "plurality-count"

    def threshold_for(self, n: int) -> int:
        # max_j c_j <= n always, so >= n is exactly the old == n test.
        return n


@STOPPING.register("plurality-fraction")
class PluralityFractionStop(MetricThresholdStop):
    """Stop once the top color holds at least ``fraction`` of all agents."""

    rule = "plurality-fraction"
    metric_name = "plurality-count"

    def __init__(self, fraction: float):
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def threshold_for(self, n: int) -> float:
        # Thresholding the integer count against fraction·n preserves the
        # pre-metric comparison bit for bit (no division on the left side).
        return self.fraction * n

    def params(self) -> dict[str, object]:
        return {"fraction": self.fraction}


@STOPPING.register("bias-threshold")
class BiasThresholdStop(MetricThresholdStop):
    """Stop once the additive bias ``s(c) = c_(1) - c_(2)`` reaches ``threshold``."""

    rule = "bias-threshold"
    metric_name = "bias"

    def __init__(self, threshold: int):
        self.threshold = checked_int("threshold", threshold, 1)

    def threshold_for(self, n: int) -> int:
        return self.threshold

    def params(self) -> dict[str, object]:
        return {"threshold": self.threshold}


@STOPPING.register("round-budget")
class RoundBudgetStop(StoppingRule):
    """Stop after ``rounds`` rounds (a soft budget, recorded as this rule)."""

    rule = "round-budget"

    def __init__(self, rounds: int):
        self.rounds = checked_int("rounds", rounds, 0)

    @property
    def sparse_invariant(self) -> bool:
        return True  # never inspects the counts

    def met_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        return np.full(counts.shape[0], t >= self.rounds, dtype=bool)

    def params(self) -> dict[str, object]:
        return {"rounds": self.rounds}


@STOPPING.register("any-of")
class AnyOfStop(StoppingRule):
    """Fire when any member rule fires; report the first member that did."""

    rule = "any-of"

    def __init__(self, rules: Sequence[StoppingRule | Mapping]):
        members: list[StoppingRule] = []
        for member in rules:
            if isinstance(member, Mapping):
                member = stopping_from_dict(member)
            if not isinstance(member, StoppingRule):
                raise ValueError(f"any-of members must be stopping rules, got {member!r}")
            members.append(member)
        if not members:
            raise ValueError("any-of needs at least one member rule")
        self.rules = tuple(members)

    @property
    def sparse_invariant(self) -> bool:
        return all(rule.sparse_invariant for rule in self.rules)

    def met_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        out = np.zeros(counts.shape[0], dtype=bool)
        for rule in self.rules:
            out |= rule.met_many(counts, n, t)
        return out

    def fired_many(self, counts: np.ndarray, n: int, t: int) -> np.ndarray:
        out = np.full(counts.shape[0], None, dtype=object)
        unset = np.ones(counts.shape[0], dtype=bool)
        for rule in self.rules:
            if not unset.any():
                break
            names = rule.fired_many(counts, n, t)
            hit = unset & ~np.equal(names, None)
            out[hit] = names[hit]
            unset &= ~hit
        return out

    def params(self) -> dict[str, object]:
        return {"rules": [rule.to_dict() for rule in self.rules]}


def stopping_from_dict(data: Mapping) -> StoppingRule:
    """Build a stopping rule from its ``{"rule": <name>, **params}`` dict.

    Strict inverse of :meth:`StoppingRule.to_dict`: the ``rule`` key is
    required, the name must be registered, and unknown parameters are
    rejected by the registry's signature validation.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"stopping rule must be a mapping, got {type(data).__name__}")
    payload = dict(data)
    name = payload.pop("rule", None)
    if not isinstance(name, str):
        raise ValueError("stopping rule dict needs a string 'rule' key")
    built = STOPPING.build(name, **payload)
    assert isinstance(built, StoppingRule)
    return built
