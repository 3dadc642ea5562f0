"""The class ``D3(k)`` of 3-input dynamics (paper, Definitions 1-4).

A 3-input dynamics is specified by ``f : [k]^3 -> [k]`` with
``f(x1,x2,x3) ∈ {x1,x2,x3}``.  Theorem 3 shows that within this class the
3-majority rules (clear-majority + uniform properties) are the *only*
plurality-consensus solvers.  This module provides a concrete, simulatable
parameterisation of the class, the δ-counter machinery of Definition 3, and
the classification predicates — the substrate for experiment E5.

Parameterisation
----------------
We cover every rule whose behaviour depends on the input triple only
through (i) its equality pattern and (ii) the *order* of the color indices
(colors are totally ordered by index, as the median dynamics requires):

* on an all-equal triple the rule must return that color;
* on a *clear-majority* triple (exactly two equal) the rule picks one of
  ``"major"``, ``"minor"``, ``"low"``, ``"high"`` — independently for each
  of the three positional patterns ``XXY`` (x1=x2), ``XYX`` (x1=x3) and
  ``YXX`` (x2=x3);
* on a triple of three distinct colors the rule picks a *position* (0, 1
  or 2) as a function of the rank pattern ``(rank(x1), rank(x2), rank(x3))``
  — one choice for each of the 6 patterns — or picks a uniformly random
  position (``"uniform"``).

This family contains 3-majority (both tie-break conventions), the median
dynamics, min/max rules, the voter ("first") rule and the skewed rules of
Lemma 8, and is closed under everything Theorem 3's proof manipulates.

δ-counters (Definition 3): for three distinct colors ordered
``low < mid < high``, ``delta[rho]`` counts the permutation patterns on
which the rule returns the rank-``rho`` color; ``sum(delta) = 6`` and the
uniform property is ``delta == (2, 2, 2)``.

Exact O(k) color law
--------------------
Every rule in this family has a closed-form per-agent law, obtained by
decomposing the ordered-triple distribution by equality pattern.  With
``p = c/n``, ``B1/B2`` the strictly-below prefix sums of ``p``/``p²`` in
the color order and ``A1/A2`` the strictly-above suffix sums:

* all-equal triples contribute ``p_j³``;
* each clear-majority pattern (probability ``p_a² p_b`` for pair color
  ``a``, odd color ``b``) contributes, per the rule's choice,
  ``major: p_j²(1-p_j)``, ``minor: p_j(S2-p_j²)``,
  ``low: p_j² A1_j + p_j A2_j``, ``high: p_j² B1_j + p_j B2_j``;
* the six orderings of a distinct set ``{x<y<z}`` are equally likely, so
  the distinct part depends only on the δ-counters:
  ``p_j (δ0 e2(A) + δ1 B1_j A1_j + δ2 e2(B))`` with
  ``e2(A) = (A1² - A2)/2`` the sum of ``p_y p_z`` over pairs above ``j``
  (and symmetrically below).

Everything is prefix sums — O(k) per configuration, broadcastable over
replica batches — which is what lets arbitrary 3-input rules ride the same
exact multinomial engine as Lemma 1's 3-majority.  The tests check it
against the O(k³) sum over all ordered triples, run through
:meth:`ThreeInputRule.apply`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import numpy as np

from .dynamics import CountsDynamics, GraphKernel, validate_engine
from .registry import DYNAMICS

__all__ = [
    "ThreeInputRule",
    "three_input_rule",
    "PAIR_PATTERNS",
    "DISTINCT_PATTERNS",
    "majority_rule",
    "majority_uniform_rule",
    "median_rule",
    "min_rule",
    "max_rule",
    "first_rule",
    "skewed_rule",
    "all_position_rules",
]

#: positional equality patterns with a clear majority.
PAIR_PATTERNS = ("XXY", "XYX", "YXX")

#: the six rank patterns of a distinct triple: (rank(x1), rank(x2), rank(x3)).
DISTINCT_PATTERNS = tuple(itertools.permutations((0, 1, 2)))

_PAIR_CHOICES = ("major", "minor", "low", "high")


def _pattern_index(ra: np.ndarray, rb: np.ndarray, rc: np.ndarray) -> np.ndarray:
    return ra * 9 + rb * 3 + rc


class ThreeInputRule(CountsDynamics):
    """A concrete member of ``D3(k)``.

    Parameters
    ----------
    pair_choice:
        Mapping from each pattern in :data:`PAIR_PATTERNS` to one of
        ``"major"`` / ``"minor"`` / ``"low"`` / ``"high"``.
    distinct_choice:
        Either the string ``"uniform"`` (uniformly random position) or a
        mapping from each rank pattern in :data:`DISTINCT_PATTERNS` to a
        position in {0, 1, 2}.
    name:
        Identifier for result tables.
    engine:
        ``"counts"`` — exact multinomial stepping from the O(k) closed-form
        law; ``"agent"`` — explicit per-agent triple sampling (the
        statistical ground-truth path, O(n) per round); ``"auto"``
        (default) — counts, since the exact law exists for every rule in
        the family.
    """

    support_closed = True  # f(x1, x2, x3) is one of its inputs

    def __init__(
        self,
        pair_choice: Mapping[str, str],
        distinct_choice: Mapping[tuple[int, int, int], int] | str,
        name: str = "3-input-rule",
        engine: str = "auto",
    ):
        for pat in PAIR_PATTERNS:
            if pat not in pair_choice:
                raise ValueError(f"pair_choice missing pattern {pat!r}")
            if pair_choice[pat] not in _PAIR_CHOICES:
                raise ValueError(f"invalid pair choice {pair_choice[pat]!r}")
        self.pair_choice = dict(pair_choice)
        if distinct_choice == "uniform":
            self.distinct_choice: dict[tuple[int, int, int], int] | str = "uniform"
        else:
            if isinstance(distinct_choice, str):
                raise ValueError(f"unknown distinct_choice {distinct_choice!r}")
            missing = set(DISTINCT_PATTERNS) - set(distinct_choice)
            if missing:
                raise ValueError(f"distinct_choice missing patterns {sorted(missing)}")
            for pat, pos in distinct_choice.items():
                if pos not in (0, 1, 2):
                    raise ValueError(f"position must be 0/1/2, got {pos!r} for {pat}")
            self.distinct_choice = {tuple(p): int(v) for p, v in distinct_choice.items()}
        self.name = name
        self.engine = validate_engine(engine)

    # -- classification (Definitions 2-4) ------------------------------------

    def has_clear_majority_property(self) -> bool:
        """Definition 2: returns the majority on every clear-majority triple."""
        return all(v == "major" for v in self.pair_choice.values())

    def delta_counters(self) -> tuple[float, float, float]:
        """Definition 3's (δ_low, δ_mid, δ_high) over the 6 distinct patterns.

        For the ``"uniform"`` distinct choice each pattern contributes 1/3
        to every rank, giving the exactly-uniform (2, 2, 2).
        """
        if self.distinct_choice == "uniform":
            return (2.0, 2.0, 2.0)
        delta = [0.0, 0.0, 0.0]
        for pattern in DISTINCT_PATTERNS:
            pos = self.distinct_choice[pattern]
            delta[pattern[pos]] += 1.0
        return tuple(delta)  # type: ignore[return-value]

    def has_uniform_property(self) -> bool:
        """Definition 3: δ_low = δ_mid = δ_high (= 2)."""
        d = self.delta_counters()
        return abs(d[0] - 2.0) < 1e-12 and abs(d[1] - 2.0) < 1e-12 and abs(d[2] - 2.0) < 1e-12

    def is_three_majority(self) -> bool:
        """Definition 4: member of the class ``M3`` of 3-majority dynamics."""
        return self.has_clear_majority_property() and self.has_uniform_property()

    # -- vectorized application ------------------------------------------------

    def apply(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Evaluate ``f`` on aligned triple arrays of color indices."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        out = a.copy()

        eq_ab = a == b
        eq_ac = a == c
        eq_bc = b == c
        all_eq = eq_ab & eq_ac
        pat_xxy = eq_ab & ~eq_ac  # x1 = x2 != x3
        pat_xyx = eq_ac & ~eq_ab  # x1 = x3 != x2
        pat_yxx = eq_bc & ~eq_ab  # x2 = x3 != x1
        distinct = ~(eq_ab | eq_ac | eq_bc)

        out[all_eq] = a[all_eq]
        for mask, major, minor in (
            (pat_xxy, a, c),
            (pat_xyx, a, b),
            (pat_yxx, b, a),
        ):
            if not np.any(mask):
                continue
            choice = self.pair_choice[
                "XXY" if mask is pat_xxy else "XYX" if mask is pat_xyx else "YXX"
            ]
            if choice == "major":
                out[mask] = major[mask]
            elif choice == "minor":
                out[mask] = minor[mask]
            elif choice == "low":
                out[mask] = np.minimum(major[mask], minor[mask])
            else:  # high
                out[mask] = np.maximum(major[mask], minor[mask])

        if np.any(distinct):
            ad, bd, cd = a[distinct], b[distinct], c[distinct]
            stack = np.stack([ad, bd, cd], axis=1)
            if self.distinct_choice == "uniform":
                pos = rng.integers(0, 3, size=ad.size)
            else:
                ra = (ad > bd).astype(np.int64) + (ad > cd)
                rb = (bd > ad).astype(np.int64) + (bd > cd)
                rc = (cd > ad).astype(np.int64) + (cd > bd)
                table = np.zeros(27, dtype=np.int64)
                for pattern, p in self.distinct_choice.items():
                    table[_pattern_index(*(np.array([v]) for v in pattern))[0]] = p
                pos = table[_pattern_index(ra, rb, rc)]
            out[distinct] = stack[np.arange(ad.size), pos]
        return out

    # -- dynamics interface ----------------------------------------------------

    def agent_rule(self, k: int) -> GraphKernel:
        """``f`` on each sample triple; it draws only for a uniform distinct choice."""
        return GraphKernel(
            h=3,
            reduce=lambda own, seen, rng: self.apply(seen[:, 0], seen[:, 1], seen[:, 2], rng),
            consumes_rng=self.distinct_choice == "uniform",
        )

    def _law_from_probs(self, p: np.ndarray) -> np.ndarray:
        """O(k) closed-form law from color probabilities ``p`` (axis -1).

        Broadcasts over any leading axes; see the module docstring for the
        derivation of each equality-pattern term.
        """
        p2 = p * p
        B1 = np.cumsum(p, axis=-1) - p  # strictly-below prefix sums
        B2 = np.cumsum(p2, axis=-1) - p2
        S1 = p.sum(axis=-1, keepdims=True)
        S2 = p2.sum(axis=-1, keepdims=True)
        A1 = S1 - B1 - p  # strictly-above suffix sums
        A2 = S2 - B2 - p2
        law = p * p2  # all-equal triples
        for pattern in PAIR_PATTERNS:
            choice = self.pair_choice[pattern]
            if choice == "major":
                law = law + p2 * (S1 - p)
            elif choice == "minor":
                law = law + p * (S2 - p2)
            elif choice == "low":
                law = law + p2 * A1 + p * A2
            else:  # high
                law = law + p2 * B1 + p * B2
        d_low, d_mid, d_high = self.delta_counters()
        law = law + p * (
            d_low * 0.5 * (A1 * A1 - A2)
            + d_mid * B1 * A1
            + d_high * 0.5 * (B1 * B1 - B2)
        )
        return law

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Exact per-agent law, O(k) via the equality-pattern decomposition.

        Accepts ``(..., k)`` stacked configurations and broadcasts over the
        leading axes.
        """
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        return self._law_from_probs(c / n)

    def __repr__(self) -> str:
        return (
            f"ThreeInputRule(name={self.name!r}, pair={self.pair_choice}, "
            f"distinct={self.distinct_choice}, delta={self.delta_counters()})"
        )


# -- built-in rules ---------------------------------------------------------


@DYNAMICS.register("majority-rule")
def majority_rule() -> ThreeInputRule:
    """3-majority with the paper's 'first sample' tie-break on distinct triples."""
    return ThreeInputRule(
        pair_choice={p: "major" for p in PAIR_PATTERNS},
        distinct_choice={pat: 0 for pat in DISTINCT_PATTERNS},
        name="3-majority/first",
    )


@DYNAMICS.register("majority-uniform-rule")
def majority_uniform_rule() -> ThreeInputRule:
    """3-majority with uniform tie-break on distinct triples."""
    return ThreeInputRule(
        pair_choice={p: "major" for p in PAIR_PATTERNS},
        distinct_choice="uniform",
        name="3-majority/uniform",
    )


@DYNAMICS.register("median-rule")
def median_rule() -> ThreeInputRule:
    """Doerr et al.'s median as a member of D3: clear-majority, δ=(0,6,0)."""
    return ThreeInputRule(
        pair_choice={p: "major" for p in PAIR_PATTERNS},
        distinct_choice={pat: int(np.argwhere(np.array(pat) == 1)[0, 0]) for pat in DISTINCT_PATTERNS},
        name="median-rule",
    )


@DYNAMICS.register("min-rule")
def min_rule() -> ThreeInputRule:
    """Always adopt the smallest color index: δ=(6,0,0), no clear majority."""
    return ThreeInputRule(
        pair_choice={p: "low" for p in PAIR_PATTERNS},
        distinct_choice={pat: int(np.argwhere(np.array(pat) == 0)[0, 0]) for pat in DISTINCT_PATTERNS},
        name="min-rule",
    )


@DYNAMICS.register("max-rule")
def max_rule() -> ThreeInputRule:
    """Always adopt the largest color index: δ=(0,0,6), no clear majority."""
    return ThreeInputRule(
        pair_choice={p: "high" for p in PAIR_PATTERNS},
        distinct_choice={pat: int(np.argwhere(np.array(pat) == 2)[0, 0]) for pat in DISTINCT_PATTERNS},
        name="max-rule",
    )


@DYNAMICS.register("first-rule")
def first_rule() -> ThreeInputRule:
    """``f(x1,x2,x3) = x1``: the voter model inside D3.

    δ = (2,2,2) — it *has* the uniform property — but it violates the
    clear-majority property on the ``YXX`` pattern, so it is not in M3
    (Lemma 7's half of Theorem 3).
    """
    return ThreeInputRule(
        pair_choice={"XXY": "major", "XYX": "major", "YXX": "minor"},
        distinct_choice={pat: 0 for pat in DISTINCT_PATTERNS},
        name="first-rule",
    )


@DYNAMICS.register("skewed-rule")
def skewed_rule(delta: tuple[int, int, int] = (1, 3, 2)) -> ThreeInputRule:
    """A clear-majority rule with prescribed non-uniform δ-counters.

    The default (1, 3, 2) is the "hardest case" of Lemma 8's proof: the
    rank-low color (the initial plurality in the lemma's configuration)
    wins only one of the six distinct patterns, so the dynamics abandons
    the plurality w.h.p. despite respecting every clear majority.
    """
    if sum(delta) != 6 or any(d < 0 for d in delta):
        raise ValueError(f"delta must be non-negative and sum to 6, got {delta}")
    remaining = list(delta)
    choice: dict[tuple[int, int, int], int] = {}
    for pattern in DISTINCT_PATTERNS:
        # Greedily assign this pattern to the neediest rank present in it.
        ranks_sorted = sorted(range(3), key=lambda r: -remaining[r])
        for r in ranks_sorted:
            if remaining[r] > 0:
                choice[pattern] = pattern.index(r)
                remaining[r] -= 1
                break
    if any(remaining):
        raise ValueError(f"could not realise delta {delta} (leftover {remaining})")
    return ThreeInputRule(
        pair_choice={p: "major" for p in PAIR_PATTERNS},
        distinct_choice=choice,
        name=f"skewed-rule-{delta[0]}{delta[1]}{delta[2]}",
    )


def all_position_rules() -> list[ThreeInputRule]:
    """Enumerate the 3^6 clear-majority, position-based distinct choices.

    Every clear-majority rule in the order-based family, for classifying
    by δ-counters.  No experiment runs them: E5 runs a fixed panel of
    named rules, and ``tests/test_threeinput.py`` checks the
    classification over this enumeration.
    """
    rules = []
    for assignment in itertools.product((0, 1, 2), repeat=len(DISTINCT_PATTERNS)):
        choice = dict(zip(DISTINCT_PATTERNS, assignment))
        rule = ThreeInputRule(
            pair_choice={p: "major" for p in PAIR_PATTERNS},
            distinct_choice=choice,
            name="cm-rule-" + "".join(map(str, assignment)),
        )
        rules.append(rule)
    return rules


@DYNAMICS.register("three-input-rule")
def three_input_rule(
    pair_choice: Mapping[str, str],
    distinct_choice: Mapping[str, int] | str,
    name: str = "3-input-rule",
    engine: str = "auto",
) -> ThreeInputRule:
    """Arbitrary ``D3(k)`` member from JSON-friendly choice tables.

    Same semantics as constructing :class:`ThreeInputRule` directly, but
    the ``distinct_choice`` rank patterns are keyed by *strings* — e.g.
    ``{"012": 0, "021": 2, ...}`` instead of tuple keys — so the rule is
    expressible in a scenario file.  ``"uniform"`` is accepted unchanged.
    """
    if isinstance(distinct_choice, Mapping):
        converted: dict[tuple[int, int, int], int] = {}
        for key, pos in distinct_choice.items():
            pattern = tuple(int(ch) for ch in key) if isinstance(key, str) else tuple(key)
            if len(pattern) != 3:
                raise ValueError(f"distinct pattern key must have 3 ranks, got {key!r}")
            converted[pattern] = pos  # type: ignore[index]
        return ThreeInputRule(pair_choice, converted, name=name, engine=engine)
    return ThreeInputRule(pair_choice, distinct_choice, name=name, engine=engine)
