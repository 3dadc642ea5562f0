"""The paper's protagonist: 3-majority, and its h-sample generalisation.

* :class:`ThreeMajority` — every agent samples three agents u.a.r. (with
  replacement, possibly itself) and adopts the sample's majority color,
  breaking three-way ties by taking the first sample.  Lemma 1 of the paper
  gives the exact per-agent law

      ``p_j = (c_j / n^3) * (n^2 + n c_j - sum_h c_h^2)``,

  which is independent of the tie-break convention; we use it to run the
  exact counts-level engine.  The per-agent rule (explicit triples) is
  kept for cross-validation, for the tie-break ablation and for graphs.

* :class:`HPlurality` — the h-sample plurality rule of Section 4.3, ties
  split uniformly at random.  Its per-agent law is exact at every ``h``:
  ``c/n`` at ``h <= 2``, Lemma 1 at ``h = 3``, and above that
  :func:`plurality_law`, a generating function over the sample counts
  whose tie split is an integral evaluated by exact Gauss–Legendre
  quadrature, O(k h³ log h) per configuration.  So h-plurality steps on
  the counts engine at every ``(h, k)``; its agent engine (``h`` samples
  per agent, reduced row-wise with uniform tie-breaking) is the
  statistical ground truth.  ``HPlurality(3)`` with uniform tie-break has
  the same marginal law as :class:`ThreeMajority`.

* :class:`TwoSampleUniform` — two samples, ties broken uniformly.  Its law
  collapses to ``p_j = c_j / n`` (the polling/voter process), which is the
  paper's remark that two samples are *not* enough.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import CountsDynamics, GraphKernel, validate_engine
from .registry import DYNAMICS, checked_int
from .samplers import row_plurality
from .voter import COPY_FIRST

__all__ = ["ThreeMajority", "HPlurality", "TwoSampleUniform", "plurality_law", "three_majority_law"]


def three_majority_law(counts: np.ndarray) -> np.ndarray:
    """Lemma 1's exact next-color law for the 3-majority dynamics.

    ``p_j = (c_j / n^3) (n^2 + n c_j - sum_h c_h^2)``; rows sum to one by
    the identity ``sum_j c_j = n``.  Broadcasts over leading axes.
    """
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum(axis=-1, keepdims=True)
    if np.any(n <= 0):
        raise ValueError("empty configuration has no color law")
    sq = (c * c).sum(axis=-1, keepdims=True)
    return (c / n**3) * (n**2 + n * c - sq)


def _majority_first(own, seen: np.ndarray, rng) -> np.ndarray:
    """Majority of each sample triple; the first sample on three distinct colors.

    If the second and third samples agree they win; any pair involving
    the first sample elects it, as does the all-distinct default.
    """
    return np.where(seen[:, 1] == seen[:, 2], seen[:, 1], seen[:, 0])


def _majority_uniform(own, seen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Majority of each sample triple; a uniform sample on three distinct colors."""
    out = _majority_first(own, seen, rng)
    a, b, c = seen[:, 0], seen[:, 1], seen[:, 2]
    distinct = (a != b) & (b != c) & (a != c)
    if np.any(distinct):
        pick = rng.integers(0, 3, size=int(distinct.sum()))
        out[distinct] = seen[distinct, :][np.arange(pick.size), pick]
    return out


def _plurality_rule(h: int, k: int) -> GraphKernel:
    """Adopt the plurality of ``h`` samples, ties split uniformly at random."""
    return GraphKernel(
        h=h, reduce=lambda own, seen, rng: row_plurality(seen, k, rng), consumes_rng=True
    )


@DYNAMICS.register("3-majority", summary="3-majority on the clique (Lemma 1 exact law)")
class ThreeMajority(CountsDynamics):
    """3-majority dynamics on the clique (exact counts-level engine).

    Parameters
    ----------
    tie_break:
        ``"first"`` (paper's rule) or ``"uniform"``; only observable in
        agent-level mode and only through joint statistics — the marginal
        law (hence the counts process) is the same, which the ablation
        bench verifies empirically.
    engine:
        ``"counts"`` / ``"auto"`` (= counts; the law always exists) or
        ``"agent"``: sample explicit triples per agent instead of the
        Lemma 1 multinomial — statistically identical, ~n/k times slower;
        used by the validation tests and the engine ablation.
    """

    name = "3-majority"
    support_closed = True  # agents adopt a sampled color

    def __init__(self, tie_break: str = "first", engine: str = "auto"):
        if tie_break not in ("first", "uniform"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break
        self.engine = validate_engine(engine)

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        return three_majority_law(counts)

    def agent_rule(self, k: int) -> GraphKernel:
        if self.tie_break == "uniform":
            return GraphKernel(h=3, reduce=_majority_uniform, consumes_rng=True)
        return GraphKernel(h=3, reduce=_majority_first, consumes_rng=False)


#: Cells of one polynomial array in a row chunk of :func:`plurality_law`
#: (coefficients × quadrature nodes × rows × padded colors, 8 MiB of
#: float64).  The product tree holds a few such arrays at once, so peak
#: memory stays flat in the replica count.
_LAW_CHUNK_CELLS = 2**20


@functools.lru_cache(maxsize=64)
def _law_plan(h: int) -> tuple[np.ndarray, ...]:
    """The quadrature pairs of :func:`plurality_law` at sample size ``h``.

    One pair ``q`` per (winning count ``m``, Gauss–Legendre node ``y`` on
    ``[0, 1]``), sorted by ``m``: at ``m`` the tie-split integrand has
    degree at most ``(h - m) // m`` in ``y``, so ``(h - m) // m // 2 + 1``
    nodes integrate it exactly.  Returns ``m``, the weights, the factor
    table ``scale[t, q]`` (1 below ``m``, ``y`` at ``m``, 0 above, and a
    zero row ``t = h``) that turns a Poisson pmf into a pair's per-color
    polynomial, ``needed[t]`` (pairs ``q < needed[t]`` still need
    coefficient ``t``: pair ``q`` stops at degree ``h - m``) and
    ``mirror[t, q] = h - m - t``, the coefficient that meets ``t`` in
    degree ``h - m`` (the zero row ``h`` when negative).
    """
    counts, nodes, weights = [], [], []
    for m in range(1, h + 1):
        y, w = np.polynomial.legendre.leggauss((h - m) // m // 2 + 1)
        counts += [m] * y.size
        nodes += list((y + 1) / 2)
        weights += list(w / 2)
    m, y, w = np.array(counts), np.array(nodes), np.array(weights)
    t = np.arange(h + 1)[:, None]
    scale = np.where(t < m, 1.0, np.where(t == m, y, 0.0))
    scale[h] = 0.0
    needed = np.searchsorted(m, h - np.arange(h), side="right")
    mirror = np.where(t[:h] <= h - m, h - m - t[:h], h)
    return m, w, scale, needed, mirror


def _truncated_product(a: np.ndarray, b: np.ndarray, needed: np.ndarray) -> np.ndarray:
    """``a · b`` as polynomials along axis 0, truncated to ``len(a)`` coefficients.

    Pair ``q`` (axis 1) gets coefficient ``t`` only while ``q < needed[t]``;
    the rest hold partial sums that no needed coefficient reads.
    """
    degree = a.shape[0]
    out = a[0] * b[:degree]
    for s in range(1, degree):
        q = needed[s]
        out[s:, :q] += a[s, :q] * b[: degree - s, :q]
    return out


def _plurality_law_rows(p: np.ndarray, h: int, width: int) -> np.ndarray:
    m, w, scale, needed, mirror = _law_plan(h)
    rows, k = p.shape
    # Poisson pmfs e^{-q} q^t / t! (t = 0..h) of the sample counts, on one
    # color-major axis (color · rows + row); the padding colors have
    # q = 0, whose polynomial is the constant 1.
    q = np.zeros((width, rows))
    q[:k] = h * p.T
    pmf = np.empty((h + 1, width * rows))
    pmf[0] = np.exp(-q).ravel()
    pmf[1:] = q.ravel() / np.arange(1, h + 1)[:, None]
    np.cumprod(pmf, axis=0, out=pmf)
    # Product tree over the colors: node i of a level is the product of
    # nodes i and i + half below it, so each level splits into halves.
    leaves = scale[:, :, None] * pmf[:, None]  # (coefficient, pair, color · row)
    levels = [leaves]
    while levels[-1].shape[-1] > 2 * rows:
        level = levels[-1]
        half = level.shape[-1] // 2
        levels.append(_truncated_product(level[:h, :, :half], level[:, :, half:], needed))
    # Down the tree: the product of everything outside a node is its
    # parent's outside times its sibling's product.
    top = levels[-1]
    outside = np.concatenate([top[..., rows:], top[..., :rows]], axis=-1)
    for level in levels[-2::-1]:
        half = level.shape[-1] // 2
        outside = np.concatenate([outside, outside], axis=-1)
        sibling = np.concatenate([level[..., half:], level[..., :half]], axis=-1)
        if level is not leaves:
            outside = _truncated_product(outside, sibling, needed)
    # [x^(h-m)] of the product over every other color, for each color j.
    others = (outside * sibling[mirror, np.arange(m.size)]).sum(axis=0)
    joint = (w[:, None] * pmf[m] * others).sum(axis=0).reshape(width, rows)[:k]
    return (joint / joint.sum(axis=0)).T.copy()


def plurality_law(p: np.ndarray, h: int) -> np.ndarray:
    """Exact next-color law of h-plurality for rows of color fractions ``p``.

    Draw the ``h`` samples as independent ``Poisson(h p_i)`` counts ``N_i``
    conditioned on ``sum N = h`` (the multinomial).  Color ``j`` wins with
    count ``m`` when every other count is at most ``m``; with ``T`` others
    tied at ``m`` it wins the uniform split with ``1/(1+T) = ∫₀¹ y^T dy``.
    So ``P(j wins, sum N = h)`` is

        ``sum_m Pois(N_j = m) ∫₀¹ [x^(h-m)] prod_{i≠j} g_i(x, y) dy``,
        ``g_i = e^{-h p_i} (sum_{t<m} (h p_i x)^t / t! + y (h p_i x)^m / m!)``,

    and dividing each row by its sum, ``P(sum N = h)``, conditions on the
    total.  Up to that normalisation this is
    ``h! sum_m (p_j^m/m!) ∫₀¹ [x^(h-m)] prod_{i≠j} (...) dy`` in ``p``
    itself; the Poisson weights keep every coefficient a probability, so
    nothing overflows at large ``h``.  The ``y`` integral is exact
    Gauss–Legendre quadrature (see :func:`_law_plan`), and the products
    over ``i ≠ j`` come from a product tree over the colors — no division
    and no cancellation, since every coefficient is non-negative.  Cost
    O(k h³ log h) per row, in row chunks of at most
    :data:`_LAW_CHUNK_CELLS` cells per array.
    """
    p = np.asarray(p, dtype=np.float64)
    rows, k = p.shape
    width = max(4, 1 << (k - 1).bit_length())
    chunk = max(1, _LAW_CHUNK_CELLS // (h * _law_plan(h)[0].size * width))
    if rows <= chunk:
        return _plurality_law_rows(p, h, width)
    return np.concatenate(
        [_plurality_law_rows(p[i : i + chunk], h, width) for i in range(0, rows, chunk)]
    )


@DYNAMICS.register("h-plurality", summary="plurality of h uniform samples (Section 4.3)")
class HPlurality(CountsDynamics):
    """h-plurality dynamics: adopt the plurality of ``h`` uniform samples.

    Ties among maximal sample colors are broken uniformly at random
    (Section 4.3 of the paper).  The exact law exists at every ``h``:
    ``c/n`` at ``h <= 2``, Lemma 1 at ``h = 3`` and :func:`plurality_law`
    above, so the counts engine steps it at any ``(h, k)``.

    Parameters
    ----------
    h:
        Sample size, an integer ``>= 1``.
    engine:
        ``"counts"`` / ``"auto"`` (= counts) — exact multinomial stepping
        from the law; ``"agent"`` — explicit per-agent sampling, O(n·h)
        per round, the statistical ground truth the law is checked
        against.
    """

    name = "h-plurality"
    support_closed = True  # the plurality of a sample is one of the samples

    def __init__(self, h: int, engine: str = "auto"):
        self.h = checked_int("h", h, 1)
        self.name = f"{self.h}-plurality"
        self.engine = validate_engine(engine)

    def agent_rule(self, k: int) -> GraphKernel:
        return COPY_FIRST if self.h == 1 else _plurality_rule(self.h, k)

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Exact law: closed forms for ``h <= 3``, :func:`plurality_law` above.

        Broadcasts over leading axes.
        """
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        if self.h <= 2:
            # h = 1 is the voter model; h = 2 with uniform tie-split also
            # collapses to polling: p² + 2·p(1-p)/2 = p.
            return c / n
        if self.h == 3:
            return three_majority_law(c)
        p = (c / n).reshape(-1, c.shape[-1])
        return plurality_law(p, self.h).reshape(c.shape)


@DYNAMICS.register("2-sample-uniform", summary="two samples, uniform tie-break (= polling)")
class TwoSampleUniform(CountsDynamics):
    """Two samples with uniform tie-breaking — provably just polling.

    ``p_j = (c_j/n)^2 + 2 (c_j/n)(1 - c_j/n) / 2 = c_j / n``: the same
    marginal as the voter model, hence (paper, Section 1) it converges to a
    minority with constant probability even under bias Θ(n).
    """

    name = "2-sample-uniform"
    support_closed = True  # law collapses to c/n

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        c = np.asarray(counts, dtype=np.float64)
        return c / c.sum(axis=-1, keepdims=True)

    def agent_rule(self, k: int) -> GraphKernel:
        return _plurality_rule(2, k)
