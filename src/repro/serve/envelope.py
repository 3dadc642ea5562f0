"""Per-item spec parsing and the one JSON form of a result.

``repro batch`` and the network service both accept scenario objects
from untrusted input, and both need the same failure semantics: one
malformed item must not abort the valid ones.  :func:`prepare_spec`
parses one item — strict :meth:`ScenarioSpec.from_dict` structure and a
concrete seed (reproducibility is what makes dedup and caching sound) —
into a ``(spec, error)`` pair; :class:`~repro.serve.executor.Batch`
calls it on every entry of a batch.  Exactly one of the pair is
``None``; errors are JSON-able ``{"type", "message"}`` envelopes, the
shape both the CLI output and the service wire format embed.

Parsing resolves no registry name.  A spec is resolved in one place,
the run (:func:`~repro.scenario.simulate_ensemble` inside the
:class:`~repro.serve.executor.Executor`); a spec that fails to resolve
or to run comes back from there as an :class:`EnvelopeError` carrying
the same envelope shape.

:func:`result_payload` is the one JSON form of a result: the
``/v1/result`` body, each served item of a batch document
(:func:`~repro.serve.executor.batch_document`), and, with the spec
echoed by :func:`simulate_payload`, the ``/v1/simulate`` body that
``repro simulate --json`` prints too.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ..core.process import EnsembleResult
from ..scenario import ScenarioSpec

__all__ = [
    "EnvelopeError",
    "error_envelope",
    "finite_or_none",
    "prepare_spec",
    "result_payload",
    "simulate_payload",
    "trace_summary",
]


class EnvelopeError(Exception):
    """An exception reconstructed from a ``{"type", "message"}`` envelope.

    Workers report per-item failures as envelopes (picklable, JSON-able);
    when a caller needs the failure back as an exception — the executor
    raising it to every waiter of a run — this carries the
    original envelope so :func:`error_envelope` round-trips the worker's
    exception type instead of reporting ``EnvelopeError``.
    """

    def __init__(self, envelope: dict[str, str]):
        super().__init__(envelope.get("message", "worker failure"))
        self.envelope = {
            "type": str(envelope.get("type", "Error")),
            "message": str(envelope.get("message", "")),
        }


def error_envelope(exc: BaseException) -> dict[str, str]:
    """JSON-able ``{"type", "message"}`` form of one item failure."""
    if isinstance(exc, EnvelopeError):
        return dict(exc.envelope)
    return {"type": type(exc).__name__, "message": str(exc)}


def prepare_spec(entry) -> tuple[ScenarioSpec | None, dict[str, str] | None]:
    """Parse one scenario object into ``(spec, None)`` or ``(None, envelope)``."""
    try:
        if isinstance(entry, ScenarioSpec):
            spec = entry
        elif isinstance(entry, Mapping):
            spec = ScenarioSpec.from_dict(entry)
        else:
            raise ValueError(
                f"scenario must be a JSON object, got {type(entry).__name__}"
            )
        if spec.seed is None:
            raise ValueError(
                "scenario has seed=None; serving needs concrete seeds so results "
                "are reproducible and cacheable"
            )
        return spec, None
    except Exception as exc:  # noqa: BLE001 — any failure becomes the item's envelope
        return None, error_envelope(exc)


def finite_or_none(value: float) -> float | None:
    """NaN/inf → None: result JSON is strict (``allow_nan=False``)."""
    value = float(value)
    return value if math.isfinite(value) else None


def trace_summary(trace) -> dict | None:
    """JSON-able TraceSet summary (metrics, shape, bit-identity digest)."""
    if trace is None:
        return None
    return {
        "metrics": list(trace.metrics),
        "every": trace.every,
        "rounds_recorded": trace.n_rounds,
        "replicas": trace.replicas,
        "digest": trace.digest(),
    }


def result_payload(key: str | None, source: str, result: EnsembleResult) -> dict[str, object]:
    """JSON-able result envelope: every front end's one form of a result.

    Carries enough to check end-to-end bit-identity from the client side:
    the full per-replica ``winners``/``rounds``/``converged`` vectors plus
    the :meth:`TraceSet.digest` (which covers dtypes, shapes and raw
    bytes of every recorded column).
    """
    return {
        "key": key,
        "source": source,
        "replicas": result.replicas,
        "plurality_color": int(result.plurality_color),
        "plurality_win_rate": finite_or_none(result.plurality_win_rate),
        "convergence_rate": finite_or_none(result.convergence_rate),
        "winners": [int(w) for w in result.winners],
        "rounds": [int(r) for r in result.rounds],
        "converged": [bool(c) for c in result.converged],
        "rounds_summary": {
            name: finite_or_none(value) for name, value in result.rounds_summary().items()
        },
        "stop_reasons": result.stop_reasons(),
        "trace": trace_summary(result.trace),
    }


def simulate_payload(
    key: str | None, source: str, result: EnsembleResult, spec: ScenarioSpec
) -> dict[str, object]:
    """The ``/v1/simulate`` body: :func:`result_payload` plus the spec echoed."""
    return {**result_payload(key, source, result), "spec": spec.to_dict()}
