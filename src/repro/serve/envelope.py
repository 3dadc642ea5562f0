"""Per-item spec validation with error envelopes.

``repro batch`` and the network service both accept *lists* of scenario
objects from untrusted input, and both need the same failure semantics:
one malformed item must not abort the valid ones.  :func:`prepare_specs`
validates every item up front — strict :meth:`ScenarioSpec.from_dict`
structure, a concrete seed (reproducibility is what makes dedup and
caching sound), and a full registry :meth:`~repro.scenario.ScenarioSpec.validate`
so unknown names fail here instead of inside a worker — and returns one
``(spec, error)`` pair per item in request order.  Exactly one of the
pair is ``None``; errors are JSON-able ``{"type", "message"}`` envelopes,
the shape both the CLI output and the service wire format embed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ..scenario import ScenarioSpec

__all__ = ["EnvelopeError", "error_envelope", "prepare_spec", "prepare_specs"]


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
    """JSON-able ``{"type", "message"}`` form of one validation failure."""
    if isinstance(exc, EnvelopeError):
        return dict(exc.envelope)
    return {"type": type(exc).__name__, "message": str(exc)}


def prepare_spec(
    entry, *, validate: bool = True
) -> tuple[ScenarioSpec | None, dict[str, str] | None]:
    """Validate one scenario object into ``(spec, None)`` or ``(None, envelope)``.

    ``validate=False`` skips the registry :meth:`~repro.scenario.ScenarioSpec.validate`
    pass (which can be expensive — topology validation materialises the
    graph) for callers that memoise it themselves, e.g. the service's
    per-spec validation cache.  Structural parsing and the concrete-seed
    requirement always apply.
    """
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
        if validate:
            spec.validate()  # resolve every registry name before any item runs
        return spec, None
    except Exception as exc:  # noqa: BLE001 — any failure becomes the item's envelope
        return None, error_envelope(exc)


def prepare_specs(
    entries: Sequence,
) -> list[tuple[ScenarioSpec | None, dict[str, str] | None]]:
    """Validate every item (request order preserved, no early abort)."""
    return [prepare_spec(entry) for entry in entries]
