"""History construction, generation, and serialization.

* :mod:`repro.histories.builder` -- a fluent builder for hand-written
  histories (used throughout the tests to encode the paper's figures).
* :mod:`repro.histories.generator` -- random history generation with
  controllable consistency level and anomaly injection.
* :mod:`repro.histories.formats` -- on-disk formats: the native JSON format
  plus parsers/serializers in the spirit of the formats consumed by Plume,
  DBCop, and Cobra (Section 5 of the paper).

The names below are imported on first access (PEP 562), so reading a
history file never loads the generator.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "HistoryBuilder": "repro.histories.builder",
    "RandomHistoryConfig": "repro.histories.generator",
    "generate_random_history": "repro.histories.generator",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
