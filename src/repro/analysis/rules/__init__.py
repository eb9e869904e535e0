"""Rule modules self-register with the core registry on import."""

from repro.analysis.rules import (determinism, eventsafety,  # noqa: F401
                                  forksafety, hygiene, raceorder, taint)
