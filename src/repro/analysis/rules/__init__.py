"""Rule modules self-register with the core registry on import."""

from repro.analysis.rules import (cachesoundness, determinism,  # noqa: F401
                                  eventsafety, forksafety, hygiene,
                                  raceorder, taint)
