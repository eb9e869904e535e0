"""Backend registry: name -> :class:`CopyBackend` class, plus aliases.

This is the only module that knows backend names and their aliases:
workloads, the OS layer and the examples pass a caller's name through
:func:`make_backend` and :func:`needs_ctt` and never compare it
themselves.

Registration happens at import time only (decorators run when
``repro.copyengine`` is first imported, never on a sim path), so forked
sweep workers and cached sim points all see the same finished registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.common.errors import ConfigError
from repro.copyengine.base import CopyBackend

#: Canonical backend name -> class.
BACKENDS: Dict[str, Type[CopyBackend]] = {}

#: Historical / convenience spellings accepted everywhere a backend
#: name is (SystemConfig.copy_backend, workload engine names, example
#: CLIs).
ALIASES: Dict[str, str] = {
    "memcpy": "eager",
    "baseline": "eager",
    "native": "eager",
    "mcsquare": "mclazy",
    "mc2": "mclazy",
    "lazy": "mclazy",
}


def register_backend(cls: Type[CopyBackend]) -> Type[CopyBackend]:
    """Class decorator adding ``cls`` to the registry under its name."""
    # Import-time-only registration; see module docstring.
    BACKENDS[cls.name] = cls
    return cls


def canonical_name(name: str) -> str:
    """Resolve aliases to the registered backend name."""
    return ALIASES.get(name, name)


def known_backend(name: str) -> bool:
    """True when ``name`` (or an alias of it) is registered."""
    # Import-time-frozen lookup table; see module docstring.
    return canonical_name(name) in BACKENDS


def backend_names() -> List[str]:
    """Canonical names of every registered backend, sorted."""
    return sorted(BACKENDS)


def needs_ctt(name: str) -> bool:
    """True when the backend requires the (MC)² controller machinery."""
    return canonical_name(name) == "mclazy"


def make_backend(name: str, system,
                 kernel_page_size: Optional[int] = None,
                 **overrides) -> CopyBackend:
    """Build the backend called ``name`` for ``system``.

    Per-backend constructor defaults come from ``system.config`` (via
    each class's ``config_kwargs``).  ``kernel_page_size`` builds the
    backend for copies the kernel issues over physically contiguous
    pages of that size (via ``kernel_kwargs``).  Keyword ``overrides``
    win over both.  Raises :class:`ConfigError` for unknown names and
    for backends whose hardware the machine was built without.
    """
    canonical = canonical_name(name)
    cls = BACKENDS.get(canonical)
    if cls is None:
        raise ConfigError(
            f"unknown copy backend {name!r}; known backends: "
            f"{', '.join(backend_names())} "
            f"(aliases: {', '.join(sorted(ALIASES))})")
    if needs_ctt(canonical) and getattr(system, "ctt", None) is None:
        raise ConfigError(
            "the mclazy backend needs the (MC)² controller: build the "
            "system with mcsquare_enabled=True")
    kwargs = cls.config_kwargs(system.config)
    if kernel_page_size is not None:
        kwargs.update(cls.kernel_kwargs(kernel_page_size))
    kwargs.update(overrides)
    return cls(system, **kwargs)
