"""Statistics registry.

Components register named scalar counters, distributions, and formulas on a
shared :class:`StatGroup` tree.  The analysis layer reads these to build the
paper's tables and figures.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Callable, Dict, List, Optional


#: Reservoir cap for :class:`Distribution` retained samples.  Quantile
#: estimates over more observations than this use seeded reservoir
#: sampling (Algorithm R) so memory stays bounded and results stay
#: deterministic for a given stat name and observation sequence.
DEFAULT_MAX_SAMPLES = 4096

#: Optional observer invoked with every :class:`StatGroup` at
#: construction time.  Only entry-point infrastructure installs this —
#: the tie-order sanitizer (:mod:`repro.analysis.simsan`) uses it to
#: find the stat trees a sim point built so it can compare them across
#: event-order perturbations.  ``None`` (the default) costs one branch.
_construction_hook: Optional[Callable[["StatGroup"], None]] = None


def set_construction_hook(
        hook: Optional[Callable[["StatGroup"], None]]) -> None:
    """Install (or with ``None`` remove) the StatGroup creation observer."""
    global _construction_hook
    _construction_hook = hook


def construction_hook() -> Optional[Callable[["StatGroup"], None]]:
    """The currently installed creation observer (or ``None``)."""
    return _construction_hook


class Counter:
    """A monotonically accumulating scalar statistic."""

    __slots__ = ("name", "desc", "value")

    def __init__(self, name: str, desc: str = ""):
        self.name = name
        self.desc = desc
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Distribution:
    """A streaming distribution: count/sum/min/max plus retained samples.

    Retained samples are capped at ``max_samples`` via reservoir sampling
    (Algorithm R) seeded from the stat name, so long runs cannot grow
    memory without bound while quantile estimates stay deterministic —
    the same observation stream always keeps the same reservoir.
    """

    __slots__ = ("name", "desc", "count", "total", "min", "max", "samples",
                 "keep_samples", "max_samples", "_rng")

    def __init__(self, name: str, desc: str = "", keep_samples: bool = True,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        self.name = name
        self.desc = desc
        self.keep_samples = keep_samples
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: List[float] = []
        # Created lazily on first reservoir replacement; seeded from the
        # stat name (crc32, not hash() — PYTHONHASHSEED independent).
        self._rng: Optional[random.Random] = None

    def record(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if not self.keep_samples:
            return
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))
        slot = rng.randrange(self.count)
        if slot < self.max_samples:
            self.samples[slot] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile over retained samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, int(math.ceil(pct / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    def reset(self) -> None:
        """Discard all observations."""
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples = []
        self._rng = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Distribution({self.name}: n={self.count}, mean={self.mean:.1f})"


class Formula:
    """A derived statistic computed on read from other stats.

    ``fn`` is any zero-argument callable; reading :attr:`value` evaluates
    it.  Formulas are read-only — they never accumulate state of their
    own, so serialization freezes the value at export time.
    """

    __slots__ = ("name", "desc", "fn")

    def __init__(self, name: str, desc: str, fn: Callable[[], float]):
        self.name = name
        self.desc = desc
        self.fn = fn

    @property
    def value(self) -> float:
        """Evaluate the formula now."""
        return float(self.fn())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Formula({self.name}={self.value})"


class StatGroup:
    """A named collection of statistics, nestable into a tree."""

    def __init__(self, name: str):
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.distributions: Dict[str, Distribution] = {}
        self.formulas: Dict[str, Formula] = {}
        self.children: Dict[str, "StatGroup"] = {}
        if _construction_hook is not None:
            _construction_hook(self)

    def counter(self, name: str, desc: str = "") -> Counter:
        """Get or create a counter named ``name``."""
        if name not in self.counters:
            self.counters[name] = Counter(name, desc)
        return self.counters[name]

    def distribution(self, name: str, desc: str = "",
                     keep_samples: bool = True) -> Distribution:
        """Get or create a distribution named ``name``."""
        if name not in self.distributions:
            self.distributions[name] = Distribution(name, desc, keep_samples)
        return self.distributions[name]

    def formula(self, name: str, desc: str, fn: Callable[[], float]) -> Formula:
        """Register (or replace) a derived statistic named ``name``."""
        f = Formula(name, desc, fn)
        self.formulas[name] = f
        return f

    def group(self, name: str) -> "StatGroup":
        """Get or create a child group."""
        if name not in self.children:
            self.children[name] = StatGroup(name)
        return self.children[name]

    def reset(self) -> None:
        """Reset every stat in this group and all children."""
        for c in self.counters.values():
            c.reset()
        for d in self.distributions.values():
            d.reset()
        for g in self.children.values():
            g.reset()

    def get(self, path: str) -> float:
        """Read a counter value by dotted path, e.g. ``'l1.hits'``."""
        group: StatGroup = self
        parts = path.split(".")
        for part in parts[:-1]:
            group = group.children[part]
        return group.counters[parts[-1]].value

    def flatten(self, prefix: str = "") -> Dict[str, float]:
        """All counter values keyed by dotted path."""
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[prefix + name] = c.value
        for name, g in self.children.items():
            out.update(g.flatten(prefix + name + "."))
        return out

    def to_dict(self, include_samples: bool = True) -> Dict[str, object]:
        """JSON-safe snapshot of the whole subtree.

        The canonical serialization shared by the obs sampler, the trace
        exporters, and the perf cache.  ``min``/``max`` of an empty
        distribution encode as ``None`` (JSON has no infinities);
        formulas freeze their value at call time.  Round-trips through
        :meth:`from_dict` when ``include_samples`` is on.
        """
        counters = {
            name: {"value": c.value, "desc": c.desc}
            for name, c in sorted(self.counters.items())
        }
        distributions: Dict[str, object] = {}
        for name, d in sorted(self.distributions.items()):
            entry: Dict[str, object] = {
                "count": d.count,
                "total": d.total,
                "min": d.min if d.count else None,
                "max": d.max if d.count else None,
                "mean": d.mean,
                "desc": d.desc,
            }
            if include_samples:
                entry["samples"] = list(d.samples)
            distributions[name] = entry
        formulas = {
            name: {"value": f.value, "desc": f.desc}
            for name, f in sorted(self.formulas.items())
        }
        return {
            "name": self.name,
            "counters": counters,
            "distributions": distributions,
            "formulas": formulas,
            "children": {
                name: g.to_dict(include_samples)
                for name, g in sorted(self.children.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StatGroup":
        """Rebuild a stat tree from a :meth:`to_dict` snapshot.

        Formulas come back as frozen constants (the defining callables
        are not serializable); everything else restores exactly.
        """
        group = cls(str(data.get("name", "stats")))
        for name, entry in data.get("counters", {}).items():
            c = group.counter(name, entry.get("desc", ""))
            c.value = entry["value"]
        for name, entry in data.get("distributions", {}).items():
            d = group.distribution(name, entry.get("desc", ""))
            d.count = entry["count"]
            d.total = entry["total"]
            d.min = entry["min"] if entry.get("min") is not None else math.inf
            d.max = entry["max"] if entry.get("max") is not None else -math.inf
            d.samples = list(entry.get("samples", []))
        for name, entry in data.get("formulas", {}).items():
            group.formula(name, entry.get("desc", ""),
                          lambda frozen=entry["value"]: frozen)
        for name, child in data.get("children", {}).items():
            group.children[name] = cls.from_dict(child)
        return group

    def report(self, indent: int = 0) -> str:
        """Human-readable multi-line dump of the stat tree."""
        pad = "  " * indent
        lines = [f"{pad}[{self.name}]"]
        for c in sorted(self.counters.values(), key=lambda x: x.name):
            lines.append(f"{pad}  {c.name:<32} {c.value:>14.0f}  {c.desc}")
        for d in sorted(self.distributions.values(), key=lambda x: x.name):
            lines.append(
                f"{pad}  {d.name:<32} n={d.count} mean={d.mean:.1f} "
                f"min={d.min if d.count else 0:.0f} max={d.max if d.count else 0:.0f}"
            )
        for f in sorted(self.formulas.values(), key=lambda x: x.name):
            lines.append(f"{pad}  {f.name:<32} {f.value:>14.4f}  {f.desc}")
        for g in sorted(self.children.values(), key=lambda x: x.name):
            lines.append(g.report(indent + 1))
        return "\n".join(lines)
