"""Persistent, content-addressed cache of simulation results.

Simulations here are pure functions of (code, config, workload
parameters, scale): the same inputs always produce bit-identical result
rows.  That makes results safely memoizable — re-running a benchmark
suite after an unrelated edit should not re-simulate exhibits whose
inputs did not change.

Keys are SHA-256 digests over a canonical JSON encoding of the fully
qualified function name, its arguments (dataclasses such as
:class:`~repro.system.config.SystemConfig` are encoded field by field),
the ``REPRO_SCALE`` value, and a *code stamp* — a content hash of every
``.py`` file under ``src/repro`` — so any source change invalidates the
whole store.  Values are stored one JSON file per key under
``results/.simcache/``; only results that survive a JSON round-trip
unchanged are cached, so a cache hit is bit-identical to a fresh run.

Set ``REPRO_SIMCACHE=off`` to bypass the store entirely.  With
``REPRO_SIMSAN=1`` the silent degradations become loud: a structurally
corrupt entry and a value failing the round-trip contract are reported
through :mod:`repro.analysis.simsan` instead of quietly treated as a
miss / left uncached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Optional, Tuple

#: Sentinel distinguishing "missing" from a cached ``None``.
MISS = object()

_STAMP_CACHE: Dict[str, str] = {}


class Unkeyable(Exception):
    """Raised when a sim point's parameters cannot be canonicalized."""


def _sanitizer():
    """The simsan module when ``REPRO_SIMSAN`` is active, else None.

    The off spellings mirror ``simsan._OFF`` so the analysis package is
    imported only when sanitizing (or rejecting an unknown value); the
    env check is repeated per call because tests toggle it.
    """
    if os.environ.get("REPRO_SIMSAN", "").strip().lower() in (
            "", "0", "off", "false"):
        return None
    from repro.analysis import simsan
    return simsan if simsan.enabled() else None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except OSError:  # EPERM: someone else's live process
        return True
    return True


def repo_root() -> pathlib.Path:
    """The repository root (``src/repro/perf/`` is three levels down)."""
    return pathlib.Path(__file__).resolve().parents[3]


def default_cache_dir() -> pathlib.Path:
    return repo_root() / "results" / ".simcache"


def cache_enabled() -> bool:
    """False when ``REPRO_SIMCACHE=off`` (any case) is set."""
    return os.environ.get("REPRO_SIMCACHE", "").lower() != "off"


def code_stamp() -> str:
    """Content hash of every ``repro`` source file (cached per process)."""
    src_root = pathlib.Path(__file__).resolve().parents[1]
    key = str(src_root)
    stamp = _STAMP_CACHE.get(key)
    if stamp is None:
        digest = hashlib.sha256()
        for path in sorted(src_root.rglob("*.py")):
            digest.update(str(path.relative_to(src_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        stamp = digest.hexdigest()
        _STAMP_CACHE[key] = stamp
    return stamp


def canonicalize(value: Any) -> Any:
    """A JSON-encodable, deterministic form of a sim-point parameter.

    Dataclass instances (configs) become ``{"__dataclass__": name,
    "fields": {...}}``; tuples become lists.  Anything else that JSON
    cannot express raises :class:`Unkeyable` — the point still runs, it
    just isn't cached.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": f"{type(value).__module__}."
                             f"{type(value).__qualname__}",
            "fields": {k: canonicalize(v) for k, v in sorted(
                dataclasses.asdict(value).items())},
        }
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise Unkeyable(f"non-string dict keys in {value!r}")
        return {k: canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    raise Unkeyable(f"cannot canonicalize {type(value).__name__}: {value!r}")


def point_key(fn_name: str, args: Tuple, kwargs: Dict[str, Any],
              scale: str) -> str:
    """The content-addressed key for one (fn, params, scale) point."""
    payload = {
        "fn": fn_name,
        "args": canonicalize(list(args)),
        "kwargs": canonicalize(dict(kwargs)),
        "scale": scale,
        "code": code_stamp(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SimCache:
    """A directory of ``<key-prefix>/<key>.json`` result files."""

    def __init__(self, root: Optional[pathlib.Path] = None):
        self.root = pathlib.Path(root) if root else default_cache_dir()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def sweeps_dir(self) -> pathlib.Path:
        """Where sweep journals and failure reports live (repro.resilience)."""
        return self.root / ".sweeps"

    def _entry_files(self):
        """Result files only — shard dirs are two hex chars, which keeps
        ``.sweeps`` journals/reports out of entry counts."""
        if not self.root.exists():
            return
        for path in self.root.rglob("*.json"):
            if path.parent != self.root and len(path.parent.name) == 2:
                yield path

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so it is never re-read or re-parsed.

        The rename is atomic and collision-free per key; losing the race
        to a concurrent reader (file already moved) is fine.
        """
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        A missing file is an ordinary miss.  A file that exists but does
        not parse into the expected shape is quarantined (renamed to
        ``<key>.corrupt``) so every future run takes the cheap
        missing-file path instead of re-reading and re-parsing the
        corpse — and, under ``REPRO_SIMSAN``, the corruption is
        reported instead of silently degraded.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return MISS
        except json.JSONDecodeError:
            payload = None
        if not (isinstance(payload, dict)
                and "fn" in payload and "value" in payload):
            self._quarantine(path)
            san = _sanitizer()
            if san is not None:
                san.check_payload(str(path), payload)
            return MISS
        return payload["value"]

    def put(self, key: str, fn_name: str, value: Any) -> bool:
        """Store ``value`` if a JSON round-trip reproduces it exactly.

        The round-trip check is what makes hits bit-identical to fresh
        runs: a result JSON cannot represent (tuples, int dict keys,
        NaN) is simply not cached.  Writes are atomic (tmp + rename) so
        parallel writers never expose a torn file.
        """
        try:
            blob = json.dumps({"fn": fn_name, "value": value},
                              sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:
            san = _sanitizer()
            if san is not None:
                san.report_unroundtrippable(fn_name, str(exc))
            return False
        if json.loads(blob)["value"] != value:
            san = _sanitizer()
            if san is not None:
                san.report_unroundtrippable(
                    fn_name, "decode does not compare equal to the "
                             "original (tuples/sets/non-str keys?)")
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(blob + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            # A failed write (disk full, signal mid-write) must not leak
            # the temp file forever; after a successful rename the
            # unlink is a no-op.
            try:
                tmp.unlink()
            except OSError:
                pass
        return True

    def _sweep_stale_tmp(self) -> int:
        """Remove ``*.tmp.<pid>`` droppings from writers that died.

        A live ``put`` always cleans up after itself, so any temp file
        whose pid suffix no longer names a running process is an
        orphan from an earlier, killed run.  Unparsable suffixes are
        treated as orphans too.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for tmp in self.root.rglob("*.tmp.*"):
            suffix = tmp.name.rsplit(".", 1)[-1]
            try:
                alive = _pid_alive(int(suffix))
            except ValueError:
                alive = False
            if not alive:
                try:
                    tmp.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Delete every cached result; returns the number removed.

        Also sweeps quarantined ``*.corrupt`` entries, stale temp files,
        and the ``.sweeps`` journals/reports.
        """
        removed = 0
        if self.root.exists():
            for pattern in ("*.json", "*.corrupt", "*.tmp.*"):
                for path in self.root.rglob(pattern):
                    if path.is_file():
                        path.unlink()
                        removed += 1
            if self.sweeps_dir.exists():
                for path in sorted(self.sweeps_dir.glob("*")):
                    if path.is_file():
                        path.unlink()
            for child in sorted(self.root.iterdir()):
                if child.is_dir() and not any(child.iterdir()):
                    child.rmdir()
        return removed

    def info(self) -> Dict[str, Any]:
        """Entry count and health, for ``python -m repro.perf cache``.

        Reading the stats doubles as janitor duty: stale temp files
        from dead writers are swept here (and in :meth:`clear`).
        """
        swept = self._sweep_stale_tmp()
        entries = list(self._entry_files())
        corrupt = ([p for p in self.root.rglob("*.corrupt")]
                   if self.root.exists() else [])
        journals = ([p for p in self.sweeps_dir.glob("*.journal.jsonl")]
                    if self.sweeps_dir.exists() else [])
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "enabled": cache_enabled(),
            "quarantined": len(corrupt),
            "stale_tmp_swept": swept,
            "journals": len(journals),
        }
