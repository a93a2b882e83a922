"""The on-disk content-addressed store behind :mod:`repro.cache`.

Layout: one directory per artifact tier under the cache root, sharded
by the first two hex digits of the entry key —

```
<root>/
  verdicts/ab/<key>.json    schema-versioned TestVerification snapshots
  graphs/cd/<key>.pkl       pickled shared ReachGraphs
  nfas/ef/<key>.pkl         compiled PropertyMonitors (no longer written)
  oracles/01/<key>.json     difftest oracle outcome sets
  checkpoints/<key>.jsonl   campaign journals (resume bookkeeping)
```

Design rules, all load-bearing:

* **Writes are atomic** (temp file + ``os.replace`` in the same
  directory), so concurrent suite workers and interrupted runs can
  never publish a torn entry — at worst an entry is written twice with
  identical content.
* **Reads never crash a run.**  Any exception while loading an entry —
  truncated JSON, an unpicklable blob, a schema or format mismatch —
  deletes the entry, bumps the ``corrupt`` (or ``stale``) statistic,
  and reports a miss; the caller recomputes.
* **Eviction is size-bounded LRU** on entry mtimes; every hit touches
  its entry so recently-used artifacts survive ``gc``.
* **Entries are immutable values**, keyed by the full input digest —
  there is no invalidation protocol beyond "a different input is a
  different key", which is what makes a shared cache directory safe
  (see ``docs/caching.md``).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cache.keys import CACHE_FORMAT_VERSION

#: Artifact tiers and their subdirectory / extension.
TIERS = {
    "verdict": ("verdicts", ".json"),
    "reach": ("graphs", ".pkl"),
    # No longer written; keeps older versions' nfas/ in stats, gc and clear.
    "nfa": ("nfas", ".pkl"),
    "oracle": ("oracles", ".json"),
}

VERDICT_ENTRY_KIND = "rtlcheck-cache-verdict"
ORACLE_ENTRY_KIND = "rtlcheck-cache-oracle"
CHECKPOINT_KIND = "rtlcheck-checkpoint"

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/rtlcheck-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return str(Path.home() / ".cache" / "rtlcheck-repro")


class CacheStats:
    """Hit/miss/eviction/byte accounting, named like obs counters.

    Counter names are ``cache.<tier>.<event>`` (events: ``hits``,
    ``misses``, ``puts``, ``corrupt``, ``stale``) plus the cache-wide
    ``cache.evictions``, ``cache.bytes_read``, ``cache.bytes_written``.
    Snapshots are plain dicts, so worker processes can ship their
    deltas back to the suite parent for summation — the same merge
    discipline as :mod:`repro.obs` counters.
    """

    def __init__(self):
        self.counters: Dict[str, float] = {}

    def bump(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def get(self, name: str) -> float:
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counters)

    def merge(self, counters: Mapping[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def tier_total(self, event: str) -> float:
        """Sum of ``cache.<tier>.<event>`` across all tiers."""
        return sum(
            value
            for name, value in self.counters.items()
            if name.startswith("cache.") and name.endswith(f".{event}")
        )

    def summary(self) -> str:
        """One human line, e.g. for the CLI's post-run cache report."""
        parts = []
        for tier in TIERS:
            hits = self.get(f"cache.{tier}.hits")
            misses = self.get(f"cache.{tier}.misses")
            if hits or misses:
                parts.append(f"{tier} {hits:.0f}/{hits + misses:.0f} hits")
        extras = []
        for name in ("cache.evictions", "cache.corrupt_entries"):
            if self.get(name):
                extras.append(f"{name.split('.')[-1]}={self.get(name):.0f}")
        line = ", ".join(parts) if parts else "no lookups"
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line


class VerificationCache:
    """Persistent content-addressed store for verification artifacts.

    Picklable (it is carried inside :class:`RTLCheck` across the suite
    process pool); workers accumulate statistics in their own copy and
    ship them back for parent-side merging.  ``max_bytes``, when set,
    triggers LRU eviction after each write.
    """

    def __init__(self, root: Optional[str] = None, max_bytes: Optional[int] = None):
        self.root = Path(root) if root else Path(default_cache_dir())
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    # -- low-level entry I/O -------------------------------------------

    def _path(self, tier: str, key: str) -> Path:
        subdir, ext = TIERS[tier]
        return self.root / subdir / key[:2] / f"{key}{ext}"

    def _read(self, tier: str, key: str) -> Optional[bytes]:
        path = self._path(tier, key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        self.stats.bump("cache.bytes_read", len(data))
        return data

    def _write(self, tier: str, key: str, data: bytes) -> None:
        path = self._path(tier, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.bump(f"cache.{tier}.puts")
        self.stats.bump("cache.bytes_written", len(data))
        if self.max_bytes is not None:
            self.gc(self.max_bytes)

    def _drop(self, tier: str, key: str, reason: str) -> None:
        try:
            self._path(tier, key).unlink()
        except OSError:
            pass
        self.stats.bump(f"cache.{tier}.{reason}")
        if reason == "corrupt":
            self.stats.bump("cache.corrupt_entries")

    # -- verdict tier ---------------------------------------------------

    def load_verdict(
        self,
        key: str,
        observe: bool = False,
        coverage: bool = False,
        record_miss: bool = True,
    ):
        """Rehydrate a cached :class:`TestVerification`, or ``None``.

        ``observe=True`` demands an entry recorded with observability
        on — a hit must replay complete spans and counters, so an
        unobserved entry is reported as a miss and recomputed (the
        recompute then upgrades the entry in place).  ``coverage=True``
        likewise demands an entry whose obs snapshot carries a coverage
        map; a coverage-only hit (``observe=False``) attaches just the
        coverage portion so warm runs merge the same keys as cold runs
        without replaying counters the run never asked for.

        ``record_miss=False`` keeps a miss out of the statistics; the
        suite parent's prefetch probe uses it so that one logical
        lookup (prefetch, then the worker's own) is not counted twice.
        """
        from repro.core.results import TestVerification
        from repro.litmus.test import LitmusTest
        from repro.obs.report import SCHEMA_VERSION

        raw = self._read("verdict", key)
        if raw is None:
            if record_miss:
                self.stats.bump("cache.verdict.misses")
            return None
        try:
            entry = json.loads(raw)
            if (
                entry.get("kind") != VERDICT_ENTRY_KIND
                or entry.get("format") != CACHE_FORMAT_VERSION
                or entry.get("schema_version") != SCHEMA_VERSION
            ):
                self._drop("verdict", key, "stale")
                if record_miss:
                    self.stats.bump("cache.verdict.misses")
                return None
            if observe and not entry.get("observed"):
                if record_miss:
                    self.stats.bump("cache.verdict.misses")
                    self.stats.bump("cache.verdict.unobserved_misses")
                return None
            if coverage and not entry.get("covered"):
                if record_miss:
                    self.stats.bump("cache.verdict.misses")
                    self.stats.bump("cache.verdict.uncovered_misses")
                return None
            test = LitmusTest.from_dict(entry["test"])
            result = TestVerification.from_dict(entry["result"], test=test)
            result.sva_text = entry["sva_text"]
            if observe:
                result.obs = entry["obs"]
            elif coverage:
                # Coverage-only hit: strip counters/gauges so a warm
                # run's obs state matches what a CoverageRecorder (the
                # enabled=False sink) would have produced cold.
                result.obs = {
                    "events": [],
                    "counters": {},
                    "gauges": {},
                    "coverage": (entry["obs"] or {}).get("coverage"),
                }
            else:
                result.obs = None
        except Exception:
            self._drop("verdict", key, "corrupt")
            if record_miss:
                self.stats.bump("cache.verdict.misses")
            return None
        self.stats.bump("cache.verdict.hits")
        return result

    def store_verdict(self, key: str, result) -> None:
        """Persist one computed :class:`TestVerification`."""
        from repro.obs.report import SCHEMA_VERSION

        entry = {
            "kind": VERDICT_ENTRY_KIND,
            "format": CACHE_FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "test": result.test.to_dict(),
            # A coverage-only run (CoverageRecorder) attaches an obs
            # snapshot too, but with no spans recorded — only a fully
            # observed entry may satisfy a later observe=True lookup.
            "observed": bool(result.obs and result.obs.get("events")),
            "covered": bool(result.obs and result.obs.get("coverage")),
            "obs": result.obs,
            "sva_text": result.sva_text,
            "result": result.to_dict(),
        }
        self._write(
            "verdict", key, json.dumps(entry, sort_keys=True).encode()
        )

    # -- reach-graph tier -----------------------------------------------

    def load_graph(self, key: str):
        """Unpickle a cached :class:`ReachGraph`, or ``None``.

        The graph carries its accumulated ``sim_transitions`` /
        ``build_seconds``, so verdicts computed on top of a warm graph
        report the same totals as a cold run — the work was paid, just
        in an earlier process."""
        raw = self._read("reach", key)
        if raw is None:
            self.stats.bump("cache.reach.misses")
            return None
        try:
            graph = pickle.loads(raw)
        except Exception:
            self._drop("reach", key, "corrupt")
            self.stats.bump("cache.reach.misses")
            return None
        self.stats.bump("cache.reach.hits")
        return graph

    def store_graph(self, key: str, graph) -> None:
        self._write("reach", key, pickle.dumps(graph, protocol=4))

    # -- compiled-monitor (NFA) tier: no longer written -----------------

    # Unused (monitors are built in place); benchmarks/perf/ledger.py wraps it.
    def load_monitor(self, key: str):
        """Unpickle a cached compiled :class:`PropertyMonitor`."""
        raw = self._read("nfa", key)
        if raw is None:
            self.stats.bump("cache.nfa.misses")
            return None
        try:
            monitor = pickle.loads(raw)
        except Exception:
            self._drop("nfa", key, "corrupt")
            self.stats.bump("cache.nfa.misses")
            return None
        self.stats.bump("cache.nfa.hits")
        return monitor

    # Unused (monitors are built in place); benchmarks/perf/ledger.py wraps it.
    def store_monitor(self, key: str, monitor) -> None:
        """Pickle ``monitor`` with its memo tables cleared, so a loaded
        monitor's memo-economics counters match a freshly compiled one
        and observability stays run-for-run identical."""
        saved = (
            monitor._verdict_cache,
            monitor.verdict_memo_hits,
            monitor.verdict_memo_misses,
            [(n.memo_hits, n.memo_misses) for n in monitor.nfas],
        )
        monitor._verdict_cache = {}
        monitor.verdict_memo_hits = monitor.verdict_memo_misses = 0
        for nfa in monitor.nfas:
            nfa.memo_hits = nfa.memo_misses = 0
        try:
            data = pickle.dumps(monitor, protocol=4)
        finally:
            monitor._verdict_cache = saved[0]
            monitor.verdict_memo_hits = saved[1]
            monitor.verdict_memo_misses = saved[2]
            for nfa, (hits, misses) in zip(monitor.nfas, saved[3]):
                nfa.memo_hits, nfa.memo_misses = hits, misses
        self._write("nfa", key, data)

    # -- difftest oracle tier -------------------------------------------

    def load_oracle(self, key: str) -> Optional[Dict[str, Any]]:
        """Load one oracle outcome-set entry (a plain JSON dict)."""
        raw = self._read("oracle", key)
        if raw is None:
            self.stats.bump("cache.oracle.misses")
            return None
        try:
            entry = json.loads(raw)
            if (
                entry.get("kind") != ORACLE_ENTRY_KIND
                or entry.get("format") != CACHE_FORMAT_VERSION
            ):
                self._drop("oracle", key, "stale")
                self.stats.bump("cache.oracle.misses")
                return None
            payload = entry["payload"]
        except Exception:
            self._drop("oracle", key, "corrupt")
            self.stats.bump("cache.oracle.misses")
            return None
        self.stats.bump("cache.oracle.hits")
        return payload

    def store_oracle(self, key: str, payload: Dict[str, Any]) -> None:
        entry = {
            "kind": ORACLE_ENTRY_KIND,
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "payload": payload,
        }
        self._write("oracle", key, json.dumps(entry, sort_keys=True).encode())

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self, campaign: str, total: Optional[int] = None):
        """The resume journal for campaign ``campaign`` (created on
        first use)."""
        from repro.cache.checkpoint import CheckpointManifest

        path = self.root / "checkpoints" / f"{campaign}.jsonl"
        return CheckpointManifest(path, campaign, total=total)

    # -- maintenance (the ``python -m repro cache`` surface) ------------

    def _entries(self) -> List[Tuple[Path, float, int]]:
        """All tier entries as ``(path, mtime, size)`` (checkpoints are
        bookkeeping, not evictable artifacts)."""
        out = []
        for subdir, _ext in TIERS.values():
            base = self.root / subdir
            if not base.is_dir():
                continue
            for path in base.rglob("*"):
                if path.is_file() and not path.name.startswith(".tmp-"):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    out.append((path, stat.st_mtime, stat.st_size))
        return out

    def usage(self) -> Dict[str, Dict[str, int]]:
        """Per-tier entry counts and byte totals, plus a ``total``."""
        report: Dict[str, Dict[str, int]] = {}
        total_files = total_bytes = 0
        for tier, (subdir, _ext) in TIERS.items():
            files = bytes_ = 0
            base = self.root / subdir
            if base.is_dir():
                for path in base.rglob("*"):
                    if path.is_file() and not path.name.startswith(".tmp-"):
                        files += 1
                        bytes_ += path.stat().st_size
            report[tier] = {"entries": files, "bytes": bytes_}
            total_files += files
            total_bytes += bytes_
        report["total"] = {"entries": total_files, "bytes": total_bytes}
        return report

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the store fits in
        ``max_bytes`` (defaults to the instance bound).  Returns the
        number of entries evicted."""
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            return 0
        entries = self._entries()
        used = sum(size for _p, _m, size in entries)
        evicted = 0
        for path, _mtime, size in sorted(entries, key=lambda e: e[1]):
            if used <= bound:
                break
            try:
                path.unlink()
            except OSError:
                continue
            used -= size
            evicted += 1
        if evicted:
            self.stats.bump("cache.evictions", evicted)
        return evicted

    def clear(self) -> int:
        """Remove every entry and checkpoint; returns entries removed."""
        import shutil

        removed = len(self._entries())
        for subdir, _ext in TIERS.values():
            shutil.rmtree(self.root / subdir, ignore_errors=True)
        shutil.rmtree(self.root / "checkpoints", ignore_errors=True)
        return removed

    # -- pool plumbing --------------------------------------------------

    def __getstate__(self):
        # Workers start from zeroed statistics so their snapshots are
        # deltas the parent can merge by summation.
        return {"root": self.root, "max_bytes": self.max_bytes}

    def __setstate__(self, state):
        self.root = state["root"]
        self.max_bytes = state["max_bytes"]
        self.stats = CacheStats()
