"""Checkpoint/resume journals for long suite and fuzz campaigns.

A checkpoint is an append-only JSON-lines file under
``<cache root>/checkpoints/``: a header naming the campaign (the digest
of its full input set), one ``{"done": unit}`` line per completed unit,
and ``{"complete": true}`` at the end.  It is bookkeeping — a completed
unit's verdict is already on disk under its content key — that counts
what a restart resumed.  Lines are appended as units complete, so a
``kill -9`` loses at most the in-flight unit; a torn last line is cut
off on load, and another campaign's journal is reset, never trusted.
See ``docs/caching.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from repro.cache.keys import CACHE_FORMAT_VERSION
from repro.cache.store import CHECKPOINT_KIND


class CheckpointManifest:
    """Completion bookkeeping for one campaign."""

    def __init__(self, path: Path, campaign: str, total: Optional[int] = None):
        self.path = Path(path)
        self.campaign = campaign
        self.total = total
        #: Completed units, in completion order.
        self.completed: List[str] = []
        self._done = set()
        self.complete = False
        self._header = {
            "kind": CHECKPOINT_KIND,
            "format": CACHE_FORMAT_VERSION,
            "campaign": campaign,
        }
        #: No journal of this campaign on disk yet: the first append
        #: (re)writes the file, starting with the header.
        self._fresh = not self._load()
        #: Units an interrupted run left completed (what a restart
        #: resumes rather than recomputes); a journal complete at load
        #: is a replay of a finished campaign, not a resume.
        self.resumed = 0 if self.complete else len(self.completed)

    def _load(self) -> bool:
        """Read this campaign's journal; ``False`` if there is none."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return False
        end = data.rfind(b"\n") + 1
        if end < len(data):  # a torn last line: cut it off
            with open(self.path, "r+b") as handle:
                handle.truncate(end)
        records = []
        for line in data[:end].splitlines():
            try:
                records.append(dict(json.loads(line)))
            except (ValueError, TypeError):
                continue
        header = self._header
        if not records or {k: records[0].get(k) for k in header} != header:
            return False
        if self.total is None:
            self.total = records[0].get("total")
        for record in records[1:]:
            if "done" in record:
                self._add(str(record["done"]))
            self.complete = self.complete or bool(record.get("complete"))
        return True

    def _add(self, unit: str) -> bool:
        if unit in self._done:
            return False
        self._done.add(unit)
        self.completed.append(unit)
        return True

    def _append(self, record) -> None:
        records = [record]
        if self._fresh:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            records.insert(0, dict(self._header, total=self.total))
        with open(self.path, "w" if self._fresh else "a") as handle:
            handle.write("".join(json.dumps(r) + "\n" for r in records))
        self._fresh = False

    # ------------------------------------------------------------------

    def mark_done(self, unit: str) -> None:
        """Record one completed unit (idempotent) and flush it to disk."""
        if self._add(str(unit)):
            self._append({"done": str(unit)})

    def finish(self) -> None:
        """Mark the whole campaign complete (idempotent)."""
        if not self.complete:
            self.complete = True
            self._append({"complete": True})
