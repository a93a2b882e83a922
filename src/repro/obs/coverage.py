"""Microarchitectural coverage maps (see ``docs/observability.md``).

A :class:`CoverageMap` records *which* microarchitectural behaviors a
verification run exercised, not just how many events fired.  Keys are
grouped into domains:

* ``state`` — interned reach-graph design states, keyed by a digest of
  the flat :class:`~repro.rtl.design.SlotLayout` slot vector, so the
  same physical state gets the same key across runs, processes, and
  interner id assignments.
* ``transition`` — reach-graph edges as ``<src-sig>><dst-sig>`` pairs
  over the same signatures.
* ``arbiter`` — arbiter-grant interleaving n-grams (2- and 3-grams of
  consecutive grant choices) observed by the trace oracle's seeded
  schedules.
* ``assumption`` — µspec assumption firing sites (``fired:<name>``)
  and per-assertion proof outcomes (``assert:<name>:<status>``).
* ``shape`` — litmus-test shape features: thread/op counts, per-thread
  load/store/fence signatures, fence placement classes, diy cycle
  families, generation mode.

Maps merge by per-key hit summation — commutative and associative, the
same discipline as :mod:`repro.obs` counters — so worker deltas fold
into a campaign map in any grouping and the result is deterministic in
``(seed, jobs)``.  Everything serializes to sorted plain-JSON dicts.

:class:`CoverageDB` is the schema-versioned on-disk database (atomic
temp+rename under the :mod:`repro.cache` directory); it accumulates
campaign maps across runs, keeps the novelty-producing test corpus for
replay, and backs ``python -m repro coverage {report,diff,merge}``.

This module is stdlib-only and imports nothing from the pipeline, so
:mod:`repro.obs.recorder` can attach maps to recorders without import
cycles.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: The coverage domains, in report order.
COVERAGE_DOMAINS = ("state", "transition", "arbiter", "assumption", "shape")

_DOMAIN_SET = frozenset(COVERAGE_DOMAINS)

COVERAGE_DB_KIND = "rtlcheck-coverage-db"
COVERAGE_REPORT_KIND = "rtlcheck-coverage-report"
#: Version 2: ``state``/``transition`` keys digest slot vectors that
#: carry only each core's register window, so version-1 keys name no
#: state a newer run reaches.
COVERAGE_SCHEMA_VERSION = 2

#: Corpus entries the database keeps (highest-novelty first).
DB_CORPUS_CAP = 64
#: Campaign history entries the database keeps (most recent last).
DB_CAMPAIGN_CAP = 50


class CoverageMap:
    """Per-domain ``key -> hit count`` maps with summing merge."""

    __slots__ = ("domains",)

    def __init__(self, domains: Optional[Mapping[str, Mapping[str, int]]] = None):
        self.domains: Dict[str, Dict[str, int]] = {}
        if domains:
            for domain, keys in domains.items():
                if keys:
                    self.domains[domain] = dict(keys)

    # -- recording ------------------------------------------------------

    def add(self, domain: str, key: str, count: int = 1) -> None:
        keys = self.domains.get(domain)
        if keys is None:
            if domain not in _DOMAIN_SET:
                from repro.errors import ReproError

                raise ReproError(
                    f"unknown coverage domain {domain!r} "
                    f"(expected one of {COVERAGE_DOMAINS})"
                )
            keys = self.domains[domain] = {}
        keys[key] = keys.get(key, 0) + count

    def add_many(self, domain: str, keys: Iterable[str]) -> None:
        for key in keys:
            self.add(domain, key)

    # -- merging (commutative + associative: per-key summation) ---------

    def merge(self, other: "CoverageMap") -> None:
        self.merge_state(other.domains)

    def merge_state(self, state: Mapping[str, Mapping[str, int]]) -> None:
        for domain, other_keys in state.items():
            if not other_keys:
                continue
            keys = self.domains.get(domain)
            if keys is None:
                keys = self.domains[domain] = {}
            for key, count in other_keys.items():
                keys[key] = keys.get(key, 0) + count

    def count_new(self, delta: "CoverageMap") -> Dict[str, int]:
        """Per-domain count of ``delta``'s keys this map has never seen
        (the novelty signal for the guided scheduler)."""
        new: Dict[str, int] = {}
        for domain, keys in delta.domains.items():
            seen = self.domains.get(domain, {})
            fresh = sum(1 for key in keys if key not in seen)
            if fresh:
                new[domain] = fresh
        return new

    # -- views ----------------------------------------------------------

    def unique(self, domain: str) -> int:
        return len(self.domains.get(domain, {}))

    def hits(self, domain: str) -> int:
        return sum(self.domains.get(domain, {}).values())

    def total_unique(self) -> int:
        return sum(len(keys) for keys in self.domains.values())

    def __bool__(self) -> bool:
        return any(self.domains.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self.to_state() == other.to_state()

    # -- (de)serialization ----------------------------------------------

    def to_state(self) -> Dict[str, Dict[str, int]]:
        """Plain sorted JSON-safe snapshot (byte-stable when dumped with
        default dict ordering, since keys are inserted sorted)."""
        return {
            domain: {key: keys[key] for key in sorted(keys)}
            for domain, keys in sorted(self.domains.items())
            if keys
        }

    @classmethod
    def from_state(
        cls, state: Optional[Mapping[str, Mapping[str, int]]]
    ) -> "CoverageMap":
        return cls(state or {})


# ---------------------------------------------------------------------------
# Collection helpers
# ---------------------------------------------------------------------------


def state_signature(design, snap) -> str:
    """A run-stable signature for one design snapshot (an interner id):
    a digest of the packed flat slot vector, so equal physical states
    hash equal across runs regardless of interning order."""
    data = array("q", design.state_vector(snap)).tobytes()
    return blake2b(data, digest_size=8).hexdigest()


def collect_graph_coverage(coverage: CoverageMap, graph) -> None:
    """Fold one :class:`~repro.verifier.reach.ReachGraph`'s discovered
    states and expanded live edges into ``coverage``."""
    design = graph.design
    signatures: Dict[int, str] = {}

    def sig(node: int) -> str:
        out = signatures.get(node)
        if out is None:
            out = signatures[node] = state_signature(design, graph.snap(node))
        return out

    for node in range(graph.num_nodes):
        coverage.add("state", sig(node))
    for src, dst in graph.iter_edges():
        coverage.add("transition", sig(src) + ">" + sig(dst))


def grant_ngrams(schedules: Sequence[Sequence[int]]) -> Dict[str, int]:
    """2- and 3-gram counts over per-schedule arbiter grant sequences
    (keys like ``g2:0.1`` / ``g3:0.1.2``)."""
    ngrams: Dict[str, int] = {}
    for grants in schedules:
        for n in (2, 3):
            for i in range(len(grants) - n + 1):
                key = f"g{n}:" + ".".join(str(g) for g in grants[i : i + n])
                ngrams[key] = ngrams.get(key, 0) + 1
    return ngrams


def shape_key(test) -> str:
    """The canonical shape class of a litmus test: per-thread
    load/store/fence strings, sorted so thread order does not matter.
    The guided scheduler fatigues on this key."""
    sigs = [
        "".join(
            "S" if op.is_store else "L" if op.is_load else "F" for op in ops
        )
        for ops in test.threads
    ]
    return "|".join(sorted(sigs))


def shape_features(test) -> List[str]:
    """Shape-domain coverage keys for one litmus test."""
    features = [
        f"threads:{test.num_threads}",
        f"ops:{test.instruction_count()}",
        f"addrs:{len(test.addresses)}",
        f"kinds:{shape_key(test)}",
    ]
    fences = 0
    for ops in test.threads:
        for i, op in enumerate(ops):
            if not op.is_fence:
                continue
            fences += 1
            before = "^" if i == 0 else ("S" if ops[i - 1].is_store else "L" if ops[i - 1].is_load else "F")
            after = "$" if i == len(ops) - 1 else ("S" if ops[i + 1].is_store else "L" if ops[i + 1].is_load else "F")
            features.append(f"fence:{before}-{after}")
    features.append(f"fences:{fences}")
    outcome = test.outcome
    features.append(
        f"outcome:regs={len(outcome.register_map)}"
        f",mem={len(outcome.final_memory_map)}"
    )
    return features


# ---------------------------------------------------------------------------
# Closure reports
# ---------------------------------------------------------------------------


def saturation_curve(novelty: Sequence[int], window: int = 100) -> List[int]:
    """New coverage keys per ``window`` tests, in campaign order —
    the saturation curve (a healthy campaign decays, a saturated one
    flatlines at zero)."""
    curve: List[int] = []
    for start in range(0, len(novelty), window):
        curve.append(int(sum(novelty[start : start + window])))
    return curve


def closure_report(
    coverage: CoverageMap,
    tests: Optional[int] = None,
    novelty: Optional[Sequence[int]] = None,
    guided: Optional[bool] = None,
) -> Dict[str, Any]:
    """The JSON closure report for one campaign's coverage map."""
    report: Dict[str, Any] = {
        "kind": COVERAGE_REPORT_KIND,
        "schema_version": COVERAGE_SCHEMA_VERSION,
        "domains": {
            domain: {
                "unique": coverage.unique(domain),
                "hits": coverage.hits(domain),
            }
            for domain in sorted(coverage.domains)
        },
        "total_unique": coverage.total_unique(),
        "coverage": coverage.to_state(),
    }
    if tests is not None:
        report["tests"] = tests
    if novelty is not None:
        report["new_keys"] = int(sum(novelty))
        report["novelty_per_100"] = saturation_curve(novelty)
    if guided is not None:
        report["guided"] = bool(guided)
    return report


def validate_coverage_report(report: Mapping[str, Any]) -> List[str]:
    """Shape-check a closure report (empty list == valid)."""
    errors: List[str] = []
    for key in ("kind", "schema_version", "domains", "total_unique", "coverage"):
        if key not in report:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors
    if report["kind"] != COVERAGE_REPORT_KIND:
        errors.append(f"kind {report['kind']!r} != {COVERAGE_REPORT_KIND!r}")
    if report["schema_version"] != COVERAGE_SCHEMA_VERSION:
        errors.append(
            f"schema_version {report['schema_version']!r} != "
            f"{COVERAGE_SCHEMA_VERSION}"
        )
    recomputed = CoverageMap.from_state(report["coverage"])
    for domain, entry in report["domains"].items():
        want = {
            "unique": recomputed.unique(domain),
            "hits": recomputed.hits(domain),
        }
        if dict(entry) != want:
            errors.append(
                f"domain {domain!r} totals {dict(entry)!r} != map contents "
                f"{want!r}"
            )
    if report["total_unique"] != recomputed.total_unique():
        errors.append(
            f"total_unique {report['total_unique']} != "
            f"{recomputed.total_unique()}"
        )
    return errors


def render_closure(report: Mapping[str, Any]) -> str:
    """Human closure summary (deterministic text: sorted domains)."""
    lines = ["coverage closure:"]
    domains = report.get("domains", {})
    for domain in sorted(domains):
        entry = domains[domain]
        lines.append(
            f"  {domain:12s} {entry['unique']:>8d} unique "
            f"{entry['hits']:>10d} hits"
        )
    lines.append(f"  {'total':12s} {report.get('total_unique', 0):>8d} unique")
    if "new_keys" in report:
        lines.append(f"  new keys this campaign: {report['new_keys']}")
    if report.get("novelty_per_100"):
        curve = " ".join(str(v) for v in report["novelty_per_100"])
        lines.append(f"  novelty per 100 tests: {curve}")
    if "guided" in report:
        lines.append(f"  scheduler: {'coverage-guided' if report['guided'] else 'blind'}")
    return "\n".join(lines)


def coverage_diff(
    base: Mapping[str, Mapping[str, int]],
    other: Mapping[str, Mapping[str, int]],
) -> Dict[str, Any]:
    """Per-domain key-set diff of two coverage states: what ``other``
    reached that ``base`` did not, and vice versa."""
    domains = sorted(set(base) | set(other))
    out: Dict[str, Any] = {"domains": {}}
    total_new = total_lost = 0
    for domain in domains:
        base_keys = set(base.get(domain, {}))
        other_keys = set(other.get(domain, {}))
        new = len(other_keys - base_keys)
        lost = len(base_keys - other_keys)
        total_new += new
        total_lost += lost
        out["domains"][domain] = {
            "base_unique": len(base_keys),
            "other_unique": len(other_keys),
            "shared": len(base_keys & other_keys),
            "new_in_other": new,
            "only_in_base": lost,
        }
    out["new_in_other"] = total_new
    out["only_in_base"] = total_lost
    return out


def render_diff(diff: Mapping[str, Any]) -> str:
    lines = [
        f"{'domain':12s} {'base':>8s} {'other':>8s} {'shared':>8s} "
        f"{'+new':>6s} {'-lost':>6s}"
    ]
    for domain in sorted(diff["domains"]):
        entry = diff["domains"][domain]
        lines.append(
            f"{domain:12s} {entry['base_unique']:>8d} "
            f"{entry['other_unique']:>8d} {entry['shared']:>8d} "
            f"{entry['new_in_other']:>6d} {entry['only_in_base']:>6d}"
        )
    lines.append(
        f"total: +{diff['new_in_other']} new in other, "
        f"-{diff['only_in_base']} only in base"
    )
    return "\n".join(lines)


def write_coverage_json(path: str, document: Mapping[str, Any]) -> None:
    """Write a coverage document byte-stably (sorted keys)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# The persistent coverage database
# ---------------------------------------------------------------------------


def default_coverage_db_path(cache_dir: Optional[str] = None) -> str:
    """``<cache root>/coverage/coverage.json`` (the cache root resolves
    like every other cache tier: ``$REPRO_CACHE_DIR``, else
    ``~/.cache/rtlcheck-repro``)."""
    from repro.cache import default_cache_dir

    root = cache_dir if cache_dir is not None else default_cache_dir()
    return os.path.join(root, "coverage", "coverage.json")


class CoverageDB:
    """Mergeable on-disk coverage accumulator.

    One JSON document: the union coverage map across every campaign
    merged in, a bounded campaign history, and the novelty-producing
    test corpus for replay.  Writes are atomic (temp file +
    ``os.replace``); a corrupt or schema-mismatched document is
    discarded and rebuilt from scratch — the database is an
    accumulator, never an oracle, so resetting it is always safe.
    """

    def __init__(self, path: str):
        self.path = path
        #: Set by :meth:`load` when the on-disk document was unreadable
        #: or stale and had to be reset.
        self.reset_reason: Optional[str] = None

    def _fresh(self) -> Dict[str, Any]:
        return {
            "kind": COVERAGE_DB_KIND,
            "schema_version": COVERAGE_SCHEMA_VERSION,
            "domains": {},
            "campaigns": [],
            "corpus": [],
        }

    def load(self) -> Dict[str, Any]:
        """The current document (a fresh one when missing / corrupt /
        schema-mismatched)."""
        self.reset_reason = None
        try:
            with open(self.path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return self._fresh()
        except (OSError, ValueError):
            self.reset_reason = "corrupt"
            return self._fresh()
        if (
            not isinstance(document, dict)
            or document.get("kind") != COVERAGE_DB_KIND
            or document.get("schema_version") != COVERAGE_SCHEMA_VERSION
        ):
            self.reset_reason = "stale"
            return self._fresh()
        return document

    def coverage_map(self) -> CoverageMap:
        return CoverageMap.from_state(self.load().get("domains", {}))

    def _write(self, document: Mapping[str, Any]) -> None:
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def merge(
        self,
        coverage: CoverageMap,
        campaign: Optional[Mapping[str, Any]] = None,
        corpus: Optional[List[Mapping[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Fold one campaign into the database; returns the written
        document.  ``campaign`` is a small metadata record (seed,
        budget, new-key count, ...); ``corpus`` is the campaign's
        novelty-producing tests (``{"test": <to_dict>, "energy": n}``),
        merged with the stored corpus and truncated to the
        highest-energy :data:`DB_CORPUS_CAP` entries."""
        document = self.load()
        merged = CoverageMap.from_state(document.get("domains", {}))
        new_keys = merged.count_new(coverage)
        merged.merge(coverage)
        document["domains"] = merged.to_state()
        if campaign is not None:
            record = dict(campaign)
            record["new_keys"] = {k: new_keys[k] for k in sorted(new_keys)}
            document["campaigns"] = (
                list(document.get("campaigns", [])) + [record]
            )[-DB_CAMPAIGN_CAP:]
        if corpus:
            pool = {
                json.dumps(entry["test"], sort_keys=True): dict(entry)
                for entry in document.get("corpus", [])
            }
            for entry in corpus:
                key = json.dumps(entry["test"], sort_keys=True)
                held = pool.get(key)
                if held is None or entry.get("energy", 0) > held.get("energy", 0):
                    pool[key] = dict(entry)
            document["corpus"] = sorted(
                pool.values(),
                key=lambda e: (-e.get("energy", 0), json.dumps(e["test"], sort_keys=True)),
            )[:DB_CORPUS_CAP]
        self._write(document)
        return document
