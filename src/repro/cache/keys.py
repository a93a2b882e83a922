"""Cache-key derivation: stable digests of the verification inputs.

Every verdict, reach graph, and oracle outcome set in this
reproduction is a *pure function* of a small, enumerable input
set.  This module turns those inputs into content-addressed keys —
SHA-256 hex digests of a canonical JSON payload — so that
:class:`repro.cache.VerificationCache` can memoize them on disk.

What feeds each digest (the full rationale is in ``docs/caching.md``):

* **toolchain fingerprint** — the source text of every ``repro``
  subpackage that participates in verification (design, generators,
  explorer, engine model, µspec grammar, observability, ... — see
  :data:`VERIFY_MODULES`) plus the bundled ``.uspec`` model files.  Any
  edit to the code that computes a verdict invalidates every entry;
  stale results can never outlive the logic that produced them.
* **litmus test** — the canonical :meth:`LitmusTest.to_dict` snapshot
  (threads in order, outcome and initial memory sorted), serialized
  with sorted keys.  Two structurally identical tests digest equally
  regardless of construction order.
* **µspec model** — the parsed AST's ``repr`` (pure dataclasses of
  strings/ints/tuples, so the repr is deterministic across processes).
  Keying on the parsed model rather than a file path means an edited
  model text invalidates entries even when the filename is unchanged.
* **engine configuration** — the frozen
  :class:`~repro.verifier.config.VerifierConfig` repr *and* the
  explorer budget.  Engine settings are inputs, not presentation:
  Hybrid and Full_Proof produce different verdicts, bounds, and modeled
  hours for the same design, so they must never share a verdict entry.
* **factory identities** — the qualified names of the design and
  mapping factories (their implementations are already covered by the
  toolchain fingerprint).

Tier-specific exclusions are deliberate: a reach graph depends on the
design, assumptions, and litmus test but *not* on the µspec model or
engine configuration, so :func:`reach_key` omits them and one graph is
shared across every configuration sweep — the RealityCheck-style reuse
the cache exists for.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Tuple

#: Bump to orphan every existing cache entry (a format change, a
#: serialization fix, ...).  Entries with a different format are
#: treated as misses and rewritten, never reinterpreted.
CACHE_FORMAT_VERSION = 1

#: Top-level modules / subpackages of ``repro`` whose source feeds the
#: verification toolchain fingerprint.  ``__main__`` (CLI plumbing) and
#: ``cache`` itself (guarded by :data:`CACHE_FORMAT_VERSION`) are
#: excluded so flag parsing or cache-internal edits do not orphan
#: results.
VERIFY_MODULES = (
    "__init__.py",
    "errors.py",
    "atomic",
    "core",
    "hll",
    "isa",
    "litmus",
    "mapping",
    "memodel",
    "obs",
    "rtl",
    "sva",
    "uhb",
    "uspec",
    "verifier",
    "vscale",
)

#: Additional modules folded in for difftest-oracle keys.
DIFFTEST_MODULES = ("difftest",)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _iter_sources(root: Path, names: Iterable[str]) -> Iterable[Path]:
    for name in names:
        path = root / name
        if path.is_file():
            yield path
        elif path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.suffix in (".py", ".uspec") and child.is_file():
                    yield child


@lru_cache(maxsize=None)
def _fingerprint(names: Tuple[str, ...]) -> str:
    """SHA-256 over the relative paths and contents of ``names``."""
    root = _package_root()
    digest = hashlib.sha256()
    for path in _iter_sources(root, names):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def toolchain_fingerprint() -> str:
    """Digest of every source file that can change a verdict."""
    return _fingerprint(VERIFY_MODULES)


def difftest_fingerprint() -> str:
    """Toolchain fingerprint extended with the difftest oracles."""
    return _fingerprint(VERIFY_MODULES + DIFFTEST_MODULES)


# ---------------------------------------------------------------------------
# canonical payload hashing
# ---------------------------------------------------------------------------


def digest_payload(payload) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def qualname(obj) -> str:
    """Stable ``module.qualname`` identity of a factory callable."""
    return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"


def model_digest(model) -> str:
    """Digest of a parsed µspec model (AST repr, not file identity)."""
    return _text_digest(repr((model.stages, model.macros, model.axioms)))


def config_digest(config) -> str:
    """Digest of a frozen :class:`VerifierConfig` plus the explorer
    budget (both are verdict inputs — see ``docs/caching.md``)."""
    from repro.verifier.config import EXPLORER_BUDGET

    return _text_digest(repr((config, EXPLORER_BUDGET)))


def litmus_digest(test) -> str:
    """Digest of the canonicalized litmus test."""
    return digest_payload(test.to_dict())


# ---------------------------------------------------------------------------
# tier keys
# ---------------------------------------------------------------------------


def verdict_key(
    *,
    test,
    memory_variant: str,
    model,
    config,
    design_factory,
    node_mapping_factory,
    program_mapping_factory,
    skip_cover_shortcut: bool,
) -> str:
    """Key of one :class:`TestVerification` — the full input closure of
    :meth:`RTLCheck.verify_test`."""
    return digest_payload(
        {
            "tier": "verdict",
            "format": CACHE_FORMAT_VERSION,
            "toolchain": toolchain_fingerprint(),
            "test": test.to_dict(),
            "memory_variant": memory_variant,
            "model": model_digest(model),
            "config": config_digest(config),
            "design_factory": qualname(design_factory),
            "node_mapping": qualname(node_mapping_factory),
            "program_mapping": qualname(program_mapping_factory),
            "skip_cover_shortcut": bool(skip_cover_shortcut),
        }
    )


def reach_key(
    *,
    test,
    memory_variant: str,
    design_factory,
    program_mapping_factory,
) -> str:
    """Key of one shared :class:`~repro.verifier.reach.ReachGraph`.

    Deliberately independent of the µspec model and engine
    configuration: the assumption-constrained design transition relation
    is the same for every axiom set and Table-1 row, so one graph serves
    them all."""
    return digest_payload(
        {
            "tier": "reach",
            "format": CACHE_FORMAT_VERSION,
            "toolchain": toolchain_fingerprint(),
            "test": test.to_dict(),
            "memory_variant": memory_variant,
            "design_factory": qualname(design_factory),
            "program_mapping": qualname(program_mapping_factory),
        }
    )


# Unused by verification; benchmarks/perf/ledger.py wraps it by name.
def monitor_key(directive) -> str:
    """Key of one compiled SVA property monitor (NFAs + property tree).

    The directive AST is itself a pure function of (model, test,
    mapping), so keying on its deterministic repr is exactly
    content-addressing the compiled artifact."""
    return digest_payload(
        {
            "tier": "nfa",
            "format": CACHE_FORMAT_VERSION,
            "toolchain": toolchain_fingerprint(),
            "directive": _text_digest(repr(directive)),
        }
    )


def oracle_key(
    oracle: str,
    test,
    memory_variant: Optional[str] = None,
    max_states: Optional[int] = None,
    extra: Optional[dict] = None,
) -> str:
    """Key of one difftest oracle outcome set.

    ``memory_variant`` and ``max_states`` only apply to the design-
    dependent layers (RTL enumeration, trace sampling); the operational
    and axiomatic layers are design-independent and pass ``None`` so a
    fixed/buggy sweep shares their entries.  ``extra`` folds additional
    oracle-specific parameters into the key (the trace oracle's sample
    count and harvest seed)."""
    payload = {
        "tier": "oracle",
        "format": CACHE_FORMAT_VERSION,
        "toolchain": difftest_fingerprint(),
        "oracle": oracle,
        "test": test.to_dict(),
        "memory_variant": memory_variant,
        "max_states": max_states,
    }
    if extra:
        payload["extra"] = extra
    return digest_payload(payload)


def campaign_key(kind: str, payload) -> str:
    """Key of a checkpointable campaign (a suite run, a fuzz run)."""
    return digest_payload(
        {
            "tier": "campaign",
            "format": CACHE_FORMAT_VERSION,
            "kind": kind,
            "payload": payload,
            "toolchain": difftest_fingerprint(),
        }
    )
