"""`repro.cache` — persistent, content-addressed verification cache.

Verdicts, reach graphs, and difftest oracle outcome sets are pure
functions of their inputs (design source, µspec model, mappings,
litmus test, engine configuration).  This package memoizes them on
disk under SHA-256 keys of those inputs, giving warm re-runs of
``python -m repro suite`` / ``fuzz`` near-instant turnaround and
interrupted campaigns a checkpointed restart.  See
``docs/caching.md`` for the key-derivation rules, tier semantics, and
the CLI reference (``python -m repro cache stats|gc|clear``).
"""

from repro.cache.checkpoint import CheckpointManifest
from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    campaign_key,
    config_digest,
    difftest_fingerprint,
    litmus_digest,
    model_digest,
    oracle_key,
    reach_key,
    toolchain_fingerprint,
    verdict_key,
)
from repro.cache.store import (
    CACHE_DIR_ENV,
    CacheStats,
    VerificationCache,
    default_cache_dir,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CheckpointManifest",
    "VerificationCache",
    "campaign_key",
    "config_digest",
    "default_cache_dir",
    "difftest_fingerprint",
    "litmus_digest",
    "model_digest",
    "oracle_key",
    "reach_key",
    "toolchain_fingerprint",
    "verdict_key",
]
