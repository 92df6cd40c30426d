"""Durable, content-addressed experiment result store (SQLite, WAL).

See :mod:`repro.store.core` for the store itself and
:mod:`repro.store.fingerprint` for how keys are derived.
"""

from repro.store.core import (
    DEFAULT_STORE_DIR,
    ENV_STORE,
    ResultStore,
    StoreOutcome,
    default_store_path,
    open_store,
    resolve_store_path,
)
from repro.store.fingerprint import (
    audit_fingerprint,
    game_content_stamp,
    run_fingerprint,
    spec_fingerprint,
)

__all__ = [
    "DEFAULT_STORE_DIR",
    "ENV_STORE",
    "ResultStore",
    "StoreOutcome",
    "audit_fingerprint",
    "default_store_path",
    "game_content_stamp",
    "open_store",
    "resolve_store_path",
    "run_fingerprint",
    "spec_fingerprint",
]
