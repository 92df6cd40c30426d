"""SHA-256 from CPython's own implementation, not OpenSSL's.

``hashlib.sha256`` is OpenSSL's, and importing ``hashlib`` maps
libcrypto (about 3.5 MB resident) into every process that hashes. The
seed derivation (:func:`repro.utils.rng.derive_seed`), the dealt common
coin (:func:`repro.broadcast.coin.coin_value`) and the store
fingerprints (:mod:`repro.store.fingerprint`) hash short strings, for
which CPython's built-in module costs about the same per call, and both
give the same digest bytes. The built-in module is ``_sha256`` up to
Python 3.11 and ``_sha2`` from 3.12; the version picks it, with no
``ImportError`` fallback (CONTRIBUTING invariant 12).
"""

from __future__ import annotations

import sys

if sys.version_info >= (3, 12):
    from _sha2 import sha256
else:
    from _sha256 import sha256

__all__ = ["sha256"]
