"""Exception hierarchy for tabattr.

Programming-contract violations (mismatched vector lengths, unknown metric
names, bad argument values) raise plain ``ValueError``; everything that can go
wrong with data, files, or remote services raises a subclass of
:class:`TabAttrError` so callers can catch the whole family.
"""

from __future__ import annotations


class TabAttrError(Exception):
    """Base class for all tabattr domain errors."""


class NormalizationError(TabAttrError):
    """A cell value could not be normalized (empty or unparseable)."""


class SerializationError(TabAttrError):
    """A coalition could not be serialized (e.g. empty field list)."""


class DatasetError(TabAttrError):
    """CSV/schema ingestion failed (missing column, bad row, unreadable file)."""


class ConfigError(TabAttrError):
    """A run or sampling configuration is invalid for the requested work."""


class BackendError(TabAttrError):
    """Base class for model-backend failures."""


class BackendUnavailableError(BackendError):
    """The remote service stayed unreachable after all retries."""


class CacheMissError(BackendError):
    """A replay backend had no entry for the requested prompt digest."""

    def __init__(self, digest: str, message: str | None = None):
        super().__init__(message or f"no replay entry for prompt digest {digest}")
        self.digest = digest


class ProtocolError(BackendError):
    """The backend answered with something the wire protocol does not allow."""


class AttributionError(TabAttrError):
    """Attribution of one instance failed; no partial result is produced."""


class RankingError(TabAttrError):
    """An external or derived feature ranking is unusable."""


class CacheError(TabAttrError):
    """Base class for evaluation-store and index-manifest failures."""


class StaleCacheError(CacheError):
    """The evaluation store was written under a different configuration
    fingerprint, or for instances with other feature keys."""


class IndexSetError(CacheError):
    """Requested instance indices diverge from the recorded selection."""


class MalformedManifestError(CacheError):
    """The index manifest parses but holds no list of instance indices."""


class CorruptCacheError(CacheError):
    """A manifest or evaluation store exists but does not parse."""

    def __init__(self, path: str, offset: int, message: str):
        super().__init__(f"{path}: corrupt cache at byte offset {offset}: {message}")
        self.path = path
        self.offset = offset
