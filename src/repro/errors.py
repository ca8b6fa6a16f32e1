"""Exception taxonomy for the whole system.

Every error a client can observe derives from :class:`ReproError`, so
applications (and the supernova pipeline) can catch one base class. Remote
failures cross the RPC boundary as :class:`RemoteError` wrapping the
original exception's type name and message.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid blob geometry or deployment configuration."""


class BlobNotFound(ReproError):
    """Operation on an id that was never allocated."""


class VersionNotPublished(ReproError):
    """READ requested a version newer than the latest published snapshot.

    Mirrors the paper's specification: "If v has not yet been published,
    then the read fails."
    """

    def __init__(self, blob_id: str, requested: int, latest: int) -> None:
        super().__init__(
            f"version {requested} of blob {blob_id} not published "
            f"(latest published: {latest})"
        )
        self.blob_id = blob_id
        self.requested = requested
        self.latest = latest

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args (the
        # formatted message), which does not match this signature; errors
        # must survive the process-driver wire, so rebuild from the fields.
        return (VersionNotPublished, (self.blob_id, self.requested, self.latest))


class OutOfBounds(ReproError):
    """Access past the end of the blob's fixed logical size."""


class ImmutabilityViolation(ReproError):
    """Attempt to overwrite an existing page or metadata node.

    Pages and tree nodes are write-once by design; an overwrite attempt
    indicates a protocol bug, never a legal operation.
    """


class PageMissing(ReproError):
    """A data provider was asked for a page it does not hold."""


class PageCorrupt(ReproError):
    """A stored page failed its integrity checksum on read."""


class NodeMissing(ReproError):
    """A metadata provider was asked for a tree node it does not hold."""


class NotEnoughProviders(ReproError):
    """The provider manager cannot satisfy an allocation request."""


class StaleWrite(ReproError):
    """A writer reported completion for an unknown or finished version."""


class RemoteError(ReproError):
    """An exception raised by a remote handler, carried over RPC.

    Carries the original exception so drivers can re-raise *semantic*
    errors (``ReproError`` subclasses such as :class:`VersionNotPublished`)
    with their precise type at the protocol's yield point, while
    infrastructure failures stay wrapped.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        original: BaseException | None = None,
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.original = original

    @classmethod
    def wrap(cls, exc: BaseException) -> "RemoteError":
        if isinstance(exc, RemoteError):
            return exc
        return cls(type(exc).__name__, str(exc), original=exc)

    def unwrap(self) -> BaseException:
        """The exception to raise client-side: typed when semantic."""
        if isinstance(self.original, ReproError):
            return self.original
        return self

    def __reduce__(self):
        # Same signature problem as VersionNotPublished, plus the wrapped
        # original may itself be unpicklable (it can carry arbitrary
        # handler state): probe it and ship ``None`` in its place — the
        # error type name and message always cross the wire intact.
        original = self.original
        if original is not None:
            import pickle

            try:
                pickle.loads(pickle.dumps(original))
            except Exception:
                original = None
        return (RemoteError, (self.error_type, self.message, original))
