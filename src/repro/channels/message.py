"""Messages exchanged between stages.

A message carries an application payload, its size in bytes (for
communication-overhead accounting, §9.1) and — when Whodunit tracking is
on — a piggy-backed transaction-context synopsis: a plain int for
requests, a :class:`~repro.core.synopsis.CompositeSynopsis` for
responses, or ``None`` when the sending stage does not profile.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.synopsis import SYNOPSIS_BYTES, CompositeSynopsis


class Message:
    """One application-level message on a channel.

    ``last`` supports chunked transfers: a multi-chunk response sets
    ``last=False`` on every chunk but the final one, so a streaming
    receiver (the proxy's ``httpReadReply``) knows when the body is
    complete without peeking into the payload.
    """

    __slots__ = ("payload", "size", "origin", "synopsis", "last")

    def __init__(
        self,
        payload: Any,
        size: int = 0,
        origin: Optional[str] = None,
        synopsis: Any = None,
        last: bool = True,
    ):
        if size < 0:
            raise ValueError("negative message size")
        self.payload = payload
        self.size = size
        self.origin = origin
        self.synopsis = synopsis
        self.last = last

    def context_bytes(self) -> int:
        """Bytes of piggy-backed context information on the wire."""
        if self.synopsis is None:
            return 0
        if isinstance(self.synopsis, CompositeSynopsis):
            return self.synopsis.wire_size()
        return SYNOPSIS_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message {self.payload!r} size={self.size} "
            f"origin={self.origin} syn={self.synopsis!r}>"
        )
