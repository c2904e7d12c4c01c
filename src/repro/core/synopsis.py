"""Transaction-context synopses (§7.4).

A synopsis is a compact, unique 4-byte representation of a transaction
context.  Each stage keeps a :class:`SynopsisTable` mapping contexts to
sequentially allocated 32-bit identifiers (and back), and piggy-backs
synopses — not whole contexts — on messages, which is what keeps
Whodunit's communication overhead around 1% (§9.1).

Response messages carry a :class:`CompositeSynopsis`
``synopsis(α) # synopsis(β)``: the caller's request synopsis α as
prefix, the callee's local call-path synopsis β as suffix, joined by the
``#`` delimiter.  The caller recognises its own α prefix and switches
back to the CCT the request originated from instead of inheriting the
callee's context.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.core.context import TransactionContext

SYNOPSIS_BYTES = 4
DELIMITER_BYTES = 1

# The 32-bit synopsis space is partitioned per stage: the top 12 bits
# come from a hash of the stage name, the low 20 bits are sequential.
# This keeps synopses 4 bytes wide while letting a caller recognise at a
# glance that a composite's prefix was allocated by itself rather than
# by the callee (the paper achieves the same with per-connection state).
_STAGE_BITS = 12
_LOCAL_BITS = 32 - _STAGE_BITS
_LOCAL_MASK = (1 << _LOCAL_BITS) - 1


def _stage_base(stage_name: str) -> int:
    return (zlib.crc32(stage_name.encode()) & ((1 << _STAGE_BITS) - 1)) << _LOCAL_BITS


# Process-wide registry of which stage name owns which 12-bit base.
# Two distinct stage names can hash into the same bucket (only 4096
# buckets), in which case both stages would mint identical 32-bit
# synopses and ``is_own_prefix`` would misfire — a caller could adopt a
# stranger's response.  At table construction the colliding name is
# deterministically salted and rehashed until it lands in a free bucket;
# re-creating a table for an already-registered name reuses its bucket,
# so repeated runs in one process stay stable.
_BASE_OWNERS: Dict[int, str] = {}


def _claim_stage_base(stage_name: str) -> int:
    """The collision-free base for ``stage_name``, registering it."""
    salt = 0
    candidate = stage_name
    while True:
        base = _stage_base(candidate)
        owner = _BASE_OWNERS.get(base)
        if owner is None:
            _BASE_OWNERS[base] = stage_name
            return base
        if owner == stage_name:
            return base
        salt += 1
        if salt > (1 << _STAGE_BITS):
            raise OverflowError(
                f"no free 12-bit synopsis bucket for stage {stage_name!r}"
            )
        candidate = f"{stage_name}\x00{salt}"


class CompositeSynopsis:
    """A response synopsis ``prefix # suffix`` (each a 4-byte synopsis)."""

    __slots__ = ("prefix", "suffix")

    def __init__(self, prefix: int, suffix: int):
        self.prefix = prefix
        self.suffix = suffix

    def wire_size(self) -> int:
        """Bytes on the wire: two synopses plus the ``#`` delimiter."""
        return 2 * SYNOPSIS_BYTES + DELIMITER_BYTES

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompositeSynopsis)
            and other.prefix == self.prefix
            and other.suffix == self.suffix
        )

    def __hash__(self) -> int:
        return hash((CompositeSynopsis, self.prefix, self.suffix))

    def __repr__(self) -> str:
        return f"{self.prefix:#010x}#{self.suffix:#010x}"


class SynopsisTable:
    """Per-stage dictionary of transaction contexts and their synopses.

    Identifiers are allocated sequentially, so uniqueness is by
    construction; 2^32 distinct contexts per stage is far beyond any
    workload in the paper.
    """

    # Cap on the per-table composite cache (see :meth:`make_response`).
    _COMPOSITE_CACHE_MAX = 65536

    def __init__(self, stage_name: str):
        self.stage_name = stage_name
        self._by_context: Dict[TransactionContext, int] = {}
        self._by_value: Dict[int, TransactionContext] = {}
        self._base = _claim_stage_base(stage_name)
        self._next = 1  # 0 is reserved for "no context"
        # Copy-on-write response composites: the same (request, local)
        # pair produces one shared immutable CompositeSynopsis, so a
        # stage answering the same call path repeatedly forwards the
        # cached object instead of re-encoding a fresh one per message.
        self._composites: Dict[Tuple[int, int], CompositeSynopsis] = {}

    def __len__(self) -> int:
        return len(self._by_context)

    @property
    def base(self) -> int:
        """The stage's claimed 12-bit base, as a full 32-bit prefix."""
        return self._base

    @property
    def next_value(self) -> int:
        """The next sequential local identifier to be allocated."""
        return self._next

    def restore_snapshot(self, base: int, next_value: int) -> None:
        """Adopt a persisted ``(base, next)`` pair from a profile dump.

        Post-mortem stitching may run in a fresh process whose
        registration order differs from the run that produced the dump;
        re-deriving the base there could salt colliding names into
        *different* buckets than the run used.  Dumps therefore carry
        the salted base explicitly, and decoding restores it here so
        synopses minted after load can never alias dumped values.

        The bucket this table claimed at construction is released (if
        still owned) and the persisted one registered, unless another
        stage already owns it — resolution is unaffected either way
        since it reads the restored ``_by_value`` map directly.
        """
        if base != self._base:
            if _BASE_OWNERS.get(self._base) == self.stage_name:
                del _BASE_OWNERS[self._base]
            if _BASE_OWNERS.get(base) is None:
                _BASE_OWNERS[base] = self.stage_name
            self._base = base
        if next_value > self._next:
            self._next = next_value

    def clear_mappings(self) -> int:
        """Forget every context<->synopsis mapping (crash amnesia).

        The sequential allocator is deliberately *not* rewound: values
        minted after the loss never alias values minted before it, so a
        pre-crash synopsis held by a remote stage becomes *unresolvable*
        (surfaced by partial stitching) instead of silently resolving to
        whatever context happened to re-use its slot.  Returns the
        number of mappings lost.
        """
        lost = len(self._by_context)
        self._by_context.clear()
        self._by_value.clear()
        self._composites.clear()
        return lost

    def synopsis(self, context: TransactionContext) -> int:
        """The synopsis for ``context``, allocating one on first use."""
        value = self._by_context.get(context)
        if value is None:
            if self._next > _LOCAL_MASK:
                raise OverflowError("synopsis space exhausted")
            value = self._base | self._next
            self._next += 1
            self._by_context[context] = value
            self._by_value[value] = context
        return value

    def register(self, context: TransactionContext, value: int) -> None:
        """Restore one persisted mapping under its original value (a
        decoded dump, or a live checkpoint's replayed mint)."""
        self._by_context[context] = value
        self._by_value[value] = context

    def resolve(self, value: int) -> TransactionContext:
        """The context a synopsis stands for (post-mortem stitching)."""
        try:
            return self._by_value[value]
        except KeyError:
            raise KeyError(
                f"stage {self.stage_name!r} has no synopsis {value:#010x}"
            ) from None

    def lookup(self, context: TransactionContext) -> Optional[int]:
        """The synopsis for ``context`` if already allocated, else None."""
        return self._by_context.get(context)

    def make_response(self, request_synopsis: int, local_context: TransactionContext) -> CompositeSynopsis:
        """Compose the response synopsis ``request # synopsis(local)``.

        Composites are immutable and value-equal, so identical pairs
        share one cached instance (copy-on-write forwarding).
        """
        key = (request_synopsis, self.synopsis(local_context))
        composite = self._composites.get(key)
        if composite is None:
            composite = CompositeSynopsis(key[0], key[1])
            if len(self._composites) < self._COMPOSITE_CACHE_MAX:
                self._composites[key] = composite
        return composite

    def is_own_prefix(self, composite: CompositeSynopsis) -> bool:
        """True if the composite's prefix was allocated by this stage —

        i.e. the message is a response to one of our own requests.
        """
        return composite.prefix in self._by_value

    def items(self) -> Tuple[Tuple[TransactionContext, int], ...]:
        return tuple(self._by_context.items())
