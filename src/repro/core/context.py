"""Transaction contexts (§2 of the paper).

A transaction context is the complete execution history of a request
through the stages of a multi-tier application: the call paths of every
stage it has flowed through, concatenated in execution order.  We model
it as an immutable sequence of *elements*:

- frame or handler or stage names (strings) for locally observed
  execution, and
- :class:`SynopsisRef` values standing in for a remote stage's context,
  received as a 4-byte synopsis over a channel (§7.4).  These are
  expanded back into full contexts post-mortem by
  :mod:`repro.core.stitch`.

Two normalisations from §4.1 are built in:

- *collapse*: consecutive occurrences of the same element (an event
  handler re-scheduled until its I/O completes) are collapsed to one;
- *loop pruning*: when appending an element that already occurs in the
  sequence (requests on a persistent connection revisiting the read
  handler), the suffix that closes the loop is pruned, mirroring the
  treatment of recursion in call graphs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

# Cap on the per-context append() memo.  The hot paths (SEDA stage
# dispatch, event-loop dispatch) append a small fixed vocabulary of
# stage/handler names, so the memo stays tiny; the cap keeps a call
# site that appends high-cardinality elements (e.g. per-request ids)
# from pinning unbounded derived contexts to a long-lived root.
_APPEND_MEMO_MAX = 128

# Process-wide hash-cons table: elements -> the one canonical context.
# Every construction route (append, extend_path, concat, the decoders,
# stitching, unpickling, per-hop adoption) goes through __new__, so a
# value is one object: the memos point at canonical contexts instead of
# growing a tree of equal copies, and the synopsis-table and CCT dict
# lookups hit the identity fast path.  Beyond the cap, construction
# falls back to fresh (still-equal) objects, which is why __eq__ and
# __hash__ stay value-based.
_INTERN_MAX = 4096
_INTERN: dict = {}


class SynopsisRef:
    """Opaque stand-in for a remote transaction context.

    ``value`` is the 4-byte synopsis integer allocated by the sending
    stage; ``origin`` names that stage so post-mortem stitching knows
    which synopsis dictionary resolves it.
    """

    __slots__ = ("origin", "value")

    def __init__(self, origin: str, value: int):
        if not (0 <= value <= 0xFFFFFFFF):
            raise ValueError(f"synopsis must fit in 4 bytes, got {value!r}")
        self.origin = origin
        self.value = value

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, SynopsisRef)
            and other.origin == self.origin
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((SynopsisRef, self.origin, self.value))

    def __repr__(self) -> str:
        return f"syn({self.origin}:{self.value:#010x})"


class UnresolvedRef:
    """A synopsis reference the presentation phase could not expand.

    Produced by non-strict stitching (:func:`repro.core.stitch.
    resolve_context` with ``strict=False``) when the originating stage's
    synopsis dictionary no longer holds ``value`` — e.g. the stage
    crashed and lost its table, or its dump was never collected.  The
    element keeps the profile weight attached to its context instead of
    aborting the whole analysis; it renders as ``<unresolved:origin:0x…>``.
    """

    __slots__ = ("origin", "value")

    def __init__(self, origin: str, value: int):
        self.origin = origin
        self.value = value

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, UnresolvedRef)
            and other.origin == self.origin
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((UnresolvedRef, self.origin, self.value))

    def __repr__(self) -> str:
        return f"<unresolved:{self.origin}:{self.value:#010x}>"


class TransactionContext:
    """Immutable transaction context.

    Use :meth:`append` / :meth:`concat` to derive new contexts; the
    collapse and loop-pruning normalisations are applied on append by
    default and can be disabled for debugging-style full histories
    (§4.1 notes the complete context "may be useful ... for debugging").
    Hash-consed: building a context returns the existing object for an
    equal value, as the synopsis table stores each context once (§7.4).
    """

    __slots__ = ("elements", "_hash", "_wire", "_appends", "_extends")

    def __new__(cls, elements: Iterable[Any] = ()) -> "TransactionContext":
        elements = tuple(elements)
        self = _INTERN.get(elements)
        if self is not None:
            return self
        self = object.__new__(cls)
        self.elements = elements
        self._hash = hash(elements)
        self._wire = sum(
            len(e) + 1 if isinstance(e, str) else 4 for e in elements
        )
        # Lazy memo of append() results.  The hot paths (SEDA stage
        # dispatch, event-loop dispatch) append the same handful of
        # stage/handler names to the same contexts millions of times;
        # contexts are immutable, so the derived context can be reused.
        # Keys are (element, collapse, prune); the dict is only
        # allocated on first use, capped at _APPEND_MEMO_MAX entries,
        # and never pickled (see __reduce__).
        self._appends = None
        # Same idea for extend_path(): the send wrappers extend each
        # prefix context with a small vocabulary of call paths.
        self._extends = None
        if len(_INTERN) < _INTERN_MAX:
            _INTERN[elements] = self
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "TransactionContext":
        return _EMPTY

    @classmethod
    def from_call_path(cls, path: Iterable[str]) -> "TransactionContext":
        """Context of a fresh transaction: simply the local call path."""
        return cls(path)

    def append(
        self,
        element: Any,
        collapse: bool = True,
        prune: bool = True,
    ) -> "TransactionContext":
        """Extend the context with one element, applying normalisation."""
        cache = self._appends
        key = (element, collapse, prune)
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
        else:
            cache = self._appends = {}
        elements = self.elements
        if collapse and elements and elements[-1] == element:
            result = self
        elif prune and element in elements:
            index = elements.index(element)
            result = TransactionContext(elements[: index + 1])
        else:
            result = TransactionContext(elements + (element,))
        if len(cache) < _APPEND_MEMO_MAX:
            cache[key] = result
        return result

    def concat(self, other: "TransactionContext") -> "TransactionContext":
        """Plain concatenation (no normalisation), as at stage handoff."""
        if not other.elements:
            return self
        if not self.elements:
            return other
        return TransactionContext(self.elements + other.elements)

    def extend_path(self, path: Iterable[str]) -> "TransactionContext":
        """Suffix the context with a local call path (no normalisation)."""
        path = tuple(path)
        if not path:
            return self
        cache = self._extends
        if cache is None:
            cache = self._extends = {}
        result = cache.get(path)
        if result is None:
            result = TransactionContext(self.elements + path)
            if len(cache) < _APPEND_MEMO_MAX:
                cache[path] = result
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def starts_with(self, prefix: "TransactionContext") -> bool:
        n = len(prefix.elements)
        return self.elements[:n] == prefix.elements

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def wire_size(self) -> int:
        """Bytes to ship this context verbatim instead of as a synopsis.

        Strings cost their length plus a separator; opaque references
        cost 4 bytes.  Used by the synopsis ablation to quantify what
        the 4-byte synopses save (§7.4, §9.1).  Worked out once, when
        the context is built.
        """
        return self._wire

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, TransactionContext)
            and other.elements == self.elements
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle only the elements: the hash is per-process (it follows
        # PYTHONHASHSEED) and the memos are a per-process optimisation,
        # not state.  Unpickling goes through __new__, so it returns the
        # receiving process's canonical object.
        return (TransactionContext, (self.elements,))

    def __repr__(self) -> str:
        inner = ", ".join(
            e if isinstance(e, str) else repr(e) for e in self.elements
        )
        return f"ctxt[{inner}]"


_EMPTY = TransactionContext(())
