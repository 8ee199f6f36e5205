"""Shared columnar-storage primitives: string interning and merge order.

The internet-scale stores (:class:`repro.core.correlate.DecoyLedger`,
:class:`repro.honeypot.logstore.LogStore`) keep one ``array``-of-struct
column per field instead of one Python object per row.  Two pieces are
common to every columnar consumer and live here:

* :class:`StringTable` — first-use-order string interning.  This is the
  same machinery the wire codec's encoder uses for its payload string
  tables (``core/wire.py`` builds its ``_Encoder`` on it), lifted out so
  in-memory stores can share it: domains, addresses, protocol labels,
  and country codes repeat across millions of rows, and a 4-byte column
  reference replaces a Python string pointer + object.
* :func:`merged_order` — the deterministic (time, shard position,
  within-shard index) interleave order used by cross-shard merges.

Nothing in this module imports from ``core/wire`` or the stores, so the
dependency arrow points one way: wire/ledger/log build on columnar.
"""

import heapq
from itertools import count, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Column sentinel for "this optional string/int field is None".
NONE_REF = -1


class StringTable:
    """First-use-order string interning: value -> dense integer id.

    Ids are assigned 0, 1, 2, ... in the order values are first seen, so
    a table built by replaying the same value sequence is identical —
    the property the wire format relies on for byte-stable payloads and
    the columnar stores rely on for cheap equality (same id == same
    string).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self):
        self._ids: Dict[str, int] = {}
        self._values: List[str] = []

    def intern(self, value: str) -> int:
        """The id of ``value``, assigning the next dense id on first use."""
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._values)
            self._ids[value] = ident
            self._values.append(value)
        return ident

    def intern_opt(self, value: Optional[str]) -> int:
        """Like :meth:`intern`, mapping None to :data:`NONE_REF`."""
        if value is None:
            return NONE_REF
        return self.intern(value)

    def value(self, ident: int) -> str:
        return self._values[ident]

    def value_opt(self, ident: int) -> Optional[str]:
        if ident == NONE_REF:
            return None
        return self._values[ident]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._ids

    def values(self) -> Tuple[str, ...]:
        """All interned strings in id order (id == position)."""
        return tuple(self._values)


def merged_order(
    shard_times: Sequence[Sequence[float]],
) -> Iterable[Tuple[int, int]]:
    """(shard position, within-shard index) pairs in merged time order.

    The order key is ``(time, shard position, index)`` — each shard's
    times are already non-decreasing (simulators append monotonically),
    and position/index break cross-shard ties stably, so the result
    depends only on the inputs, never on worker completion order.  The
    merge is a k-way heap merge of the per-shard streams.

    Each shard's times must be non-decreasing — a violation raises
    rather than silently reordering (the heap merge would garble it).
    """
    for position, times in enumerate(shard_times):
        previous = None
        for time in times:
            if previous is not None and time < previous:
                raise ValueError(
                    f"shard {position} not in time order: "
                    f"{time} after {previous}"
                )
            previous = time
    # zip binds each shard's position as its stream is built; a nested
    # generator expression would read it late, as the last shard's.
    streams = [zip(times, repeat(position), count())
               for position, times in enumerate(shard_times)]
    for _, position, index in heapq.merge(*streams):
        yield position, index
