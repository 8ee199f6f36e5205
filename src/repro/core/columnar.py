"""String interning for the wire codec, and the shard merge order.

* :class:`StringTable` — first-use-order string interning: the wire
  codec's encoder (``core/wire.py``) builds each payload's string table
  on it.
* :func:`merged_order` — the deterministic (time, shard position,
  within-shard index) interleave order used by cross-shard merges
  (:meth:`repro.honeypot.logstore.LogStore.merged`).

Nothing in this module imports from ``core/wire`` or the stores, so the
dependency arrow points one way: wire and log build on this module.
"""

import heapq
from itertools import count, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The id :meth:`StringTable.intern_opt` gives None.
NONE_REF = -1


class StringTable:
    """First-use-order string interning: value -> dense integer id.

    Ids are assigned 0, 1, 2, ... in the order values are first seen, so
    a table built by replaying the same value sequence is identical —
    the property the wire format relies on for byte-stable payloads.
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
