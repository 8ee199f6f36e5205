"""Named, seeded random streams.

A single global ``random.Random`` makes experiments fragile: adding one
draw in an unrelated module perturbs every number drawn after it.  The
:class:`RandomRouter` instead derives an independent stream per *name*
(e.g. ``"topology"``, ``"observer.yandex"``) from the experiment seed, so
components evolve independently and deterministically.
"""

import hashlib
import random
from typing import Dict


# -- draws without random.py's wrappers ----------------------------------------
#
# ``Random.randrange`` and ``randint`` reach the C generator through two or
# three Python frames of argument checks.  These helpers draw what CPython
# 3.11 and 3.12's ``_randbelow_with_getrandbits`` draws: ``getrandbits``
# of ``n.bit_length()`` bits, redrawn while ``>= n``.  They consume the
# same bits, so the values and the generator's state afterwards are the
# same as the stdlib calls they name.

def randrange(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``."""
    if n <= 0:
        raise ValueError("empty range for randrange()")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def randint(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``."""
    return a + randrange(rng, b - a + 1)


def random_bytes(rng: random.Random, n: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(n))``."""
    getrandbits = rng.getrandbits
    out = bytearray()
    for _ in range(n):
        r = getrandbits(9)
        while r >= 256:
            r = getrandbits(9)
        out.append(r)
    return bytes(out)


class RandomRouter:
    """Factory of deterministic, independent ``random.Random`` streams."""

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def _stream_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed is derived by hashing ``(seed, name)``, so the
        stream is a pure function of the experiment seed and the name —
        insensitive to creation order.
        """
        if name not in self._streams:
            self._streams[name] = random.Random(self._stream_seed(name))
        return self._streams[name]

    def fresh_stream(self, name: str) -> random.Random:
        """A new generator seeded exactly as ``stream(name)`` is, not kept.

        For consumers that draw a few values once and never come back
        (one per router, say): the router keeps no 2.5 KB Mersenne
        Twister state per name for the rest of the run.  Every call
        starts the sequence over, so a name must not be drawn from
        through both this and :meth:`stream`.
        """
        return random.Random(self._stream_seed(name))

    def fork(self, name: str) -> "RandomRouter":
        """Derive a child router whose streams are independent of the parent's.

        Useful when a subsystem (e.g. one observer) wants its own namespace
        of streams without coordinating names globally.
        """
        digest = hashlib.sha256(f"{self._seed}/fork:{name}".encode()).digest()
        return RandomRouter(int.from_bytes(digest[:8], "big"))

    def substreams(self, namespace: str) -> "SubstreamFactory":
        """Return a keyed substream factory rooted at this router's seed.

        See :class:`SubstreamFactory` — where :meth:`stream` hands out one
        long-lived generator whose draws depend on consumption order,
        ``substreams(ns).derive(key...)`` makes every keyed decision a pure
        function of (seed, namespace, key).
        """
        return SubstreamFactory(self._seed, namespace)

    def __repr__(self) -> str:
        return f"RandomRouter(seed={self._seed}, streams={sorted(self._streams)})"


class SubstreamFactory:
    """Derives order-independent random streams keyed by arbitrary values.

    A :meth:`RandomRouter.stream` is a single sequential generator: two
    consumers sharing it observe draws in arrival order, so any change in
    *which* consumer asks first changes what everyone gets.  That is fine
    inside one simulator, but breaks when a campaign is partitioned across
    shards that each see only a subset of arrivals.

    ``derive(*keys)`` instead returns a fresh generator seeded from
    ``(seed, namespace, keys)`` alone.  A decision keyed by, say, a domain
    or a hop address comes out identical no matter how many shards run or
    in what order requests arrive — the foundation of the sharded
    executor's determinism guarantee.  Factories are small value objects
    and pickle cleanly into worker processes.
    """

    __slots__ = ("_seed", "_namespace")

    # \x1f (unit separator) cannot appear in stream names or keys coming
    # from addresses/domains, so derived material never collides with the
    # "seed:name" format used by RandomRouter.stream.
    _SEP = "\x1f"

    def __init__(self, seed: int, namespace: str):
        self._seed = int(seed)
        self._namespace = str(namespace)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def namespace(self) -> str:
        return self._namespace

    def derive(self, *keys: object) -> random.Random:
        """Return a fresh generator that is a pure function of the keys."""
        material = self._SEP.join(
            [str(self._seed), "sub", self._namespace, *(str(key) for key in keys)]
        )
        digest = hashlib.sha256(material.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def scoped(self, *keys: object) -> "SubstreamFactory":
        """Narrow the namespace; ``scoped(a).derive(b) == derive(a, b)``."""
        suffix = self._SEP.join(str(key) for key in keys)
        return SubstreamFactory(self._seed, f"{self._namespace}{self._SEP}{suffix}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubstreamFactory):
            return NotImplemented
        return (self._seed, self._namespace) == (other._seed, other._namespace)

    def __hash__(self) -> int:
        return hash((SubstreamFactory, self._seed, self._namespace))

    def __getstate__(self):
        return (self._seed, self._namespace)

    def __setstate__(self, state):
        self._seed, self._namespace = state

    def __repr__(self) -> str:
        return f"SubstreamFactory(seed={self._seed}, namespace={self._namespace!r})"
