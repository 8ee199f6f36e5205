"""The draw helpers and the identifier's base32 encoder give exactly what
the stdlib calls they stand in for give.

``repro.simkit.rng.randrange``, ``randint`` and ``random_bytes`` follow
CPython's ``randrange`` algorithm (``getrandbits`` rejection), so every
pinned digest rests on them matching ``random.Random`` bit for bit: same
values, and the same generator state afterwards.  CI runs this file on
Python 3.11 and 3.12.
"""

import base64
import random

import pytest

from repro.core.identifier import _base32
from repro.simkit.rng import randint, random_bytes, randrange

SEEDS = range(240)
BOUNDS = (1, 2, 3, 5, 7, 8, 9, 16, 24, 31, 32, 33, 255, 256, 257, 1000,
          40000, 0x10000, 2 ** 31, 2 ** 32, 2 ** 32 + 1, 2 ** 70 + 3)
"""1, powers of two and their neighbours, the router pool sizes 8/16/24,
the port and transaction-id ranges, and bounds past one 32-bit word."""
RANGES = ((0, 0), (0, 1), (1, 2), (0, 2), (1, 3), (3, 9), (-5, 5),
          (20000, 59999))


def twins(seed: int):
    return random.Random(seed), random.Random(seed)


def test_randrange_matches_stdlib():
    for seed in SEEDS:
        stdlib, ours = twins(seed)
        for n in BOUNDS:
            for _ in range(3):
                assert randrange(ours, n) == stdlib.randrange(n), (seed, n)
        assert ours.random() == stdlib.random(), seed


def test_randint_matches_stdlib():
    for seed in SEEDS:
        stdlib, ours = twins(seed)
        for a, b in RANGES:
            for _ in range(3):
                assert randint(ours, a, b) == stdlib.randint(a, b), (seed, a, b)
        assert ours.random() == stdlib.random(), seed


def test_random_bytes_match_stdlib():
    for seed in SEEDS:
        stdlib, ours = twins(seed)
        for n in (0, 1, 2, 16, 31, 32, 33, 64):
            expected = bytes(stdlib.randrange(256) for _ in range(n))
            assert random_bytes(ours, n) == expected, (seed, n)
        assert ours.random() == stdlib.random(), seed


def test_mixed_draws_keep_the_generator_in_step():
    """A path's draws interleave with a ClientHello's on one stream in
    no fixed pattern; each helper must leave the state the stdlib would."""
    for seed in SEEDS:
        stdlib, ours = twins(seed)
        plan = random.Random(seed + 10_000)
        for _ in range(40):
            kind = plan.randrange(3)
            if kind == 0:
                n = plan.choice(BOUNDS)
                assert randrange(ours, n) == stdlib.randrange(n), (seed, n)
            elif kind == 1:
                a, b = plan.choice(RANGES)
                assert randint(ours, a, b) == stdlib.randint(a, b), (seed, a, b)
            else:
                assert random_bytes(ours, 32) == bytes(
                    stdlib.randrange(256) for _ in range(32)), seed
        assert ours.random() == stdlib.random(), seed


@pytest.mark.parametrize("draw", [
    lambda rng: randrange(rng, 0),
    lambda rng: randrange(rng, -3),
    lambda rng: randint(rng, 2, 1),
], ids=["zero", "negative", "reversed"])
def test_empty_range_is_an_error(draw):
    with pytest.raises(ValueError):
        draw(random.Random(1))


def test_base32_matches_b32encode():
    bodies = [bytes(15), b"\xff" * 15, bytes(range(15))]
    rng = random.Random(20240301)
    bodies += [rng.randbytes(15) for _ in range(10_000)]
    for body in bodies:
        expected = base64.b32encode(body).decode("ascii").lower().rstrip("=")
        assert len(expected) == 24
        assert _base32(body) == expected, body.hex()
