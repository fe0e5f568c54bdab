"""Seeded operation generator for the three benchmark workloads.

An operation is the argv of one ``g2kr`` command.  A workload is an endless
sequence of rounds; every round holds one operation per slot of the
workload, in a seeded order.  The slots fix each round's shape, from
operations where interpreter start dominates to ones of about half a
second, while the seed draws the inputs inside each slot's band.
Operations therefore differ from seed to seed, but every round costs about
the same, which keeps the median and the tail percentile on the same slots
whatever the seed.

Bands are given by a cost proxy computed with the benchmark's own
arithmetic: term pairs ``|supp V(lam)| * |supp V(mu)|`` for ``tensor`` (it
predicts the run time to about 20%), support size for ``char``, and ``m``
or ``--max-m`` for ``kr`` and ``verify``; where cost grows steeply with
``m`` (the weight basis) the band is a single value.
"""

from __future__ import annotations

import itertools
import random

from g2math import support_size

FORMATS = ("json", "csv", "table")


def _seeded(workload: str, seed: int) -> random.Random:
    # Seeding with a string is deterministic across processes and versions.
    return random.Random(f"{workload}:{seed}")


class Draw:
    """What one slot may use to choose its operation in one round.

    Numbers come from the seeded generator.  A discrete choice with a large
    effect on cost (output format, ``--conjecture``, which ladder family)
    cycles through its options round by round from a seeded offset, so that
    any few consecutive rounds hold every option equally often.
    """

    def __init__(self, rng: random.Random, round_index: int, offset: int):
        self.rng, self.round_index, self.offset = rng, round_index, offset

    def randint(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def cycle(self, options):
        return options[(self.offset + self.round_index) % len(options)]


def _tensor(lo, hi):
    def make(draw):
        while True:
            lam = (draw.randint(0, 6), draw.randint(0, 6))
            mu = (draw.randint(0, 6), draw.randint(0, 6))
            if lo <= support_size(*lam) * support_size(*mu) <= hi:
                return ["tensor", *map(str, lam + mu), "--format", "json"]

    return make


def _char(lo, hi):
    def make(draw):
        while True:
            a, b = draw.randint(0, 40), draw.randint(0, 40)
            if lo <= support_size(a, b) <= hi:
                return ["char", str(a), str(b), "--format", "json"]

    return make


def _verify(target, families, lo, hi):
    def make(draw):
        argv = ["verify", target]
        family = draw.cycle(families)
        if family:
            argv += ["--family", family]
        return argv + ["--max-m", str(draw.randint(lo, hi)), "--format", "json"]

    return make


def _kr(families, lo, hi, basis):
    def make(draw):
        argv = ["kr", "--family", draw.cycle(families), "--m", str(draw.randint(lo, hi))]
        # Cycle lengths 2 and 3 are coprime: six rounds hold every pairing.
        if draw.cycle((True, False)):
            argv.append("--conjecture")
        if basis == "weight":
            argv += ["--basis", "weight"]
        return argv + ["--format", draw.cycle(FORMATS)]

    return make


LADDERS = ("u2", "t1")

#: Slots per workload, cheapest first: cheaper slots, a block of the same
#: middle slot, dearer ones and three heavy ones of about equal cost.  The
#: round has an even number of operations, so the median falls between its
#: 6th and 7th cheapest: making those the same slot puts the median in the
#: middle of one cost band rather than on the edge between two.  The block
#: is two slots, or four in ``tensor-char``, where the cost proxy is loosest
#: and neighbouring bands overlap.  The tail (10 operations beyond it, 6-9
#: rounds a run) falls inside the block of the three heavy slots for the
#: same reason.
SLOTS = {
    # Region enumeration, generating-function form, compare, class partition
    # and rebuild, Chevalley checks; no character ring beyond the one
    # adjoint character inside `verify all`.
    "verify-sweep": [
        _verify("conjecture", LADDERS, 24, 32),
        _verify("conjecture", ("u1",), 24, 32),
        _verify("classes", ("u1",), 12, 16),
        _verify("conjecture", (None,), 12, 14),
        _verify("classes", ("t2",), 12, 13),
        # The Chevalley checks dominate these two, so their cost hardly
        # depends on the seeded max-m: a steady median.
        _verify("all", LADDERS, 16, 32),
        _verify("all", LADDERS, 16, 32),
        _verify("classes", (None,), 19, 19),
        _verify("conjecture", ("t2",), 25, 26),
        _verify("conjecture", (None,), 26, 27),
        _verify("all", ("u1",), 26, 27),
        _verify("all", (None,), 15, 16),
    ],
    # The character ring: Freudenthal, multiply and decompose peeling.
    "tensor-char": [
        _tensor(1_500, 3_000),
        _char(900, 1_500),
        _tensor(4_000, 6_000),
        _char(2_000, 3_000),
        _tensor(10_000, 14_000),
        _tensor(10_000, 14_000),
        _tensor(10_000, 14_000),
        _tensor(10_000, 14_000),
        _char(5_000, 7_000),
        _tensor(35_000, 45_000),
        _tensor(35_000, 45_000),
        _char(11_000, 14_000),
    ],
    # Rendering MB-sized outputs in all three formats; characters reached
    # through expand_weights, with many repeated highest weights.
    "kr-render": [
        _kr(LADDERS, 30, 40, "irrep"),
        _kr(("u1",), 30, 40, "irrep"),
        _kr(("u2",), 4, 6, "weight"),
        _kr(("t1",), 10, 12, "weight"),
        _kr(("t1",), 14, 14, "weight"),
        _kr(("u1",), 12, 12, "weight"),
        _kr(("u1",), 12, 12, "weight"),
        _kr(("t2",), 8, 8, "weight"),
        _kr(("t2",), 34, 36, "irrep"),
        _kr(("u1",), 16, 16, "weight"),
        _kr(("t2",), 9, 9, "weight"),
        _kr(("t2",), 40, 40, "irrep"),
    ],
}

WORKLOADS = tuple(SLOTS)


def rounds(workload: str, seed: int):
    """Endless iterator of rounds; a round is a list of argv lists."""
    rng = _seeded(workload, seed)
    slots = SLOTS[workload]
    offsets = [rng.randrange(6) for _ in slots]
    for index in itertools.count():
        ops = [make(Draw(rng, index, off)) for make, off in zip(slots, offsets)]
        rng.shuffle(ops)
        yield ops
