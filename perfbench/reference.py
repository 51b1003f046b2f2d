"""The reference computation: the unit the benchmark's times are given in.

The benchmark shares its machine, and the machine's speed for one thread
changes by up to 2x, in stretches from a tenth of a second to many
minutes.  Every job is therefore timed between two runs of this fixed
computation, in the same interpreter, and its time is divided by theirs:
a job that reads 3.0 ref took three times as long as the reference did
around it.  The ratio follows the program and not the machine's load.

The computation is pure Python in the style of the package: tuples built
letter by letter, dictionary counts keyed by word tails, small-integer
arithmetic, function calls and one big-integer product chain.  It must
never change, or the unit changes with it; ``CHECKSUM`` guards it.
"""

from time import perf_counter, process_time

STEPS = 60000
CHECKSUM = 634681


def _extend(word, step):
    return word + ((step * 7919) % 5,)


def compute(steps=STEPS):
    acc = 0
    tails = {}
    words = [(0,)]
    for step in range(steps):
        word = _extend(words[step % len(words)], step)
        if len(word) < 6:
            words.append(word)
        tail = word[-3:]
        tails[tail] = tails.get(tail, 0) + 1
        acc = (acc * 31 + sum(word) + len(tails)) % 1000003
    big = 1
    for i in range(200):
        big = big * (i + 3) + acc
    return acc + big % 7


def timed():
    """(wall seconds, CPU seconds) of one run of the reference."""
    wall, cpu = perf_counter(), process_time()
    result = compute()
    wall, cpu = perf_counter() - wall, process_time() - cpu
    if result != CHECKSUM:
        raise SystemExit(f"reference computation gave {result}, "
                         f"expected {CHECKSUM}")
    return wall, cpu
