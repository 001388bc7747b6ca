"""Seeded op streams for the three workloads.

An op is one CLI invocation: an argv list for ``spectral_bounds.cli.dispatch``
plus a certificate that checks its stdout after the timed region. Each
workload yields *rounds*: stratified groups of ops whose cost is close from
one round to the next, so that a run made of whole rounds measures the same
mix whatever the seed. The seed picks the parameters inside each stratum; the
program only ever sees the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import certify

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], str | None]
    lines: int = 1  # CLI invocations inside the op (suite lines)


def _num(x: float) -> str:
    return repr(float(x))


class _Kronecker:
    """Golden-ratio sequence with a seeded offset: any prefix covers [0, 1)
    evenly, so a short run still samples a parameter range end to end."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def next(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


class _Cycle:
    """Seeded permutation of a finite pool, reshuffled each time it is used
    up: every value appears once before any value repeats."""

    def __init__(self, rng: random.Random, pool):
        self.rng, self.pool, self.queue = rng, list(pool), []

    def next(self):
        if not self.queue:
            self.queue = self.pool[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


# -- fem-fine -------------------------------------------------------------

FEM_LEVEL = 6
POLYGON_LEVEL = 5
RHOMBUS_M = range(6, 49)
# odd polygons are not centrally symmetric, so they have no isoperimetric
# constant (kn_lookup raises a usage error); only even k are valid inputs
POLYGON_K = range(6, 17, 2)


def fem_fine(seed: int):
    """compare-bounds, verify-rhombus, chiti and rholder on distinct fine
    meshes. One round holds one op per (subcommand, domain family) cell:
    nine ops, chiti having no rhombus cell."""
    rng = random.Random(seed)
    rect_a = _Kronecker(rng)
    poly_r = _Kronecker(rng)
    ms = _Cycle(rng, RHOMBUS_M)
    ks = _Cycle(rng, POLYGON_K)
    chiti_q = _Kronecker(rng)
    holder = _Kronecker(rng)

    # each returns the domain flags and the rectangle's long side (the
    # closed-form mu1 = pi^2/a^2 certifies it), None for other families
    def rectangle():
        a = 1.0 + 2.0 * rect_a.next()
        return ["--domain", "rectangle", "--a", _num(a), "--b", "1.0",
                "--level", str(FEM_LEVEL)], a

    def rhombus():
        return ["--domain", "rhombus", "--m", str(ms.next()),
                "--level", str(FEM_LEVEL)], None

    def polygon():
        k, radius = ks.next(), 0.5 + 1.5 * poly_r.next()
        return ["--domain", "polygon", "--k", str(k), "--radius", _num(radius),
                "--level", str(POLYGON_LEVEL)], None

    families = (rectangle, rhombus, polygon)
    # chiti leaves rhombi out: rearrangement mis-integrates the top of some
    # rhombus eigenfunctions (max_violation 1.1e-3 to 7.2e-3 at m = 13, 15,
    # 17, 18, level 6), a program defect that perfbench/README.md, "Known
    # defect", documents and selftest.py probes; a benchmark op must not fail
    chiti_families = (rectangle, polygon)
    while True:
        ops = []
        for family in families:
            flags, a = family()
            ops.append(Op("compare-bounds", ["compare-bounds", *flags],
                          partial(certify.compare_bounds, a)))
        ops.append(Op("verify-rhombus", ["verify-rhombus", "--m", str(ms.next()),
                                         "--level", str(FEM_LEVEL)],
                      certify.verify_rhombus))
        for family in chiti_families:
            flags, _a = family()
            q = 1.0 + 3.0 * chiti_q.next()
            ops.append(Op("chiti", ["chiti", *flags, "--q", _num(q)], certify.chiti))
        for family in families:
            flags, _a = family()
            u = holder.next()
            q, r = 2.0 + 2.0 * u, 0.5 + 1.0 * (1.0 - u)
            ops.append(Op("rholder", ["rholder", *flags, "--q", _num(q),
                                      "--r", _num(r)], certify.rholder))
        rng.shuffle(ops)
        yield ops


# -- cli-mix --------------------------------------------------------------

SUITE_POOL = {
    "square": (["--domain", "square"], 1.0),
    "rectangle": (["--domain", "rectangle", "--a", "2", "--b", "1"], 2.0),
    "rhombus8": (["--domain", "rhombus", "--m", "8"], None),
    "rhombus16": (["--domain", "rhombus", "--m", "16"], None),
    "polygon6": (["--domain", "polygon", "--k", "6"], None),
}
SUITE_PSI_P = (2.0, 2.5, 3.0)
SUITE_STURM_A = (0.5, 1.0, 2.0)
SUITE_HOLDER_QR = ((2.0, 1.0), (3.0, 1.0), (4.0, 2.0))
SUITE_LEVELS = (3, 4, 5)
# no rhombi, as in fem-fine: chiti on rhombus 16 at level 3 reads
# max_violation 1.4e-3 (the rearrangement defect of README, "Known defect")
CHITI_POOL = ("square", "rectangle", "polygon6")


def _suite_lines(rng: random.Random):
    """The 16 lines of one suite file: a fixed mix of every subcommand on a
    small pool of repeated domains, so lines share inputs and psi profiles."""
    pool = list(SUITE_POOL)
    closed = [name for name in pool if name != "polygon6"]
    lines = []

    def add(argv, check):
        lines.append((argv + ["--format", "json"], check))

    for p in rng.sample(SUITE_PSI_P, 2):  # distinct p: no duplicate misses
        add(["psi", "--p", _num(p), "--n", "2,3"], partial(certify.psi, [p], [2, 3]))
    for _ in range(2):
        name = rng.choice(closed)
        flags, a = SUITE_POOL[name]
        add(["bound", *flags], partial(certify.bound, name, a))
    for _ in range(2):
        length = rng.choice(SUITE_STURM_A)
        add(["sturm", "--gamma", "2", "--beta", "1", "--A", _num(length)],
            partial(certify.sturm, 2.0, length))
    for _ in range(3):
        flags, a = SUITE_POOL[rng.choice(pool)]
        add(["compare-bounds", *flags, "--level", str(rng.choice(SUITE_LEVELS))],
            partial(certify.compare_bounds, a))
    for _ in range(2):
        add(["verify-rhombus", "--m", str(rng.choice((8, 16))),
             "--level", str(rng.choice(SUITE_LEVELS))], certify.verify_rhombus)
    for _ in range(2):
        flags, _a = SUITE_POOL[rng.choice(CHITI_POOL)]
        add(["chiti", *flags, "--level", str(rng.choice(SUITE_LEVELS))],
            certify.chiti)
    for _ in range(3):
        flags, _a = SUITE_POOL[rng.choice(pool)]
        q, r = rng.choice(SUITE_HOLDER_QR)
        add(["rholder", *flags, "--q", _num(q), "--r", _num(r),
             "--level", str(rng.choice(SUITE_LEVELS))], certify.rholder)
    rng.shuffle(lines)
    return lines


SUITES_PER_ROUND = 4


def cli_mix(seed: int, suite_dir: Path):
    """`suite` invocations, SUITES_PER_ROUND to a round. Each suite file is
    written when its round is drawn, before it runs, and its lines are
    certified one by one."""
    rng = random.Random(seed)
    suite_dir.mkdir(parents=True, exist_ok=True)
    index = 0
    while True:
        ops = []
        for _ in range(SUITES_PER_ROUND):
            lines = _suite_lines(rng)
            path = suite_dir / f"suite-{seed}-{index}.txt"
            path.write_text("".join(" ".join(argv) + "\n" for argv, _ in lines),
                            encoding="utf-8")
            index += 1
            ops.append(Op("suite", ["suite", str(path)],
                          partial(certify.suite, [check for _, check in lines]),
                          lines=len(lines)))
        yield ops


# -- pq-descent -----------------------------------------------------------

# stops at 3.4, not 4: above about 3.5 the descent step count jumps
# erratically with p (1038 to 3198 steps at N = 4096 for p in [3.95, 3.98]),
# and a 30 s run holds too few such ops to be steady
PQ_P_RANGE = (2.2, 3.4)
PQ_BINS = 4
PQ_CELLS = (1024, 4096)
PQ_LENGTH = (0.5, 2.0)


def pq_descent(seed: int):
    """psi and the singular 1-D quotient at gamma = p/(p-1), no FEM.

    A round draws one fresh p from each of PQ_BINS equal bins of PQ_P_RANGE,
    so every round spans the range (the descent cost grows steeply with p)
    and no p repeats: every psi_profile call misses the cache. Within a bin
    p follows a Kronecker sequence: the step count jumps about from one p to
    the next, and even coverage keeps the slowest ops, and so op_tail_s,
    from hanging on a few lucky or unlucky draws.
    """
    rng = random.Random(seed)
    lo, hi = PQ_P_RANGE
    width = (hi - lo) / PQ_BINS
    bins = [_Kronecker(rng) for _ in range(PQ_BINS)]
    lengths = _Kronecker(rng)
    while True:
        ops = []
        for b, draw in enumerate(bins):
            p = lo + width * (b + draw.next())
            gamma = p / (p - 1.0)
            length = PQ_LENGTH[0] + (PQ_LENGTH[1] - PQ_LENGTH[0]) * lengths.next()
            ops.append(Op("psi", ["psi", "--p", _num(p), "--n", "2,3",
                                  "--format", "json"],
                          partial(certify.psi, [p], [2, 3])))
            for cells in PQ_CELLS:
                ops.append(Op("sturm", ["sturm", "--gamma", _num(gamma),
                                        "--beta", _num(gamma / 2.0),
                                        "--A", _num(length), "--N", str(cells)],
                              partial(certify.sturm, p, length)))
        rng.shuffle(ops)
        yield ops
