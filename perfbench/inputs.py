"""Seeded input generators for the three workloads.

Every round of every workload draws from its own ``random.Random`` seeded by
``(workload, seed, round)``, so round r holds the same inputs however many
rounds a run completes, and a given seed always produces the same inputs.
The program only ever sees the generated text or values.
"""

from __future__ import annotations

import random
from fractions import Fraction

# cli-batch: one round is four CLI invocations, one of each kind below.
CLI_SL_N = (3, 16)              # n range of the `gkdim --batch` lines
CLI_CLASS_MIX = (1, 1, 2, 2, 3)  # congruence classes per sl(n) line, drawn uniformly
CLI_PQS = ((4, 6), (5, 5), (3, 7))  # `hermitian --pq` of rounds 0, 1, 2, 3, ...
CLI_SPREAD = 8                  # integer parts of n=10 entries lie in [-8, 8]
Z_LINE_PQ = (4, 6)              # `series` and `unitary` signature
Z_RANGE = (-8, 12)              # `series --z-range=-8,12`: 21 gk_pq calls per line.
# Negative values are passed as --opt=<value>: argparse reads "--z -3" as a
# missing argument.
UNITARY_ZS = ("-3", "-1", "0", "1", "1/2", "-5/2")  # `unitary --z=<z>`, cycled by round
LINES_PER_ROUND = {"gkdim": 48, "hermitian": 40, "series": 3, "unitary": 16}
NON_INTEGRAL_LINES = 2          # of the 40 hermitian lines: whites shifted by 1/2
NON_DOMINANT_LINES = 2          # of the 40: two adjacent entries swapped

# large-n: one round is a gk_dimension call per entry of LARGE_SL_CLASSES, with
# that many congruence classes, and one gk_pq call.  The class counts are fixed,
# not drawn: a 2-class call costs about 1.5 times a 3-class one, and a drawn
# mix would move the median between the two from seed to seed.  With two
# calls of one kind to one of the other, the median stays inside one kind.
LARGE_N = 1000
LARGE_SL_CLASSES = (2, 2, 3)
LARGE_SL_SPREAD = LARGE_N // 8  # integer parts in [-125, 125]: many repeats

# oracle: one round is four cold `verify-oracle --rank 4` children (the CLI's
# default rank) and one `--rank 5` child.
ORACLE_RANKS = (4, 4, 4, 4, 5)

# Offsets of the congruence classes; all pairwise differences are non-integral.
CLASS_OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(1, 3))


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def fmt_entry(rng: random.Random, v: Fraction) -> str:
    """An exact token for v: an integer, an exact decimal or a/b."""
    if v.denominator == 1:
        return str(v.numerator)
    if 100 % v.denominator == 0 and rng.random() < 0.5:
        hundredths = abs((v * 100).numerator)
        sign = "-" if v < 0 else ""
        return f"{sign}{hundredths // 100}.{hundredths % 100:02d}"
    return f"{v.numerator}/{v.denominator}"


def fmt_weight(rng: random.Random, entries) -> str:
    return ",".join(fmt_entry(rng, e) for e in entries)


def sl_entries(rng: random.Random, n: int, classes: int, spread: int) -> list[Fraction]:
    """n entries in `classes` congruence classes, integer parts in [-spread, spread]."""
    labels = list(range(classes)) + [rng.randrange(classes) for _ in range(n - classes)]
    rng.shuffle(labels)
    return [rng.randint(-spread, spread) + CLASS_OFFSETS[c] for c in labels]


def pq_entries(rng: random.Random, p: int, q: int, spread: int,
               cross: Fraction = Fraction(0)) -> list[Fraction]:
    """A (p,q)-dominant weight; `cross` shifts the whites off the blacks' class."""
    values = range(-spread, spread + 1)
    blacks = sorted(rng.sample(values, p), reverse=True)
    whites = sorted(rng.sample(values, q), reverse=True)
    return [Fraction(b) for b in blacks] + [w + cross for w in whites]


def z_line_entries(rng: random.Random, p: int, q: int) -> list[Fraction]:
    """A (p,q)-dominant integral weight whose first and last entries coincide,
    as `unitary` requires; gaps of 1 are common so p' and q' vary."""
    gaps = (1, 1, 1, 2, 3)
    top = rng.randint(-5, 5)
    blacks = [top]
    for _ in range(p - 1):
        blacks.append(blacks[-1] - rng.choice(gaps))
    whites = [top]
    for _ in range(q - 1):
        whites.append(whites[-1] + rng.choice(gaps))
    whites.reverse()
    return [Fraction(e) for e in blacks + whites]


def cli_round(seed: int, rnd: int) -> list[tuple[list[str], list[str], list[str]]]:
    """The four invocations of one cli-batch round, as (argv, lines, expect).

    `expect[k]` is "ok" or the error code line k must produce.
    """
    rng = round_rng("cli-batch", seed, rnd)
    invocations = []

    lines = []
    for _ in range(LINES_PER_ROUND["gkdim"]):
        n = rng.randint(*CLI_SL_N)
        classes = min(rng.choice(CLI_CLASS_MIX), n)
        lines.append(fmt_weight(rng, sl_entries(rng, n, classes, n)))
    invocations.append((["gkdim", "--batch"], lines, ["ok"] * len(lines)))

    p, q = CLI_PQS[rnd % len(CLI_PQS)]
    count = LINES_PER_ROUND["hermitian"]
    kinds = (["non-integral"] * NON_INTEGRAL_LINES + ["non-dominant"] * NON_DOMINANT_LINES
             + ["integral"] * (count - NON_INTEGRAL_LINES - NON_DOMINANT_LINES))
    rng.shuffle(kinds)
    lines, expect = [], []
    for kind in kinds:
        cross = Fraction(1, 2) if kind == "non-integral" else Fraction(0)
        entries = pq_entries(rng, p, q, CLI_SPREAD, cross)
        if kind == "non-dominant":
            i = rng.randrange(p - 1) if rng.random() < 0.5 else p + rng.randrange(q - 1)
            entries[i], entries[i + 1] = entries[i + 1], entries[i]
        lines.append(fmt_weight(rng, entries))
        expect.append("not-pq-dominant" if kind == "non-dominant" else "ok")
    invocations.append((["hermitian", "--pq", f"{p},{q}", "--batch"], lines, expect))

    zp, zq = Z_LINE_PQ
    lines = [fmt_weight(rng, z_line_entries(rng, zp, zq))
             for _ in range(LINES_PER_ROUND["series"])]
    invocations.append((["series", "--pq", f"{zp},{zq}",
                         f"--z-range={Z_RANGE[0]},{Z_RANGE[1]}", "--batch"],
                        lines, ["ok"] * len(lines)))

    z = UNITARY_ZS[rnd % len(UNITARY_ZS)]
    lines = [fmt_weight(rng, z_line_entries(rng, zp, zq))
             for _ in range(LINES_PER_ROUND["unitary"])]
    invocations.append((["unitary", "--pq", f"{zp},{zq}", f"--z={z}", "--batch"],
                        lines, ["ok"] * len(lines)))
    return invocations


def large_round(seed: int, rnd: int) -> list[tuple[str, list[Fraction], tuple[int, int] | None]]:
    """The library calls of one large-n round, as (kind, entries, (p, q) or None)."""
    rng = round_rng("large-n", seed, rnd)
    calls = []
    for classes in LARGE_SL_CLASSES:
        calls.append(("sl", sl_entries(rng, LARGE_N, classes, LARGE_SL_SPREAD), None))
    p = rng.randint(LARGE_N // 4, 3 * LARGE_N // 4)
    q = LARGE_N - p
    calls.append(("pq", pq_entries(rng, p, q, LARGE_N), (p, q)))
    return calls


def parameters() -> dict:
    """The generator parameters, for the result record."""
    return {
        "cli-batch": {
            "lines_per_round": LINES_PER_ROUND, "sl_n": CLI_SL_N,
            "class_mix": CLI_CLASS_MIX, "hermitian_pqs": CLI_PQS,
            "hermitian_non_integral": NON_INTEGRAL_LINES,
            "hermitian_non_dominant": NON_DOMINANT_LINES,
            "z_line_pq": Z_LINE_PQ, "z_range": Z_RANGE, "unitary_zs": UNITARY_ZS,
        },
        "large-n": {
            "n": LARGE_N, "sl_classes_per_round": LARGE_SL_CLASSES,
            "sl_spread": LARGE_SL_SPREAD, "pq_p_range": (LARGE_N // 4, 3 * LARGE_N // 4),
        },
        "oracle": {"ranks": ORACLE_RANKS},
    }
