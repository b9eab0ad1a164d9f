"""The three workloads: the operations each one issues, made from a seed.

Only this module decides what a workload contains.  The parent process calls
`makeOps` and hands the resulting list to a fresh child as plain JSON, so the
program under test receives generated inputs and nothing else.
"""
from __future__ import annotations

import random

DEFAULT_SEED = 1

WORKLOADS = ("suite-sweep", "rank4-eval", "steinberg-mixed")

# Repeats of the whole operation list after the cold pass, in the same child.
# Short hot passes get more repeats, so that each workload's hot passes take
# a few seconds (rank4-eval's pass only reads the disk cache, ~0.2 s).
HOT_PASSES = {"suite-sweep": 1, "rank4-eval": 20, "steinberg-mixed": 2}

# Every (suite, type) pair, types A1..F4, that `demkit suite` accepts (exit
# status other than 2) at the commit that defined this benchmark.  The list
# is fixed so that a later change to what a suite accepts does not change
# the workload.
SUITE_TYPES = {
    "steinberg-lists": ("A2", "B2", "G2"),
    "tensor-decomp": ("A2", "B2", "G2"),
    "q-equivalence": ("A2", "A3", "B2", "B3", "C3", "G2"),
    "indpq-triangular": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"),
    "triang-alphabeta": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"),
    "orthogonality": ("A1", "A2", "B2", "C2", "G2"),
    "xclass-gram": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"),
    "parabolic": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"),
    "rank2-bundles": ("A2", "B2", "G2"),
    "dual-conjecture-report": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"),
    "word-independence": ("A2", "B2", "B3", "G2"),
}

RANK4_EVALS = (
    ("F4", "decomposeG(chi([1,1,0,1])*chi([0,0,0,1]))"),
    ("C4", "decomposeG(chi([1,1,1,1])*chi([0,1,0,0]))"),
    ("B4", "decomposeG(chi([1,1,1,1])*chi([1,0,0,0]))"),
    ("D4", "decomposeG(chi([1,1,1,1])*chi([0,1,0,0]))"),
    ("F4", "chi([1,1,1,1])"),
    ("D4", "pair(P([-1,-1,-1,-1]), e([1,0,0,0]))"),
    ("F4", "xclass(s1 s2)"),
)

# Weights of the steinberg-mixed characters: 16 per type, every ~8th weight
# of the box [-2,2]^3 (the range tests/test_steinberg.py draws from) taken in
# order of norm.  Expansion cost grows steeply with norm, so drawing weights
# freely makes a pass cost anywhere from one to three times its median; a
# fixed pool keeps the amount of work the same for every seed, while the seed
# still decides how weights group into characters, their coefficients and
# the choice maps.  The pool holds the top corner (2,2,2), the most
# expensive weight in the box.
STEINBERG_POOL = {
    "B3": ((0, 0, 0), (1, 0, 0), (-2, 1, 1), (2, -1, 1), (-1, 2, -2), (1, 1, -2),
           (2, 0, 0), (1, 1, 0), (2, -1, -2), (2, 1, -1), (-1, -2, 1), (0, -1, -2),
           (-1, -2, 0), (-1, -1, -2), (0, 2, 2), (2, 2, 2)),
    "C3": ((0, 0, 0), (-1, 1, -1), (1, -1, 1), (1, 0, -2), (-2, 1, 1), (0, 1, 1),
           (-2, 1, 2), (2, -1, 0), (2, 0, -2), (0, 1, 2), (0, -2, -1), (2, -1, 2),
           (0, -2, -2), (2, 0, 2), (1, 2, 2), (2, 2, 2)),
}
STEINBERG_GROUP_SIZE = {"B3": 48, "C3": 48}
TERMS_PER_CHAR = 4
CHOICES = ("UNIT", "Q", "PSTAR")


def workloadTypes(workload: str) -> tuple[str, ...]:
    """Root system types whose Weyl groups the child builds during set-up."""
    if workload == "suite-sweep":
        return tuple(sorted({t for ts in SUITE_TYPES.values() for t in ts}))
    if workload == "rank4-eval":
        return tuple(sorted({t for t, _ in RANK4_EVALS}))
    return tuple(STEINBERG_POOL)


def _suiteOps(rng: random.Random) -> list[dict]:
    ops = []
    for suite, types in SUITE_TYPES.items():
        for t in types:
            argv = ["suite", suite, "--type", t, "--no-cache", "--format", "json"]
            if suite == "parabolic":
                argv += ["--parabolic", "1"]
            ops.append({"key": f"suite:{suite}:{t}", "kind": "cli", "argv": argv})
    rng.shuffle(ops)
    return ops


def _evalOps(rng: random.Random) -> list[dict]:
    ops = [{"key": f"eval:{t}:{expr}", "kind": "cli",
            "argv": ["eval", expr, "--type", t, "--format", "json"]}
           for t, expr in RANK4_EVALS]
    rng.shuffle(ops)
    return ops


def _steinbergOps(rng: random.Random) -> list[dict]:
    ops = []
    for t, pool in STEINBERG_POOL.items():
        # One weight from each norm stratum per character, so that every
        # character holds exactly one of the expensive top weights.
        chars = len(pool) // TERMS_PER_CHAR
        strata = [list(pool[k:k + chars]) for k in range(0, len(pool), chars)]
        for stratum in strata:
            rng.shuffle(stratum)
        for n in range(chars):
            f = [[list(w), rng.choice((-3, -2, -1, 1, 2, 3))]
                 for w in sorted(stratum[n] for stratum in strata)]
            mixed = [rng.choice(CHOICES) for _ in range(STEINBERG_GROUP_SIZE[t])]
            ops.append({"key": f"steinberg:{t}:{n}:mixed", "kind": "steinberg",
                        "type": t, "f": f, "choices": mixed})
            ops.append({"key": f"steinberg:{t}:{n}:uniform", "kind": "steinberg",
                        "type": t, "f": f, "choices": "Q"})
    return ops


def makeOps(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite-sweep":
        return _suiteOps(rng)
    if workload == "rank4-eval":
        return _evalOps(rng)
    if workload == "steinberg-mixed":
        return _steinbergOps(rng)
    raise ValueError(f"unknown workload {workload!r}")
