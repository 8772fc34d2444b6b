"""The benchmark's workloads: fixed lists of cmk2 CLI invocations.

Each invocation is the argument list a user would pass to
``python -m cmk2``.  The benchmark seed ``s`` maps to the CLI sample seed
``BASE_SEED + s``, so seed 0 reproduces the CLI default and is the one
seed at which the committed reference certificates apply to the analytic
invocations.  Invocations that take no seed (``hecke-check``,
``enumerate``, ``frobenius-check``) are checked against the reference at
every seed.
"""

import random

BASE_SEED = 20240801
DEFAULT_SEED = 0

HEX = ["--d", "-3", "--conductor", "3"]

# Split primes p < 120 of Q(i), paired by size.  The exact workload takes one
# prime of each pair, so every seed does about the same amount of work
# (the Frobenius check costs about p^2) while the primes still vary.
FROBENIUS_PAIRS = [(5, 13), (17, 29), (37, 41), (53, 61), (73, 89),
                   (97, 101), (109, 113)]
FROBENIUS_PRIMES = [p for pair in FROBENIUS_PAIRS for p in pair]


def cli_seed(seed: int) -> str:
    return str(BASE_SEED + seed)


def frobenius_draw(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.choice(pair) for pair in FROBENIUS_PAIRS]


def _grid(seed: int) -> list[list[str]]:
    return [["all", "--seed", cli_seed(seed)]]


def _hexagonal(seed: int) -> list[list[str]]:
    s = ["--seed", cli_seed(seed)]
    runs = [["verify-e2", *HEX, "--m", "1", "--l", "2+w", "--prec", "512", *s]]
    for m in ("1", "2+w", "(2+w)*(3+w)"):
        runs.append(["certify-tame", *HEX, "--prec", "512", "--m", m, *s])
    return runs


def _exact(seed: int) -> list[list[str]]:
    runs = [
        ["hecke-check", "--bound", "10000"],
        ["hecke-check", *HEX, "--curve-a", "0", "--curve-b", "16",
         "--bound", "10000"],
        ["enumerate", "--bound", "1000"],
    ]
    runs += [["frobenius-check", "--p", str(p)] for p in frobenius_draw(seed)]
    return runs


def _exact_reference() -> list[list[str]]:
    """Every invocation the exact workload can draw, at any seed."""
    return _exact(DEFAULT_SEED)[:3] + [["frobenius-check", "--p", str(p)]
                                        for p in FROBENIUS_PRIMES]


# Set-up: what a CLI user pays before the first verdict -- interpreter start,
# `import cmk2`, and the public constructors of the objects the workload's
# invocations build.
_SETUP_HEAD = (
    "from cmk2.qfield import QuadField\n"
    "from cmk2.hecke import HeckeCharacter\n"
    "from cmk2.torsion import TorsionSystem\n"
    "from cmk2.analytic import AnalyticLattice\n"
    "def chi(d, cond):\n"
    "    K = QuadField(d)\n"
    "    return K, HeckeCharacter(K, K.ideal(K.parse(cond)))\n"
)

WORKLOADS = {
    "grid-256": {
        "invocations": _grid,
        "reference": lambda: _grid(DEFAULT_SEED),
        "setup": _SETUP_HEAD + (
            "K, c = chi(-4, '(1+i)^3')\n"
            "TorsionSystem(c)\n"
            "AnalyticLattice(K, 256)\n"),
    },
    "hexagonal-512": {
        "invocations": _hexagonal,
        "reference": lambda: _hexagonal(DEFAULT_SEED),
        "setup": _SETUP_HEAD + (
            "K, c = chi(-3, '3')\n"
            "TorsionSystem(c)\n"
            "AnalyticLattice(K, 512)\n"),
    },
    "exact": {
        "invocations": _exact,
        "reference": _exact_reference,
        "setup": _SETUP_HEAD + (
            "chi(-4, '(1+i)^3')\n"
            "chi(-3, '3')\n"),
    },
}
