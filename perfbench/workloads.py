"""Seeded workload generator for the negspin benchmark.

A workload is an ordered list of CLI invocations (one "pass").  The seed
draws only values that change the numbers a command computes, never the
sizes, the output format or anything that decides which checks a command
emits, so every seed yields the same check manifest and the same amount of
work.  Why each workload exists is recorded in BENCHMARK.json.  Stdlib
only: the benchmark's own process never imports numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One `python -m negspin <argv>` call.

    ``slot`` names the position in the workload; the check manifest is keyed
    by it.  ``landau`` holds (b, pz, q, k_max) when the analytic Landau levels
    of the call are known, for the useful-eigenvalue count of the trace.
    """

    slot: str
    argv: tuple[str, ...]
    expect: int
    landau: tuple[float, float, float, int] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        argv = list(self.argv)
        return argv[argv.index("--format") + 1] if "--format" in argv else "json"


# drawn values go in as --flag=value: argparse reads "-0.4,0.1,1" as a flag
def _num(x: float) -> str:
    return repr(float(x))


def _cli_defaults(rng: random.Random) -> list[Invocation]:
    """Start-up bound: import and cli are nearly all of every invocation."""
    seed = str(rng.randrange(2**31))
    commands = {
        "identities": ["identities"],
        "dispersion": ["dispersion"],
        "landau": ["landau"],
        "coulomb": ["coulomb"],
        "zitter": ["zitter"],
        "lorentz": ["lorentz", "--v", "0.6,0,0", "--e-prime", "1", "--p-prime", "0,0,0"],
        "lorentz-sweep": ["lorentz", "--sweep", "10"],
        "reduction": ["reduction", "--trials", "100", "--seed", seed],
    }
    out = []
    for name, argv in commands.items():
        landau = (1.0, 0.0, -1.0, 3) if name == "landau" else None
        for fmt in ("json", "csv"):
            out.append(Invocation(f"{name}-{fmt}", (*argv, "--format", fmt), 0, landau))
    out += [
        # README's rejected inputs and negative control
        Invocation("landau-kmax-not-interior", ("landau", "--n-max", "40", "--k-max", "40"), 2),
        Invocation("coulomb-coarse-grid", ("coulomb", "--n-points", "100"), 2),
        Invocation("reduction-wrong-energy", ("reduction", "--trials", "1", "--wrong-energy"), 1),
        # non-finite inputs: the contract says exit 2 without a traceback
        Invocation("lorentz-v-nan", ("lorentz", "--v", "nan,0,0"), 2),
        Invocation("coulomb-z-inf", ("coulomb", "--z", "inf"), 2),
    ]
    return out


def _landau_scaled(rng: random.Random) -> list[Invocation]:
    """Solver bound: the dense fields build and the matrix_core eigensolve."""
    sign = rng.choice((-1.0, 1.0))
    out = []
    for i in range(4):
        # alternate the charge sign: the conserved sector index N = n -+ [spin up]
        # flips with it, so a block solver meets both orderings
        q = sign if i % 2 == 0 else -sign
        b = rng.uniform(0.5, 2.0)
        pz = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
        argv = ("landau", "--units", "custom", f"--q={_num(q)}", f"--b={_num(b)}",
                f"--pz={_num(pz)}", "--n-max", "260", "--k-max", "3")
        out.append(Invocation(f"landau-n260-{i}", argv, 0,
                              (b, pz, q, 3)))
    out.append(Invocation("landau-pz-nan", ("landau", "--pz", "nan"), 2))
    return out


def _sweeps_scaled(rng: random.Random) -> list[Invocation]:
    """Thousands of 4x4 calls: per-call overhead in spectral, fields, dynamics."""
    seed = str(rng.randrange(2**31))
    # pz away from 0 keeps the alpha3 interference term large; every weight is
    # nonzero so both branches mix and the check is always the frequency check
    p = ",".join(_num(x) for x in (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                   rng.uniform(0.5, 1.5)))
    weights = ",".join(_num(rng.uniform(0.5, 1.5)) for _ in range(4))
    return [
        Invocation("reduction-2000", ("reduction", "--trials", "2000", "--seed", seed), 0),
        Invocation("lorentz-sweep-1000", ("lorentz", "--sweep", "1000"), 0),
        Invocation("dispersion-nonrel-3000",
                   ("dispersion", "--steps", "3000", "--which", "nonrel", "--format", "csv"), 0),
        Invocation("dispersion-dirac-3000", ("dispersion", "--steps", "3000", "--which", "dirac"), 0),
        Invocation("zitter-16384", ("zitter", f"--p={p}", f"--weights={weights}",
                                    "--n-samples", "16384", "--format", "csv"), 0),
        Invocation("coulomb-100000", ("coulomb", "--n-points", "100000"), 0),
        Invocation("dispersion-pmax-inf", ("dispersion", "--pmax", "inf"), 2),
        Invocation("zitter-p-nan", ("zitter", "--p", "nan,0,0"), 2),
    ]


_BUILDERS = {
    "cli-defaults": _cli_defaults,
    "landau-scaled": _landau_scaled,
    "sweeps-scaled": _sweeps_scaled,
}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
