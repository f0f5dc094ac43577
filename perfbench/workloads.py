"""Seeded request lists for the four benchmark workloads.

A workload is a cycle of request slots. Each slot fixes a command, a state
family and a cost stratum (the size that sets the default cutoff); the seed
draws everything else: phases, signs, mixture members and weights, Fock levels
within the stratum, thermal parameters and sampling seeds. Fixing the strata
keeps the cost of a list steady from seed to seed. The list holds as many
cycles as fit the requested measuring time on the reference machine, so the
amount of work does not depend on how fast the program is.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, NamedTuple

from reference import expected, fock_diagonal, fock_diagonal_lambda, known_defect


def _spec(kind: str, **params) -> dict:
    return {"schema": 1, "kind": kind, "params": params}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _polar(rng: random.Random, magnitude: float) -> complex:
    return cmath.rect(magnitude, rng.uniform(0.0, 2.0 * math.pi))


def coherent(rng, magnitude):
    return _spec("coherent", alpha=_pair(_polar(rng, magnitude)))


def squeezed(rng, r):
    return _spec("squeezed_vacuum", r=rng.choice((-1.0, 1.0)) * r)


def displaced_fock(rng, n, magnitude):
    return _spec("displaced", base={"kind": "fock", "params": {"n": n}},
                 beta=_pair(_polar(rng, magnitude)))


def mixture(rng, radius, terms=(2, 3)):
    k = rng.choice(terms)
    amps = [_polar(rng, radius * math.sqrt(rng.random())) for _ in range(k)]
    raw = [0.2 + rng.random() for _ in range(k)]
    weights = [w / sum(raw) for w in raw[:-1]]
    weights.append(1.0 - math.fsum(weights))
    return _spec("mixture", weights=weights, amplitudes=[_pair(a) for a in amps])


def fock_family(rng, kind, lo, hi):
    key = "n" if kind == "fock" else "M"
    return _spec(kind, **{key: rng.randint(lo, hi)})


def thermal(rng, by):
    if by == "q":
        return _spec("thermal", q=rng.uniform(0.1, 0.7))
    return _spec("thermal", mean_n=rng.uniform(0.2, 2.5))


def _cli(cmd, spec, check, **extra):
    c2, purity = expected(spec)
    return {"cmd": cmd, "spec": spec, "check": check, "c2": c2, "purity": purity,
            "defect": known_defect(spec), **extra}


TWO_COPY = ["qcs", "--route", "two-copy"]
LAPLACIAN = ["qcs", "--route", "wigner-laplacian"]
PN_JSON = ["pn-dist", "--format", "json"]


def cli_dense(rng):
    """Non-diagonal states at their default cutoffs (26 to 64): the dense
    U(ρ⊗ρ)U† product and a cold beam-splitter unitary in every process."""
    return [
        _cli(TWO_COPY, coherent(rng, rng.uniform(0.3, 0.7)), "qcs", route="two-copy"),
        _cli(["purity"], squeezed(rng, 0.3), "purity"),
        _cli(PN_JSON, displaced_fock(rng, 1, rng.uniform(0.3, 0.6)), "pn"),
        _cli(LAPLACIAN, mixture(rng, 0.9), "qcs", route="wigner-laplacian"),
        _cli(PN_JSON, coherent(rng, 2.2), "pn"),
    ]


def cli_compare(rng):
    """`compare` on low-photon states (cutoff at most 40): the finite-difference
    Wigner gradient grid dominates and the dense product is small."""
    return [_cli(["compare"], spec, "compare") for spec in (
        coherent(rng, 0.4),
        squeezed(rng, rng.uniform(0.05, 0.15)),
        _spec("thermal", q=rng.uniform(0.05, 0.2)),
        _spec("fock", n=2),
        mixture(rng, 0.5, terms=(2,)),
    )]


def cli_fock_diagonal(rng, workdir):
    """Fock-diagonal and thermal inputs with supports drawn across 2 to 60:
    the combinatorial and closed-form p_n paths, each process with a cold
    hom_photon_distribution cache. Supports from 31 up hit the known defect.
    The two slots that set the run's cost and peak memory (rho_2M at M = 24,
    Fock levels 55 to 60) have narrow strata so both stay steady by seed."""
    sample_spec = (thermal(rng, "q") if rng.random() < 0.5
                   else fock_family(rng, "rho_2M", 1, 8))
    return [
        _cli(TWO_COPY, fock_family(rng, "fock", 2, 45), "qcs", route="two-copy"),
        _cli(PN_JSON, fock_family(rng, "fock", 55, 60), "pn"),
        _cli(TWO_COPY, fock_family(rng, "rho_2M", 1, 10), "qcs", route="two-copy"),
        _cli(PN_JSON, _spec("rho_2M", M=24), "pn"),
        _cli(TWO_COPY, fock_family(rng, "rho_even_M", 25, 30), "qcs", route="two-copy"),
        _cli(TWO_COPY, thermal(rng, "q"), "qcs", route="two-copy"),
        _cli(PN_JSON, thermal(rng, "mean_n"), "pn"),
        _cli(["sample", "--shots", "100000", "--seed", str(rng.randrange(2 ** 31))],
             sample_spec, "sample"),
        {"cmd": ["figure2", "--out", workdir], "spec": None, "check": "figure2",
         "defect": False},
    ]


FIGURE2_REFERENCE = {
    "rho_10": fock_diagonal(fock_diagonal_lambda("rho_2M", {"M": 5})),
    "rho_even_5": fock_diagonal(fock_diagonal_lambda("rho_even_M", {"M": 5})),
    "thermal_q0.85": (0.15 / 1.85, 0.15 / 1.85),
}


# --- api-sweep: calls a notebook study makes in one long-lived process ---

API_DIM = 8          # per-mode cutoff of the two-mode products
DENSE_DIM = 32       # one fixed cutoff, so every dense call after the first reuses U
FAMILY_MAX_M = 12    # family sweep of the Figure 2 kind, supports up to 24
FAMILY_DRAWS = 4     # M values drawn per family and cycle
BOOTSTRAP_SEEDS = 12
BOOTSTRAP_Q = 0.6    # thermal state of the bootstrap coverage loop
SHOTS = 100_000


def _mode_factor(rng):
    """A single-mode factor that fits cutoff 8 with headroom (levels <= 3)."""
    pick = rng.randrange(3)
    if pick == 0:
        n = rng.randint(0, 3)
        return {"kind": "fock", "n": n}, 1.0 + 2.0 * n
    if pick == 1:
        return {"kind": "coherent", "alpha": _pair(_polar(rng, rng.uniform(0.02, 0.1)))}, 1.0
    raw = [rng.random() for _ in range(4)]
    lam = [x / sum(raw) for x in raw]
    return {"kind": "diag", "lam": lam}, fock_diagonal(lam)[0]


def api_sweep(rng):
    """Multimode products, a bootstrap coverage loop over seeds, dense p_n at a
    fixed cutoff and a warm Fock-family sweep, all in one process."""
    reqs = []
    for _ in range(2):
        (a, ca), (b, cb) = _mode_factor(rng), _mode_factor(rng)
        reqs.append({"op": "multimode", "modes": [a, b], "c2": 0.5 * (ca + cb)})
    # the multinomial draws cost more as q spreads p_n over more levels, so the
    # coverage loop keeps one state and the seed draws the sampling seeds
    ref = (1.0 - BOOTSTRAP_Q) / (1.0 + BOOTSTRAP_Q)
    base = rng.randrange(2 ** 31)
    reqs += [{"op": "bootstrap", "q": BOOTSTRAP_Q, "seed": base + i, "c2": ref}
             for i in range(BOOTSTRAP_SEEDS)]
    for spec in (coherent(rng, rng.uniform(0.3, 1.0)), squeezed(rng, rng.uniform(0.1, 0.25)),
                 displaced_fock(rng, 1, rng.uniform(0.2, 0.5)), mixture(rng, 1.0)):
        c2, purity = expected(spec)
        reqs.append({"op": "dense", "spec": spec, "c2": c2, "purity": purity})
    for kind in ("rho_2M", "rho_even_M"):
        for m in rng.sample(range(1, FAMILY_MAX_M + 1), FAMILY_DRAWS):
            lam = fock_diagonal_lambda(kind, {"M": m})
            c2, purity = fock_diagonal(lam)
            reqs.append({"op": "family", "lam": lam, "c2": c2, "purity": purity})
    rng.shuffle(reqs)
    return reqs


class Workload(NamedTuple):
    cycle: Callable            # rng (and a work directory for figure2) -> request slots
    pass_s: float              # seconds one pass over a cycle takes on the reference machine
    passes: int                # sends per request; its latency is the best of them
    cli: bool                  # requests are CLI processes, not API calls in one process


# Python-bound workloads jitter more from send to send than the BLAS-bound
# ones, so they take the best of three sends instead of two
WORKLOADS = {
    "cli-dense": Workload(cli_dense, 7.6, 2, True),
    "cli-compare": Workload(cli_compare, 6.6, 3, True),
    "cli-fock-diagonal": Workload(cli_fock_diagonal, 6.6, 3, True),
    "api-sweep": Workload(api_sweep, 3.3, 2, False),
}


def build(name: str, seed: int, seconds: float, workdir: str) -> list[dict]:
    """The run's request list drawn from ``seed``: as many cycles as make the
    workload's passes over the list last about ``seconds``."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    cycles = max(1, int(seconds / (wl.passes * wl.pass_s) + 0.5))
    args = (workdir,) if name == "cli-fock-diagonal" else ()
    return [req for _ in range(cycles) for req in wl.cycle(rng, *args)]
