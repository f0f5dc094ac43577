"""End-to-end acceptance suite.

Each test covers one acceptance criterion and reports one PASS/FAIL line on
the terminal (bypassing pytest capture) so a full run reads as a checklist.
"""

import json
import sys
import time

import numpy as np
from scipy.linalg import expm

from cli_runner import CliRunner
from oracles import ladder, overlap_wigner, random_classical_mixture, two_copy_output, wigner_origin
from qcslab import (
    ClassicalMixture,
    DensityOperator,
    PhotonDistribution,
    classical_mixture,
    coherent,
    displace,
    fock,
    hom_photon_distribution,
    overlap_kernel,
    phase_rotate,
    photon_distribution,
    photon_distribution_phase_invariant,
    purity_direct,
    qcs_classical_mixture,
    qcs_direct,
    qcs_gaussian,
    qcs_multimode,
    qcs_two_copy,
    qcs_wigner_gradient,
    rho_2m,
    rho_even_m,
    sample_counts,
    squeezed_vacuum,
    tensor,
    thermal,
    thermal_photon_distribution,
    estimate_qcs,
)
from qcslab.cli import main as cli_main
from qcslab.states import StateSpec, gaussian_covariance


# registry echoed by the terminal-summary hook in conftest.py; anchored on the
# sys module so the hook sees the same instance regardless of import path
REPORT_LINES = sys.__dict__.setdefault("_acceptance_report_lines", [])


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {detail}"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number}: {detail}"


def fast_pn(rho):
    return photon_distribution_phase_invariant(np.real(np.diag(rho.matrix)))


def test_criterion_01_figure2_reproduction(tmp_path):
    start = time.monotonic()
    result = CliRunner().invoke(cli_main, ["figure2", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    ok = result.exit_code == 0 and elapsed < 30.0
    summary = json.loads((tmp_path / "summary.json").read_text())["states"]
    expected = {"rho_10": (0.1, 1.2), "rho_even_5": (0.2, 13.0),
                "thermal_q0.85": (3.0 / 37.0, 3.0 / 37.0)}
    for name, (purity, c2) in expected.items():
        ok &= abs(summary[name]["purity"] - purity) < 1e-6
        ok &= abs(summary[name]["c_squared"] - c2) < 1e-6
        ok &= round(summary[name]["purity"], 2) == round(purity, 2)
        ok &= round(summary[name]["c_squared"], 2) == round(c2, 2)
    rows = (tmp_path / "pn_thermal_q0.85.csv").read_text().splitlines()[1:]
    for row in rows:
        n, p, _ = row.split(",")
        ok &= abs(float(p) - 0.15 * 0.85 ** int(n)) < 1e-10
    report(1, ok, f"figure2 purities/QCS and thermal p_n columns ({elapsed:.1f} s)")


def test_criterion_02_route_cross_validation():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    mix = random_classical_mixture(rng, max_terms=3)
    cases = [
        ("coherent(0.7)", coherent(0.7, 32), StateSpec("coherent", {"alpha": 0.7})),
        ("fock(1)", fock(1, 12), None),
        ("fock(3)", fock(3, 16), None),
        ("thermal(0.5)", thermal(0.5, 56), StateSpec("thermal", {"q": 0.5})),
        ("squeezed(0.6)", squeezed_vacuum(0.6, 64),
         StateSpec("squeezed_vacuum", {"r": 0.6})),
        ("rho_10", rho_2m(5, 24), None),
        ("rho_even_5", rho_even_m(5, 24), None),
        ("mixture", classical_mixture(mix, 56), None),
    ]
    ok = True
    worst_exact, worst_wigner = 0.0, 0.0
    for name, rho, gauss_spec in cases:
        exact = [qcs_direct(rho).c_squared]
        diagonal = np.max(np.abs(rho.matrix - np.diag(np.diag(rho.matrix)))) < 1e-12
        if name == "thermal(0.5)":
            pn = thermal_photon_distribution(0.5, 120)
        elif diagonal:
            pn = fast_pn(rho)
        else:
            pn = photon_distribution(rho, rho)
        exact.append(qcs_two_copy(pn).c_squared)
        if gauss_spec is not None:
            exact.append(qcs_gaussian(gaussian_covariance(gauss_spec)).c_squared)
        spread = max(exact) - min(exact)
        worst_exact = max(worst_exact, spread)
        gradient = qcs_wigner_gradient(rho).c_squared
        dev = max(abs(gradient - v) for v in exact)
        worst_wigner = max(worst_wigner, dev)
        ok &= spread <= 1e-6 and dev <= 1e-3
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(2, ok, "8-state route matrix: exact spread "
                  f"{worst_exact:.2e} (<=1e-6), wigner deviation "
                  f"{worst_wigner:.2e} (<=1e-3), {elapsed:.1f} s")


def test_criterion_03_closed_forms():
    ok = True
    for n in range(6):
        ok &= abs(qcs_direct(fock(n, 16)).c_squared - (1 + 2 * n)) < 1e-6
    for r, dim in ((0.3, 32), (0.6, 48), (1.0, 72)):
        ok &= abs(qcs_direct(squeezed_vacuum(r, dim)).c_squared - np.cosh(2 * r)) < 1e-6
        cov = gaussian_covariance(StateSpec("squeezed_vacuum", {"r": r}))
        ok &= abs(qcs_gaussian(cov).c_squared - np.cosh(2 * r)) < 1e-6
    for mean_n, dim in ((0.5, 48), (2.0, 96), (5.667, 192)):
        expected = 1.0 / (1.0 + 2.0 * mean_n)
        ok &= abs(qcs_direct(thermal(cutoff=dim, mean_n=mean_n)).c_squared
                  - expected) < 1e-6
        q = mean_n / (1.0 + mean_n)
        pn = thermal_photon_distribution(q, 2 * dim)
        ok &= abs(qcs_two_copy(pn).c_squared - expected) < 1e-6
    report(3, ok, "C2 closed forms: 1+2n, cosh(2r), 1/(1+2<n>)")


def test_criterion_04_extended_hong_ou_mandel():
    rng = np.random.default_rng(2024)
    dim = 24
    worst = 0.0
    for _ in range(20):
        vec = np.zeros(dim, dtype=complex)
        support = int(rng.integers(2, 12))  # occupies levels 0..10 at most
        raw = rng.normal(size=support) + 1j * rng.normal(size=support)
        vec[:support] = raw / np.linalg.norm(raw)
        rho = DensityOperator(np.outer(vec, vec.conj()), (dim,))
        pn = photon_distribution(rho, rho)
        worst = max(worst, float(pn.probs[1::2].sum()))
    ok = worst <= 1e-9
    hom = hom_photon_distribution(1, 1)
    ok &= np.max(np.abs(hom - np.array([0.5, 0.0, 0.5]))) < 1e-10
    report(4, ok, f"pure-state odd p_n mass <= 1e-9 (worst {worst:.1e}); "
                  "|1>|1> gives (1/2, 0, 1/2)")


def test_criterion_05_classicality_bound():
    rng = np.random.default_rng(99)
    ok = True
    worst_gap = 0.0
    for _ in range(200):
        mix = random_classical_mixture(rng, max_terms=5, max_abs=2.0)
        closed = qcs_classical_mixture(mix).c_squared
        dense = qcs_direct(classical_mixture(mix, 40)).c_squared
        ok &= closed <= 1.0 + 1e-9 and dense <= 1.0 + 1e-9
        gap = abs(closed - dense)
        worst_gap = max(worst_gap, gap)
        ok &= gap < 1e-6
    report(5, ok, "200 random coherent mixtures classical (C2 <= 1), routes agree "
                  f"(worst gap {worst_gap:.1e})")


def test_criterion_06_combinatorial_fast_path():
    # references that share no code with the block kernel: scipy's expm of the
    # two-copy generator at 2·12 + 1 levels, where truncating it is exact, and
    # the thermal closed form p_n = (1 − q)qⁿ
    rng = np.random.default_rng(31)
    levels = 25
    a = ladder(levels)
    u = expm(0.25 * np.pi * (np.kron(a.T, a) - np.kron(a, a.T)))
    transition = (u ** 2).reshape((levels,) * 4)  # |<m, n|U|k, l>|^2
    ok = True
    worst = 0.0
    for _ in range(10):
        lam = rng.dirichlet(np.ones(13))  # support <= 12
        fast = photon_distribution_phase_invariant(lam)
        padded = np.pad(lam, (0, levels - len(lam)))
        oracle = np.einsum("mnkl,k,l->n", transition, padded, padded)
        ok &= len(fast) == levels
        worst = max(worst, float(np.max(np.abs(fast.probs - oracle))))
    for q, dim in ((0.3, 40), (0.6, 80)):
        fast = photon_distribution_phase_invariant((1.0 - q) * q ** np.arange(dim))
        closed = thermal_photon_distribution(q, 2 * dim - 2)
        worst = max(worst, float(np.max(np.abs(fast.probs - closed.probs))))
    ok &= worst < 1e-12
    for big_n in range(7):
        for big_np in range(7):
            ok &= abs(hom_photon_distribution(big_n, big_np).sum() - 1.0) < 1e-10
    report(6, ok, "Fock-diagonal p_n matches the expm oracle (support <= 12) and the "
                  f"thermal closed form (worst {worst:.1e}); "
                  "Fock-pair p_n normalized for N, N' <= 6")


def test_criterion_07_phase_space_identities():
    ok = True
    for rho in (coherent(0.7, 28), fock(1, 12), thermal(0.3, 44),
                squeezed_vacuum(0.5, 48)):
        purity = purity_direct(rho)
        ok &= abs(np.pi * wigner_origin(two_copy_output(rho)) - purity) < 1e-6
        ok &= abs(overlap_wigner(rho, rho) - purity) < 1e-6
        ok &= abs(overlap_kernel(rho, rho) - purity) < 1e-12
    alpha, beta = 0.7, -0.3 + 0.4j
    pair = coherent(alpha, 28), coherent(beta, 28)
    exact = np.exp(-abs(alpha - beta) ** 2)
    ok &= abs(overlap_wigner(*pair) - exact) < 1e-6
    ok &= abs(overlap_kernel(*pair) - exact) < 1e-12
    report(7, ok, "pi*W_d(0,0) = purity, 2*pi*int W^2 = purity, coherent overlap, "
                  "on the Wigner grid and on the position kernel")


def test_criterion_08_multimode_consistency():
    dim = 8
    singles = {"vacuum": fock(0, dim), "fock1": fock(1, dim),
               "thermal(0.5)": thermal(0.5, dim, deficit_tol=1e-2)}
    ok = True
    worst = 0.0
    for name_a, a in singles.items():
        for name_b, b in singles.items():
            rho = tensor(a, b)
            multi = qcs_multimode(rho).c_squared
            direct = qcs_direct(rho).c_squared
            worst = max(worst, abs(multi - direct))
            ok &= abs(multi - direct) < 1e-6
    report(8, ok, "two-mode products: multimode route matches commutator route "
                  f"(worst gap {worst:.1e})")


def test_criterion_09_sampling_coverage():
    start = time.monotonic()
    cases = [("thermal(0.85)", thermal_photon_distribution(0.85, 300), 3.0 / 37.0),
             ("rho_even_5", fast_pn(rho_even_m(5, 24)), 13.0)]
    ok = True
    coverages = []
    for name, pn, exact in cases:
        hits = 0
        for i in range(100):
            rec = sample_counts(pn, 100_000, seed=42 + i)
            est = estimate_qcs(rec, resamples=1000)
            plugin = qcs_two_copy(PhotonDistribution(probs=rec.frequencies()))
            ok &= est.c_squared == plugin.c_squared
            if est.ci_low <= exact <= est.ci_high:
                hits += 1
        coverages.append((name, hits))
        ok &= hits >= 93
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    detail = ", ".join(f"{name} {hits}/100" for name, hits in coverages)
    report(9, ok, f"95% bootstrap CI coverage at 1e5 shots: {detail}; "
                  f"plug-in bit-identical to two-copy on each record's p_n ({elapsed:.1f} s)")


def test_criterion_10_invariance_suite():
    ok = True
    rho = fock(1, 48)
    moved = displace(rho, 0.8)
    ok &= abs(qcs_direct(moved).c_squared - qcs_direct(rho).c_squared) < 1e-7
    pn_ref = photon_distribution(rho, rho).probs
    pn_moved = photon_distribution(moved, moved).probs
    m = min(len(pn_ref), len(pn_moved))
    ok &= np.max(np.abs(pn_ref[:m] - pn_moved[:m])) < 1e-7
    sq = squeezed_vacuum(0.6, 56)
    spun = phase_rotate(sq, 0.7)
    ok &= abs(qcs_direct(spun).c_squared - qcs_direct(sq).c_squared) < 1e-7
    pn_sq = photon_distribution(sq, sq).probs
    pn_spun = photon_distribution(spun, spun).probs
    m = min(len(pn_sq), len(pn_spun))
    ok &= np.max(np.abs(pn_sq[:m] - pn_spun[:m])) < 1e-7
    report(10, ok, "QCS and two-copy p_n invariant under displacement and "
                   "phase rotation")
