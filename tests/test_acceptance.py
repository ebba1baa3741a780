"""Acceptance criteria, one test per criterion, one printed verdict line each.

Heavy spectra (truncations up to 4096 for the doubling diagnostics) are
computed once in session fixtures and shared across criteria.  Run with
``pytest -s tests/test_acceptance.py`` to see the verdict lines as they pass.
"""

import math
import time

import numpy as np
import pytest

import compdiff as cd
from compdiff.experiments import _run_triangular, trusted_separation
from compdiff.series import eval_array
from oracles import hs_parseval_sum

SMOOTH_ALPHAS = (2.5, 3.0, 4.0)
SMOOTH_C = 0.005
CORNER_C = 0.01


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def smooth_results():
    out = {}
    for alpha in SMOOTH_ALPHAS:
        t0 = time.monotonic()
        result = cd.run_smooth_perturbation(alpha, SMOOTH_C, n_trunc=1024,
                                            window=(8, 64), certificates=True)
        out[alpha] = (result, time.monotonic() - t0)
    return out


@pytest.fixture(scope="session")
def corner_spectra():
    phi = cd.corner_map()
    psi = cd.corner_perturbation(CORNER_C)
    t0 = time.monotonic()
    single = cd.convergence_horizon(
        lambda m: cd.composition_matrix(phi, m), 2048)
    perturbed = cd.convergence_horizon(
        lambda m: cd.composition_matrix(psi, m), 2048)
    diff = cd.convergence_horizon(
        lambda m: cd.difference_matrix(phi, psi, m), 2048)
    return {"single": single, "perturbed": perturbed, "diff": diff,
            "elapsed": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_exact_oracles():
    t0 = time.monotonic()
    diag = cd.singular_spectrum(cd.composition_matrix(cd.dilation(0.5), 64))
    diag_err = np.abs(diag.values - 0.5 ** np.arange(64)).max()

    rank1 = cd.singular_spectrum(cd.composition_matrix(cd.constant(0.5), 64))
    rank1_err = max(abs(rank1.sigma(1) - (1 - 0.25) ** -0.5), rank1.sigma(2))

    ident = cd.singular_spectrum(cd.composition_matrix(cd.identity(), 64))
    ident_err = np.abs(ident.values - 1.0).max()

    elapsed = time.monotonic() - t0
    ok = diag_err <= 1e-10 and rank1_err <= 1e-10 and ident_err <= 1e-10 \
        and elapsed < 1.0
    assert _verdict(
        "criterion 1 (exact oracles)", ok,
        f"diag={diag_err:.2e} rank1={rank1_err:.2e} ident={ident_err:.2e} "
        f"elapsed={elapsed:.2f}s")


def test_criterion_2_hs_cross_check():
    t0 = time.monotonic()
    rel_errs = []
    for a, b in ((0.5, 0.25), (0.3, 0.6), (0.8, 0.4)):
        hs = cd.hs_norm(cd.dilation(a), cd.dilation(b))
        oracle = hs_parseval_sum(cd.dilation(a), cd.dilation(b), 64)
        rel_errs.append(abs(hs.value - oracle) / oracle)
    below = cd.hs_norm(cd.half_map(), cd.power_perturbation(2.4, SMOOTH_C))
    above = cd.hs_norm(cd.half_map(), cd.power_perturbation(2.6, SMOOTH_C))
    elapsed = time.monotonic() - t0
    ok = (max(rel_errs) <= 1e-5 and below.diverged and not above.diverged
          and elapsed < 30.0)
    assert _verdict(
        "criterion 2 (HS cross-check)", ok,
        f"max rel={max(rel_errs):.2e} flags(2.4/2.6)="
        f"{below.diverged}/{above.diverged} elapsed={elapsed:.1f}s")


def test_criterion_3_smooth_power_rate(smooth_results):
    ok = True
    details = []
    for alpha in SMOOTH_ALPHAS:
        result, elapsed = smooth_results[alpha]
        p = result.fits["sigma_power"].params["p"]
        in_band = abs(p - (alpha - 2)) <= 0.5
        ok &= in_band and elapsed <= 600
        details.append(f"alpha={alpha}: p={p:.3f} target={alpha - 2} "
                       f"elapsed={elapsed:.0f}s")
    assert _verdict("criterion 3 (smooth power rate)", ok, "; ".join(details))


def _separation_checks(sep: dict) -> dict:
    """Corner-pair claim on trusted indices: the difference is far smaller
    than C_phi (rho < 1e-2, the sigma64_separation threshold) and decays
    faster (rho falls from n_a to n_b)."""
    rho_a, rho_b = sep["rho_n_a"], sep["rho_n_b"]
    measured = rho_a is not None and rho_b is not None
    return {"n_b > n_a": sep["n_b"] > sep["n_a"],
            "rho(n_b) < 1e-2": measured and rho_b < 1e-2,
            "rho(n_b) < rho(n_a)": measured and rho_b < rho_a}


def _fmt(rho) -> str:
    return "n/a" if rho is None else f"{rho:.3g}"


def test_criterion_4_corner_pair(corner_spectra):
    t0 = time.monotonic()
    result = cd.run_corner_perturbation(
        CORNER_C, n_trunc=2048,
        spec_single=corner_spectra["single"], spec_diff=corner_spectra["diff"])
    elapsed = corner_spectra["elapsed"] + (time.monotonic() - t0)

    sep = result.details["trusted_separation"]
    checks = _separation_checks(sep)
    failed = [name for name, passed in checks.items() if not passed]
    # the verdicts below read the R^2 competition and sigma_64, which no
    # feasible truncation can settle; they are printed, not asserted
    diff_st = result.fits["diff_stretched"].r2
    diff_re = result.fits["diff_root_exp"].r2
    single_re = result.fits["single_root_exp"].r2
    single_st = result.fits["single_stretched"].r2
    ratio = (result.details["sigma64_difference"]
             / result.details["sigma64_single"])
    ok = not failed and elapsed <= 1800
    assert _verdict(
        "criterion 4 (corner pair)", ok,
        f"trusted n_a={sep['n_a']} n_b={sep['n_b']} "
        f"rho(n_a)={_fmt(sep['rho_n_a'])} rho(n_b)={_fmt(sep['rho_n_b'])}"
        f"{' failed: ' + ', '.join(failed) if failed else ''}; "
        f"beyond reach: diff stretched R2={diff_st:.4f} "
        f"(margin {diff_st - diff_re:+.4f}), single root_exp R2={single_re:.4f} "
        f"(margin {single_re - single_st:+.4f}), sigma64 ratio={ratio:.3g}, "
        f"windows {result.details['window_diff']}"
        f"/{result.details['window_single']}; elapsed={elapsed:.0f}s")


def test_criterion_4_negative_control():
    # corner map against the half map: the difference is as large as C_phi,
    # so the trusted-separation check must fail
    phi = cd.corner_map()
    single = cd.convergence_horizon(
        lambda m: cd.composition_matrix(phi, m), 256)
    diff = cd.convergence_horizon(
        lambda m: cd.difference_matrix(phi, cd.half_map(), m), 256)
    sep = trusted_separation(single, diff)
    checks = _separation_checks(sep)
    assert sep["n_a"] == sep["n_b"] == 1
    assert sep["rho_n_b"] > 1
    assert not checks["n_b > n_a"]
    assert not checks["rho(n_b) < 1e-2"]


def test_criterion_5_certificates_track_spectra(smooth_results):
    ok = True
    details = []
    for alpha in SMOOTH_ALPHAS:
        result, _ = smooth_results[alpha]
        slopes = {label: result.fits[label].params["p"]
                  for label in ("sigma_power", "lower_power", "upper_power")}
        gap = max(abs(a - b) for a in slopes.values() for b in slopes.values())
        ok &= gap <= 0.5
        details.append(
            f"alpha={alpha}: sigma={slopes['sigma_power']:.2f} "
            f"lower={slopes['lower_power']:.2f} "
            f"upper={slopes['upper_power']:.2f} gap={gap:.2f}")
    assert _verdict("criterion 5 (certificate slopes)", ok, "; ".join(details))


def test_criterion_6_weighted_family():
    ok = True
    details = []
    for alpha in (1.0, 2.0):
        t0 = time.monotonic()
        result = cd.run_weighted_power(alpha, n_trunc=1024, certificates=True)
        elapsed = time.monotonic() - t0
        p = result.fits["sigma_power"].params["p"]
        in_band = (alpha - 0.3) <= p <= (alpha + 0.4)
        ok &= in_band and elapsed <= 600
        details.append(f"alpha={alpha}: p={p:.3f} elapsed={elapsed:.0f}s")
    assert _verdict("criterion 6 (weighted power rate)", ok, "; ".join(details))


def test_criterion_7_tensor_lemma():
    rng = np.random.default_rng(7321)
    ok = True
    worst = 0.0
    for _ in range(3):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        kron = np.linalg.svd(np.kron(a, b), compute_uv=False)
        via = cd.tensor_spectrum(cd.SingularSpectrum(sa, 16),
                                 cd.SingularSpectrum(sb, 16), 256)
        worst = max(worst, float(np.abs(via.values - kron).max()))
        for m in range(1, 9):
            for n in range(1, 9):
                ok &= kron[m * n - 1] >= sa[m - 1] * sb[n - 1] - 1e-10
    ok &= worst <= 1e-10
    assert _verdict("criterion 7 (tensor lemma)", ok,
                    f"kron mismatch={worst:.2e}, a_mn >= a_m a_n exhaustive "
                    f"m,n <= 8 on 3 instances")


def test_criterion_8_internal_lemma_invariants():
    n = 100
    eps = math.log(n) / n
    j = np.arange(1, n + 1)
    z = (1 - np.exp(-j * eps)).astype(complex)
    phi = cd.corner_map()
    psi = cd.corner_perturbation(CORNER_C)
    w1 = eval_array(phi, z)
    w2 = eval_array(psi, z)

    ratios = (1 - np.abs(w1[1:])) / (1 - np.abs(w1[:-1]))
    ratio_ok = bool(np.all(ratios <= math.exp(-eps / 4)))

    depth_bound = 0.5 * math.exp(-n * eps / 2)
    depth_ok = True
    for w in (w1, w2):
        lhs = (1 - np.abs(z) ** 2) / (1 - np.abs(w) ** 2)
        depth_ok &= bool(np.all(lhs >= depth_bound))

    ok = ratio_ok and depth_ok
    assert _verdict(
        "criterion 8 (internal lemma invariants)", ok,
        f"contact ratio max={ratios.max():.6f} <= e^-eps/4={math.exp(-eps / 4):.6f}; "
        f"depth bound {depth_bound:.3g} holds={depth_ok}")


def test_criterion_9_triangular_schedule(corner_spectra):
    result = _run_triangular(
        c=CORNER_C, weight_modulus=0.5, n_trunc=2048, k_range=range(3, 8),
        diff_spectrum=corner_spectra["diff"],
        phi0_spectrum=corner_spectra["single"],
        phi1_spectrum=corner_spectra["perturbed"])
    fit = result.fits["bound_vs_sqrt_n_log"]
    ok = fit.r2 >= 0.9 and fit.params["c"] > 0
    series = result.details["bound_series"]
    assert _verdict(
        "criterion 9 (triangular schedule)", ok,
        f"R2={fit.r2:.4f} slope={fit.params['c']:.3f} "
        f"bounds={[f'{v:.3g}' for _, v in series]}")
