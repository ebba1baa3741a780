"""Disc geometry, Blaschke products, Carleson estimation, separation."""

import math

import numpy as np
import pytest

import compdiff as cd
from compdiff.errors import DuplicatePoints
from compdiff.hardy import (as_points, cumulative_hyperbolic_length,
                            pseudo_distance_array)
from compdiff.series import eval_array
from oracles import (carleson_norm_by_window, hyperbolic_distance,
                     hyperbolic_length_refined, kernel_gram)

RNG_SEED = 20240817


def brute_separation(pts):
    best = math.inf
    for j, z in enumerate(pts):
        prod = 1.0
        for k, w in enumerate(pts):
            if k != j:
                prod *= float(pseudo_distance_array(z, w))
        best = min(best, prod)
    return best


def brute_carleson(pts):
    """Independent sweep of the same dyadic window family."""
    pts = np.asarray(pts, dtype=complex)
    masses = 1 - np.abs(pts) ** 2
    best = 0.0
    m = 0
    while m <= 52:
        delta = 2.0 ** (-m)
        if not np.any(1 - np.abs(pts) <= delta):
            break
        step = delta / 2
        k = math.ceil(-math.pi / step)
        while k * step <= math.pi:
            theta0 = k * step
            inside = (1 - np.abs(pts) <= delta)
            ang = np.angle(pts)
            circ = np.minimum(np.abs(ang - theta0),
                              2 * math.pi - np.abs(ang - theta0))
            inside &= circ <= delta + 1e-15
            mass = masses[inside].sum()
            best = max(best, mass / delta)
            k += 1
        m += 1
    return best


def carleson_point_sets(family):
    """Point sets of one family for the Carleson oracle comparison."""
    rng = np.random.default_rng(RNG_SEED + 6)
    if family == "pinch":
        return [cd.sequence_boundary_pinch(n).points for n in (4, 16, 64, 256)]
    if family == "images":
        pairs = [(cd.half_map(), cd.power_perturbation(3, 0.005)),
                 (cd.corner_map(), cd.corner_perturbation(0.01))]
        return [np.concatenate([eval_array(phi, z), eval_array(psi, z)])
                for z in (cd.sequence_boundary_pinch(n).points for n in (8, 64, 256))
                for phi, psi in pairs]
    sets = []
    for _ in range(12):
        size = int(rng.integers(2, 30))
        # moduli from the origin to within 1e-16 of the circle
        pts = (1 - 10.0 ** rng.uniform(-16, 0, size)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, size))
        if family == "random":  # with pairs 1e-15 apart
            pts = np.concatenate([pts, pts[:2] + 1e-15])
        elif family == "duplicates":
            pts = np.concatenate([pts, pts[: size // 2]])
        elif family == "near_circle":  # within 2^-53 of it, and at angle pi
            edge = 1 - 2.0 ** -53
            pts = np.concatenate([pts, [-edge, edge * np.exp(-1j * np.pi)], edge
                                  * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))])
        elif family == "dyadic_angles":  # window edges up to rounding
            pts = np.abs(pts) * np.exp(1j * rng.integers(-25, 26, size) / 8)
        sets.append(pts[np.abs(pts) < 1])
    return sets


class TestPseudoDistance:
    def test_origin(self):
        assert pseudo_distance_array(0, 0.5) == 0.5

    def test_coincident(self):
        assert pseudo_distance_array(0.5, 0.5) == 0.0

    def test_symmetric_pair(self):
        assert pseudo_distance_array(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = (rng.uniform(-1, 1, (1000, 3)) +
               1j * rng.uniform(-1, 1, (1000, 3))) / 2
        z, w, v = pts.T
        # vectorised complex products may round the two orders differently
        np.testing.assert_allclose(pseudo_distance_array(z, w),
                                   pseudo_distance_array(w, z), rtol=1e-15)
        assert np.all(pseudo_distance_array(z, v)
                      <= pseudo_distance_array(z, w)
                      + pseudo_distance_array(w, v) + 1e-12)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            a, z, w = (rng.uniform(-0.7, 0.7, 3)
                       + 1j * rng.uniform(-0.7, 0.7, 3))
            tau = cd.mobius(a)
            got = pseudo_distance_array(cd.evaluate(tau, z), cd.evaluate(tau, w))
            assert abs(got - pseudo_distance_array(z, w)) < 1e-12


class TestHyperbolicDistance:
    def test_zero(self):
        assert hyperbolic_distance(0, 0) == 0.0

    def test_log_three(self):
        assert hyperbolic_distance(0, 0.5) == pytest.approx(math.log(3),
                                                            abs=1e-15)

    def test_symmetry(self):
        z, w = 0.3 + 0.2j, -0.1 + 0.6j
        assert hyperbolic_distance(z, w) == hyperbolic_distance(w, z)


class TestKernel:
    def test_values(self):
        # the Gram diagonal holds ||k_w||^2 = 1/(1 - |w|^2)
        diag = np.diag(kernel_gram([0, 0.5, 0.9]))
        assert diag[0] == 1.0
        assert diag[1] == pytest.approx(4 / 3, abs=1e-15)
        assert diag[2] == pytest.approx(1 / 0.19, abs=1e-12)


class TestBlaschke:
    def test_single_zero_at_origin(self):
        b = cd.BlaschkeProduct(np.array([0.0 + 0j]))
        assert cd.blaschke_eval(b, 0.5) == 0.5

    def test_zero_hit(self):
        b = cd.BlaschkeProduct(np.array([0.5 + 0j]))
        assert cd.blaschke_eval(b, 0.5) == 0

    def test_boundary_unimodularity_random(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(10):
            deg = rng.integers(1, 51)
            zeros = (rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)) / 2
            b = cd.BlaschkeProduct(zeros)
            t = rng.uniform(-math.pi, math.pi, 100)
            values = cd.blaschke_eval(b, np.exp(1j * t))
            assert np.abs(np.abs(values) - 1).max() < 1e-10

    def test_double_zero_boundary(self):
        b = cd.BlaschkeProduct(np.array([0.0 + 0j, 0.0 + 0j]))
        values = cd.blaschke_eval(b, np.exp(1j * np.linspace(0, 3, 50)))
        assert np.abs(np.abs(values) - 1).max() < 1e-12


class TestHyperbolicLength:
    def test_radial_segment(self):
        length = hyperbolic_length_refined(lambda t: t.astype(complex), 0, 0.5)
        assert length == pytest.approx(math.log(3), rel=1e-6)

    def test_single_point(self):
        assert cumulative_hyperbolic_length(np.array([0.3 + 0j]))[-1] == 0.0

    def test_concatenation_additivity(self):
        a = np.linspace(0, 0.3, 2000).astype(complex)
        b = np.linspace(0.3, 0.5 + 0.2j, 2000)
        whole = np.concatenate([a, b[1:]])
        total = cumulative_hyperbolic_length(whole)[-1]
        parts = (cumulative_hyperbolic_length(a)[-1]
                 + cumulative_hyperbolic_length(b)[-1])
        assert total == pytest.approx(parts, abs=1e-9)

    def test_cumulative_is_monotone(self):
        pts = np.linspace(0, 0.9, 100).astype(complex)
        s = cumulative_hyperbolic_length(pts)
        assert s[0] == 0 and np.all(np.diff(s) >= 0)

    def test_matches_distance_normalisation(self):
        # curve length of a geodesic radius equals the point distance
        length = hyperbolic_length_refined(lambda t: t.astype(complex), 0, 0.7)
        assert length == pytest.approx(hyperbolic_distance(0, 0.7), rel=1e-6)

    def test_radial_segment_up_to_099(self):
        for r in (0.9, 0.99):
            length = hyperbolic_length_refined(lambda t: t.astype(complex), 0, r)
            expected = math.log((1 + r) / (1 - r))
            assert length == pytest.approx(expected, rel=1e-6)


class TestUniformSeparation:
    def test_pair(self):
        assert cd.uniform_separation([0, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_singleton_empty_product(self):
        assert cd.uniform_separation([0.3]) == 1.0

    def test_three_points_brute_force(self):
        pts = [0, 0.5, -0.5]
        # products: j=0 gives 0.25, j=+-0.5 give 0.4 each; the infimum is 0.25
        got = cd.uniform_separation(pts)
        assert got == pytest.approx(brute_separation(pts), rel=1e-12)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(20):
            pts = (rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)) / 2
            assert cd.uniform_separation(pts) == pytest.approx(
                brute_separation(pts), rel=1e-10)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            cd.uniform_separation([0.5, 0.5])

    def test_duplicates_rejected_in_a_non_distinct_sequence(self):
        # a sequence checks only the open disc; the separation matrix
        # catches the duplicate
        seq = cd.PointSequence([0.5, 0.5])
        assert len(seq) == 2
        with pytest.raises(DuplicatePoints):
            cd.uniform_separation(seq)


class TestCarleson:
    def test_atom_at_origin(self):
        est = cd.carleson_norm([0])
        assert type(est) is float
        assert est == pytest.approx(1.0, abs=1e-15)

    def test_atom_at_half(self):
        assert cd.carleson_norm([0.5]) == pytest.approx(1.5, abs=1e-12)

    def test_duplication_doubles(self):
        one = cd.carleson_norm([0.4 + 0.1j])
        two = cd.carleson_norm(as_points([0.4 + 0.1j, 0.4 + 0.1j]))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(5):
            pts = (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) / 1.5
            pts = pts[np.abs(pts) < 0.95]
            if len(pts) == 0:
                continue
            assert cd.carleson_norm(pts) == pytest.approx(brute_carleson(pts),
                                                          rel=1e-9)

    @pytest.mark.parametrize("family", ["pinch", "images", "random",
                                        "duplicates", "near_circle",
                                        "dyadic_angles"])
    def test_matches_the_window_by_window_oracle(self, family):
        # the same windows summed in the same order: equal bit for bit
        for pts in carleson_point_sets(family):
            assert cd.carleson_norm(pts) == carleson_norm_by_window(pts)

    def test_kernel_combination_inequality(self):
        # ||sum b_j k_{z_j}||^2 <= carleson * sum |b_j|^2 / (1 - |z_j|^2), 5% slack
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(20):
            size = rng.integers(2, 9)
            pts = (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)) / 1.3
            pts = pts[np.abs(pts) < 0.9]
            if len(pts) < 1:
                continue
            b = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
            gram = kernel_gram(pts)
            lhs = float(np.real(np.conj(b) @ gram @ b))
            rhs = (cd.carleson_norm(pts)
                   * float(np.sum(np.abs(b) ** 2 / (1 - np.abs(pts) ** 2))))
            assert lhs <= rhs * 1.05


class TestRhoArray:
    def test_clip_and_zero(self):
        z = np.array([0.5, 1.0, 0.999999]).astype(complex)
        w = np.array([0.5, 1.0, -0.999999]).astype(complex)
        rho = pseudo_distance_array(z, w)
        assert rho[0] == 0 and rho[1] == 0
        assert 0 <= rho[2] <= 1
