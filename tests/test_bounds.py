"""Certificates: sequences, lower/upper bounds, HS integral, weighted, triangular."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import compdiff as cd
from compdiff import bounds
from compdiff.bounds import _level_curve, _sup_values, split_zeros
from compdiff.errors import (CollidingImages, DisconnectedLevelSet, EmptyRange,
                             HorizonExceeded, ImageOnBoundary, NotSelfMap,
                             WeightTooLarge)
from compdiff.hardy import cumulative_hyperbolic_length
from compdiff.series import Const, Product, Sum, Var, eval_array, sup_grid
from oracles import hs_parseval_sum, weighted_difference_bound


class TestSequences:
    def test_pinch_four(self):
        pts = cd.sequence_boundary_pinch(4).points
        np.testing.assert_allclose(
            pts, [(1 + np.exp(1j / 3)) / 2, (1 + np.exp(1j / 2)) / 2],
            atol=1e-15)

    def test_pinch_inside_disc_and_distinct(self):
        for n in (4, 8, 33, 100):
            pts = cd.sequence_boundary_pinch(n).points
            assert np.all(np.abs(pts) < 1)
            assert len(pts) == n // 2
            gaps = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() > 1e-15

    def test_pinch_needs_four(self):
        with pytest.raises(ValueError):
            cd.sequence_boundary_pinch(3)

    def test_radial_hundred(self):
        pts = cd.sequence_radial(100).points
        eps = math.log(100) / 100
        assert len(pts) == 67  # indices 34..100
        assert pts[0] == pytest.approx(1 - math.exp(-34 * eps))
        assert np.all(np.isreal(pts)) and np.all((pts.real > 0) & (pts.real < 1))
        assert np.all(np.diff(pts.real) > 0)
        ratios = (1 - pts.real[1:]) / (1 - pts.real[:-1])
        np.testing.assert_allclose(ratios, math.exp(-eps), rtol=1e-12)

    def test_radial_empty_range(self):
        with pytest.raises(EmptyRange):
            cd.sequence_radial(2)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_radial_below_two_names_the_bound(self, n):
        with pytest.raises(ValueError, match="n >= 2"):
            cd.sequence_radial(n)


class TestLowerCertificate:
    def test_worked_example(self):
        cert = cd.lower_certificate(cd.identity(), cd.dilation(0.5), [0.5])
        assert cert.n == 1
        assert cert.fields["delta_W"] == pytest.approx(0.25 / 0.875, abs=1e-12)
        assert cert.fields["inf_ratio"] == pytest.approx(1.8, abs=1e-12)
        # value recomputed from the stored intermediates
        expected = (math.sqrt(cert.fields["inf_ratio"])
                    / (cert.fields["M_W"] * math.sqrt(cert.fields["carleson_Z"])))
        assert cert.value_theorem == pytest.approx(expected, rel=1e-12)
        cf = (cert.fields["delta_W"] * math.sqrt(cert.fields["inf_ratio"])
              / math.sqrt((1 + math.log(1 / cert.fields["delta_W"]))
                          * (1 + math.log(1 / cert.fields["delta_Z"]))))
        assert cert.value == pytest.approx(cf, rel=1e-12)

    def test_colliding_images(self):
        with pytest.raises(CollidingImages):
            cd.lower_certificate(cd.half_map(), cd.half_map(), [0.1, 0.2])

    def test_image_on_boundary(self):
        with pytest.raises(ImageOnBoundary):
            cd.lower_certificate(cd.constant(1.0), cd.dilation(0.5), [0.3])

    def test_one_pairwise_gap_matrix_per_certificate(self, monkeypatch):
        # one |z_j - z_k| matrix per point set: Z's gives delta_Z and its
        # duplicate check, W's gives delta_W and the CollidingImages gap
        from compdiff import hardy

        calls = []
        real = hardy._separation

        def counting(pts):
            calls.append(len(pts))
            return real(pts)

        z = cd.sequence_boundary_pinch(24)
        monkeypatch.setattr(hardy, "_separation", counting)
        monkeypatch.setattr(bounds, "_separation", counting)
        cd.lower_certificate(cd.half_map(), cd.power_perturbation(3, 0.005), z)
        assert calls == [len(z), 2 * len(z)]

    @pytest.mark.parametrize("make", [
        lambda z: cd.lower_certificate(cd.constant(1.0), cd.dilation(0.5), z),
        lambda z: cd.weighted_lower_certificate(cd.weight_power(1),
                                                cd.constant(1.0), z),
    ], ids=["lower", "weighted_lower"])
    def test_duplicate_z_raises_before_the_images(self, make):
        # a duplicate in Z is caught before the images are evaluated, so it
        # wins over an image on the circle
        with pytest.raises(cd.DuplicatePoints):
            make([0.3, 0.1, 0.3])
        with pytest.raises(ImageOnBoundary):
            make([0.3, 0.1])

    def test_equal_symbols_collide_on_distinct_z(self):
        z = cd.sequence_boundary_pinch(8)
        with pytest.raises(CollidingImages, match="fewer than 2 card"):
            cd.lower_certificate(cd.corner_map(), cd.corner_map(), z)
        square = cd.Symbol("square", Product((Var(), Var())))
        with pytest.raises(CollidingImages, match="not injective"):
            cd.weighted_lower_certificate(cd.weight_power(1), square, [0.3, -0.3])

    def test_sanity_envelope(self):
        cert = cd.lower_certificate(cd.identity(), cd.dilation(0.5), [0.5])
        sigma1 = cd.singular_spectrum(
            cd.difference_matrix(cd.identity(), cd.dilation(0.5), 256)).sigma(1)
        assert cert.value_theorem <= 10 * sigma1

    def test_serialization_fields(self):
        cert = cd.lower_certificate(cd.identity(), cd.dilation(0.5), [0.5])
        doc = cert.to_dict()
        for key in ("n", "r", "delta_Z", "delta_W", "carleson_Z", "carleson_W",
                    "M_W", "inf_ratio", "value_theorem", "value_constant_free"):
            assert key in doc
        assert doc["flags"]["constants"] == "unspecified"


class TestBlaschkeZeros:
    def test_single_zero_is_hyperbolic_midpoint(self):
        zeros = cd.blaschke_zeros_for_symbol(cd.half_map(), 0.9, 2).zeros
        assert len(zeros) == 1
        curve, _ = _level_curve(cd.half_map(), 0.9)
        s = cumulative_hyperbolic_length(curve)
        mid = np.interp(s[-1] / 2, s, np.arange(len(curve)))
        expected = curve[int(round(mid))]
        assert abs(zeros[0] - expected) < 5e-3

    def test_zero_count_and_interior(self):
        b = cd.blaschke_zeros_for_symbol(cd.half_map(), 0.9, 20)
        assert b.degree == 19
        assert np.all(np.abs(b.zeros) <= 0.9 + 1e-12)

    def test_damping_inside_sublevel_set(self):
        phi = cd.half_map()
        b = cd.blaschke_zeros_for_symbol(phi, 0.9, 20)
        t = np.linspace(-math.pi, math.pi, 4001)
        vals = eval_array(phi, np.exp(1j * t))
        inside = np.abs(vals) <= 0.9
        assert np.abs(cd.blaschke_eval(b, vals[inside])).max() < 1

    def test_decay_linear_in_n(self):
        # -log sup |B o phi| grows linearly; slope within factor 3 of
        # pi^2 / (2 * hyperbolic length of the level curve)
        phi = cd.half_map()
        r = 0.9
        curve, _ = _level_curve(phi, r)
        target = math.pi ** 2 / (2 * cumulative_hyperbolic_length(curve)[-1])
        t = np.linspace(-math.pi, math.pi, 20001)
        vals = eval_array(phi, np.exp(1j * t))
        inside = np.abs(vals) <= r
        sups = {}
        for n in (20, 40, 80):
            b = cd.blaschke_zeros_for_symbol(phi, r, n)
            sups[n] = np.abs(cd.blaschke_eval(b, vals[inside])).max()
        slope = (math.log(sups[20]) - math.log(sups[80])) / 60
        assert target / 3 <= slope <= 3 * target
        # linearity: consecutive slopes agree loosely
        s1 = (math.log(sups[20]) - math.log(sups[40])) / 20
        s2 = (math.log(sups[40]) - math.log(sups[80])) / 40
        assert 0.5 <= s1 / s2 <= 2.0

    @pytest.mark.parametrize("n, on_phi, on_psi", [
        (1, 0, 0), (2, 1, 0), (3, 1, 1), (8, 4, 3), (9, 4, 4)])
    def test_split_shares_and_order(self, n, on_phi, on_psi):
        # phi's zeros first, then psi's, each at their own level curve's
        # equal hyperbolic spacing
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        zeros = split_zeros(phi, psi, n, 0.9).zeros
        expected = np.concatenate([
            cd.blaschke_zeros_for_symbol(phi, 0.9, on_phi + 1).zeros,
            cd.blaschke_zeros_for_symbol(psi, 0.9, on_psi + 1).zeros])
        assert len(zeros) == n - 1
        assert zeros.tobytes() == expected.tobytes()


class TestUpperCertificate:
    def test_empty_outside_sets(self):
        phi, psi = cd.dilation(0.3), cd.dilation(0.2)
        cert = cd.upper_certificate(phi, psi, 8, 0.5, split_zeros(phi, psi, 8, 0.5))
        assert cert.fields["sup_w_phi"] == 0 and cert.fields["sup_w_psi"] == 0
        assert set(cert.flags["empty_sets"]) == {"w_phi", "w_psi"}
        assert cert.value == pytest.approx(
            (cert.fields["sup_B_phi"] + cert.fields["sup_B_psi"]) * 2.0, rel=1e-14)

    def test_equal_symbols_bounded(self):
        phi = cd.half_map()
        zeros = cd.blaschke_zeros_for_symbol(phi, 0.9, 8)
        cert = cd.upper_certificate(phi, phi, 8, 0.9, zeros)
        assert cert.fields["sup_w_phi"] == 0 and cert.fields["sup_w_psi"] == 0
        assert cert.value < 4 * cd.operator_norm_bound(phi)

    def test_degree_mismatch(self):
        phi = cd.half_map()
        zeros = cd.blaschke_zeros_for_symbol(phi, 0.9, 8)
        with pytest.raises(ValueError):
            cd.upper_certificate(phi, phi, 9, 0.9, zeros)

    @pytest.mark.parametrize("r", [0.0, 1.0, 1.5])
    def test_level_outside_unit_interval(self, r):
        phi, zeros = cd.half_map(), cd.BlaschkeProduct([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="r must lie"):
            cd.upper_certificate(phi, cd.dilation(0.5), 4, r, zeros)
        with pytest.raises(ValueError, match="r must lie"):
            cd.weighted_upper_certificate(cd.weight_power(1), phi, 4, r, zeros)

    def test_decay_in_n_at_fixed_r(self):
        phi = cd.half_map()
        values = []
        for n in (4, 8, 16, 32):
            zeros = cd.blaschke_zeros_for_symbol(phi, 0.9, n)
            values.append(cd.upper_certificate(phi, phi, n, 0.9, zeros).value)
        for a, b in zip(values, values[1:]):
            assert b <= a * 1.02  # monotone within sampling noise


def _coarse_of_fine(fine: np.ndarray, side: int) -> np.ndarray:
    """The sup_grid(side) positions inside a sup_grid(2 * side) array."""
    return np.concatenate([fine[0:2 * side:2], fine[2 * side + 1::2]])


def _masked_sup(values, mask):
    """Supremum over a sampled set; empty sets give 0 by convention."""
    return float(values[mask].max()) if np.any(mask) else 0.0


def _peak(zeros, symbol, r, side):
    """Largest |B| over the peak candidates of the level curve, taken on the
    default curve grid or, where that is empty, on sup_grid(2 * side)."""
    try:
        curve = _level_curve(symbol, r)
    except ValueError:
        curve = _level_curve(symbol, r, 2 * side)
    cand = bounds._blaschke_peak_candidates(zeros.zeros, *curve)
    return float(np.abs(cd.blaschke_eval(zeros, cand)).max())


def _two_pass_sups(zeros, phi, psi, r, side):
    """Reference: the Blaschke/w suprema as two independent grid passes.

    Evaluates B on every point of sup_grid(side) and sup_grid(2 * side) and
    masks afterwards; each grid takes w from its own ``_w_values``.  Returns
    the coarse and fine sups, each ordered (B_phi, B_psi, w_phi, w_psi), and
    the fine grid's four empty flags.
    """
    def sups(s):
        phi_v, psi_v = _sup_values(phi, s), _sup_values(psi, s)
        in_phi, in_psi = np.abs(phi_v) <= r, np.abs(psi_v) <= r
        w = bounds._w_values(phi, psi, s)
        out = [_masked_sup(np.abs(cd.blaschke_eval(zeros, v)), m)
               for v, m in ((phi_v, in_phi), (psi_v, in_psi))]
        out += [_masked_sup(w, ~in_phi), _masked_sup(w, ~in_psi)]
        for slot, (sym, inside) in enumerate(((phi, in_phi), (psi, in_psi))):
            if np.any(inside):
                out[slot] = max(out[slot], _peak(zeros, sym, r, side))
        return np.array(out), (not np.any(in_phi), not np.any(in_psi),
                               not np.any(~in_phi), not np.any(~in_psi))

    coarse, _ = sups(side)
    fine, empties = sups(2 * side)
    return coarse, fine, empties


def _two_pass_weighted(omega, phi, zeros, r, side):
    """Reference for ``weighted_upper_certificate``: (sup_b, delta0) on the
    coarse and the fine grid, and the two empty flags of the fine grid."""
    def sups(s):
        phi_v = _sup_values(phi, s)
        inside = np.abs(phi_v) <= r
        sup_b = _masked_sup(np.abs(cd.blaschke_eval(zeros, phi_v)), inside)
        if np.any(inside):
            sup_b = max(sup_b, _peak(zeros, phi, r, side))
        om = np.abs(eval_array(omega, phi_v))
        delta0 = _masked_sup(np.where(np.isfinite(om), om, 0.0), ~inside)
        return (sup_b, delta0), (not np.any(inside), not np.any(~inside))

    coarse, _ = sups(side)
    fine, empties = sups(2 * side)
    return coarse, fine, empties


def _stable(coarse, fine):
    coarse, fine = np.asarray(coarse), np.asarray(fine)
    return bool(np.all(np.abs(fine - coarse) <= 0.02 * np.maximum(fine, 1e-300)))


SMOOTH_PAIR = (cd.half_map(), cd.power_perturbation(3, 0.005))
W_VALUES_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "w_values_sha256.json").read_text())
UPPER_SUPS = ("sup_B_phi", "sup_B_psi", "sup_w_phi", "sup_w_psi")
# (n, r) pairs from the default r grid's range plus both extremes
N_R_PAIRS = ((8, 0.6), (12, 0.9), (16, 0.99), (24, 0.999), (8, 1 - 1e-5))


class TestFineGridSups:
    @pytest.mark.parametrize("side", [64, 8192])
    def test_coarse_grid_nests_in_fine_grid(self, side):
        fine_t = sup_grid(2 * side)
        assert np.array_equal(_coarse_of_fine(fine_t, side), sup_grid(side))
        if side == bounds._SUP_SAMPLES:
            assert np.array_equal(fine_t[bounds._COARSE_POSITIONS],
                                  sup_grid(side))
        for symbol in (*SMOOTH_PAIR, cd.corner_map()):
            assert np.array_equal(
                _coarse_of_fine(_sup_values(symbol, 2 * side), side),
                _sup_values(symbol, side)), symbol.name

    @pytest.mark.parametrize("n,r", N_R_PAIRS)
    def test_upper_matches_two_pass_reference(self, n, r):
        phi, psi = SMOOTH_PAIR
        side = bounds._SUP_SAMPLES
        for zeros in bounds._candidate_zero_layouts(phi, psi, n, r):
            coarse, fine, empties = _two_pass_sups(zeros, phi, psi, r, side)
            for slot, sym in enumerate((phi, psi)):
                inside = np.abs(_sup_values(sym, 2 * side)) <= r
                assert bounds._blaschke_sups(zeros, sym, r, inside) == (
                    coarse[slot], fine[slot], empties[slot])
            cert = cd.upper_certificate(phi, psi, n, r, zeros)
            assert [cert.fields[key] for key in UPPER_SUPS] == list(fine)
            assert cert.flags["stable_within_2pct"] == _stable(coarse, fine)
            assert cert.flags["empty_sets"] == [
                name for name, e in zip(["B_phi", "B_psi", "w_phi", "w_psi"],
                                        empties) if e]

    @pytest.mark.parametrize("r", [0.3, 0.6])
    def test_upper_matches_reference_with_empty_sets(self, r):
        # |dilation(0.5)| = 0.5 on the circle: nothing inside at r = 0.3,
        # nothing outside at r = 0.6
        phi, psi = cd.half_map(), cd.dilation(0.5)
        zeros = cd.BlaschkeProduct(np.array([0.1, -0.2j, 0.3 + 0.1j]))
        coarse, fine, empties = _two_pass_sups(zeros, phi, psi, r,
                                               bounds._SUP_SAMPLES)
        cert = cd.upper_certificate(phi, psi, 4, r, zeros)
        assert [cert.fields[key] for key in UPPER_SUPS] == list(fine)
        assert cert.flags["stable_within_2pct"] == _stable(coarse, fine)
        expected = [name for name, e in zip(["B_phi", "B_psi", "w_phi", "w_psi"],
                                            empties) if e]
        assert cert.flags["empty_sets"] == expected
        assert expected == (["B_psi"] if r == 0.3 else ["w_psi"])

    @pytest.mark.parametrize("n,r", N_R_PAIRS + ((8, 0.5),))
    def test_weighted_matches_two_pass_reference(self, n, r):
        for omega, phi in ((cd.weight_power(1), cd.half_map()),
                           (cd.weight_power(2), cd.half_map()),
                           (cd.weight_power(1), cd.dilation(0.3))):
            zeros = cd.blaschke_zeros_for_symbol(phi, r, n)
            coarse, fine, empties = _two_pass_weighted(omega, phi, zeros, r,
                                                       bounds._SUP_SAMPLES)
            cert = cd.weighted_upper_certificate(omega, phi, n, r, zeros)
            assert (cert.fields["sup_B_phi"], cert.fields["delta0"]) == fine
            assert cert.flags["stable_within_2pct"] == _stable(coarse, fine)
            assert cert.flags["empty_sets"] == [
                name for name, e in zip(["B_phi", "delta0"], empties) if e]

    @staticmethod
    def _notch():
        # phi = (z - e^{i t0}) / 2 with t0 a fine-grid angle between two
        # coarse ones of the default side: phi(e^{i t0}) = 0 is kept by the
        # fine grid at r = 0.001 and no coarse point is
        side = bounds._SUP_SAMPLES
        t0 = sup_grid(2 * side)[-2]
        assert not bounds._COARSE_POSITIONS[-2]
        return cd.Symbol("notch", Product((Const(0.5), Sum((Var(), Const(
            -np.exp(1j * t0)))))))

    def test_sublevel_set_seen_only_by_the_fine_grid(self):
        # the fine grid keeps one point and the coarse grid none, so the peak
        # candidates count for the fine sup only
        phi = self._notch()
        zeros = cd.BlaschkeProduct(np.array([0.5, 0.2j]))
        coarse, fine, empties = _two_pass_weighted(
            cd.weight_power(1), phi, zeros, 0.001, bounds._SUP_SAMPLES)
        assert coarse[0] == 0 < fine[0] and empties == (False, False)
        inside = np.abs(_sup_values(phi, 2 * bounds._SUP_SAMPLES)) <= 0.001
        assert bounds._blaschke_sups(zeros, phi, 0.001, inside) == (
            coarse[0], fine[0], False)
        cert = cd.weighted_upper_certificate(cd.weight_power(1), phi, 3, 0.001,
                                             zeros)
        assert (cert.fields["sup_B_phi"], cert.fields["delta0"]) == fine
        assert not cert.flags["stable_within_2pct"]

    def test_peak_candidates_from_the_grid_that_kept_points(self):
        # at the default side the fine grid sup_grid(16384) is finer than the
        # 4096-sample level curve, which is empty at r = 0.001
        phi = self._notch()
        with pytest.raises(ValueError, match="empty"):
            _level_curve(phi, 0.001)
        cert = cd.upper_certificate(phi, cd.half_map(), 2, 0.001,
                                    cd.BlaschkeProduct([0]))
        assert cert.fields["sup_B_phi"] == 0.0 and cert.flags["empty_sets"] == []
        # a zero at 0.5 gives |B(0)| = 0.5 at the one kept point
        weighted = cd.weighted_upper_certificate(
            cd.weight_power(1), phi, 2, 0.001, cd.BlaschkeProduct([0.5]))
        assert weighted.fields["sup_B_phi"] == pytest.approx(0.5, rel=1e-15)
        assert weighted.flags["empty_sets"] == []
        assert not weighted.flags["stable_within_2pct"]

    def test_mpmath_fallback_runs_on_the_fine_grid_only(self, monkeypatch):
        # the coarse w-sups are read off the fine grid's samples, so one
        # certificate pays the 64 mpmath points of one grid, not two
        from compdiff import series

        calls = []
        real = series.boundary_rho_mp

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(series, "boundary_rho_mp", counting)
        bounds._w_values.cache_clear()
        bounds._sup_values.cache_clear()
        phi, psi = cd.half_map(), cd.power_perturbation(2.5, 0.005)
        cd.upper_certificate(phi, psi, 8, 0.9, split_zeros(phi, psi, 8, 0.9))
        assert len(calls) == bounds._W_MP_POINTS == 64

    @pytest.mark.parametrize("pair", sorted(W_VALUES_SHA256))
    def test_w_values_pinned(self, pair):
        # every pair reaches the mpmath re-evaluation; no certificate pin
        # sees those samples (at alpha = 2.5 they peak at 2.8e-5 against a
        # reliable sup of 2.8e-2), so the raw array is pinned instead
        phi, psi = (cd.parse_symbol(spec) for spec in pair.split(" vs "))
        w = bounds._w_values(phi, psi, 2 * bounds._SUP_SAMPLES)
        assert hashlib.sha256(w.tobytes()).hexdigest() == W_VALUES_SHA256[pair]

    def test_grid_points_passed_to_blaschke_lie_in_sublevel_set(self, monkeypatch):
        calls, candidates = [], []
        real_eval = bounds.blaschke_eval
        real_candidates = bounds._blaschke_peak_candidates

        def spy_eval(product, z):
            calls.append(np.asarray(z))
            return real_eval(product, z)

        def spy_candidates(zeros, curve, s):
            out = real_candidates(zeros, curve, s)
            candidates.append(out)
            return out

        monkeypatch.setattr(bounds, "blaschke_eval", spy_eval)
        monkeypatch.setattr(bounds, "_blaschke_peak_candidates", spy_candidates)
        phi, psi = SMOOTH_PAIR
        side = bounds._SUP_SAMPLES
        for n, r in N_R_PAIRS:
            calls.clear()
            candidates.clear()
            cd.upper_certificate(phi, psi, n, r, split_zeros(phi, psi, n, r))
            cd.weighted_upper_certificate(cd.weight_power(1), phi, n, r,
                                          cd.blaschke_zeros_for_symbol(phi, r, n))
            grid_calls = [z for z in calls
                          if not any(z is c for c in candidates)]
            assert len(grid_calls) == 3  # B o phi, B o psi, then B o phi again
            assert len(calls) == 3 + len(candidates)
            for z, sym in zip(grid_calls, (phi, psi, phi)):
                assert np.all(np.abs(z) <= r), (n, r, sym.name)
                assert len(z) == np.count_nonzero(
                    np.abs(_sup_values(sym, 2 * side)) <= r)


class TestBoundaryArrayCaches:
    WEIGHTED = (cd.weight_power(1.6), cd.half_map())

    def test_weighted_search_evaluates_omega_on_phi_once(self, monkeypatch):
        from compdiff.experiments import DEFAULT_R_GRID

        omega, phi = self.WEIGHTED
        fine = _sup_values(phi, 2 * bounds._SUP_SAMPLES)
        calls = []
        real = bounds.eval_array

        def spy(symbol, z):
            calls.append((symbol, z))
            return real(symbol, z)

        monkeypatch.setattr(bounds, "eval_array", spy)
        bounds._composed_moduli.cache_clear()
        assert len(DEFAULT_R_GRID) == 17
        for n in (8, 12):  # the second n adds no evaluation
            cd.optimize_weighted_upper(omega, phi, n, DEFAULT_R_GRID)
            assert [(sym, z is fine) for sym, z in calls] == [(omega, True)]

    def test_arc_length_once_per_level_curve(self, monkeypatch):
        from compdiff.experiments import DEFAULT_R_GRID

        calls = []
        real = bounds.cumulative_hyperbolic_length

        def spy(pts):
            calls.append(pts)
            return real(pts)

        monkeypatch.setattr(bounds, "cumulative_hyperbolic_length", spy)
        bounds._level_curve.cache_clear()
        omega, phi = self.WEIGHTED
        for n in (8, 12):
            cd.optimize_weighted_upper(omega, phi, n, DEFAULT_R_GRID)
        assert len(calls) == bounds._level_curve.cache_info().misses == 17
        for r in DEFAULT_R_GRID:
            curve, s = _level_curve(phi, r)
            assert np.array_equal(s, real(curve))

    @pytest.mark.parametrize("alpha", [1.0, 1.6])
    @pytest.mark.parametrize("n,r", N_R_PAIRS)
    def test_weighted_reads_match_direct_recomputation(self, alpha, n, r):
        # the cached |omega o phi|, |phi| and |omega| against a recomputation
        # from the symbols, with no cache in between
        from compdiff.operators import operator_norm_bound
        from compdiff.series import eval_boundary

        omega, phi = cd.weight_power(alpha), cd.half_map()
        side = bounds._SUP_SAMPLES
        zeros = cd.blaschke_zeros_for_symbol(phi, r, n)
        cert = cd.weighted_upper_certificate(omega, phi, n, r, zeros)

        phi_v = eval_boundary(phi, sup_grid(2 * side))
        om = np.abs(eval_array(omega, phi_v))
        delta0 = _masked_sup(np.where(np.isfinite(om), om, 0.0),
                             ~(np.abs(phi_v) <= r))
        om_sup = np.abs(eval_boundary(omega, sup_grid(side)))
        omega_sup = float(om_sup[np.isfinite(om_sup)].max())
        sup_b = _two_pass_weighted(omega, phi, zeros, r, side)[1][0]
        norm_phi = operator_norm_bound(phi)
        value = math.sqrt(sup_b ** 2 * (omega_sup * norm_phi) ** 2
                          + delta0 ** 2 * norm_phi ** 2)
        assert cert.fields["delta0"] == delta0
        assert cert.fields["omega_sup"] == omega_sup
        assert cert.value == value

    def test_cached_arrays_are_read_only(self):
        omega, phi = self.WEIGHTED
        arrays = [bounds._sup_moduli(phi, 2 * bounds._SUP_SAMPLES),
                  bounds._composed_moduli(omega, phi), *_level_curve(phi, 0.9)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestOptimizeUpper:
    def test_minimum_of_trace(self):
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        grid = 1.0 - np.geomspace(1e-4, 0.3, 9)
        best = cd.optimize_upper(phi, psi, 12, grid)
        assert best.value == min(v for _, v in best.fields["trace"])

    def test_interior_minimiser_on_smooth_pair(self):
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        grid = sorted(1.0 - np.geomspace(1e-5, 0.4, 13))
        best = cd.optimize_upper(phi, psi, 16, grid)
        assert grid[0] < best.r < grid[-1]

    def test_ties_go_to_the_smallest_r(self):
        flat = cd.Certificate(kind="upper", n=1, r=None, value=1.0,
                              value_theorem=None, fields={}, flags={})
        best, trace = bounds._search_r(
            [0.9, 0.5, 0.7], lambda r: [replace(flat, r=r)])
        assert best.r == 0.5
        assert trace == [[0.5, 1.0], [0.7, 1.0], [0.9, 1.0]]

    def test_grid_order_does_not_matter(self):
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        grid = [0.99, 0.9, 0.95]
        for search in (
                lambda g: cd.optimize_upper(phi, psi, 8, g),
                lambda g: cd.optimize_weighted_upper(cd.weight_power(1), phi, 8, g)):
            assert search(grid).to_dict() == search(grid[::-1]).to_dict()

    def test_layouts_without_a_level_curve_are_left_out(self):
        # psi is an automorphism, so {|psi| <= r} is empty for every r < 1:
        # the split layout cannot be built, the single-curve one can
        phi, psi = cd.half_map(), cd.mobius(0.3 + 0.2j)
        layouts = bounds._candidate_zero_layouts(phi, psi, 8, 0.6)
        assert len(layouts) == 1
        assert np.array_equal(layouts[0].zeros,
                              cd.blaschke_zeros_for_symbol(phi, 0.6, 8).zeros)
        best = cd.optimize_upper(phi, psi, 8, [0.6, 0.9])
        assert best.r == 0.6
        assert best.value == pytest.approx(6.385109, rel=1e-6)
        assert best.flags["empty_sets"] == ["B_psi"]

    def test_no_layout_with_a_level_curve_raises(self):
        with pytest.raises(ValueError, match="empty on the circle"):
            bounds._candidate_zero_layouts(cd.mobius(0.5), cd.mobius(0.3), 8, 0.6)

    def test_both_layouts_when_both_curves_exist(self):
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        split, single = bounds._candidate_zero_layouts(phi, psi, 8, 0.9)
        assert np.array_equal(split.zeros, split_zeros(phi, psi, 8, 0.9).zeros)
        assert np.array_equal(single.zeros,
                              cd.blaschke_zeros_for_symbol(phi, 0.9, 8).zeros)

    def test_corner_optimal_gap_tracks_log_n_over_n(self):
        phi, psi = cd.corner_map(), cd.corner_perturbation(0.01)
        grid = 1.0 - np.geomspace(1e-4, 0.5, 17)
        for n in (32, 64, 128):
            best = cd.optimize_upper(phi, psi, n, grid)
            gap = 1.0 - best.r
            ratio = gap / (math.log(n) / n)
            assert 0.1 <= ratio <= 10.0, (n, gap)


class TestDisconnectedLevelSet:
    def test_odd_two_lobe_symbol_splits(self):
        # 0.3 z + 0.6 z^3: |phi| dips to 0.3 near t = +-pi/2 and the two
        # sublevel arcs map to disjoint neighbourhoods of -+0.3i
        from compdiff.series import Const, IntPower, Product, Sum, Symbol, Var
        expr = Sum((Product((Const(0.3), Var())),
                    Product((Const(0.6), IntPower(Var(), 3)))))
        two_lobe = Symbol("two_lobe", expr)
        with pytest.raises(DisconnectedLevelSet):
            cd.blaschke_zeros_for_symbol(two_lobe, 0.35, 8)

    @staticmethod
    def _quintic(c5):
        from compdiff.series import Const, IntPower, Product, Sum, Symbol, Var
        return Symbol("quintic", Sum((Product((Const(0.5), Var())),
                                      Product((Const(c5), IntPower(Var(), 5))))))

    @pytest.mark.parametrize("c5, kept", [(0.01, 326), (-0.01, 8168)],
                             ids=["inner", "wrapping"])
    def test_close_runs_join_in_circular_order(self, c5, kept):
        # 0.5 z + c5 z^5 at r = 0.5095: the kept samples fall into four
        # circular runs whose image endpoints lie at most 0.15 apart; for
        # c5 < 0 one run wraps through t = +-pi, so it leads the curve
        phi, r = self._quintic(c5), 0.5095
        values = _sup_values(phi, 4096)
        keep = np.abs(values) <= r
        idx = np.nonzero(keep)[0]
        runs = 1 + np.count_nonzero(np.diff(idx) > 1) - int(keep[0] and keep[-1])
        assert len(idx) == kept and runs == 4
        if keep[0] and keep[-1]:
            idx = np.roll(idx, np.argmin(keep[::-1]))
        curve, _ = _level_curve(phi, r)
        assert curve.tobytes() == values[idx].tobytes()

    def test_wrapped_runs_that_do_not_meet_split(self):
        # the wrapping symbol at r = 0.505: consecutive runs lie 0.369 apart
        with pytest.raises(DisconnectedLevelSet, match=r"gap 0\.369\)"):
            _level_curve(self._quintic(-0.01), 0.505)

    def test_empty_sublevel_set(self):
        with pytest.raises(ValueError):
            cd.blaschke_zeros_for_symbol(cd.dilation(0.5), 0.3, 8)

    def test_full_circle_sublevel_set(self):
        # zeros sit on the sampled polyline, a hair inside the image circle
        b = cd.blaschke_zeros_for_symbol(cd.dilation(0.5), 0.9, 8)
        assert b.degree == 7
        np.testing.assert_allclose(np.abs(b.zeros), 0.5, atol=1e-3)


class TestHsNorm:
    def test_equal_symbols_zero(self):
        h = cd.hs_norm(cd.half_map(), cd.half_map())
        assert h.value == 0 and not h.diverged

    def test_dilation_pairs_match_parseval(self):
        for a, b in ((0.5, 0.25), (0.3, 0.6), (0.8, 0.4)):
            h = cd.hs_norm(cd.dilation(a), cd.dilation(b))
            oracle = hs_parseval_sum(cd.dilation(a), cd.dilation(b), 64)
            assert h.converged and not h.diverged
            assert h.value == pytest.approx(oracle, rel=1e-5)

    def test_divergence_below_critical_exponent(self):
        h = cd.hs_norm(cd.half_map(), cd.power_perturbation(2.2, 0.005))
        assert h.diverged and h.value == math.inf

    def test_dichotomy_flip(self):
        below = cd.hs_norm(cd.half_map(), cd.power_perturbation(2.4, 0.005))
        above = cd.hs_norm(cd.half_map(), cd.power_perturbation(2.6, 0.005))
        assert below.diverged and not above.diverged

    @pytest.mark.parametrize("other", [
        cd.dilation(2.0),  # boundary modulus 2
        cd.power_perturbation(8, 0.0075),  # boundary modulus 1.92
    ], ids=lambda s: s.name)
    def test_refuses_symbols_that_are_not_self_maps(self, other):
        for phi, psi in ((cd.half_map(), other), (other, cd.half_map())):
            with pytest.raises(NotSelfMap):
                cd.hs_norm(phi, psi)


class TestWeightedUpper:
    def test_zero_weight(self):
        phi = cd.dilation(0.3)
        zeros = cd.blaschke_zeros_for_symbol(phi, 0.5, 8)
        cert = cd.weighted_upper_certificate(cd.constant(0), phi, 8, 0.5, zeros)
        assert cert.value == 0

    def test_unit_weight_reduces_to_single_operator(self):
        phi = cd.dilation(0.3)
        zeros = cd.blaschke_zeros_for_symbol(phi, 0.5, 8)
        cert = cd.weighted_upper_certificate(cd.weight_power(0), phi, 8, 0.5, zeros)
        assert cert.fields["delta0"] == 0  # |phi| never exceeds r = 0.5
        assert cert.value == pytest.approx(
            cert.fields["sup_B_phi"] * cert.fields["norm_phi"], rel=1e-14)

    def test_delta0_power_scaling(self):
        # omega = (1-z): delta0(0.99) matches (1-r)^{1/2} = 0.1 within factor 5
        phi = cd.half_map()
        zeros = cd.blaschke_zeros_for_symbol(phi, 0.99, 8)
        cert = cd.weighted_upper_certificate(cd.weight_power(1), phi, 8, 0.99,
                                             zeros)
        assert 0.1 / 5 <= cert.fields["delta0"] <= 0.1 * 5


class TestWeightedLower:
    def test_unit_weight_matches_formula(self):
        phi = cd.half_map()
        pts = cd.sequence_boundary_pinch(16)
        cert = cd.weighted_lower_certificate(cd.weight_power(0), phi, pts)
        z = pts.points
        w = eval_array(phi, z)
        inf_ratio = ((1 - np.abs(z) ** 2) / (1 - np.abs(w) ** 2)).min()
        assert cert.fields["inf_ratio"] == pytest.approx(inf_ratio, rel=1e-12)

    def test_unit_weight_is_the_single_term_bound_bit_for_bit(self):
        # |1|^2 * (1-|z|^2) is (1-|z|^2) exactly, so omega = 1 reproduces a
        # direct single-term computation to the last bit
        phi = cd.half_map()
        pts = cd.sequence_boundary_pinch(32)
        cert = cd.weighted_lower_certificate(cd.constant(1.0), phi, pts)
        z = pts.points
        w = eval_array(phi, z)
        inf_ratio = float(((1.0 - np.abs(z) ** 2) / (1.0 - np.abs(w) ** 2)).min())
        delta_z = cd.uniform_separation(pts)
        delta_w = cd.uniform_separation(cd.PointSequence(w))
        carl_z = cd.carleson_norm(pts)
        m_w = math.sqrt(cd.carleson_norm(cd.PointSequence(w))) / delta_w
        value_cf = (delta_w * math.sqrt(inf_ratio)
                    / math.sqrt((1.0 + math.log(1.0 / delta_w))
                                * (1.0 + math.log(1.0 / delta_z))))
        assert cert.kind == "weighted_lower"
        np.testing.assert_array_equal(cert.fields["W"], w)
        assert cert.fields["inf_ratio"] == inf_ratio
        assert cert.value_theorem == math.sqrt(inf_ratio) / (m_w * math.sqrt(carl_z))
        assert cert.value == value_cf

    def test_unweighted_ratio_is_the_sum_of_two_unit_weight_terms(self):
        phi, psi = cd.half_map(), cd.power_perturbation(3, 0.005)
        pts = cd.sequence_boundary_pinch(32)
        cert = cd.lower_certificate(phi, psi, pts)
        singles = [cd.weighted_lower_certificate(cd.constant(1.0), s, pts)
                   for s in (phi, psi)]
        base = 1.0 - np.abs(pts.points) ** 2
        ratios = [base / (1.0 - np.abs(s.fields["W"]) ** 2) for s in singles]
        assert cert.kind == "lower"
        np.testing.assert_array_equal(
            cert.fields["W"], np.concatenate([s.fields["W"] for s in singles]))
        assert ([s.fields["inf_ratio"] for s in singles]
                == [float(r.min()) for r in ratios])
        assert cert.fields["inf_ratio"] == float((ratios[0] + ratios[1]).min())

    def test_power_weight_rate(self):
        # value ~ n^-alpha for omega = (1-z)^alpha on the pinch sequence
        omega, phi = cd.weight_power(1), cd.half_map()
        values = {}
        for n in (16, 32, 64):
            cert = cd.weighted_lower_certificate(
                omega, phi, cd.sequence_boundary_pinch(2 * n))
            values[n] = cert.value
        for n in (16, 32):
            ratio = values[2 * n] / values[n]
            assert 0.25 <= ratio <= 0.75  # ~ 2^-1 with slack

    def test_inf_attained_at_far_index(self):
        omega, phi = cd.weight_power(2), cd.half_map()
        pts = cd.sequence_boundary_pinch(64)
        z = pts.points
        ratio = (np.abs(eval_array(omega, z)) ** 2
                 * (1 - np.abs(z) ** 2)
                 / (1 - np.abs(eval_array(phi, z)) ** 2))
        assert int(np.argmin(ratio)) == 0  # j = 1 in the sequence ordering

    def test_zero_weight_at_a_point(self):
        cert = cd.weighted_lower_certificate(cd.identity(), cd.dilation(0.5),
                                             [0.0, 0.3])
        assert cert.value_theorem == 0 and cert.value == 0

    def test_collision(self):
        with pytest.raises(CollidingImages):
            cd.weighted_lower_certificate(cd.weight_power(1), cd.constant(0.5),
                                          [0.1, 0.2])


def _toy_spectra():
    build = lambda m: cd.composition_matrix(cd.dilation(0.5), m)  # noqa: E731
    s = cd.convergence_horizon(build, 16)
    return s


def _block_one(u0, u1, phi0, phi1, n, s_diff, s0, s1):
    """Block k = 1 of the triangular bound: the bound on
    a_n(M_u0 C_phi0 - M_u1 C_phi1) (block 0 reads n = 4)."""
    return cd.triangular_bound(u0, u1, phi0, phi1, [4, n],
                               s_diff, s0, s1).block_terms[1]


class TestWeightedDifferenceBound:
    def test_equal_weights(self):
        s_diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(cd.dilation(0.5), cd.dilation(0.25), m), 16)
        s_phi = _toy_spectra()
        u = cd.constant(0.5)
        got = _block_one(u, u, cd.dilation(0.5), cd.dilation(0.25), 4,
                         s_diff, s_phi, s_phi)
        assert got == pytest.approx(0.5 * s_diff.sigma(4), rel=1e-12)

    def test_equal_symbols(self):
        phi = cd.dilation(0.5)
        # C_phi - C_phi = 0: a zero spectrum trusted to its order
        s_diff = cd.SingularSpectrum(np.zeros(16), order=16, horizon=16)
        s_phi = _toy_spectra()
        u0, u1 = cd.constant(0.5), cd.constant(0.25)
        got = _block_one(u0, u1, phi, phi, 4, s_diff, s_phi, s_phi)
        assert got == pytest.approx(0.25 * s_phi.sigma(4), rel=1e-12)

    def test_swap_symmetry(self):
        s_diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(cd.dilation(0.5), cd.dilation(0.25), m), 16)
        s_phi = _toy_spectra()
        s_psi = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.25), m), 16)
        u0, u1 = cd.constant(0.5), cd.dilation(0.5)
        a = _block_one(u0, u1, cd.dilation(0.5), cd.dilation(0.25), 4,
                       s_diff, s_phi, s_psi)
        b = _block_one(u1, u0, cd.dilation(0.25), cd.dilation(0.5), 4,
                       s_diff, s_psi, s_phi)
        assert a == pytest.approx(b, rel=1e-12)

    def test_horizon_guard(self):
        # the default enforce_horizons=True path: n = 17 lies past both
        # horizons (15 for the difference, 16 for C_phi)
        s_diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(cd.dilation(0.5), cd.dilation(0.25), m), 16)
        s_phi = _toy_spectra()
        with pytest.raises(HorizonExceeded):
            _block_one(cd.constant(0.5), cd.constant(0.5), cd.dilation(0.5),
                       cd.dilation(0.25), 17, s_diff, s_phi, s_phi)


class TestTriangularBound:
    def _spectra(self):
        phi0, phi1 = cd.dilation(0.5), cd.dilation(0.25)
        s_diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(phi0, phi1, m), 16)
        s0 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi0, m), 16)
        s1 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi1, m), 16)
        return phi0, phi1, s_diff, s0, s1

    def test_tail_only_single_block(self):
        phi0, phi1, s_diff, s0, s1 = self._spectra()
        u = cd.constant(0.5)
        tb = cd.triangular_bound(u, u, phi0, phi1, [4], s_diff, s0, s1)
        assert tb.index == 4
        assert tb.tail == pytest.approx(
            0.5 * (cd.operator_norm_bound(phi0) + cd.operator_norm_bound(phi1)),
            rel=1e-12)
        assert tb.value == max(tb.block_terms[0], tb.tail) == tb.tail

    def test_constant_weight_tail_geometric(self):
        phi0, phi1, s_diff, s0, s1 = self._spectra()
        c = 0.5
        u = cd.constant(c)
        for k_top in (1, 2, 3):
            sizes = [4] * (k_top + 1)
            tb = cd.triangular_bound(u, u, phi0, phi1, sizes, s_diff, s0, s1)
            expected_tail = c ** (k_top + 1) * (
                cd.operator_norm_bound(phi0) + cd.operator_norm_bound(phi1))
            assert tb.tail == pytest.approx(expected_tail, rel=1e-12)
            assert tb.index == sum(sizes) - k_top

    def test_block_one_is_the_weighted_difference_bound(self):
        # block k = 1 bounds M_u0 C_phi0 - M_u1 C_phi1 itself
        phi0, phi1, s_diff, s0, s1 = self._spectra()
        u0, u1 = cd.constant(0.5), cd.dilation(0.5)
        tb = cd.triangular_bound(u0, u1, phi0, phi1, [4, 6], s_diff, s0, s1)
        assert tb.block_terms[1] == weighted_difference_bound(
            u0, u1, 6, s_diff, s0, s1)

    def test_weight_norm_guard(self):
        phi0, phi1, s_diff, s0, s1 = self._spectra()
        with pytest.raises(WeightTooLarge):
            cd.triangular_bound(cd.constant(1.2), cd.constant(0.5),
                                phi0, phi1, [4], s_diff, s0, s1)
