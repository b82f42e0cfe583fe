import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslind.errors import (
    BelowHeisenbergError,
    DegenerateSqueezingError,
    DomainError,
)
from gausslind.symplectic import (
    CovarianceBlock,
    ParticleStatistics,
    SqueezingState,
    _ln_q,
    covariance_from_squeezing,
    particle_statistics,
    purity,
    sigma_theta,
    squeezing_from_covariance,
    stable_det2,
)
from gausslind.cosmology import de_sitter_covariance_closed
from gausslind.discord import discord

from conftest import random_block
from oracle import J, partition_matrix

angles_st = st.floats(-10.0, 10.0, allow_nan=False)


def one_angle(theta):
    """The one-angle family: the four-angle partition at
    (alpha, beta, delta) = (0, 2 theta - pi/2, pi/2)."""
    return partition_matrix(0.0, 2.0 * theta - 0.5 * math.pi, 0.5 * math.pi, theta)


def in_partition(b: CovarianceBlock, T):
    """T diag(B, B) T^T of the reference block b, split into (A, B, C):
    the reduced covariances of the two subsystems and their correlation."""
    g = np.array([[b.g11, b.g12], [b.g12, b.g22]])
    z = np.zeros((2, 2))
    m = T @ np.block([[g, z], [z, g]]) @ T.T
    return m[:2, :2], m[2:, 2:], m[:2, 2:]


class TestPartitionMatrices:
    def test_reference_partition_is_identity(self):
        np.testing.assert_allclose(partition_matrix(0.0, 0.0, 0.0, 0.0), np.eye(4),
                                   atol=1e-15)
        np.testing.assert_allclose(one_angle(0.0), np.eye(4), atol=1e-15)

    def test_opposite_mode_partition_matches_one_param(self):
        T4 = partition_matrix(0.0, math.pi, math.pi / 2, -math.pi / 4)
        np.testing.assert_allclose(T4, one_angle(-math.pi / 4), atol=1e-14)

    def test_one_param_family_embedding(self):
        theta = 0.3
        T4 = partition_matrix(0.0, 1.5 * math.pi + 2 * theta, math.pi / 2, theta)
        np.testing.assert_allclose(T4, one_angle(theta), atol=1e-14)

    def test_one_param_is_the_four_angle_family(self):
        # the 4x4 literal of the one-angle family, entry by entry
        eps = np.finfo(float).eps
        for theta in np.linspace(-math.pi, math.pi, 2001).tolist():
            ct, st = math.cos(theta), math.sin(theta)
            c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
            literal = np.array([
                [ct, 0.0, 0.0, st],
                [0.0, ct, -st, 0.0],
                [st * s2, st * c2, ct * c2, -ct * s2],
                [-st * c2, st * s2, ct * s2, ct * c2],
            ])
            assert np.abs(one_angle(theta) - literal).max() <= 4.0 * eps

    def test_one_param_symplectic(self):
        T = one_angle(0.7)
        assert np.abs(T @ J @ T.T - J).max() < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(angles_st, angles_st, angles_st, angles_st)
    def test_general_partition_always_symplectic_unit_det(self, a, b, d, t):
        T = partition_matrix(a, b, d, t)
        assert np.abs(T @ J @ T.T - J).max() < 1e-12
        assert abs(np.linalg.det(T) - 1.0) < 1e-12


class TestTransformCovariance:
    def test_vacuum_partition_invariant(self):
        a, b, c = in_partition(CovarianceBlock.vacuum(), one_angle(-math.pi / 4))
        np.testing.assert_allclose(np.block([[a, c], [c.T, b]]), np.eye(4), atol=1e-14)

    def test_matches_direct_matmul(self):
        # the closed form against the matrix product, at the opposite-mode split
        blk = CovarianceBlock(2.0, 1.0, 1.0)
        a, b, c = in_partition(blk, one_angle(-math.pi / 4))
        assert sigma_theta(blk, -math.pi / 4) ** 2 == pytest.approx(np.linalg.det(a),
                                                                    rel=1e-14)
        # the cross block carries half the diagonal difference
        assert abs(c[0, 0] - 0.5 * (blk.g11 - blk.g22)) < 1e-14

    def test_det_preserved_many_random(self, rng):
        for _ in range(100):
            b = random_block(rng)
            a, bb, c = in_partition(b, partition_matrix(*rng.uniform(-3, 3, 4)))
            det = np.linalg.det(np.block([[a, c], [c.T, bb]]))
            assert abs(det / b.det ** 2 - 1.0) < 1e-10


class TestPartitionBlocks:
    def test_reference_partition_uncorrelated(self):
        blk = CovarianceBlock(2.0, 1.0, 1.0)
        a, _, c = in_partition(blk, one_angle(0.0))
        np.testing.assert_allclose(a, [[2.0, 1.0], [1.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(c, np.zeros((2, 2)), atol=1e-15)

    def test_opposite_mode_balanced(self):
        a, _, _ = in_partition(CovarianceBlock(2.0, 1.0, 1.0), one_angle(-math.pi / 4))
        np.testing.assert_allclose(a, 1.5 * np.eye(2), atol=1e-14)

    def test_assembly_matches_transform(self, rng):
        # the blocks in closed form: A and B symmetric, C symmetric and traceless
        for _ in range(25):
            blk = random_block(rng)
            theta = rng.uniform(-math.pi, math.pi)
            g11, g12, g22 = blk.g11, blk.g12, blk.g22
            ct2, st2 = math.cos(theta) ** 2, math.sin(theta) ** 2
            c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
            c4, s4 = math.cos(4.0 * theta), math.sin(4.0 * theta)
            hd, hs = 0.5 * (g11 - g22), 0.5 * (g11 + g22)
            c11, c12 = hd * s2 ** 2 + 0.5 * g12 * s4, -0.5 * hd * s4 + g12 * s2 ** 2
            b11, b12 = hs + hd * c2 * c4 - g12 * c2 * s4, g12 * c2 * c4 + hd * c2 * s4
            want = np.block([
                [np.array([[g11 * ct2 + g22 * st2, g12 * c2],
                           [g12 * c2, g22 * ct2 + g11 * st2]]),
                 np.array([[c11, c12], [c12, -c11]])],
                [np.array([[c11, c12], [c12, -c11]]),
                 np.array([[b11, b12], [b12, 2.0 * hs - b11]])],
            ])
            a, b, c = in_partition(blk, one_angle(theta))
            np.testing.assert_allclose(np.block([[a, c], [c.T, b]]), want,
                                       atol=1e-12 * max(1, g22))

    def test_trace_preserved(self, rng):
        for _ in range(25):
            b = random_block(rng)
            a, bb, _ = in_partition(b, one_angle(rng.uniform(-math.pi, math.pi)))
            total = np.trace(a) + np.trace(bb)
            assert abs(total - 2.0 * (b.g11 + b.g22)) < 1e-10 * (b.g11 + b.g22)

    def test_sigma_theta_is_the_partition(self, rng):
        # the closed form that every discord reads: sigma(theta)^2 = det A
        # = det B and q = det A - sigma(0)^2 of the 4x4 partition
        for _ in range(2000):
            blk = random_block(rng, r_max=5.0)
            theta = -rng.uniform(-math.pi, math.pi)  # (-pi, pi]
            a, b, _ = in_partition(blk, one_angle(theta))
            det_a, det_b = np.linalg.det(a), np.linalg.det(b)
            assert sigma_theta(blk, theta) ** 2 == pytest.approx(det_a, rel=1e-8)
            assert sigma_theta(blk, theta) ** 2 == pytest.approx(det_b, rel=1e-8)
            q = math.exp(_ln_q(blk.g11, blk.g12, blk.g22, theta))
            assert abs(q - (det_a - blk.lam)) <= 1e-8 * det_a


class TestPurity:
    def test_vacuum(self):
        assert purity(CovarianceBlock.vacuum()) == 1.0

    def test_mixed(self):
        assert abs(purity(CovarianceBlock(2.0, 0.0, 2.0)) - 0.25) < 1e-15

    @pytest.mark.parametrize("x", [0.3, 1.0, 3.0, 30.0])
    def test_free_de_sitter_pure(self, x):
        # double-precision entries limit how small x can get here; the
        # trajectory purity uses the transported determinant instead
        assert abs(purity(de_sitter_covariance_closed(x)) - 1.0) < 1e-10

    def test_below_heisenberg(self):
        with pytest.raises(BelowHeisenbergError):
            purity(CovarianceBlock(1.0, 0.0, 0.5))

    def test_non_positive_definite_rejected_at_construction(self):
        with pytest.raises(BelowHeisenbergError):
            CovarianceBlock(1.0, 10.0, 1.0)
        with pytest.raises(BelowHeisenbergError):
            CovarianceBlock(-1.0, 0.0, 1.0)

    def test_clamp_window(self):
        assert purity(CovarianceBlock(1.0 - 1e-10, 0.0, 1.0)) == 1.0

    def test_lam_band(self):
        # the band is max(1e-9, 64 eps ((g11+g22)/2)^2) on either side of 1
        assert CovarianceBlock(1.0 + 5e-10, 0.0, 1.0).lam == 1.0
        assert CovarianceBlock(1.0 + 2e-9, 0.0, 1.0).lam == 1.0 + 2e-9
        wide = CovarianceBlock(1e4, 0.0, 1e-4 * (1.0 - 1e-7))  # band 3.6e-7
        assert wide.lam == 1.0
        with pytest.raises(BelowHeisenbergError):
            CovarianceBlock(1e4, 0.0, 1e-4 * (1.0 - 1e-6)).lam


class TestOverflowingDeterminant:
    """Finite entries beyond ~1e154 overflow the determinant: every reader
    of it raises DomainError instead of returning NaN."""

    BLOCK = (1e200, 1e199, 1e200)

    def test_block_constructs(self):
        assert math.isnan(stable_det2(*self.BLOCK))
        CovarianceBlock(*self.BLOCK)

    @pytest.mark.parametrize("read", [
        purity,
        lambda b: sigma_theta(b, 0.3),
        lambda b: discord(b, -math.pi / 4),
        squeezing_from_covariance,
        lambda b: b.lam,
    ], ids=["purity", "sigma_theta", "discord", "squeezing_from_covariance", "lam"])
    def test_readers_raise(self, read):
        with pytest.raises(DomainError, match="overflows"):
            read(CovarianceBlock(*self.BLOCK))


class TestSqueezingState:
    @pytest.mark.parametrize("r, phi, lam", [
        (math.nan, 0.0, 1.0), (math.inf, 0.0, 1.0),
        (1.0, math.nan, 1.0), (1.0, -math.inf, 1.0),
        (1.0, 0.0, math.nan), (1.0, 0.0, math.inf),
        (-0.5, 0.0, 1.0),
    ], ids=["r-nan", "r-inf", "phi-nan", "phi-inf", "lam-nan", "lam-inf", "r-negative"])
    def test_bad_input_raises_domain_error(self, r, phi, lam):
        with pytest.raises(DomainError):
            SqueezingState(r, phi, lam)

    def test_lam_below_one(self):
        with pytest.raises(BelowHeisenbergError):
            SqueezingState(1.0, 0.0, 0.5)

    def test_lam_floored_within_slack(self):
        assert SqueezingState(1.0, 0.0, 1.0 - 1e-10).lam == 1.0
        assert SqueezingState(1.0, 0.0, 3.0).lam == 3.0


class TestSigmaTheta:
    def test_vacuum_flat(self):
        for theta in (0.0, 0.3, -math.pi / 4):
            assert abs(sigma_theta(CovarianceBlock.vacuum(), theta) - 1.0) < 1e-14

    def test_cos_term_vanishes(self):
        assert abs(sigma_theta(CovarianceBlock(2.0, 0.0, 1.0), math.pi / 4) - 1.5) < 1e-14

    def test_pure_squeezed_hyperbolic(self):
        b = covariance_from_squeezing(SqueezingState(1.0, 0.0, 1.0))
        want = math.cosh(2.0)  # sqrt(1 + sinh^2) at full mixing angle
        assert abs(sigma_theta(b, math.pi / 4) - want) < 1e-12 * want

    def test_entries_beyond_1e154(self):
        # det = 10 but q = (1e200/2)^2 is not a double: sigma(theta) and
        # the discord come from ln q, which squares no entry
        b = CovarianceBlock(1e200, 0.0, 1e-199)
        assert sigma_theta(b, math.pi / 4) == pytest.approx(0.5e200, rel=1e-14)
        assert discord(b, math.pi / 4).log_sigma_theta == pytest.approx(
            math.log(0.5e200), rel=1e-15)

    def test_theta_zero_is_sqrt_det(self, rng):
        for _ in range(20):
            b = random_block(rng)
            assert abs(sigma_theta(b, 0.0) ** 2 - max(b.det, 1.0)) < 1e-10 * b.det

    def test_minimum_at_zero(self, rng):
        for _ in range(20):
            b = random_block(rng)
            s0 = sigma_theta(b, 0.0)
            for theta in np.linspace(-math.pi, math.pi, 17):
                assert sigma_theta(b, theta) >= s0 - 1e-12 * s0


class TestParticleStatistics:
    def test_vacuum(self):
        stats = particle_statistics(CovarianceBlock.vacuum())
        assert stats.n == 0.0 and stats.c == 0.0

    def test_de_sitter_crossing(self):
        stats = particle_statistics(de_sitter_covariance_closed(1.0))
        assert abs(stats.n - 0.25) < 1e-14
        assert abs(stats.c - (0.25 + 0.5j)) < 1e-14
        assert abs(abs(stats.c) ** 2 - stats.n * (stats.n + 1.0)) < 1e-14

    def test_generalized_occupation(self, rng):
        for _ in range(25):
            r = rng.uniform(0.0, 3.0)
            lam = rng.uniform(1.0, 100.0)
            b = covariance_from_squeezing(SqueezingState(r, rng.uniform(-1, 1), lam))
            stats = particle_statistics(b)
            want = math.sqrt(lam) * math.cosh(2.0 * r)
            assert abs(2.0 * stats.n + 1.0 - want) < 1e-12 * want

    def test_correlation_identity(self, rng):
        # 4|c|^2 = (2n+1)^2 - lam for every block
        for _ in range(50):
            b = random_block(rng)
            stats = particle_statistics(b)
            lhs = 4.0 * abs(stats.c) ** 2
            rhs = (2.0 * stats.n + 1.0) ** 2 - b.det
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) < 1e-10 * scale


class TestSqueezingConversions:
    def test_vacuum_degenerate(self):
        with pytest.raises(DegenerateSqueezingError):
            squeezing_from_covariance(CovarianceBlock.vacuum())

    def test_round_trip_through_covariance(self):
        b = covariance_from_squeezing(SqueezingState(1.0, math.pi / 4, 1.0))
        s = squeezing_from_covariance(b)
        assert abs(s.r - 1.0) < 1e-12
        assert abs(s.phi - math.pi / 4) < 1e-12
        assert abs(s.lam - 1.0) < 1e-12

    @pytest.mark.parametrize("r", [1e-6, 1e-3, 0.5, 5.0, 30.0])
    @pytest.mark.parametrize("lam", [1.0, 7.3, 1e4, 1e8])
    def test_round_trip_grid(self, r, lam):
        phi = 0.37
        b = covariance_from_squeezing(SqueezingState(r, phi, lam))
        back = covariance_from_squeezing(squeezing_from_covariance(b))
        for got, want in ((back.g11, b.g11), (back.g12, b.g12), (back.g22, b.g22)):
            scale = max(abs(want), 1e-30)
            assert abs(got - want) < 1e-12 * scale

    def test_de_sitter_amplitude(self):
        s = squeezing_from_covariance(de_sitter_covariance_closed(1.0))
        assert abs(s.r - 0.5 * math.acosh(1.5)) < 1e-12

    def test_forward_examples(self):
        b = covariance_from_squeezing(SqueezingState(0.0, 1.23, 1.0))
        assert (b.g11, b.g12, b.g22) == (1.0, -0.0, 1.0) or \
            np.allclose([b.g11, b.g12, b.g22], [1.0, 0.0, 1.0], atol=1e-15)
        b = covariance_from_squeezing(SqueezingState(1.0, 0.0, 1.0))
        assert abs(b.g11 - math.exp(-2.0)) < 1e-14
        assert abs(b.g22 - math.exp(2.0)) < 1e-13
        b = covariance_from_squeezing(SqueezingState(1.0, math.pi / 4, 4.0))
        assert abs(b.g12 + 2.0 * math.sinh(2.0)) < 1e-12

    def test_det_equals_lam(self, rng):
        # the entries encode the determinant with e^{4r} eps of intrinsic
        # noise, so the strict tolerance applies at moderate squeezing
        for _ in range(30):
            lam = rng.uniform(1.0, 1e6)
            b = covariance_from_squeezing(
                SqueezingState(rng.uniform(0, 2), rng.uniform(-1.5, 1.5), lam))
            assert abs(b.det / lam - 1.0) < 1e-12

    def test_stable_det2_formation_rounding(self):
        # exact integer-valued entries with full cancellation: the naive
        # products round at 2^54 while the compensated form is exact
        a = float(2 ** 27 + 1)
        g11, g12, g22 = a, a + 1.0, a + 2.0  # det = a(a+2) - (a+1)^2 = -1
        assert stable_det2(g11, g12, g22) == -1.0
        naive = g11 * g22 - g12 ** 2
        assert naive != -1.0

    def test_particle_statistics_type(self):
        stats = ParticleStatistics.vacuum()
        assert stats.n == 0.0
