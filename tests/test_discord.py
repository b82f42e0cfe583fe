import math

import numpy as np
import pytest

from gausslind.discord import (
    discord,
    discord_squeezed,
    entropy_kernel,
    max_classical_info,
    mutual_information,
)
from gausslind.errors import BelowHeisenbergError, DomainError
from gausslind.symplectic import (
    CovarianceBlock,
    SqueezingState,
    covariance_from_squeezing,
    purity,
    sigma_theta,
    squeezing_from_covariance,
)

from conftest import discord_from_particles, random_block

LN2 = math.log(2.0)

# (r, phi, lam) whose block's det lies within the representation noise of
# its entries: the block reads as pure
SNAPPED = [(6.0, 0.3, 1.0), (8.0, 0.3, 1.0), (9.0, 0.3, 1e6), (11.0, -0.7, 1e8)]

# frozen 50-digit values of the exact closed form (mpmath, dps=50)
D_R1_LAM4 = 1.31118902714392746809932731989
D_R07_LAM25 = 0.632340846702067045795844446022


class TestEntropyKernel:
    def test_anchors(self):
        assert entropy_kernel(1.0) == 0.0
        assert abs(entropy_kernel(3.0) - 2.0) < 1e-14
        assert abs(entropy_kernel(2.0) - 1.3774437510817343) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_kernel(0.9)
        assert entropy_kernel(1.0 - 1e-10) == 0.0

    def test_large_argument_crossover(self):
        # value frozen from 50-digit arithmetic
        assert abs(entropy_kernel(1e6) - 20.374263610212897) < 1e-12
        lo = entropy_kernel(1e6 * (1 - 1e-9))
        hi = entropy_kernel(1e6 * (1 + 1e-9))
        assert abs(hi - lo) < 1e-7  # continuous

    def test_monotone(self):
        xs = np.geomspace(1.0 + 1e-12, 1e12, 200)
        vals = [entropy_kernel(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDiscordExact:
    def test_zero_in_reference_partition(self, rng):
        for _ in range(200):
            b = random_block(rng)
            assert discord(b, 0.0).discord < 1e-12

    @pytest.mark.parametrize("r, phi, lam", SNAPPED)
    def test_snapped_block_vanishes_in_reference_partition(self, r, phi, lam):
        # det sits below the representation noise of these entries, so the
        # purity snap fires; it must set sigma(theta) as well as sigma(0)
        b = covariance_from_squeezing(SqueezingState(r, phi, lam))
        assert discord(b, 0.0).discord <= 1e-12
        assert abs(mutual_information(b, 0.0)) <= 1e-12
        assert abs(max_classical_info(b, 0.0)) <= 1e-12

    @pytest.mark.parametrize("r, phi, lam", SNAPPED)
    def test_every_reader_sees_one_lam(self, r, phi, lam):
        b = covariance_from_squeezing(SqueezingState(r, phi, lam))
        assert b.lam == 1.0
        assert purity(b) == 1.0
        assert sigma_theta(b, 0.0) ** 2 == 1.0
        assert discord(b, 0.0).sigma_zero ** 2 == 1.0

    def test_pure_state_reduces_to_kernel(self, rng):
        for _ in range(50):
            r = rng.uniform(0.0, 4.0)
            phi = rng.uniform(-1.5, 1.5)
            theta = rng.uniform(-math.pi, math.pi)
            b = covariance_from_squeezing(SqueezingState(r, phi, 1.0))
            st = math.sqrt(max(b.det, 1.0) * math.cos(2 * theta) ** 2
                           + (0.5 * (b.g11 + b.g22)) ** 2 * math.sin(2 * theta) ** 2)
            want = entropy_kernel(st)
            assert abs(discord(b, theta).discord - want) < 1e-12 * max(1.0, want)

    def test_mixed_state_frozen_oracle(self):
        b = covariance_from_squeezing(SqueezingState(1.0, 0.0, 4.0))
        got = discord(b, -math.pi / 4)
        assert abs(got.discord - D_R1_LAM4) < 1e-12
        got2 = discord_squeezed(0.7, 2.5, 0.4)
        assert abs(got2.discord - D_R07_LAM25) < 1e-12

    def test_log_domain_matches_block_domain(self, rng):
        for _ in range(30):
            r = rng.uniform(0.01, 5.0)
            lam = rng.uniform(1.0, 1e4)
            theta = rng.uniform(-math.pi, math.pi)
            b = covariance_from_squeezing(SqueezingState(r, 0.3, lam))
            d1 = discord(b, theta).discord
            d2 = discord_squeezed(r, lam, theta).discord
            assert abs(d1 - d2) < 1e-9 * max(1.0, d1)

    def test_extreme_squeezing_no_overflow(self):
        res = discord_squeezed(300.0, 1e200, -math.pi / 4)
        assert math.isfinite(res.discord) and res.discord > 0.0
        assert math.isfinite(res.log_sigma_theta)


class TestDiscordPure:
    """Pure states: discord_squeezed(r, 1, theta)."""

    def test_zeros(self):
        assert discord_squeezed(2.0, 1.0, 0.0).discord == 0.0
        assert discord_squeezed(0.0, 1.0, 1.1).discord == 0.0

    def test_formula_across_r(self):
        for r in np.linspace(0.0, 30.0, 31):
            want = entropy_kernel(math.sqrt(
                1.0 + math.sinh(2 * r) ** 2 * math.sin(-math.pi / 2) ** 2))
            got = discord_squeezed(float(r), 1.0, -math.pi / 4).discord
            assert abs(got - want) < 1e-10 * max(1, want)

    def test_leading_order_large_r(self):
        # 2r/ln2 to leading order; the exact value carries a
        # -(2 - 1/ln2) offset (TestAsymptotics pins it)
        got = discord_squeezed(50.0, 1.0, math.pi / 4).discord
        assert abs(got - 2.0 * 50.0 / LN2) < 1.0
        # fifty e-folds of the inflationary attractor mean r = 100, which
        # is where the often-quoted ~290 bits ("order 300") comes from
        got = discord_squeezed(100.0, 1.0, math.pi / 4).discord
        assert abs(got - 4.0 * 50.0 / LN2) < 1.0


class TestMutualInformationAndJ:
    def test_zero_at_reference(self, rng):
        for _ in range(20):
            b = random_block(rng)
            assert abs(mutual_information(b, 0.0)) < 1e-12
            assert abs(max_classical_info(b, 0.0)) < 1e-12

    def test_pure_state_doubling(self, rng):
        for _ in range(20):
            b = covariance_from_squeezing(
                SqueezingState(rng.uniform(0.1, 3.0), rng.uniform(-1, 1), 1.0))
            theta = rng.uniform(-1.5, 1.5)
            i = mutual_information(b, theta)
            d = discord(b, theta).discord
            assert abs(i - 2.0 * d) < 1e-10 * max(1.0, i)
            j = max_classical_info(b, theta)
            assert abs(j - d) < 1e-10 * max(1.0, d)  # J = f(sigma) - f(1)

    def test_balanced_mixed_state(self):
        b = CovarianceBlock(2.0, 0.0, 2.0)
        assert abs(mutual_information(b, math.pi / 4)) < 1e-12

    def test_difference_is_discord(self, rng):
        for _ in range(100):
            b = random_block(rng)
            theta = rng.uniform(-math.pi, math.pi)
            i = mutual_information(b, theta)
            j = max_classical_info(b, theta)
            d = discord(b, theta).discord
            assert abs((i - j) - d) < 1e-12 * max(1.0, abs(i), abs(d))


class TestAsymptotics:
    """The paper's two limits of the exact discord at large squeezing,
    with rho = e^{2r} |sin 2theta| / sqrt(lam)."""

    def test_high_squeezing_regime(self):
        # rho >> 1: D = 2r/ln2 + log2(sqrt(lam)/4) + 1/ln2 - 2 f(sqrt(lam)),
        # up to O(r e^{-2r} sqrt(lam)) from f(mix)
        for lam in (1.0, 4.0, math.exp(10.0)):
            const = (0.5 * math.log(lam) - 2.0 * LN2 + 1.0) / LN2 \
                - 2.0 * entropy_kernel(math.sqrt(lam))
            for r in (20.0, 50.0, 300.0):
                got = discord_squeezed(r, lam, math.pi / 4).discord
                assert abs(got - (2.0 * r / LN2 + const)) <= 1e-13 * got

    def test_low_squeezing_regime(self):
        # rho << 1: D 2 ln2 / rho = 1 + O(rho), at full relative precision
        # down to D ~ 1e-100
        r = 10.0
        for rho in (1e-1, 1e-3, 1e-10, 1e-50, 1e-100):
            lam = math.exp(2.0 * (2.0 * r - math.log(rho)))
            got = discord_squeezed(r, lam, math.pi / 4).discord
            assert abs(got * 2.0 * LN2 / rho - 1.0) <= rho + 1e-13

    def test_suppression_criterion(self):
        # purity << e^{-4r} marks where decoherence wins: discord across
        # the boundary drops by orders of magnitude
        r = 8.0
        strong = discord_squeezed(r, math.exp(4 * r + 6), -math.pi / 4).discord
        weak = discord_squeezed(r, math.exp(4 * r - 6), -math.pi / 4).discord
        assert strong < 0.1 * weak

    def test_validity_floor(self):
        with pytest.raises(DomainError):
            discord_squeezed(-1.0, 1.0, 0.4)
        with pytest.raises(DomainError):
            discord_squeezed(6.0, 0.5, 0.4)

    @pytest.mark.parametrize("r, lam, theta", [
        (6.0, 1.0, math.pi / 4),            # high
        (6.0, 1.0, 0.0),                    # sin 2theta = 0
        (5.0, math.exp(40.0), math.pi / 4),  # low
        (6.0, math.exp(24.0), math.pi / 4),  # crossover
    ])
    def test_sigmas_are_their_logs(self, r, lam, theta):
        res = discord_squeezed(r, lam, theta)
        assert res.sigma_theta == math.exp(res.log_sigma_theta)
        assert res.sigma_zero == math.exp(res.log_sigma_zero)


@pytest.mark.parametrize("call", [
    lambda: discord(CovarianceBlock(2.0, 0.5, 3.0), math.nan),
    lambda: mutual_information(CovarianceBlock(2.0, 0.5, 3.0), math.inf),
    lambda: max_classical_info(CovarianceBlock(2.0, 0.5, 3.0), math.nan),
    lambda: discord_squeezed(math.nan, 1.0, 0.4),
    lambda: discord_squeezed(6.0, math.nan, 0.4),
    lambda: discord_squeezed(6.0, math.inf, 0.4),
    lambda: discord_squeezed(6.0, 1.0, math.nan),
    lambda: discord_squeezed(math.inf, 1.0, 0.4),
    lambda: discord_squeezed(2.0, 1.0, math.nan),
], ids=["discord-theta", "mutual_information-theta", "max_classical_info-theta",
        "squeezed-r", "squeezed-lam", "squeezed-lam-inf", "squeezed-theta",
        "pure-r", "pure-theta"])
def test_non_finite_input_raises(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("read", [
    purity,
    lambda b: sigma_theta(b, 0.4),
    lambda b: discord(b, 0.4),
    lambda b: mutual_information(b, 0.4),
    lambda b: max_classical_info(b, 0.4),
    squeezing_from_covariance,
], ids=["purity", "sigma_theta", "discord", "mutual_information", "max_classical_info",
        "squeezing_from_covariance"])
def test_sub_heisenberg_block_raises(read):
    with pytest.raises(BelowHeisenbergError):
        read(CovarianceBlock(1.0, 0.0, 0.5))  # det 0.5


class TestInvariants:
    def test_periodicity_and_symmetry(self, rng):
        for _ in range(10):
            b = random_block(rng)
            theta = rng.uniform(-1.0, 1.0)
            d0 = discord(b, theta).discord
            assert abs(discord(b, theta + math.pi / 2).discord - d0) < 1e-10 * max(1, d0)
            assert abs(discord(b, math.pi / 2 - theta).discord - d0) < 1e-10 * max(1, d0)

    def test_maximal_at_quarter_pi(self, rng):
        for _ in range(10):
            b = random_block(rng)
            dmax = discord(b, -math.pi / 4).discord
            for theta in np.linspace(-math.pi, math.pi, 21):
                assert discord(b, float(theta)).discord <= dmax * (1 + 1e-12) + 1e-12

    def test_particle_number_formula(self, rng):
        # r <= 2: beyond that the determinant noise of the stored block
        # (e^{4r} eps) exceeds the 1e-12 agreement being asserted
        for _ in range(20):
            b = covariance_from_squeezing(
                SqueezingState(rng.uniform(0.05, 2.0), rng.uniform(-1, 1), 1.0))
            theta = rng.uniform(-1.5, 1.5)
            d1 = discord(b, theta).discord
            d2 = discord_from_particles(b, theta)
            assert abs(d1 - d2) < 1e-12 * max(1.0, d1)

    def test_monotone_in_lam(self):
        for r in (0.5, 2.0, 10.0):
            prev = math.inf
            for lam in np.geomspace(1.0, 1e6, 13):
                d = discord_squeezed(r, float(lam), -math.pi / 4).discord
                assert d <= prev * (1 + 1e-12)
                prev = d
