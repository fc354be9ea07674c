import cmath
import math

import numpy as np
import pytest

from pascal_spiral import (
    DenominatorError,
    DiskGrid,
    DiskReport,
    PascalParams,
    PowerSeries,
    RTauParams,
    SpiralClassParams,
    adaptive_truncation_order,
    convex_spiral_functional,
    default_grid,
    extremal_rtau_series,
    hadamard_convolve,
    integral_transform,
    spiral_functional,
    theta_series,
    verify_on_disk,
)
from pascal_spiral import disk
from pascal_spiral.disk import DEFAULT_RADII, DENOMINATOR_FLOOR, _num_den, _ring_values
from pascal_spiral.series import derivative_coeffs

FLAT = SpiralClassParams(0.0, 0.0, 0.0)


def _tight_theta(m, q):
    p = PascalParams(m, q)
    return theta_series(p, adaptive_truncation_order(p, 1e-10, 0.995))


class TestGrid:
    def test_default_grid_shape(self):
        g = default_grid()
        assert g.angles_per_ring == 720
        assert max(g.radii) == 0.995
        assert g.point_count == len(g.radii) * 720

    def test_rejects_boundary_radius(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=(0.5, 0.9995))

    def test_rejects_sparse_angles(self):
        with pytest.raises(ValueError):
            DiskGrid(angles_per_ring=4)

    def test_requires_integer_angles(self):
        # 8.5 once gave point_count 8.5 while 9 unevenly spaced angles were
        # checked
        with pytest.raises(TypeError):
            DiskGrid(angles_per_ring=8.5)
        assert DiskGrid((0.5,), np.int64(8)).point_count == 8


class TestSpiralFunctional:
    def test_identity_series_constant(self):
        c = SpiralClassParams(0.4, 0.3, 0.2)
        v = spiral_functional(PowerSeries(), 0.2 + 0.5j, c)
        assert v == pytest.approx((1 - 0.3) * math.cos(0.4), rel=1e-14)

    def test_koebe_closed_form(self):
        # zf'/f = (1+z)/(1-z) for the Koebe function; truncation error ~ 2e-2
        koebe = PowerSeries(np.arange(2.0, 201.0))
        v = spiral_functional(koebe, 0.5, FLAT)
        assert abs(v - 3.0) < 2e-2

    def test_rho_near_one_limit(self):
        c = SpiralClassParams(0.3, 0.2, 0.999)
        f = theta_series(PascalParams(2, 0.3), 200)
        v = spiral_functional(f, 0.4j, c)
        assert abs(v - (1 - 0.2) * math.cos(0.3)) < 5e-2

    def test_rejects_z_outside_disk(self):
        with pytest.raises(ValueError):
            spiral_functional(PowerSeries(), 1.0, FLAT)


class TestConvexFunctional:
    def test_identity_series_constant(self):
        c = SpiralClassParams(0.4, 0.3, 0.2)
        v = convex_spiral_functional(PowerSeries(), 0.5, c)
        assert v == pytest.approx((1 - 0.3) * math.cos(0.4), rel=1e-14)

    def test_convex_example(self):
        f = PowerSeries([0.25])  # z + z^2/4
        v = convex_spiral_functional(f, 0.9, FLAT)
        assert v == pytest.approx(1.9 / 1.45, rel=1e-12)

    def test_alexander_consistency_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            order = rng.integers(3, 25)
            n = np.arange(2.0, order + 1.0)
            coeffs = (
                rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1)
            ) * 0.1 / n**2
            f = PowerSeries(coeffs)
            g = integral_transform(f)
            r = rng.uniform(0.05, 0.9)
            phi = rng.uniform(0, 2 * math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            c = SpiralClassParams(
                rng.uniform(-1.2, 1.2), rng.uniform(0, 0.9), rng.uniform(0, 0.9)
            )
            assert abs(
                convex_spiral_functional(g, z, c) - spiral_functional(f, z, c)
            ) < 1e-10


class TestSymmetry:
    def test_conjugate_symmetry_at_xi_zero(self):
        c = SpiralClassParams(0.0, 0.25, 0.3)
        f = _tight_theta(2, 0.4)
        rng = np.random.default_rng(3)
        for _ in range(30):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(0.01, 0.7))
            assert abs(
                spiral_functional(f, z.conjugate(), c) - spiral_functional(f, z, c)
            ) < 1e-12

    def test_conjugation_flips_spiral_angle(self):
        f = _tight_theta(2, 0.4)
        z = 0.3 + 0.5j
        a = spiral_functional(f, z.conjugate(), SpiralClassParams(0.6, 0.25, 0.3))
        b = spiral_functional(f, z, SpiralClassParams(-0.6, 0.25, 0.3))
        assert abs(a - b) < 1e-12


class TestVerifyOnDisk:
    def test_identity_passes_with_constant_min(self):
        c = SpiralClassParams(0.4, 0.3, 0.2)
        rep = verify_on_disk(PowerSeries(), c, "S")
        assert rep.passed
        assert rep.min_value == pytest.approx((1 - 0.3) * math.cos(0.4), rel=1e-12)
        assert rep.points_checked == default_grid().point_count

    def test_theta_near_tight_point_passes(self):
        rep = verify_on_disk(_tight_theta(1, 0.381966), FLAT, "S")
        assert rep.passed

    def test_adversarial_a2_fails_with_witness(self):
        rep = verify_on_disk(PowerSeries([3.0]), FLAT, "S", tail_check=False)
        assert not rep.passed
        assert rep.min_value < 0
        w = rep.witness
        v = spiral_functional(PowerSeries([3.0]), w, FLAT)
        assert v == pytest.approx(rep.min_value, rel=1e-12)

    def test_denominator_error_scalar(self):
        # f = z + 3z^2 vanishes at z = -1/3
        with pytest.raises(DenominatorError):
            spiral_functional(PowerSeries([3.0]), -1.0 / 3.0, FLAT)

    def test_refuses_coarse_truncation(self):
        koebe = PowerSeries(np.arange(2.0, 201.0))
        with pytest.raises(ValueError, match="truncation too coarse"):
            verify_on_disk(koebe, FLAT, "S")

    def test_refinement_never_raises_min(self):
        f = _tight_theta(2, 0.5)
        c = SpiralClassParams(0.5, 0.2, 0.1)
        coarse = verify_on_disk(f, c, "S", DiskGrid(angles_per_ring=90))
        fine = verify_on_disk(f, c, "S", DiskGrid(angles_per_ring=180))
        assert fine.min_value <= coarse.min_value

    def test_deterministic_witness(self):
        f = _tight_theta(2, 0.5)
        a = verify_on_disk(f, FLAT, "K")
        b = verify_on_disk(f, FLAT, "K")
        assert a == b

    def test_denominator_failure_reported(self):
        # f'(z) = 1 + 2 a2 z vanishes inside the disk for a2 = 1 at z = -1/2
        f = PowerSeries([1.0])
        rep = verify_on_disk(
            f, FLAT, "K", DiskGrid(radii=(0.5,), angles_per_ring=8),
            tail_check=False,
        )
        assert not rep.passed
        assert rep.note == "denominator vanished at witness"
        assert rep.witness == pytest.approx(-0.5)

    def test_invalid_family(self):
        with pytest.raises(ValueError):
            verify_on_disk(PowerSeries(), FLAT, "X")


def _ring_by_ring_verify(f, c, family, grid, tolerance):
    """The ring-by-ring walk with a running minimum, kept as the reference
    for the one-pass verify_on_disk (tail check left out)."""
    radii = tuple(sorted(grid.radii))
    phase = cmath.exp(1j * c.xi)
    level = c.gamma * math.cos(c.xi)
    k = grid.angles_per_ring
    angles = np.exp(2j * math.pi * np.arange(k) / k)
    best = math.inf
    witness = complex(radii[0])
    checked = 0
    for r in radii:
        z = r * angles
        num, den = _num_den(f, z, c, family)
        bad = np.abs(den) <= DENOMINATOR_FLOOR
        if bad.any():
            j = int(np.argmax(bad))
            return DiskReport(
                -math.inf, complex(z[j]), False, checked, "denominator vanished at witness"
            )
        vals = (phase * num / den).real - level
        checked += k
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            witness = complex(z[j])
    passed = best > -tolerance
    return DiskReport(
        best, witness, passed, checked, "no violation found" if passed else "violation at witness"
    )


def _seeded_disk_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(48):
        kind = ("theta", "integral", "lambda-rtau", "random")[i % 4]
        if kind == "random":
            order = int(rng.integers(2, 40))
            n = np.arange(2.0, order + 1.0)
            f = PowerSeries(
                (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1))
                * rng.uniform(0.05, 2.0) / n ** rng.uniform(0.5, 2.5)
            )
        else:
            f = _tight_theta(rng.uniform(1.0, 6.0), rng.uniform(0.05, 0.6))
            if kind == "integral":
                f = integral_transform(f)
            elif kind == "lambda-rtau":
                r = RTauParams(complex(*rng.uniform(-1.5, 1.5, 2)), rng.uniform(0.2, 1.0))
                f = hadamard_convolve(f, extremal_rtau_series(r, f.order))
        c = SpiralClassParams(
            rng.uniform(-1.4, 1.4), rng.uniform(0.0, 0.95), rng.uniform(0.0, 0.95)
        )
        if i % 3 == 0:
            grid = default_grid()
        else:
            # unsorted, with a repeated radius
            radii = list(rng.uniform(0.05, 0.995, int(rng.integers(1, 8))))
            radii += radii[:1]
            grid = DiskGrid(tuple(radii), int(rng.integers(8, 721)))
        cases.append((f, c, "SK"[i % 2 ^ (i // 4) % 2], grid))
    return cases


@pytest.mark.parametrize("case", range(48))
def test_one_pass_matches_ring_by_ring(case):
    # the FFT screen picks the Horner walk's witness; min_value is the
    # scalar functional there, so its last digits are Horner's at one point,
    # not the screen's
    f, c, family, grid = _seeded_disk_cases()[case]
    expected = _ring_by_ring_verify(f, c, family, grid, 1e-6)
    got = verify_on_disk(f, c, family, grid, tail_check=False)
    assert (got.witness, got.passed, got.note, got.points_checked) == (
        expected.witness, expected.passed, expected.note, expected.points_checked
    )
    assert math.copysign(1.0, got.witness.imag) == math.copysign(1.0, expected.witness.imag)
    functional = spiral_functional if family == "S" else convex_spiral_functional
    assert got.min_value == functional(f, got.witness, c)
    assert got.min_value == pytest.approx(expected.min_value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family, a2", [("S", 2.0), ("K", 1.0)])
def test_denominator_exit_counts_the_rings_before_it(family, a2):
    # z + 2z^2 (S) and 1 + 2z (K, the derivative of z + z^2) vanish at
    # z = -1/2, angle index 5 of the ring of radius 0.5 with 10 angles
    f = PowerSeries([a2])
    grid = DiskGrid(radii=(0.9, 0.5, 0.3, 0.2, 0.5), angles_per_ring=10)
    rep = verify_on_disk(f, FLAT, family, grid, tail_check=False)
    assert rep == _ring_by_ring_verify(f, FLAT, family, grid, 1e-6)
    assert rep.note == "denominator vanished at witness"
    assert rep.points_checked == 20
    assert rep.witness == pytest.approx(-0.5)


def test_denominator_vanishing_at_the_witness_alone_fails_there(monkeypatch):
    # the screen sees no vanishing denominator; Horner's rule at its witness
    # does (the scalar f' is made to read 0 there, so the K denominator
    # f' + rho zf'' is 0 at rho = 0)
    f = PowerSeries([0.1])
    grid = DiskGrid(radii=(0.3, 0.6), angles_per_ring=8)
    screened = verify_on_disk(f, FLAT, "K", grid, tail_check=False)
    assert screened.note == "no violation found"
    assert screened.witness == pytest.approx(-0.6)
    monkeypatch.setattr(disk, "evaluate_d1", lambda f, z: 0j)
    rep = verify_on_disk(f, FLAT, "K", grid, tail_check=False)
    assert rep == DiskReport(
        -math.inf, screened.witness, False, 8, "denominator vanished at witness"
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_all_nan_grid_fails_at_first_point():
    # every value overflows to nan; the ring-by-ring walk skipped rings
    # whose minimum was nan and passed this grid with min_value = inf
    f = PowerSeries([1e308] * 400)
    rep = verify_on_disk(f, FLAT, "S", DiskGrid((0.1, 0.999), 16), tail_check=False)
    assert not rep.passed
    assert math.isnan(rep.min_value)
    assert rep.witness == 0.1
    assert rep.points_checked == 32


def _ring_cases():
    # (series, radii, angles per ring, sampled rings, sampled angles)
    rng = np.random.default_rng(3301)
    wide = PowerSeries(rng.normal(size=39) + 1j * rng.normal(size=39))  # N = 40
    short = PowerSeries(rng.normal(size=19) + 1j * rng.normal(size=19))  # N = 20
    theta = _tight_theta(2, 0.99)  # N = 1,693, above the 720 angles
    return {
        "order-above-angles": (wide, (0.3, 0.9, 0.999), 8, range(3), range(8)),
        "prime-angles-folded": (wide, (0.5, 0.95), 37, range(2), range(37)),
        "prime-angles": (short, (0.2, 0.999), 37, range(2), range(37)),
        "theta-q-0.99-default-grid": (
            theta, DEFAULT_RADII, 720, (0, 8, 11), (0, 1, 181, 360, 719)
        ),
    }


@pytest.mark.parametrize("case", list(_ring_cases()))
def test_rings_match_a_30_digit_sum(case):
    # sampled FFT ring values of f, f' and f'' against their defining sums
    # at 30 digits, in units of sum_n |c_n| r^n: folds (orders above the
    # angle count), a prime angle count, and a default-grid theta
    mpmath = pytest.importorskip("mpmath")
    f, radii, k, rings, angles = _ring_cases()[case]
    values = _ring_values(f, (0, 1, 2), radii, k)
    assert values.shape == (3, len(radii) * k)
    with mpmath.workdps(30):
        for d in (0, 1, 2):
            coeffs = derivative_coeffs(f, d)
            mp_coeffs = [
                mpmath.mpf(a.real) if a.imag == 0 else mpmath.mpc(a) for a in coeffs[::-1]
            ]
            for i in rings:
                r = radii[i]
                scale = float(np.sum(np.abs(coeffs) * r ** np.arange(coeffs.size)))
                for j in angles:
                    z = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / k)
                    exact = complex(mpmath.polyval(mp_coeffs, z))
                    assert abs(values[d, i * k + j] - exact) <= 1e-15 * scale, (d, r, j)
