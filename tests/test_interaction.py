import math
import pickle

import numpy as np
import pytest

from triswarm import (
    LennardJonesParams,
    lj_derivative,
    lj_force,
    lj_potential,
    linear_spring,
    saturated_lennard_jones,
    validate_assumption1,
)
from triswarm.errors import DomainError, InvalidInputError
from triswarm.interaction import saturation_knot

from .oracles import adaptive_simpson

R_A = (1.0 + math.sqrt(3.0)) / 2.0
PARAMS = LennardJonesParams()


class TestForce:
    def test_zero_at_unit_root(self):
        assert lj_force(1.0, PARAMS) == 0.0

    def test_saturates_to_one_near_zero(self):
        assert lj_force(1e-3, PARAMS) == 1.0
        assert lj_force(0.5, PARAMS) == 1.0

    def test_value_at_two(self):
        expected = 0.5 / 2**24 - 0.5 / 2**12
        assert lj_force(2.0, PARAMS) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(-1.2204e-4, rel=1e-4)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            lj_force(0.0, PARAMS)
        with pytest.raises(DomainError):
            lj_force(np.array([1.0, -0.5]), PARAMS)

    def test_capped_by_saturation_with_flat_left_interval(self):
        z = np.linspace(1e-3, 3.0, 2000)
        f = lj_force(z, PARAMS)
        assert np.all(f <= PARAMS.saturation)
        assert np.count_nonzero(f == PARAMS.saturation) > 1

    def test_root_follows_parameter_ratio(self):
        p = LennardJonesParams(a=1.0, b=0.25, c=4)
        assert p.root == pytest.approx((1.0 / 0.25) ** 0.25)
        assert lj_force(p.root, p) == pytest.approx(0.0, abs=1e-15)


class TestDerivative:
    def test_slope_at_root(self):
        # closed form: -2c*a + c*b = -12 + 6 with the default parameters
        assert lj_derivative(1.0, PARAMS) == pytest.approx(-6.0, rel=1e-14)

    def test_zero_on_saturated_branch(self):
        assert lj_derivative(0.5, PARAMS) == 0.0

    def test_central_difference_check(self):
        h = 1e-5
        for z in (1.1, 1.3, R_A, 2.0):
            fd = (lj_force(z + h, PARAMS) - lj_force(z - h, PARAMS)) / (2 * h)
            assert abs(lj_derivative(z, PARAMS) - fd) <= 1e-6


class TestSaturationKnot:
    def test_crossing_value(self):
        knot = saturation_knot(PARAMS)
        assert lj_force(knot, PARAMS) == pytest.approx(1.0, abs=1e-12)
        # analytic solution for a = b = 0.5, saturation 1: z = 2^(-1/12)
        assert knot == pytest.approx(2.0 ** (-1.0 / 12.0), rel=1e-13)

    def test_knot_tracks_the_cap(self):
        # a lower cap saturates further out; the knot still sits on the cap
        p = LennardJonesParams(saturation=0.25)
        knot = saturation_knot(p)
        assert knot > saturation_knot(PARAMS)
        assert lj_force(knot, p) == pytest.approx(0.25, abs=1e-12)


class TestPotential:
    def test_zero_at_root(self, paper_fn):
        assert paper_fn.potential(paper_fn.R) == 0.0

    @pytest.mark.parametrize("z", [0.9, 1.2])
    def test_positive_and_matches_quadrature(self, paper_fn, z):
        value = paper_fn.potential(z)
        assert value > 0.0
        oracle = -adaptive_simpson(lambda y: float(paper_fn.force(y)), paper_fn.R, z)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_quadrature_agreement_across_branches(self, paper_fn):
        knot = saturation_knot(PARAMS)
        for z in (0.3, 0.8 * knot, knot, 1.05, R_A):
            oracle = -adaptive_simpson(lambda y: float(paper_fn.force(y)), paper_fn.R, z)
            assert paper_fn.potential(z) == pytest.approx(oracle, abs=1e-10)

    def test_continuous_at_knot(self, paper_fn):
        knot = saturation_knot(PARAMS)
        eps = 1e-9
        left = paper_fn.potential(knot - eps)
        right = paper_fn.potential(knot + eps)
        assert abs(left - right) <= 1e-7  # O(eps) slope gap across the kink
        assert abs(paper_fn.potential(knot - 1e-13) - paper_fn.potential(knot)) <= 1e-12

    def test_gradient_is_minus_force(self, paper_fn):
        knot = saturation_knot(PARAMS)
        h = 1e-7
        for z in np.linspace(0.5, 1.5, 101):
            if abs(z - knot) < 1e-2:
                continue
            fd = (paper_fn.potential(z + h) - paper_fn.potential(z - h)) / (2 * h)
            assert abs(fd + paper_fn.force(z)) <= 1e-6

    def test_truncated_potential_flat_beyond_cutoff(self, truncated_fn):
        assert truncated_fn.potential(truncated_fn.R_a + 0.1) == pytest.approx(
            truncated_fn.potential(truncated_fn.R_a), abs=1e-15
        )


class TestValidateAssumption1:
    def test_paper_profile(self, paper_fn):
        report = validate_assumption1(paper_fn)
        assert report.root_zero
        assert report.sign_pattern
        assert report.continuous
        assert not report.vanishing_exact
        # tail residual peaks just past the cutoff: |f| there is about 1.16e-2
        assert report.vanishing_residual == pytest.approx(abs(lj_force(R_A, PARAMS)), rel=0.05)
        assert report.vanishing_residual == pytest.approx(1.156e-2, rel=1e-2)
        assert report.core_passed

    def test_truncated_profile_vanishes_exactly(self, truncated_fn):
        report = validate_assumption1(truncated_fn)
        assert report.core_passed
        assert report.vanishing_exact
        assert report.vanishing_residual == 0.0

    def test_linear_spring_fails_vanishing(self):
        report = validate_assumption1(linear_spring())
        assert report.root_zero and report.sign_pattern and report.continuous
        assert not report.vanishing_exact
        assert report.vanishing_residual > 0.5

    def test_sign_pattern_on_every_grid_point(self, paper_fn):
        step = 1e-3
        grid = np.arange(step, 2 * R_A + step / 2, step)
        f = np.asarray(paper_fn.force(grid))
        assert np.all(f[grid < 1.0] > 0.0)
        assert np.all(f[grid > 1.0] < 0.0)

    def test_bad_grid_step(self, paper_fn):
        with pytest.raises(InvalidInputError):
            validate_assumption1(paper_fn, grid_step=0.0)


class TestParamsValidation:
    @pytest.mark.parametrize("kwargs", [dict(a=-1.0), dict(b=0.0), dict(c=0), dict(saturation=0.0)])
    def test_rejects_out_of_contract(self, kwargs):
        with pytest.raises(InvalidInputError):
            LennardJonesParams(**kwargs)

    def test_cutoff_must_exceed_root(self):
        with pytest.raises(InvalidInputError):
            saturated_lennard_jones(r_a=0.9)


GRID = np.linspace(0.05, 5.0, 2001)
PROFILES = {
    "paper": saturated_lennard_jones(),
    "truncated": saturated_lennard_jones(truncate=True),
    "spring": linear_spring(),
}


class TestProfileIsAValue:
    @pytest.mark.parametrize("truncate", [False, True])
    def test_fields_are_the_module_functions(self, truncate):
        fn = saturated_lennard_jones(truncate=truncate)
        r_a = R_A if truncate else math.inf
        np.testing.assert_array_equal(fn.force(GRID), lj_force(GRID, PARAMS, r_a=r_a))
        np.testing.assert_array_equal(fn.derivative(GRID), lj_derivative(GRID, PARAMS, r_a=r_a))
        np.testing.assert_array_equal(fn.potential(GRID), lj_potential(GRID, PARAMS, r_a=r_a))

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_pickle_roundtrip_is_bit_equal(self, name):
        fn = PROFILES[name]
        back = pickle.loads(pickle.dumps(fn))
        assert (back.R, back.R_a, back.params, back.truncated) == (fn.R, fn.R_a, fn.params, fn.truncated)
        for field in ("force", "derivative", "potential"):
            np.testing.assert_array_equal(getattr(back, field)(GRID), getattr(fn, field)(GRID))
            assert getattr(back, field)(1.1) == getattr(fn, field)(1.1)
