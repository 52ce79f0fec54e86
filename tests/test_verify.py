"""Grid verification: reconstruction, residuals, shooting.

Oracle notes
------------
* exponential self-convolution: (e^{-|.|} * e^{-|.|})(x) = (1 + |x|) e^{-|x|},
  by splitting the integral at the kink of either factor.
* reversible pulse a'' = 2 a - 2 a^3: explicit orbit a = sqrt(2) sech(sqrt(2) t),
  section value sqrt(2), conserved energy p^2/2 - a^2 + a^4/2.
* scaled pair reduction of u + K*u - mu K*u + (1/3) K*(u^3) = 0 over the
  double pair +-i: planar balance (lin, cub) = (2, -2), from the moment
  ratio -k01^2/k21 = 1 of the two-gaussian critical kernel.
* comoving pitchfork with the unit-mass gaussian (second moment 1/2): planar
  front equation (1/4) a'' + c a' + a (1 - a^2) = 0, so the monotonicity
  threshold is 2 sqrt(kappa alpha) = 1 and the saddle sits at 1; the
  saddle's unstable rate solves kappa s^2 + c s - 2 alpha = 0.
"""

import json
import math

import numpy as np
import pytest

from conftest import build_front_jet, build_pair_jet, critical_pair_kernel

import cmnl.verify
from cmnl.jet import JetIndex, ScaledField, scale_field
from cmnl.kernel import DiracMixture, ExponentialMixture, GaussianMixture
from cmnl.nonlin import NonlinearitySpec, TaylorTerm, apply_series
from cmnl.quasipoly import QuasiPolynomial
from cmnl.verify import (
    GridProfile,
    Trajectory,
    find_front,
    find_homoclinic,
    front_profile,
    front_report,
    grid_convolve,
    grid_nonlinearity,
    planar_front_system,
    planar_pulse_system,
    pulse_profile,
    pulse_scaling_report,
    reconstruct,
    residual,
    slope_loglog,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def pair():
    return build_pair_jet(3)


@pytest.fixture(scope="module")
def front():
    return build_front_jet(3)


# ---------------------------------------------------------------------------
# profiles


class TestGridProfile:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            GridProfile(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            GridProfile(np.arange(4.0), np.zeros((3, 1)))

    def test_vector_promotion_and_peak(self):
        xs = np.arange(-50, 51) * 0.1
        prof = GridProfile(xs, 2.0 * np.exp(-(xs**2)))
        assert prof.values.shape == (101, 1)
        assert prof.peak() == pytest.approx(2.0)
        assert prof.h == pytest.approx(0.1)
        assert prof.halfwidth == pytest.approx(5.0)

    def test_localization_flags(self):
        xs = np.arange(-400, 401) * 0.1
        prof = GridProfile(xs, 1.0 / np.cosh(xs / 2.0))
        assert prof.localized(1e-6)
        assert prof.boundary_fraction() < 1e-6
        assert not GridProfile(xs, np.cos(xs)).localized()

    def test_decay_length_estimate(self):
        xs = np.arange(-800, 801) * 0.05
        prof = GridProfile(xs, np.cos(5.0 * xs) / np.cosh(xs / 3.0))
        est = prof.decay_length()
        assert 1.5 <= est <= 6.0
        assert prof.halfwidth >= 5.0 * est

    def test_constant_profile_never_decays(self):
        xs = np.arange(-10, 11) * 0.5
        assert GridProfile(xs, np.ones(21)).decay_length() == np.inf


# ---------------------------------------------------------------------------
# grid convolution


class TestGridConvolve:
    def test_gaussian_on_constant_gives_mass(self):
        K = GaussianMixture.single(0.7, 2.0)
        xs = np.arange(-80, 81) * 0.25
        out = grid_convolve(K, xs, np.ones((len(xs), 1)))
        mass = 0.7 * math.sqrt(math.pi / 2.0)
        assert np.abs(out - mass).max() < 1e-10

    def test_exponential_pair_closed_form_second_order(self):
        K = ExponentialMixture([(1.0, 1.0, 0.0)])
        errs = []
        for h in (0.4, 0.2, 0.1):
            m = int(round(36.0 / h))
            xs = np.arange(-m, m + 1) * h
            u = np.exp(-np.abs(xs))[:, None]
            out = grid_convolve(K, xs, u)
            exact = (1.0 + np.abs(xs)) * np.exp(-np.abs(xs))
            mask = np.abs(xs) <= 8.0
            errs.append(np.abs(out[mask, 0] - exact[mask]).max())
        assert errs[0] / errs[1] >= 3.8
        assert errs[1] / errs[2] >= 3.8
        assert errs[2] < 5e-3

    def test_point_mass_shifts_the_profile(self):
        K = DiracMixture([(2.0, 1.5)])
        xs = np.arange(-50, 51) * 0.1
        out = grid_convolve(K, xs, xs.astype(complex)[:, None])
        mask = np.abs(xs) <= 3.0
        assert np.abs(out[mask, 0] - 2.0 * (xs[mask] - 1.5)).max() < 1e-12

    def test_matrix_kernel_matches_blockwise_scalars(self):
        C = np.array([[0.3, 0.5], [0.0, 0.2]])
        K = GaussianMixture.single(C, 1.0, n=2)
        xs = np.arange(-60, 61) * 0.2
        u = np.stack(
            [np.exp(-(xs**2) / 4.0), np.cos(xs) * np.exp(-(xs**2) / 9.0)],
            axis=1,
        ).astype(complex)
        out = grid_convolve(K, xs, u)
        g = GaussianMixture.single(1.0, 1.0)
        c0 = grid_convolve(g, xs, u[:, [0]])[:, 0]
        c1 = grid_convolve(g, xs, u[:, [1]])[:, 0]
        ref = np.stack([0.3 * c0 + 0.5 * c1, 0.2 * c1], axis=1)
        assert np.abs(out - ref).max() < 1e-12

    def test_dimension_mismatch_raises(self):
        K = GaussianMixture.single(1.0, 1.0)
        xs = np.arange(-5, 6) * 0.5
        with pytest.raises(ValueError, match="dimension"):
            grid_convolve(K, xs, np.zeros((11, 2)))


class TestGridNonlinearity:
    def test_matches_the_exact_series(self):
        # one term per branch of the slot walk: scalar inner kernel, matrix
        # inner kernel with scalar outer kernel, matrix outer kernel with a
        # two-parameter weight
        g = GaussianMixture.single(0.6, 1.0)
        g2 = GaussianMixture.single(-0.4, 2.0, b=0.3)
        Km = GaussianMixture.single(np.array([[0.3, 0.5], [-0.2, 0.1]]), 1.5, n=2)
        F = NonlinearitySpec(
            (
                TaylorTerm(0.7, ((g, 0), (None, 1)), target=1),
                TaylorTerm(-0.4, ((None, 0), (None, 0), (Km, 1)), outer=g2),
                TaylorTerm(1.3, ((None, 1),), mu_power=(1, 2), outer=Km,
                           target=1),
            ),
            max_order=4,
        )
        u = QuasiPolynomial(2, [
            (0.5j, np.array([[1.0, 0.2j], [0.1, -0.3]])),
            (-0.3j, np.array([[0.4 - 0.1j, 0.8]])),
        ])
        mu = (0.3, -0.7)
        xs = np.arange(-400, 401) * 0.05
        grid = grid_nonlinearity(F, xs, u.evaluate(xs), mu)
        exact = apply_series(F, u, mu).evaluate(xs)
        inner = np.abs(xs) <= 8.0  # away from the edge continuation
        assert np.abs(exact[inner]).max() > 0.1
        assert np.abs(grid[inner] - exact[inner]).max() < 1e-9


# ---------------------------------------------------------------------------
# residuals


NO_NONLINEARITY = NonlinearitySpec((), 2)


class TestResidual:
    def test_zero_profile_has_zero_residual(self):
        K = critical_pair_kernel()
        xs = np.arange(-200, 201) * 0.1
        rep = residual(K, NO_NONLINEARITY, GridProfile(xs, np.zeros(len(xs))))
        assert rep.max_norm == 0.0
        assert rep.l2_norm == 0.0
        assert rep.converged

    def test_exact_kernel_element_hits_quadrature_floor(self):
        K = critical_pair_kernel()
        xs = np.arange(-400, 401) * 0.1
        prof = GridProfile(xs, np.exp(1j * xs))
        rep = residual(K, NO_NONLINEARITY, prof)
        assert rep.max_norm < 1e-7
        assert rep.converged
        assert rep.margin > 0
        assert len(rep.values) == len(xs)

    def test_floor_drops_fourfold_per_halving(self):
        # -e^{-|x|} has the exact characteristic element e^{ix}; the
        # trapezoid floor for the kinked kernel is second order.
        K = ExponentialMixture([(-1.0, 1.0, 0.0)])
        assert abs(1.0 + K.transform(1j)[0, 0]) < 1e-14
        floors = []
        for h in (0.2, 0.1, 0.05):
            m = int(round(48.0 / h))
            xs = np.arange(-m, m + 1) * h
            rep = residual(K, NO_NONLINEARITY, GridProfile(xs, np.exp(1j * xs)))
            floors.append(rep.max_norm)
            assert not rep.converged  # measurement is pure quadrature floor
        assert floors[0] / floors[1] >= 3.8
        assert floors[1] / floors[2] >= 3.8
        assert floors[-1] > 1e-9

    def test_quadrature_domination_raises_on_request(self):
        K = ExponentialMixture([(-1.0, 1.0, 0.0)])
        xs = np.arange(-240, 241) * 0.2
        prof = GridProfile(xs, np.exp(1j * xs))
        with pytest.raises(RuntimeError, match="did not converge"):
            residual(K, NO_NONLINEARITY, prof, require_convergence=True)

    def test_missing_parameter_raises(self, pair):
        K, J = pair
        xs = np.arange(-300, 301) * 0.1
        prof = GridProfile(xs, 0.1 * np.exp(1j * xs) / np.cosh(0.1 * xs))
        with pytest.raises(ValueError, match="parameter"):
            residual(K, J.nonlinearity, prof)

    def test_narrow_grid_raises(self):
        K = critical_pair_kernel()
        xs = np.arange(-10, 11) * 0.1
        with pytest.raises(RuntimeError, match="too narrow"):
            residual(K, NO_NONLINEARITY, GridProfile(xs, np.zeros(len(xs))))


# ---------------------------------------------------------------------------
# reconstruction


class TestReconstruct:
    def test_zero_trajectory_reconstructs_to_zero(self, pair):
        _, J = pair
        xs = np.arange(-20, 21) * 0.5
        traj = Trajectory(xs, np.zeros((len(xs), 4)))
        prof = reconstruct(J, traj, mu=(0.1,))
        assert np.all(prof.values == 0.0)

    def test_matches_exact_graph_evaluation(self, pair):
        # dual route: vectorized reconstruction against the quasi-polynomial
        # manifold point evaluated at the origin
        from cmnl.jet import manifold_point

        _, J = pair
        rows = np.array(
            [
                [0.1 + 0.05j, 0.1 - 0.05j, -0.02 + 0.01j, -0.02 - 0.01j],
                [0.3j, -0.3j, 0.2, 0.2],
                [0.05, 0.07, 0.01j, 0.04],
            ]
        )
        traj = Trajectory(np.arange(3.0), rows)
        prof = reconstruct(J, traj, mu=(0.3,))
        for i, c in enumerate(rows):
            exact = manifold_point(J, c, (0.3,)).evaluate(0.0)
            assert np.abs(prof.values[i] - exact).max() < 1e-12

    def test_dimension_mismatch_raises(self, pair):
        _, J = pair
        traj = Trajectory(np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension"):
            reconstruct(J, traj)


# ---------------------------------------------------------------------------
# shooting


class TestHomoclinicShooting:
    def test_section_value_matches_closed_form(self):
        res = find_homoclinic(2.0, -2.0)
        assert res.success
        assert abs(res.section_value - SQRT2) < 1e-8

    def test_orbit_matches_sech_profile(self):
        res = find_homoclinic(2.0, -2.0)
        for s in (0.5, 1.0, 2.0):
            a_num = np.interp(
                res.crossing_time - s,
                res.trajectory.xs,
                res.trajectory.ys[:, 0].real,
            )
            a_exact = SQRT2 / math.cosh(SQRT2 * s)
            assert abs(a_num / a_exact - 1.0) < 1e-5

    def test_returns_to_rest_state(self):
        res = find_homoclinic(2.0, -2.0)
        assert res.return_distance < 1e-4

    def test_energy_is_conserved_along_the_orbit(self):
        res = find_homoclinic(2.0, -2.0)
        a = res.trajectory.ys[:, 0].real
        p = res.trajectory.ys[:, 1].real
        energy = 0.5 * p**2 - a**2 + 0.5 * a**4
        assert np.abs(energy).max() < 1e-10

    def test_deterministic(self):
        a = find_homoclinic(2.0, -2.0)
        b = find_homoclinic(2.0, -2.0)
        assert np.array_equal(a.trajectory.ys, b.trajectory.ys)
        assert a.return_distance == b.return_distance

    def test_rejects_wrong_signs(self):
        with pytest.raises(ValueError, match="unstable origin"):
            find_homoclinic(-1.0, -2.0)
        with pytest.raises(ValueError, match="focusing"):
            find_homoclinic(2.0, 1.0)


class TestFrontShooting:
    def test_supercritical_front_is_monotone(self):
        res = find_front(0.25, 1.0, 1.0, 1.1)
        assert res.success
        assert res.monotone
        assert res.reach_distance <= 1e-4
        assert res.details["saddle"] == pytest.approx(1.0)
        s = res.details["unstable_rate"]
        assert abs(0.25 * s**2 + 1.1 * s - 2.0) < 1e-12

    def test_threshold_speed_still_connects(self):
        res = find_front(0.25, 1.0, 1.0, 1.0)
        assert res.success
        assert res.reach_distance <= 1e-4

    def test_subcritical_speed_spirals(self):
        res = find_front(0.25, 1.0, 1.0, 0.5)
        assert res.success
        assert not res.monotone

    def test_deterministic(self):
        a = find_front(0.25, 1.0, 1.0, 1.1)
        b = find_front(0.25, 1.0, 1.0, 1.1)
        assert np.array_equal(a.trajectory.ys, b.trajectory.ys)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            find_front(-0.25, 1.0, 1.0, 1.1)
        with pytest.raises(ValueError):
            find_front(0.25, 1.0, 1.0, 0.0)


# The complex-array shooter that the scalar one replaced, kept as a bitwise
# reference: every state is real, so the zero imaginary parts change no bit
# of the real parts, and the scalar shooter must reproduce this one exactly.


def _array_rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_homoclinic(lin, cub, start=1e-6, step=1e-3):
    k = math.sqrt(lin)
    peak = math.sqrt(2.0 * lin / -cub)
    max_span = 4.0 * (math.log(peak / start) + 5.0) / k

    def f(y):
        return np.array([y[1], lin * y[0] + cub * y[0] ** 3], dtype=complex)

    y = np.array([start, start * k], dtype=complex)
    ts, ys = [0.0], [y]
    t, crossing = 0.0, None
    while t < max_span:
        ynew = _array_rk4_step(f, y, step)
        if ynew[1].real <= 0.0:
            lo, hi = 0.0, step
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if _array_rk4_step(f, y, mid)[1].real <= 0.0:
                    hi = mid
                else:
                    lo = mid
            tau = 0.5 * (lo + hi)
            y = _array_rk4_step(f, y, tau)
            if t + tau > t:
                t += tau
                ts.append(t)
                ys.append(y)
            else:
                ys[-1] = y
            crossing = t
            break
        y = ynew
        t += step
        ts.append(t)
        ys.append(y)
    return_distance = np.inf
    for _ in range(int(math.ceil(crossing / step))):
        y = _array_rk4_step(f, y, step)
        return_distance = min(return_distance, float(np.abs(y).max()))
    return np.array(ts), np.array(ys), crossing, return_distance


def _array_front(kappa, alpha, beta, c_star, start=1e-6, tol_reach=1e-4):
    a_star = math.sqrt(alpha / beta)
    s_unstable = (-c_star + math.sqrt(c_star**2 + 8 * kappa * alpha)) / (2 * kappa)
    disc = c_star**2 - 4 * kappa * alpha
    slow = c_star / (2 * kappa) if disc < 0 else \
        (c_star - math.sqrt(disc)) / (2 * kappa)
    step = 0.01 / max(1.0, s_unstable, c_star / kappa)
    max_span = 3.0 * (math.log(a_star / start) / s_unstable
                      + math.log(a_star / tol_reach) / slow + 20.0)

    def f(y):
        a, p = y[0], y[1]
        return np.array(
            [p, -(c_star * p + a * (alpha - beta * a**2)) / kappa],
            dtype=complex,
        )

    y = np.array([a_star - start, -start * s_unstable], dtype=complex)
    ys = [y]
    reach_distance = float(np.abs(y).max())
    for _ in range(int(math.ceil(max_span / step))):
        y = _array_rk4_step(f, y, step)
        ys.append(y)
        d = float(np.abs(y).max())
        reach_distance = min(reach_distance, d)
        if d <= tol_reach or y[0].real < -0.5 * a_star or d > 1e6:
            break
    ys = np.array(ys)
    slack = 1e-9 * a_star
    monotone = bool(ys[:, 1].real.max() <= slack
                    and ys[:, 0].real.min() >= -slack)
    return step * np.arange(len(ys)), ys, reach_distance, monotone


class TestScalarShooterMatchesArrayReference:
    def test_homoclinic_is_bitwise_equal(self):
        ts, ys, crossing, return_distance = _array_homoclinic(2.0, -2.0)
        res = find_homoclinic(2.0, -2.0)
        assert np.array_equal(res.trajectory.xs, ts)
        assert np.array_equal(res.trajectory.ys, ys)
        assert res.crossing_time == crossing
        assert res.section_value == ys[-1, 0].real
        assert res.return_distance == return_distance

    # kappa = 0.37 is not a power of two: numpy divides a complex number by
    # multiplying with the reciprocal, which rounds unlike a float quotient
    @pytest.mark.parametrize("args", [(0.25, 1.0, 1.0, 1.1), (0.25, 1.0, 1.0, 1.0),
                                      (0.25, 1.0, 1.0, 0.5), (0.37, 0.9, 1.3, 0.7)])
    def test_front_is_bitwise_equal(self, args):
        xs, ys, reach_distance, monotone = _array_front(*args)
        res = find_front(*args)
        assert np.array_equal(res.trajectory.xs, xs)
        assert np.array_equal(res.trajectory.ys, ys)
        assert res.reach_distance == reach_distance
        assert res.monotone == monotone


class TestStepCount:
    """Each shot steps through the module-level ``rk4_step``, once per step.

    The counts were measured on the complex-array shooter; the homoclinic
    count includes 80 bisection steps and the return leg.
    """

    @pytest.fixture
    def steps(self, monkeypatch):
        count = [0]
        step = cmnl.verify.rk4_step

        def counted(*args):
            count[0] += 1
            return step(*args)

        monkeypatch.setattr(cmnl.verify, "rk4_step", counted)
        return count

    def test_homoclinic(self, steps):
        find_homoclinic(2.0, -2.0)
        assert steps[0] == 21091

    def test_front(self, steps):
        find_front(0.25, 1.0, 1.0, 1.1)
        assert steps[0] == 7589


# ---------------------------------------------------------------------------
# planar extraction


class TestPlanarExtraction:
    def test_pulse_balance_from_pair_reduction(self, pair):
        _, J = pair
        sf = scale_field(
            J.field, (1, 1, 2, 2), 1.0, (2,), phases=(1.0, -1.0, 1.0, -1.0)
        )
        lin, cub = planar_pulse_system(sf)
        assert abs(lin - 2.0) < 1e-8
        assert abs(cub + 2.0) < 1e-8

    def test_front_coefficients_from_chain_reduction(self, front):
        _, J, G = front
        kappa, alpha, beta = planar_front_system(J)
        assert abs(kappa - 0.25) < 1e-8
        assert abs(alpha - 1.0) < 1e-8
        assert abs(beta - 1.0) < 1e-8
        # independent route: kappa is half the kernel's second moment
        kappa2 = G.moment(2, 0.0)[0, 0].real
        assert abs(kappa - 0.5 * kappa2) < 1e-8

    def test_front_extraction_rejects_pair_reduction(self, pair):
        _, J = pair
        with pytest.raises(RuntimeError, match="2 coordinates"):
            planar_front_system(J)

    def _valid_pulse_field(self):
        return {
            JetIndex((0, 0, 1, 0), (0,)): np.array([1.0, 0, 0, 0], complex),
            JetIndex((0, 0, 0, 1), (0,)): np.array([0, 1.0, 0, 0], complex),
            JetIndex((1, 0, 0, 0), (1,)): np.array([0, 0, 2.0, 0], complex),
            JetIndex((0, 1, 0, 0), (1,)): np.array([0, 0, 0, 2.0], complex),
            JetIndex((2, 1, 0, 0), (0,)): np.array([0, 0, -2.0, 0], complex),
            JetIndex((1, 2, 0, 0), (0,)): np.array([0, 0, 0, -2.0], complex),
        }

    def _wrap(self, fld):
        return ScaledField(
            field=fld,
            dropped=(),
            coord_exponents=(1, 1, 2, 2),
            x_exponent=1.0,
            param_exponents=(2,),
            phases=(1.0, -1.0, 1.0, -1.0),
        )

    def test_pulse_extraction_accepts_the_canonical_shape(self):
        lin, cub = planar_pulse_system(self._wrap(self._valid_pulse_field()))
        assert (lin, cub) == (2.0, -2.0)

    def test_pulse_extraction_rejects_extra_entries(self):
        fld = self._valid_pulse_field()
        fld[JetIndex((1, 1, 0, 0), (0,))] = np.array([0, 0, 1.0, 0], complex)
        with pytest.raises(RuntimeError, match="unexpected resonant"):
            planar_pulse_system(self._wrap(fld))

    def test_pulse_extraction_rejects_complex_coefficients(self):
        fld = self._valid_pulse_field()
        fld[JetIndex((1, 0, 0, 0), (1,))] = np.array([0, 0, 2 + 1j, 0])
        with pytest.raises(RuntimeError, match="conjugate|not real"):
            planar_pulse_system(self._wrap(fld))

    def test_pulse_extraction_rejects_defocusing_sign(self):
        fld = self._valid_pulse_field()
        fld[JetIndex((2, 1, 0, 0), (0,))] = np.array([0, 0, 2.0, 0], complex)
        fld[JetIndex((1, 2, 0, 0), (0,))] = np.array([0, 0, 0, 2.0], complex)
        with pytest.raises(RuntimeError, match="lin > 0 > cub"):
            planar_pulse_system(self._wrap(fld))


# ---------------------------------------------------------------------------
# end-to-end drivers


class TestPulseDrivers:
    def test_profile_is_localized_with_the_predicted_amplitude(self, pair):
        _, J = pair
        prof, hom = pulse_profile(J, 1e-2)
        assert hom.success
        assert prof.localized(1e-6)
        assert prof.halfwidth >= 5.0 * prof.decay_length()
        assert abs(prof.peak() / math.sqrt(1e-2) / (2.0 * SQRT2) - 1.0) < 0.01

    def test_profile_residual_is_small_and_converged(self, pair):
        K, J = pair
        prof, _ = pulse_profile(J, 1e-2)
        rep = residual(K, J.nonlinearity, prof, mu=(1e-2,))
        assert rep.converged
        assert rep.max_norm < 1e-3

    def test_scaling_report_slope_and_amplitude(self, pair):
        K, J = pair
        rep = pulse_scaling_report(K, J, [1e-2, 1e-3])
        assert rep.kind == "homoclinic"
        assert rep.slope >= 1.5
        assert abs(rep.details["amplitude_ratio"] / (2.0 * SQRT2) - 1.0) < 0.1
        data = json.loads(json.dumps(rep.to_data()))
        assert data["type"] == "homoclinic"
        assert len(data["details"]["sweep"]) == 2
        for row in data["details"]["sweep"]:
            assert row["quadrature_error"] < 0.5 * row["residual_max"]

    def test_slow_amplitude_is_the_exact_orbit(self, pair, monkeypatch):
        # (lin, cub) = (2, -2): a = sqrt(2) sech(sqrt(2) z), z = sqrt(lam) x
        _, J = pair
        seen = []

        def capture(J, traj, mu=()):
            seen.append(traj)
            return reconstruct(J, traj, mu)

        monkeypatch.setattr(cmnl.verify, "reconstruct", capture)
        lam = 1e-2
        pulse_profile(J, lam)
        (traj,) = seen
        eps = math.sqrt(lam)
        z = eps * traj.xs
        phase = np.exp(1j * traj.xs)  # carrier frequency 1
        a = traj.ys[:, 0] / (eps * phase)
        p = traj.ys[:, 2] / (eps**2 * phase)
        sech = 1.0 / np.cosh(SQRT2 * z)
        assert np.abs(a - SQRT2 * sech).max() < 1e-10
        assert np.abs(p + 2.0 * sech * np.tanh(SQRT2 * z)).max() < 1e-10

    def test_scaling_report_shoots_once(self, pair, monkeypatch):
        K, J = pair
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_homoclinic(*args, **kwargs)

        monkeypatch.setattr(cmnl.verify, "find_homoclinic", counted)
        rep = pulse_scaling_report(K, J, [1e-2, 1e-3, 1e-4])
        assert len(calls) == 1
        assert len(rep.details["sweep"]) == 3

    def test_rejects_nonpositive_parameter(self, pair):
        _, J = pair
        with pytest.raises(ValueError, match="lam > 0"):
            pulse_profile(J, 0.0)

    def test_rejects_front_reduction(self, front):
        _, J, _ = front
        with pytest.raises(RuntimeError, match="conjugate pair"):
            pulse_profile(J, 1e-2)


class TestFrontDrivers:
    def test_profile_is_the_slow_modulation(self, front):
        _, J, _ = front
        eps = 1e-2
        prof, fr = front_profile(J, eps, 1.1)
        assert fr.success and fr.monotone
        # the graph corrections vanish at the origin, so the profile is
        # exactly the modulated slow coordinate
        diff = np.abs(prof.values[:, 0] - eps * fr.trajectory.ys[:, 0])
        assert diff.max() < 1e-14

    def test_report_confirms_monotone_front(self, front):
        K, J, _ = front
        rep = front_report(K, J, 1e-2, 1.1)
        assert rep.kind == "front"
        assert rep.monotone
        assert rep.residual_max < 1e-8
        assert rep.details["kappa"] == pytest.approx(0.25, abs=1e-8)
        assert rep.details["alpha"] == pytest.approx(1.0, abs=1e-8)
        assert rep.details["beta"] == pytest.approx(1.0, abs=1e-8)
        assert rep.details["reach_distance"] <= 1e-4
        json.dumps(rep.to_data())

    def test_threshold_speed_front_exists(self, front):
        K, J, _ = front
        rep = front_report(K, J, 1e-2, 1.0)
        assert rep.details["reach_distance"] <= 1e-4

    def test_rejects_nonpositive_epsilon(self, front):
        _, J, _ = front
        with pytest.raises(ValueError, match="epsilon > 0"):
            front_profile(J, 0.0, 1.1)


class TestSlopeFit:
    def test_recovers_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        assert slope_loglog(xs, 3.0 * xs**2.5) == pytest.approx(2.5)
