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
* Newell-Whitehead front: kappa a'' + c a' + a (alpha - beta a^2) = 0 has the
  exact front a = sqrt(alpha/beta) / (1 + exp(x sqrt(alpha / (2 kappa)))) at
  c = 3 sqrt(kappa alpha / 2); substituting it leaves zero.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_front_jet, build_pair_jet, critical_pair_kernel
from reference import (
    apply_series, array_profile, boundary_fraction, decay_length, defect,
    defect_per_term, grid_nonlinearity, halfwidth, localized, manifold_point,
    moment, peak, pulse_profile, trajectory_profile, whole_grid_pulse,
    whole_grid_residual, whole_profile)

import cmnl.verify
from cmnl.jet import JetIndex, ScaledField, compute_jet, scale_field
from cmnl.kernel import DiracMixture, ExponentialMixture, GaussianMixture, SumKernel
from cmnl.nonlin import NonlinearitySpec, TaylorTerm
from cmnl.projection import build_gram
from cmnl.quasipoly import QuasiPolynomial
from cmnl.verify import (
    Trajectory,
    defect_rows,
    find_front,
    find_homoclinic,
    front_profile,
    front_report,
    grid_convolve,
    planar_front_system,
    planar_pulse_system,
    pulse_scaling_report,
    reconstruct,
    residual,
    slope_loglog,
)

SQRT2 = math.sqrt(2.0)


def two_level_problem():
    """``(K, F)`` of a 2-component defect whose terms take every branch of
    the grouping: no outer kernel, scalar outer kernels on one component
    (inner kernels under one of them: two convolution levels), and a matrix
    outer kernel equal to ``K``, so that its term joins the group of u."""
    g = GaussianMixture.single(0.6, 1.0)
    g2 = GaussianMixture.single(-0.4, 2.0, b=0.3)
    Km = GaussianMixture.single(np.array([[0.3, 0.5], [-0.2, 0.1]]), 1.5, n=2)
    F = NonlinearitySpec(
        (
            TaylorTerm(0.7, ((g, 0), (None, 1)), target=1),
            TaylorTerm(-0.4, ((None, 0), (None, 0), (Km, 1)), outer=g2),
            TaylorTerm(0.9, ((None, 1), (None, 1)), outer=g2, target=1),
            TaylorTerm(1.3, ((None, 1),), mu_power=(1, 2), outer=Km,
                       target=1),
            TaylorTerm(0.5, ((None, 0), (None, 1)), mu_power=(0, 1),
                       outer=Km),
        ),
        max_order=4,
    )
    return Km, F


def point_mass_problem():
    """``(K, F)`` of a scalar defect with point masses in ``K``, in an inner
    kernel and in an outer one, at shifts off the grid points."""
    K = SumKernel([GaussianMixture.single(-0.8, 1.0), DiracMixture([(0.5, 0.73)])])
    F = NonlinearitySpec(
        (
            TaylorTerm(0.4, ((DiracMixture([(1.0, -1.21)]), 0), (None, 0))),
            TaylorTerm(-0.3, ((None, 0),), mu_power=1,
                       outer=DiracMixture([(0.7, 0.45)])),
        ),
        max_order=3,
    )
    return K, F


def two_component_profile(xs):
    return np.stack([np.exp(0.5j * xs) / np.cosh(0.2 * xs),
                     (0.3 - 0.8j) / np.cosh(0.1 * xs)], axis=1)


def library_defect(K, F, xs, u, mu):
    """``verify._defect`` over the whole grid, as one block."""
    h = float(xs[1] - xs[0])
    return cmnl.verify._defect(K, F, xs, u, 0, len(xs), mu, h,
                               cmnl.verify._reaches(K, F, h), 0, len(xs))


@pytest.fixture(scope="module")
def pair():
    return build_pair_jet(3)


@pytest.fixture(scope="module")
def front():
    return build_front_jet(3)


@pytest.fixture(scope="module")
def gram_jets(pair, front):
    """The pair and front reductions under the gaussian Gram projection."""
    (K, J), (Kf, Jf, _) = pair, front
    return [compute_jet(k, build_gram(j.basis), j.nonlinearity, 3)
            for k, j in ((K, J), (Kf, Jf))]


# ---------------------------------------------------------------------------
# profiles


class TestGridProfile:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            array_profile(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            array_profile(np.arange(4.0), np.zeros((3, 1)))

    def test_vector_promotion_and_peak(self):
        xs = np.arange(-50, 51) * 0.1
        prof = array_profile(xs, 2.0 * np.exp(-(xs**2)))
        assert prof.values.shape == (101, 1)
        assert peak(prof) == pytest.approx(2.0)
        assert prof.h == pytest.approx(0.1)
        assert halfwidth(prof) == pytest.approx(5.0)

    def test_localization_flags(self):
        xs = np.arange(-400, 401) * 0.1
        prof = array_profile(xs, 1.0 / np.cosh(xs / 2.0))
        assert localized(prof, 1e-6)
        assert boundary_fraction(prof) < 1e-6
        assert not localized(array_profile(xs, np.cos(xs)))

    def test_decay_length_estimate(self):
        xs = np.arange(-800, 801) * 0.05
        prof = array_profile(xs, np.cos(5.0 * xs) / np.cosh(xs / 3.0))
        est = decay_length(prof)
        assert 1.5 <= est <= 6.0
        assert halfwidth(prof) >= 5.0 * est

    def test_constant_profile_never_decays(self):
        xs = np.arange(-10, 11) * 0.5
        assert decay_length(array_profile(xs, np.ones(21))) == np.inf


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

    def test_grouped_defect_matches_the_per_term_walk(self):
        # every branch of the grouping (see two_level_problem)
        Km, F = two_level_problem()
        xs = np.arange(-400, 401) * 0.05
        u = two_component_profile(xs)
        mu = (0.3, -0.7)
        grouped = library_defect(Km, F, xs, u, mu)
        assert np.abs(grouped - defect_per_term(Km, F, xs, u, mu)).max() \
            <= 1e-12 * np.abs(u).max()


# ---------------------------------------------------------------------------
# residuals


NO_NONLINEARITY = NonlinearitySpec((), 2)


class TestResidual:
    def test_zero_profile_has_zero_residual(self):
        K = critical_pair_kernel()
        xs = np.arange(-200, 201) * 0.1
        rep = residual(K, NO_NONLINEARITY, array_profile(xs, np.zeros(len(xs))))
        assert rep.max_norm == 0.0
        assert rep.l2_norm == 0.0
        assert rep.converged

    def test_exact_kernel_element_hits_quadrature_floor(self):
        K = critical_pair_kernel()
        xs = np.arange(-400, 401) * 0.1
        prof = array_profile(xs, np.exp(1j * xs))
        rep = residual(K, NO_NONLINEARITY, prof)
        assert rep.max_norm < 1e-7
        assert rep.converged
        assert rep.margin > 0
        assert sum(len(r) for _, _, r in defect_rows(K, NO_NONLINEARITY, prof)) \
            == len(xs)

    def test_floor_drops_fourfold_per_halving(self):
        # -e^{-|x|} has the exact characteristic element e^{ix}; the
        # trapezoid floor for the kinked kernel is second order.
        K = ExponentialMixture([(-1.0, 1.0, 0.0)])
        assert abs(1.0 + K.transform(1j)[0, 0]) < 1e-14
        floors = []
        for h in (0.2, 0.1, 0.05):
            m = int(round(48.0 / h))
            xs = np.arange(-m, m + 1) * h
            rep = residual(K, NO_NONLINEARITY, array_profile(xs, np.exp(1j * xs)))
            floors.append(rep.max_norm)
            assert not rep.converged  # measurement is pure quadrature floor
        assert floors[0] / floors[1] >= 3.8
        assert floors[1] / floors[2] >= 3.8
        assert floors[-1] > 1e-9

    def test_missing_parameter_raises(self, pair):
        K, J = pair
        xs = np.arange(-300, 301) * 0.1
        prof = array_profile(xs, 0.1 * np.exp(1j * xs) / np.cosh(0.1 * xs))
        with pytest.raises(ValueError, match="parameter"):
            residual(K, J.nonlinearity, prof)

    def test_grouped_defect_matches_the_per_term_walk_on_wave_grids(self, pair, front):
        (K, J), (Kf, Jf, _) = pair, front
        pulse = pulse_profile(J, 1e-2)[0]
        fr = whole_profile(front_profile(Jf, 1e-2, 1.1)[0])
        for K, J, prof, mu in ((K, J, pulse, (1e-2,)),
                               (Kf, Jf, fr, (1e-4, 1.1e-2))):
            F = J.nonlinearity
            for xs, u in ((prof.xs, prof.values), (prof.xs[::2], prof.values[::2])):
                grouped = library_defect(K, F, xs, u, mu)
                assert np.abs(grouped - defect_per_term(K, F, xs, u, mu)).max() \
                    <= 1e-12 * np.abs(u).max()

    def test_one_convolution_per_grid_on_the_pair_problem(self, pair, monkeypatch):
        # the pair-o3 problem: both terms convolve with K itself, so each of
        # the fine and the coarse defect needs one convolution
        K, J = pair
        xs = np.arange(-300, 301) * 0.1
        prof = array_profile(xs, 0.1 * np.exp(1j * xs) / np.cosh(0.1 * xs))
        calls = []

        def counting(*args):
            calls.append(len(args[1]))
            return grid_convolve(*args)

        monkeypatch.setattr(cmnl.verify, "grid_convolve", counting)
        residual(K, J.nonlinearity, prof, mu=(1e-2,))
        assert calls == [len(xs), len(xs[::2])]

    def test_pulse_grid_and_residual_hold_few_bytes_per_point(self, pair):
        # pair-o3 at lambda = 1e-6, 237,797 points: the tracemalloc peak above
        # the inputs, profile and report included (tracemalloc sees numpy's
        # buffers, so the bound is deterministic); whole-grid stages held
        # 176 and 112 bytes per point
        K, J = pair
        orbit = cmnl.verify._pulse_orbit(J, 1e-7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prof = cmnl.verify._pulse_on_grid(J, orbit, 1e-6, 0.1)
            pulse_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            residual(K, J.nonlinearity, prof, mu=(1e-6,))
            residual_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        points = prof.size
        assert points >= 200_000
        assert pulse_peak <= 64 * points
        assert residual_peak <= 56 * points

    def test_pulse_step_memory_does_not_depend_on_the_grid(self, pair):
        # one lambda step of the pair-o3 sweep -- the profile's row source,
        # the residual and its amplitude -- at 237,797 and 751,977 points:
        # the tracemalloc peaks above the inputs agree within 64 KiB and stay
        # under 2 MB (whole-grid profiles and defects held 48 bytes a point)
        K, J = pair
        orbit = cmnl.verify._pulse_orbit(J, 1e-7)
        peaks, sizes = [], []
        tracemalloc.start()
        try:
            for lam in (1e-6, 1e-7):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                prof = cmnl.verify._pulse_on_grid(J, orbit, lam, 0.1)
                rep = residual(K, J.nonlinearity, prof, mu=(lam,))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                sizes.append(prof.size)
                assert 0.0 < rep.amplitude < 1e-2
                del prof, rep
        finally:
            tracemalloc.stop()
        assert sizes == [237_797, 751_977]
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024
        assert max(peaks) < 2 * 1024 * 1024

    def test_narrow_grid_raises(self):
        K = critical_pair_kernel()
        xs = np.arange(-10, 11) * 0.1
        with pytest.raises(RuntimeError, match="too narrow"):
            residual(K, NO_NONLINEARITY, array_profile(xs, np.zeros(len(xs))))


# ---------------------------------------------------------------------------
# reconstruction


class TestReconstruct:
    def test_zero_trajectory_reconstructs_to_zero(self, pair):
        _, J = pair
        xs = np.arange(-20, 21) * 0.5
        traj = Trajectory(xs, np.zeros((len(xs), 4)))
        prof = trajectory_profile(J, traj, mu=(0.1,))
        assert np.all(prof.values == 0.0)

    def test_matches_exact_graph_evaluation(self, pair):
        # dual route: vectorized reconstruction against the quasi-polynomial
        # manifold point evaluated at the origin
        _, J = pair
        rows = np.array(
            [
                [0.1 + 0.05j, 0.1 - 0.05j, -0.02 + 0.01j, -0.02 - 0.01j],
                [0.3j, -0.3j, 0.2, 0.2],
                [0.05, 0.07, 0.01j, 0.04],
            ]
        )
        traj = Trajectory(np.arange(3.0), rows)
        prof = trajectory_profile(J, traj, mu=(0.3,))
        for i, c in enumerate(rows):
            exact = manifold_point(J, c, (0.3,)).evaluate(0.0)
            assert np.abs(prof.values[i] - exact).max() < 1e-12

    def test_zero_graph_values_build_no_monomials(self, front, monkeypatch):
        # on the front reduction the pointwise functionals make every Psi
        # vanish exactly at the origin, and the chain's second element x is 0
        # there too, so one power is built; the others would add exact zeros
        # to the same sums
        _, J, _ = front
        assert not any(np.any(psi.evaluate(0.0)) for psi in J.psi.values())
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((40, 2))
        mu = (0.3, 0.2)
        plans, plan_of = [], cmnl.verify._monomial_plan

        def recorded(powers):
            plans.append(plan_of(powers))
            return plans[-1]

        monkeypatch.setattr(cmnl.verify, "_monomial_plan", recorded)
        got = trajectory_profile(J, Trajectory(np.arange(40.0), rows), mu=mu).values
        units = [(1, 0), (0, 1)]
        assert [list(plan) for plan in plans] == [[(1, 0)]]
        assert len({idx.powers for idx in J.psi}) > 2
        # every folded power, the zero ones included, in reconstruct's order
        unskipped = np.zeros((40, J.basis.n), dtype=complex)
        terms = [(u, el.function.evaluate(0.0))
                 for u, el in zip(units, J.basis.elements)]
        terms += [(idx.powers,
                   mu[0] ** idx.mu[0] * mu[1] ** idx.mu[1] * psi.evaluate(0.0))
                  for idx, psi in J.psi.items()]
        for power, c in terms:
            mono = (rows[:, units.index(power)] if power in units
                    else np.prod(rows ** np.array(power), axis=1))
            for k, ck in enumerate(c):
                unskipped[:, k] += mono * ck
        assert np.array_equal(got, unskipped)

    def test_matches_exact_graph_evaluation_under_gram_projection(self, gram_jets):
        # the pointwise functionals make every Psi vanish at the origin, the
        # Gram ones do not: this checks the graph coefficients and their
        # parameter powers, with one and with two parameters
        pair_rows = np.array(
            [
                [0.1 + 0.05j, 0.1 - 0.05j, -0.02 + 0.01j, -0.02 - 0.01j],
                [0.3j, -0.3j, 0.2, 0.2],
            ]
        )
        front_rows = np.array([[0.2, -0.05], [0.01 + 0.1j, 0.03j], [-0.3, 0.1]])
        for J, rows, mu in zip(gram_jets, (pair_rows, front_rows),
                               ((0.3,), (0.04, -0.3))):
            assert any(np.abs(psi.evaluate(0.0)).max() > 0.1
                       for idx, psi in J.psi.items() if any(idx.mu))
            prof = trajectory_profile(
                J, Trajectory(np.arange(len(rows), dtype=float), rows), mu=mu)
            for i, c in enumerate(rows):
                exact = manifold_point(J, c, mu).evaluate(0.0)
                assert np.abs(prof.values[i] - exact).max() < 1e-12

    def test_row_blocks_leave_every_row_unchanged(self, pair, front, gram_jets,
                                                  monkeypatch):
        # reconstruct's rows read in blocks of one row, 7 or more than the
        # grid are its whole-grid rows; the pulse and front grids and the
        # residual work RECONSTRUCT_ROWS rows at a time: one row, 7, the
        # default, more than the grid, and a size that leaves a last block
        # of one row must all give the whole-grid oracles' profiles, defects
        # and norms bit for bit
        J = gram_jets[0]
        rng = np.random.default_rng(3)
        rows = 0.2 * (rng.standard_normal((2500, 4))
                      + 1j * rng.standard_normal((2500, 4)))
        traj = Trajectory(np.arange(2500.0), rows)
        whole = trajectory_profile(J, traj, mu=(0.3,)).values
        source = reconstruct(J, 2500, None,
                             lambda lo, hi: np.ascontiguousarray(rows[lo:hi].T),
                             mu=(0.3,))
        for size in (1, 7, 4096):
            blocks = [source.rows(lo, min(lo + size, 2500))
                      for lo in range(0, 2500, size)]
            assert np.array_equal(np.concatenate(blocks), whole)

        (K, J), (Kf, Jf, _) = pair, front
        monkeypatch.setattr(cmnl.verify, "RECONSTRUCT_ROWS", 2048)
        orbit = cmnl.verify._pulse_orbit(J, 1e-7)
        pulse = whole_grid_pulse(J, orbit, 1e-2)
        fr, shot = front_profile(Jf, 1e-2, 1.1)
        fr = whole_profile(fr)
        ys = shot.trajectory.ys
        front_whole = trajectory_profile(Jf, Trajectory(
            fr.xs, np.stack([1e-2 * ys[:, 0], 1e-4 * ys[:, 1]], axis=1)),
            mu=(1e-4, 1.1e-2)).values
        mid = int(np.argmin(np.abs(front_whole[:, 0] - 0.5 * front_whole[0, 0])))
        window = slice(mid - 200, mid + 201)
        xs = np.arange(-200, 201) * 0.1
        u = two_component_profile(xs)
        source = cmnl.verify._pulse_on_grid(J, orbit, 1e-2, 0.1)
        cases = [
            # one outer kernel, on two blocks of the default size: the pulse
            # as the row source that cm reads
            (K, J.nonlinearity, source, (1e-2,)),
            # the outer kernels G, Gp and Gpp, of different stencil widths
            (Kf, Jf.nonlinearity,
             array_profile(fr.xs[window], fr.values[window]), (1e-4, 1.1e-2)),
            # inner kernels (two convolution levels) and, in a 2-component
            # problem, scalar outer kernels that target one component
            (*two_level_problem(), array_profile(xs, u), (0.3, -0.7)),
            # point masses, inner and outer: the interpolated shift
            (*point_mass_problem(), array_profile(xs, u[:, 0]), (0.4,)),
        ]
        for K, F, prof, mu in cases:
            whole = whole_profile(prof)
            m = prof.size
            for size in (1, 7, 2048, m - 1, m + 1):
                monkeypatch.setattr(cmnl.verify, "RECONSTRUCT_ROWS", size)
                max_norm, l2_norm, quad, values = whole_grid_residual(
                    K, F, prof, mu, rows=size)
                rep = residual(K, F, prof, mu)
                blocks = list(defect_rows(K, F, prof, mu))
                assert [len(r) for _, _, r in blocks] == \
                    [min(size, m - lo) for lo in range(0, m, size)]
                for got, want in zip(zip(*blocks), (whole.xs, whole.values, values)):
                    assert np.array_equal(np.concatenate(got), want)
                assert (rep.max_norm, rep.l2_norm, rep.quadrature_error,
                        rep.amplitude) == (max_norm, l2_norm, quad, peak(whole))
                # the whole grid's sum of squares rounds differently
                inner = values[rep.margin:m - rep.margin]
                assert rep.l2_norm == pytest.approx(
                    math.sqrt(whole.h * (np.abs(inner) ** 2).sum()), rel=1e-13)
                if prof is source:
                    assert np.array_equal(whole_profile(source).values,
                                          pulse.values)
                    assert np.array_equal(
                        whole_profile(front_profile(Jf, 1e-2, 1.1)[0]).values,
                        front_whole)

    def test_missing_parameter_raises(self, front):
        _, J, _ = front
        with pytest.raises(ValueError, match="2 parameter values, got 1"):
            reconstruct(J, 3, np.arange, lambda lo, hi: np.zeros((2, hi - lo)),
                        mu=(0.1,))

    def test_dimension_mismatch_raises(self, pair):
        # the pair basis has 4 coordinates; the columns are read with the rows
        _, J = pair
        prof = reconstruct(J, 3, np.arange, lambda lo, hi: np.zeros((2, hi - lo)),
                           mu=(0.1,))
        with pytest.raises(ValueError, match="columns do not match the basis"):
            prof.rows(0, 3)


# ---------------------------------------------------------------------------
# shooting


class TestHomoclinicShooting:
    def test_section_value_matches_closed_form(self):
        res = find_homoclinic(2.0, -2.0)
        assert res.success
        assert abs(res.section_value - SQRT2) < 1e-8

    def test_orbit_matches_sech_profile(self):
        # the peak and rate that the pulse grid reads give the loop
        res = find_homoclinic(2.0, -2.0)
        for s in (0.5, 1.0, 2.0):
            a, _ = _sech_orbit(res.section_value, res.details["rate"], s)
            assert abs(a / (SQRT2 / math.cosh(SQRT2 * s)) - 1.0) < 1e-14

    def test_returns_to_rest_state(self):
        # from the default start, 1e-7, as in a pulse plan
        res = find_homoclinic(2.0, -2.0)
        assert res.return_distance < 1e-4
        # the mirrored start: a = start, a' = -sqrt(2) tanh(sqrt(2) T1) start
        assert res.return_distance == pytest.approx(SQRT2 * 1e-7, rel=1e-12)

    def test_samples_are_the_closed_form(self):
        # the loop is returned as its closed-form numbers, with no samples;
        # it passes a = start at the time -crossing_time from the peak
        res = find_homoclinic(2.0, -2.0, start=1e-7)
        assert res.trajectory is None
        assert res.crossing_time == pytest.approx(math.acosh(SQRT2 * 1e7) / SQRT2)
        assert res.details["rate"] == SQRT2
        a, p = _sech_orbit(res.section_value, res.details["rate"],
                           -res.crossing_time)
        assert a == pytest.approx(1e-7, rel=1e-9)
        assert p == pytest.approx(SQRT2 * 1e-7, rel=1e-9)

    def test_energy_is_conserved_along_the_orbit(self):
        res = find_homoclinic(2.0, -2.0)
        s = np.linspace(-res.crossing_time, 0.0, 4097)
        a, p = _sech_orbit(res.section_value, res.details["rate"], s)
        energy = 0.5 * p**2 - a**2 + 0.5 * a**4
        assert np.abs(energy).max() < 1e-10

    def test_deterministic(self):
        a = find_homoclinic(2.0, -2.0)
        b = find_homoclinic(2.0, -2.0)
        assert (a.section_value, a.details, a.crossing_time, a.return_distance) \
            == (b.section_value, b.details, b.crossing_time, b.return_distance)

    def test_rejects_wrong_signs(self):
        with pytest.raises(ValueError, match="unstable origin"):
            find_homoclinic(-1.0, -2.0)
        with pytest.raises(ValueError, match="focusing"):
            find_homoclinic(2.0, 1.0)
        with pytest.raises(ValueError, match="start > 0"):
            find_homoclinic(2.0, -2.0, start=0.0)

    @pytest.mark.parametrize("start", [SQRT2, 5.0, 1e-320])
    def test_start_off_the_half_orbit_raises(self, start):
        # the half orbit rises from a = start to the peak P = sqrt(2); from a
        # subnormal start, P / start overflows and it would never arrive
        with pytest.raises(RuntimeError, match=r"verify\.start .* P = 1\.41421"):
            find_homoclinic(2.0, -2.0, start=start)


class TestFrontShooting:
    def test_supercritical_front_is_monotone(self):
        res = find_front(0.25, 1.0, 1.0, 1.1)
        assert res.success
        assert res.monotone
        assert res.reach_distance <= 1e-4
        assert res.details["saddle"] == pytest.approx(1.0)
        s = res.details["unstable_rate"]
        assert abs(0.25 * s**2 + 1.1 * s - 2.0) < 1e-12

    def test_matches_the_newell_whitehead_front(self):
        # kappa = 1/4, alpha = beta = 1 at c = 3 sqrt(kappa alpha / 2): the
        # exact front 1 / (1 + exp(x sqrt(2))), translated by the mean shift
        # log(1/a - 1) / sqrt(2) - x over the samples with 0.1 < a < 0.9
        kappa, c = 0.25, 3.0 * math.sqrt(0.125)
        res = find_front(kappa, 1.0, 1.0, c)
        assert res.success and res.monotone
        xs, a = res.trajectory.xs, res.trajectory.ys[:, 0].real
        rate = math.sqrt(1.0 / (2.0 * kappa))
        band = (a > 0.1) & (a < 0.9)
        shift = np.mean(np.log(1.0 / a[band] - 1.0) / rate - xs[band])
        exact = 1.0 / (1.0 + np.exp(rate * (xs + shift)))
        dexact = -rate * exact * (1.0 - exact)
        assert np.abs(a - exact).max() < 1e-8
        assert np.abs(res.trajectory.ys[:, 1].real - dexact).max() < 1e-8

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


# The complex-array shooters that the scalar ones replaced.  The front shooter
# is a bitwise reference: every state is real, so the zero imaginary parts
# change no bit of the real parts, and the scalar shooter must reproduce it
# exactly.  The homoclinic shooter (RK4 steps of 1e-3, an 80-step bisection of
# the section crossing and a mirrored return leg) is the independent oracle of
# the closed-form loop.


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


def _sech_orbit(peak, k, s):
    """``(a, a')`` of ``a = peak sech(k s)``."""
    sech = 1.0 / np.cosh(k * s)
    return peak * sech, -peak * k * sech * np.tanh(k * s)


class TestClosedFormLoopMatchesRk4Shooter:
    """The closed-form loop that ``find_homoclinic`` reports, at the times of
    the RK4 shot from the same start, against that shot."""

    @staticmethod
    def _check(lin, cub, start):
        ts, ys, crossing, _ = _array_homoclinic(lin, cub, start)
        res = find_homoclinic(lin, cub, start)
        assert res.success
        a, p = _sech_orbit(res.section_value, res.details["rate"],
                           ts - res.crossing_time)
        assert np.abs(a - ys[:, 0].real).max() < 1e-9
        assert np.abs(p - ys[:, 1].real).max() < 1e-9
        assert abs(res.crossing_time - crossing) < 1e-9
        assert abs(res.section_value - ys[-1, 0].real) < 1e-9

    def test_model_pair(self):
        self._check(2.0, -2.0, 1e-6)

    def test_seed_1_pair_problem(self, pair, monkeypatch):
        # the planar balance and start that `cm verify` uses on the pair-o3
        # problem of the benchmark
        _, J = pair
        seen = []

        def capture(lin, cub, start):
            seen.append((lin, cub, start))
            return find_homoclinic(lin, cub, start)

        monkeypatch.setattr(cmnl.verify, "find_homoclinic", capture)
        pulse_scaling_report(critical_pair_kernel(), J, [1e-2])
        (args,) = seen
        assert args[2] == 1e-7
        self._check(*args)

    # the shot starts on the unstable eigenvector, (start, k start), off the
    # loop by O(start^2): that shifts its time by about (start / P)^2 / (4 k)
    @settings(max_examples=4)
    @given(lin=st.floats(1.0, 4.0), cub=st.floats(-4.0, -0.25),
           fraction=st.floats(1e-7, 1e-5))
    def test_hypothesis_draws(self, lin, cub, fraction):
        self._check(lin, cub, fraction * math.sqrt(2.0 * lin / -cub))


class TestScalarShooterMatchesArrayReference:
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

    @pytest.mark.parametrize("args", [(0.25, 1.0, 1.0, 1.1), (0.37, 0.9, 1.3, 0.7)])
    def test_inlined_stages_are_rk4_step(self, args):
        # the front shot inlines the stages of ``rk4_step`` and its field
        kappa, alpha, beta, c_star = args
        res = find_front(*args)
        inv_kappa = 1.0 / kappa

        def f(a, p):
            return p, -(c_star * p + a * (alpha - beta * (a * a))) * inv_kappa

        step = res.trajectory.xs[1]
        y = tuple(res.trajectory.ys[0].real)
        for row in res.trajectory.ys[1:]:
            y = cmnl.verify.rk4_step(f, y, step)
            assert y == (row[0].real, row[1].real)


class TestStepCount:
    """The front shot takes one step per trajectory sample after the first,
    and no call of the module-level ``rk4_step``: its stages are inlined.
    The step count was measured on the complex-array shooter.  The homoclinic
    loop is in closed form and takes no step.
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
        assert steps[0] == 0

    def test_front(self, steps):
        res = find_front(0.25, 1.0, 1.0, 1.1)
        assert (steps[0], len(res.trajectory.xs) - 1) == (0, 7589)


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
        kappa2 = moment(G, 2, 0.0)[0, 0].real
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
        assert localized(prof, 1e-6)
        assert halfwidth(prof) >= 5.0 * decay_length(prof)
        assert abs(peak(prof) / math.sqrt(1e-2) / (2.0 * SQRT2) - 1.0) < 0.01

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
        # the coordinate columns (A, conj A, B, conj B) that the pulse grid
        # passes to reconstruct, read over the whole grid
        _, J = pair
        seen, reconstruct_of = [], cmnl.verify.reconstruct

        def capture(J, size, x, columns, mu):
            seen.append(columns)
            return reconstruct_of(J, size, x, columns, mu)

        monkeypatch.setattr(cmnl.verify, "reconstruct", capture)
        lam = 1e-2
        prof = pulse_profile(J, lam)[0]
        (columns,) = seen
        xs, cols = prof.xs, columns(0, len(prof.xs))
        eps = math.sqrt(lam)
        z = eps * xs
        phase = np.exp(1j * xs)  # carrier frequency 1
        a = cols[0] / (eps * phase)
        p = cols[2] / (eps**2 * phase)
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

    def test_start_too_far_from_the_origin_raises(self, pair):
        # the half orbit from a = 1e-3 comes back to sqrt(2) 1e-3 of the origin
        _, J = pair
        with pytest.raises(RuntimeError, match=r"verify\.start = 0\.001 ends 0\.00141"):
            pulse_profile(J, 1e-2, start=1e-3)

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
        diff = np.abs(whole_profile(prof).values[:, 0] - eps * fr.trajectory.ys[:, 0])
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
