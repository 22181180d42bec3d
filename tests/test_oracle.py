"""The brute-force oracles against quantities known in closed form, and the
checkers against deliberately wrong closed forms."""

import numpy as np
import pytest

from depthcrf import crf, oracle
from depthcrf.crf import PairwiseWeights

from testutil import no_edge_instance, random_instance, rel_err, single_edge_instance

ONES = PairwiseWeights(np.array([1.0]))


class TestQuadrature:
    def test_gaussian_integral_one_node(self):
        # integral of exp(-y^2) over the line is sqrt(pi)
        inst = no_edge_instance([0.0])
        value = oracle.quad_log_partition(inst, ONES)
        assert abs(value - 0.5 * np.log(np.pi)) < 1e-8

    def test_shifted_gaussian_one_node(self):
        # integral of exp(-(y-z)^2 ... ) picks up exp(z'A^{-1}z - z'z) = 1 here
        inst = no_edge_instance([1.3])
        value = oracle.quad_log_partition(inst, ONES)
        assert abs(value - 0.5 * np.log(np.pi)) < 1e-8

    def test_independent_product_two_nodes(self):
        # no edge: the integral factorizes into two 1-D Gaussians, pi total
        inst = no_edge_instance([0.5, -0.7])
        value = oracle.quad_log_partition(inst, ONES)
        assert abs(value - np.log(np.pi)) < 1e-8

    def test_coupled_two_nodes_closed_form(self):
        # A = [[1.5,-0.5],[-0.5,1.5]]: log Z = log pi - 0.5 log 2 + z'A^{-1}z - z'z
        inst = single_edge_instance(0.5, z=[1.0, -1.0])
        mean = np.linalg.solve(np.array([[1.5, -0.5], [-0.5, 1.5]]), inst.z)
        expected = np.log(np.pi) - 0.5 * np.log(2.0) + inst.z @ mean - inst.z @ inst.z
        value = oracle.quad_log_partition(inst, ONES)
        assert rel_err(value, expected) < 1e-8

    def test_three_node_cap(self):
        inst = no_edge_instance([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            oracle.quad_log_partition(inst, ONES)

    def test_explicit_half_width(self):
        inst = no_edge_instance([0.0])
        spec = oracle.QuadratureSpec(half_width=7.0, points=2001)
        assert abs(oracle.quad_log_partition(inst, ONES, spec) - 0.5 * np.log(np.pi)) < 1e-8


class TestFiniteDifferences:
    def test_quadratic_is_near_exact(self):
        # central differences are exact on quadratics up to roundoff
        a = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([0.5, -1.0])
        x = np.array([0.7, 0.2])
        grad = oracle.fd_gradient(lambda v: 0.5 * v @ a @ v + b @ v, x)
        assert rel_err(grad, a @ x + b) < 1e-9

    def test_scalar_cubic(self):
        grad = oracle.fd_gradient(lambda v: float(v[0] ** 3), np.array([2.0]))
        assert abs(grad[0] - 12.0) < 1e-6


class TestGridMap:
    def test_single_node_finds_z(self):
        inst = no_edge_instance([0.25])
        spec = oracle.GridSpec(lo=-2.0, hi=2.0, points=1601)
        found = oracle.grid_map(inst, ONES, spec)
        assert abs(found[0] - 0.25) <= spec.cell

    def test_two_node_hand_solution(self):
        inst = single_edge_instance(0.5, z=[1.0, -1.0])
        spec = oracle.GridSpec(lo=-2.0, hi=2.0, points=401)
        found = oracle.grid_map(inst, ONES, spec)
        assert np.max(np.abs(found - np.array([0.5, -0.5]))) <= spec.cell

    def test_dimension_cap(self):
        inst = no_edge_instance([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            oracle.grid_map(inst, ONES, oracle.GridSpec(-1.0, 1.0, 11))


class TestMcMoments:
    def test_single_node_moments(self):
        # posterior is N(z, 1/2) when there is no coupling
        inst = no_edge_instance([0.4])
        mean, cov = oracle.mc_moments(inst, ONES, draws=200_000, seed=5)
        assert abs(mean[0] - 0.4) < 4 * np.sqrt(0.5 / 200_000)
        se_var = np.sqrt(2 * 0.5**2 / 200_000)
        assert abs(cov[0, 0] - 0.5) < 4 * se_var

    def test_matches_gaussian_params(self):
        inst, w = random_instance(np.random.default_rng(61), n=3)
        mean, cov = oracle.gaussian_params(inst, w)
        assert oracle.moment_error(inst, w, mean, cov, draws=150_000, seed=9) < 4.0

    def test_rejects_small_draw_counts(self):
        inst = no_edge_instance([0.0])
        with pytest.raises(ValueError):
            oracle.mc_moments(inst, ONES, draws=100, seed=0)

    def test_deterministic_given_seed(self):
        inst = single_edge_instance(0.3, z=[0.2, -0.1])
        m1, c1 = oracle.mc_moments(inst, ONES, draws=20_000, seed=3)
        m2, c2 = oracle.mc_moments(inst, ONES, draws=20_000, seed=3)
        assert np.array_equal(m1, m2) and np.array_equal(c1, c2)


class TestCheckersCatchWrongClosedForms:
    def test_nan_map_fails_every_check_that_reads_it(self, monkeypatch):
        # a worst-error fold that dropped NaN would report these as passed
        monkeypatch.setattr(crf, "map_infer", lambda inst, w: np.full(inst.n, np.nan))
        rng = np.random.default_rng(0)
        checks = [*oracle.check_map(rng, 2), oracle.check_zero_coupling(rng, 2),
                  oracle.check_moments(rng, 2)]
        assert all(np.isnan(check.error) and not check.ok for check in checks)

    def test_nan_log_partition_fails(self, monkeypatch):
        monkeypatch.setattr(crf, "log_partition", lambda inst, w: np.nan)
        check = oracle.check_log_partition(np.random.default_rng(0), 2)
        assert np.isnan(check.error) and not check.ok

    def test_scaled_map_fails_the_moments(self, monkeypatch):
        # criterion 5's seed and draws; the moments come from the CRF, not the oracle
        exact = crf.map_infer
        monkeypatch.setattr(crf, "map_infer", lambda inst, w: 1.1 * exact(inst, w))
        assert not oracle.check_moments(np.random.default_rng(53), 10).ok
