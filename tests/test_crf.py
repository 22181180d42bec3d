"""Closed-form CRF quantities against hand values, brute-force oracles and the
dense-stack reference route."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from depthcrf import crf, oracle, synth
from depthcrf.crf import CrfInstance, FactorizationError, PairwiseWeights
from depthcrf.graph import GraphConfig, build_graph

import crf_reference
from testutil import (
    no_edge_instance,
    permute_instance,
    random_instance,
    rel_err,
    single_edge_instance,
)

ONES = PairwiseWeights(np.array([1.0]))


class TestValidation:
    def test_weights_reject_negative(self):
        with pytest.raises(ValueError):
            PairwiseWeights(np.array([0.5, -0.1]))

    def test_weights_reject_nonfinite(self):
        with pytest.raises(ValueError):
            PairwiseWeights(np.array([np.inf]))

    def test_out_of_range_similarity_rejected(self):
        with pytest.raises(ValueError):
            CrfInstance(z=np.zeros(2), similarities=[[1.5]], edges=[[0, 1]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CrfInstance(z=np.zeros(2), similarities=np.zeros((1, 1)), edges=[[1, 1]])

    @pytest.mark.parametrize(
        "edges",
        [[[1, 0]], [[0, 2], [0, 1]], [[0, 1], [0, 1]], [[1, 2], [0, 2]], [[0, 3]], [[-1, 1]]],
        ids=["reversed", "unsorted", "duplicate", "unsorted-first", "too-high", "negative"],
    )
    def test_non_canonical_edges_rejected(self, edges):
        sims = np.full((1, len(edges)), 0.5)
        with pytest.raises(ValueError):
            CrfInstance(z=np.zeros(3), similarities=sims, edges=edges)

    def test_similarity_columns_must_match_edges(self):
        with pytest.raises(ValueError):
            CrfInstance(z=np.zeros(3), similarities=np.zeros((1, 1)), edges=[[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            CrfInstance(z=np.zeros(3), similarities=np.zeros((1, 3, 3)), edges=[[0, 1]])

    def test_channel_count_mismatch_rejected(self):
        inst = no_edge_instance([0.0], k=2)
        with pytest.raises(ValueError):
            crf.log_partition(inst, ONES)

    def test_instance_arrays_are_read_only(self):
        inst, _ = random_instance(np.random.default_rng(0), n=4)
        with pytest.raises(ValueError):
            inst.z[0] = 1.0
        with pytest.raises(ValueError):
            inst.similarities[0, 0] = 1.0
        with pytest.raises(ValueError):
            inst.edges[0, 0] = 1


class TestCoupling:
    def test_matches_entrywise_loop_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 9):
            inst, w = random_instance(rng, n)
            assert rel_err(crf.coupling_matrix(inst, w), oracle.direct_coupling(inst, w)) < 1e-14

    def test_single_edge_entry(self):
        inst = single_edge_instance(0.5, z=[0.0, 0.0])
        assert np.allclose(crf.coupling_matrix(inst, ONES), [0.5])


class TestPrecision:
    def test_hand_matrix(self):
        # r_12 = 0.5: A = [[1.5, -0.5], [-0.5, 1.5]], log|A| = log 2
        inst = single_edge_instance(0.5, z=[0.0, 0.0])
        prec = crf.build_precision(2, inst.edges, crf.coupling_matrix(inst, ONES))
        a = crf_reference.precision(inst, ONES)[0]
        assert np.allclose(a, [[1.5, -0.5], [-0.5, 1.5]])
        factor = crf_reference.block_factor(prec)
        assert np.allclose(factor @ factor.T, a)
        assert abs(prec.logdet - np.log(2.0)) < 1e-12

    def test_logdet_matches_generic_slogdet(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst, w = random_instance(rng, n=int(rng.integers(1, 12)))
            prec = crf.build_precision(inst.n, inst.edges, crf.coupling_matrix(inst, w))
            sign, logdet = np.linalg.slogdet(crf_reference.precision(inst, w)[0])
            assert sign > 0
            assert abs(prec.logdet - logdet) < 1e-9 * max(1.0, abs(logdet))

    def test_factorizes_for_valid_inputs(self):
        valid, _ = oracle.check_factorization(np.random.default_rng(13), 100)
        assert valid.ok

    def test_negative_coupling_raises_factorization_error(self):
        with pytest.raises(FactorizationError):
            crf.build_precision(2, np.array([[0, 1]]), np.array([-5.0]))

    def test_one_coupling_per_edge_required(self):
        with pytest.raises(ValueError):
            crf.build_precision(3, np.array([[0, 1], [1, 2]]), np.array([0.5]))


class TestEnergy:
    def test_hand_value(self):
        # z = 0, y = [1, 0], unit coupling: 1 + 1*(1-0)^2 = 2
        inst = single_edge_instance(1.0, z=[0.0, 0.0])
        assert abs(crf.energy(inst, ONES, [1.0, 0.0]) - 2.0) < 1e-12

    def test_zero_at_z_without_edges(self):
        inst = no_edge_instance([0.3, -1.2, 0.8])
        assert crf.energy(inst, ONES, inst.z) == 0.0

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            inst, w = random_instance(rng, n=int(rng.integers(1, 15)))
            y = rng.normal(size=inst.n)
            a = crf_reference.precision(inst, w)[0]
            quad = y @ a @ y - 2.0 * inst.z @ y + inst.z @ inst.z
            assert rel_err(crf.energy(inst, w, y), quad, floor=1e-9) < 1e-10

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            inst, w = random_instance(rng, n=int(rng.integers(1, 10)))
            y = rng.normal(size=inst.n)
            assert rel_err(
                crf.energy(inst, w, y), oracle.direct_energy(inst, w, y), floor=1e-9
            ) < 1e-12


class TestLogPartition:
    def test_single_node_closed_form(self):
        # no coupling, z = 0: integral of exp(-y^2) = sqrt(pi)
        inst = no_edge_instance([0.0])
        assert abs(crf.log_partition(inst, ONES) - 0.5 * np.log(np.pi)) < 1e-12

    def test_two_node_value_against_quadrature(self):
        inst = single_edge_instance(0.5, z=[1.0, -1.0])
        analytic = crf.log_partition(inst, ONES)
        quad = oracle.quad_log_partition(inst, ONES)
        assert rel_err(analytic, quad) < 1e-6

    def test_normalization_against_quadrature(self):
        assert oracle.check_log_partition(np.random.default_rng(23), 10).ok


class TestNll:
    def test_single_node_at_z(self):
        inst = no_edge_instance([0.7], y=[0.7])
        assert abs(crf.nll(inst, ONES) - 0.5 * np.log(np.pi)) < 1e-12

    def test_requires_ground_truth(self):
        inst = no_edge_instance([0.0])
        with pytest.raises(ValueError):
            crf.nll(inst, ONES)

    def test_equals_energy_plus_log_partition(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst, w = random_instance(rng, n=int(rng.integers(1, 15)))
            combined = crf.energy(inst, w, inst.y) + crf.log_partition(inst, w)
            assert rel_err(crf.nll(inst, w), combined, floor=1e-6) < 1e-9

    def test_with_grads_agrees_with_individual_ops(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst, w = random_instance(rng, n=int(rng.integers(2, 12)))
            value, gz, gb = crf.nll_with_grads(inst, w)
            assert abs(value - crf.nll(inst, w)) < 1e-12
            assert np.allclose(gz, 2.0 * (crf.map_infer(inst, w) - inst.y), atol=1e-12)
            assert np.allclose(gb, crf_reference.nll_with_grads(inst, w)[2], atol=1e-12)


class TestMapInfer:
    def test_hand_value(self):
        # A = [[1.5, -0.5], [-0.5, 1.5]], z = [1, -1]: solution [0.5, -0.5]
        inst = single_edge_instance(0.5, z=[1.0, -1.0])
        assert np.allclose(crf.map_infer(inst, ONES), [0.5, -0.5], atol=1e-12)

    def test_strong_coupling_pulls_together(self):
        # similarities cap at 1, so the factor-1000 coupling comes from beta
        inst = single_edge_instance(1.0, z=[1.0, -1.0], k=1)
        star = crf.map_infer(inst, PairwiseWeights(np.array([1000.0])))
        assert np.max(np.abs(star)) < 1e-2

    def test_zero_weights_return_z_exactly(self):
        assert oracle.check_zero_coupling(np.random.default_rng(37), 20).error == 0.0

    def test_node_relabeling_commutes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst, w = random_instance(rng, n=int(rng.integers(2, 12)))
            perm = rng.permutation(inst.n)
            star = crf.map_infer(inst, w)
            star_perm = crf.map_infer(permute_instance(inst, perm), w)
            assert np.max(np.abs(star_perm - star[perm])) < 1e-12

    def test_mode_beats_perturbations(self):
        _, mode = oracle.check_map(np.random.default_rng(43), 5)
        assert mode.ok


class TestGradients:
    def test_grad_unary_hand_value(self):
        # single node, coupling-free: d/dz of (z^2 - 2zy + ...) at z=2, y=1 is 2
        inst = no_edge_instance([2.0], y=[1.0])
        assert np.allclose(crf.nll_with_grads(inst, ONES)[1], [2.0], atol=1e-12)

    def test_grad_unary_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            inst, w = random_instance(rng, n=int(rng.integers(1, 10)))

            f = lambda z: crf.nll(CrfInstance(z, inst.similarities, inst.edges, inst.y), w)
            fd = oracle.fd_gradient(f, inst.z)
            assert rel_err(crf.nll_with_grads(inst, w)[1], fd) < 1e-6

    def test_grad_pairwise_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst, w = random_instance(rng, n=int(rng.integers(2, 10)))

            def f(beta):
                return crf.nll(inst, PairwiseWeights(beta))

            fd = oracle.fd_gradient(f, w.beta)
            assert rel_err(crf.nll_with_grads(inst, w)[2], fd) < 1e-5

    def test_grad_pairwise_single_edge_against_fd(self):
        inst = single_edge_instance(0.8, z=[0.4, -0.2], y=[1.0, 0.3])
        fd = oracle.fd_gradient(
            lambda b: crf.nll(inst, PairwiseWeights(b)), np.array([1.0])
        )
        assert rel_err(crf.nll_with_grads(inst, ONES)[2], fd) < 1e-5


def edge_list_instance(rng, n, edges):
    """Random z, y and three similarity channels on the given edge set."""
    edges = np.unique(np.sort(np.asarray(edges, dtype=np.intp).reshape(-1, 2), axis=1), axis=0)
    return CrfInstance(
        z=rng.normal(size=n),
        similarities=rng.uniform(0.05, 1.0, size=(3, len(edges))),
        edges=edges,
        y=rng.normal(size=n),
    ), PairwiseWeights(rng.uniform(0.1, 1.5, size=3))


def path_edges(n):
    return [(p, p + 1) for p in range(n - 1)]


def synth_instance(superpixels, seed):
    """A synth scene's graph at ``superpixels``, z = truth plus noise."""
    sample = synth.generate(synth.SceneSpec(seed=seed))
    data = build_graph(sample, GraphConfig(target_superpixels=superpixels))
    y = data.features.gt_logdepth
    rng = np.random.default_rng(61)
    return CrfInstance(
        z=y + rng.normal(0.0, 0.3, size=y.size),
        similarities=data.similarities,
        edges=data.edges,
        y=y,
    )


class TestDenseReference:
    """The block tridiagonal edge-list path against the dense (K, n, n) route
    and the dense Cholesky factorization it replaced."""

    @staticmethod
    def assert_matches(inst, w):
        value, gz, gb = crf.nll_with_grads(inst, w)
        ref_value, ref_gz, ref_gb = crf_reference.nll_with_grads(inst, w)
        assert rel_err(value, ref_value) < 1e-12
        assert rel_err(gz, ref_gz) < 1e-12
        assert rel_err(gb, ref_gb) < 1e-12
        assert rel_err(crf.nll(inst, w), ref_value) < 1e-12
        assert rel_err(crf.map_infer(inst, w), crf_reference.map_infer(inst, w)) < 1e-12
        prec = crf.build_precision(inst.n, inst.edges, crf.coupling_matrix(inst, w))
        m, w_rows = prec.inv_diag.shape[:2]
        assert (m - 1) * w_rows < inst.n <= m * w_rows  # padding only in the last block
        _, ref_chol, ref_logdet = crf_reference.precision(inst, w)
        assert rel_err(prec.logdet, ref_logdet) < 1e-12
        assert rel_err(crf_reference.block_factor(prec), ref_chol) < 1e-12
        rhs = np.random.default_rng(inst.n).normal(size=(inst.n, 3))
        ref_solve = scipy.linalg.cho_solve((ref_chol, True), rhs)
        assert rel_err(prec.solve(rhs), ref_solve) < 1e-12
        return prec

    def test_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            inst, w = random_instance(rng, n=int(rng.integers(1, 25)))
            self.assert_matches(inst, w)

    @pytest.mark.parametrize("min_block", [1, 4, crf.MIN_BLOCK])
    def test_random_banded_instances(self, monkeypatch, min_block):
        monkeypatch.setattr(crf, "MIN_BLOCK", min_block)
        rng = np.random.default_rng(67)
        for _ in range(20):
            n, bandwidth = int(rng.integers(1, 120)), int(rng.integers(1, 12))
            pairs = [(p, q) for p in range(n) for q in range(p + 1, min(p + bandwidth, n - 1) + 1)]
            keep = rng.random(len(pairs)) < 0.6
            self.assert_matches(*edge_list_instance(rng, n, [e for e, k in zip(pairs, keep) if k]))

    @pytest.mark.parametrize("superpixels", [150, 700, 2000])
    def test_synth_graphs(self, superpixels):
        inst = synth_instance(superpixels, seed=5)
        assert inst.n > 0.9 * superpixels
        prec = self.assert_matches(inst, PairwiseWeights(np.array([0.7, 1.3, 0.4])))
        assert len(prec.inv_diag) > 1

    @pytest.mark.parametrize(
        "n, edges, blocks",
        [
            (3 * crf.MIN_BLOCK, path_edges(3 * crf.MIN_BLOCK) + [(0, 3 * crf.MIN_BLOCK - 1)], 1),
            (2 * crf.MIN_BLOCK + 5, [], 2),
            (1, [], 1),
            (3 * crf.MIN_BLOCK + 1, path_edges(3 * crf.MIN_BLOCK + 1), 3),
        ],
        ids=["bandwidth-n-1", "edgeless", "one-node", "padded-block"],
    )
    def test_block_layouts(self, n, edges, blocks):
        inst, w = edge_list_instance(np.random.default_rng(71), n, edges)
        assert len(self.assert_matches(inst, w).inv_diag) == blocks

    def test_selected_inverse_rejects_entries_off_the_pattern(self):
        n = 3 * crf.MIN_BLOCK
        inst, w = edge_list_instance(np.random.default_rng(73), n, path_edges(n))
        prec = crf.build_precision(n, inst.edges, crf.coupling_matrix(inst, w))
        with pytest.raises(ValueError):
            prec.selected_inverse(np.array([0]), np.array([n - 1]))


def test_nll_with_grads_working_set_stays_small():
    inst = synth_instance(2000, seed=3)
    weights = PairwiseWeights(np.array([0.5, 0.7, 0.3]))
    tracemalloc.start()
    try:
        crf.nll_with_grads(inst, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
