"""Closed-form CRF quantities against hand values, brute-force oracles and the
dense-stack reference route."""

import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from depthcrf import crf, oracle, synth
from depthcrf.crf import CrfInstance, FactorizationError
from depthcrf.graph import GraphConfig, build_graph

import crf_reference
from testutil import (
    assert_read_only,
    no_edge_instance,
    permute_instance,
    random_instance,
    rel_err,
    single_edge_instance,
)

ONES = np.ones(1)

# every CRF entry point, called with (instance, z, beta)
ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        crf.log_partition,
        crf.nll,
        crf.map_infer,
        crf.nll_with_grads,
    ],
    ids=["log_partition", "nll", "map_infer", "nll_with_grads"],
)


class TestValidation:
    def test_out_of_range_similarity_rejected(self):
        with pytest.raises(ValueError):
            CrfInstance(n=2, similarities=[[1.5]], edges=[[0, 1]])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CrfInstance(n=2, similarities=np.zeros((1, 1)), edges=[[1, 1]])

    @pytest.mark.parametrize(
        "edges",
        [[[1, 0]], [[0, 2], [0, 1]], [[0, 1], [0, 1]], [[1, 2], [0, 2]], [[0, 3]], [[-1, 1]],
         [[0, 1, 2]], [0, 1]],
        ids=["reversed", "unsorted", "duplicate", "unsorted-first", "too-high", "negative",
             "three-columns", "flat"],
    )
    def test_non_canonical_edges_rejected(self, edges):
        sims = np.full((1, len(edges)), 0.5)
        with pytest.raises(ValueError):
            CrfInstance(n=3, similarities=sims, edges=edges)

    def test_similarity_columns_must_match_edges(self):
        with pytest.raises(ValueError):
            CrfInstance(n=3, similarities=np.zeros((1, 1)), edges=[[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            CrfInstance(n=3, similarities=np.zeros((1, 3, 3)), edges=[[0, 1]])

    @pytest.mark.parametrize("n", [0, -1, 2.5], ids=["zero", "negative", "fractional"])
    def test_node_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError):
            CrfInstance(n=n, similarities=np.zeros((1, 0)), edges=np.empty((0, 2)))

    def test_ground_truth_must_match_the_node_count(self):
        with pytest.raises(ValueError):
            no_edge_instance(3, y=[0.0, 1.0])
        with pytest.raises(ValueError):
            no_edge_instance(2, y=[0.0, np.nan])

    def test_channel_count_mismatch_rejected(self):
        inst = no_edge_instance(1, k=2)
        with pytest.raises(ValueError):
            crf.log_partition(inst, [0.0], ONES)

    def test_instance_arrays_are_read_only(self):
        inst, _, _ = random_instance(np.random.default_rng(0), n=4)
        assert_read_only(inst)

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_unpickling_checks_and_freezes_the_instance(self, protocol):
        inst, _, _ = random_instance(np.random.default_rng(0), n=4)
        copy = pickle.loads(pickle.dumps(inst, protocol=protocol))
        assert_read_only(copy)
        for name in ("similarities", "edges", "y", "node_slots", "edge_slots", "y_sq_diffs"):
            assert getattr(copy, name).tobytes() == getattr(inst, name).tobytes()
        assert copy.block_pieces == inst.block_pieces and copy.block_rows == inst.block_rows
        tampered = inst.similarities.copy()
        tampered[0, 0] = 1.5
        object.__setattr__(inst, "similarities", tampered)
        with pytest.raises(ValueError, match="similarities must lie in"):
            pickle.loads(pickle.dumps(inst, protocol=protocol))

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "z", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [0.1, np.nan, 0.3], [0.1, 0.2, np.inf]],
        ids=["short", "long", "nan", "inf"],
    )
    def test_every_function_rejects_a_bad_z(self, call, z):
        inst = CrfInstance(n=3, similarities=[[0.5]], edges=[[0, 1]], y=np.zeros(3))
        with pytest.raises(ValueError, match="z must be 3 finite values"):
            call(inst, z, ONES)

    @ENTRY_POINTS
    @pytest.mark.parametrize(
        "beta",
        [[0.5, -0.1], [0.5, np.nan], [np.inf, 0.5], [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], []],
        ids=["negative", "nan", "inf", "short", "long", "2-D", "empty"],
    )
    def test_every_function_rejects_a_bad_beta(self, call, beta, monkeypatch):
        def unreached(*args):
            raise AssertionError("a bad beta reached the factorization")

        monkeypatch.setattr(crf, "build_precision", unreached)
        inst = CrfInstance(n=3, similarities=[[0.5], [0.25]], edges=[[0, 1]], y=np.zeros(3))
        with pytest.raises(ValueError, match="weights"):
            call(inst, np.zeros(3), beta)


class TestCoupling:
    def test_matches_entrywise_loop_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 9):
            inst, _, w = random_instance(rng, n)
            assert rel_err(crf.coupling_matrix(inst, w), oracle.direct_coupling(inst, w)) < 1e-14

    def test_single_edge_entry(self):
        inst = single_edge_instance(0.5)
        assert np.allclose(crf.coupling_matrix(inst, ONES), [0.5])


class TestPrecision:
    def test_hand_matrix(self):
        # r_12 = 0.5: A = [[1.5, -0.5], [-0.5, 1.5]], log|A| = log 2
        inst = single_edge_instance(0.5)
        prec = crf.build_precision(inst, crf.coupling_matrix(inst, ONES))
        a = crf_reference.precision(inst, ONES)[0]
        assert np.allclose(a, [[1.5, -0.5], [-0.5, 1.5]])
        # one block, so G is A^{-1} = [[3, 1], [1, 3]] / 4 and there is no h
        (g,), ref_h = crf_reference.schur_blocks(inst, ONES)
        assert prec.h == () and ref_h == []
        assert np.allclose(prec.g[0], [[0.75, 0.25], [0.25, 0.75]])
        assert rel_err(prec.g[0], g) < 1e-12
        assert abs(prec.logdet - np.log(2.0)) < 1e-12

    def test_logdet_matches_generic_slogdet(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inst, _, w = random_instance(rng, n=int(rng.integers(1, 12)))
            prec = crf.build_precision(inst, crf.coupling_matrix(inst, w))
            sign, logdet = np.linalg.slogdet(crf_reference.precision(inst, w)[0])
            assert sign > 0
            assert abs(prec.logdet - logdet) < 1e-9 * max(1.0, abs(logdet))

    def test_factorizes_for_valid_inputs(self):
        valid, _ = oracle.check_factorization(np.random.default_rng(13), 100)
        assert valid.ok

    def test_negative_coupling_raises_factorization_error(self):
        with pytest.raises(FactorizationError):
            crf.build_precision(single_edge_instance(1.0), np.array([-5.0]))

    @pytest.mark.parametrize("coupling", [np.inf, np.nan])
    def test_non_finite_coupling_raises_factorization_error(self, coupling):
        with pytest.raises(FactorizationError, match="not finite"):
            crf.build_precision(single_edge_instance(1.0), np.array([coupling]))

    def test_overflowing_factor_raises_factorization_error(self):
        # finite couplings whose degree sum overflows the middle node's diagonal
        inst = CrfInstance(n=3, similarities=np.ones((1, 2)), edges=[[0, 1], [1, 2]])
        with pytest.raises(FactorizationError, match="not finite"):
            crf.build_precision(inst, np.full(2, 1e308))

    def test_non_finite_last_inverse_block_raises_factorization_error(self, monkeypatch):
        # no later pivot reads the last G, so it is checked on its own; a
        # stand-in trtri makes it non-finite on a one-block instance
        monkeypatch.setattr(crf, "_trtri", lambda c, **kwargs: (np.full_like(c, np.inf), 0))
        with pytest.raises(FactorizationError, match="not finite"):
            crf.build_precision(single_edge_instance(1.0), np.array([0.5]))

    def test_overflowing_beta_raises_factorization_error_without_warning(self):
        # beta @ similarities overflows to inf; the suite turns a warning into an error
        inst = CrfInstance(n=3, similarities=np.ones((3, 2)), edges=[[0, 1], [1, 2]])
        with pytest.raises(FactorizationError, match="not finite"):
            crf.map_infer(inst, np.zeros(3), np.full(3, 1e308))

    def test_condition_bound_reaching_one_over_eps_raises_factorization_error(self):
        # Gershgorin bounds cond(A) by 2 max A_ii - 1: about 2e15 factors
        # (times eps it is 0.44), 6e15 does not (1.33)
        inst = single_edge_instance(1.0)
        crf.build_precision(inst, np.array([1e15]))
        with pytest.raises(FactorizationError, match="condition bound"):
            crf.build_precision(inst, np.array([3e15]))

    def test_solve_rejects_a_rhs_of_the_wrong_length(self):
        inst = single_edge_instance(1.0)
        prec = crf.build_precision(inst, np.array([0.5]))
        for rhs in (np.ones(1), np.ones(3), np.ones((3, 2))):
            with pytest.raises(ValueError, match="rhs must have 2 rows"):
                prec.solve(rhs)

    def test_one_coupling_per_edge_required(self):
        with pytest.raises(ValueError):
            inst = CrfInstance(n=3, similarities=np.ones((1, 2)), edges=[[0, 1], [1, 2]])
            crf.build_precision(inst, np.array([0.5]))


class TestLogPartition:
    def test_single_node_closed_form(self):
        # no coupling, z = 0: integral of exp(-y^2) = sqrt(pi)
        value = crf.log_partition(no_edge_instance(1), [0.0], ONES)
        assert abs(value - 0.5 * np.log(np.pi)) < 1e-12

    def test_two_node_value_against_quadrature(self):
        inst, z = single_edge_instance(0.5), [1.0, -1.0]
        analytic = crf.log_partition(inst, z, ONES)
        quad = oracle.quad_log_partition(inst, z, ONES)
        assert rel_err(analytic, quad) < 1e-6

    def test_normalization_against_quadrature(self):
        assert oracle.check_log_partition(np.random.default_rng(23), 10).ok


class TestNll:
    def test_single_node_at_z(self):
        inst = no_edge_instance(1, y=[0.7])
        assert abs(crf.nll(inst, [0.7], ONES) - 0.5 * np.log(np.pi)) < 1e-12

    def test_requires_ground_truth(self):
        with pytest.raises(ValueError):
            crf.nll(no_edge_instance(1), [0.0], ONES)

    def test_equals_energy_plus_log_partition(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            inst, z, w = random_instance(rng, n=int(rng.integers(1, 15)))
            combined = oracle.direct_energy(inst, z, w, inst.y) + crf.log_partition(inst, z, w)
            assert rel_err(crf.nll(inst, z, w), combined, floor=1e-6) < 1e-9

    def test_with_grads_agrees_with_individual_ops(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst, z, w = random_instance(rng, n=int(rng.integers(2, 12)))
            value, gz, gb = crf.nll_with_grads(inst, z, w)
            assert abs(value - crf.nll(inst, z, w)) < 1e-12
            assert np.allclose(gz, 2.0 * (crf.map_infer(inst, z, w) - inst.y), atol=1e-12)
            assert np.allclose(gb, crf_reference.nll_with_grads(inst, z, w)[2], atol=1e-12)


class TestMapInfer:
    def test_hand_value(self):
        # A = [[1.5, -0.5], [-0.5, 1.5]], z = [1, -1]: solution [0.5, -0.5]
        star = crf.map_infer(single_edge_instance(0.5), [1.0, -1.0], ONES)
        assert np.allclose(star, [0.5, -0.5], atol=1e-12)

    def test_strong_coupling_pulls_together(self):
        # similarities cap at 1, so the factor-1000 coupling comes from beta
        inst = single_edge_instance(1.0, k=1)
        star = crf.map_infer(inst, [1.0, -1.0], np.array([1000.0]))
        assert np.max(np.abs(star)) < 1e-2

    def test_zero_weights_return_z_exactly(self):
        assert oracle.check_zero_coupling(np.random.default_rng(37), 20).error == 0.0

    def test_node_relabeling_commutes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            inst, z, w = random_instance(rng, n=int(rng.integers(2, 12)))
            perm = rng.permutation(inst.n)
            star = crf.map_infer(inst, z, w)
            star_perm = crf.map_infer(permute_instance(inst, perm), z[perm], w)
            assert np.max(np.abs(star_perm - star[perm])) < 1e-12

    def test_mode_beats_perturbations(self):
        _, mode = oracle.check_map(np.random.default_rng(43), 5)
        assert mode.ok


class TestGradients:
    def test_grad_unary_hand_value(self):
        # single node, coupling-free: d/dz of (z^2 - 2zy + ...) at z=2, y=1 is 2
        inst = no_edge_instance(1, y=[1.0])
        assert np.allclose(crf.nll_with_grads(inst, [2.0], ONES)[1], [2.0], atol=1e-12)

    def test_grad_unary_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            inst, z, w = random_instance(rng, n=int(rng.integers(1, 10)))
            fd = oracle.fd_gradient(lambda v: crf.nll(inst, v, w), z)
            assert rel_err(crf.nll_with_grads(inst, z, w)[1], fd) < 1e-6

    def test_grad_pairwise_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            inst, z, w = random_instance(rng, n=int(rng.integers(2, 10)))

            def f(beta):
                return crf.nll(inst, z, beta)

            fd = oracle.fd_gradient(f, w)
            assert rel_err(crf.nll_with_grads(inst, z, w)[2], fd) < 1e-5

    def test_grad_pairwise_single_edge_against_fd(self):
        inst, z = single_edge_instance(0.8, y=[1.0, 0.3]), [0.4, -0.2]
        fd = oracle.fd_gradient(
            lambda b: crf.nll(inst, z, b), np.array([1.0])
        )
        assert rel_err(crf.nll_with_grads(inst, z, ONES)[2], fd) < 1e-5


def edge_list_instance(rng, n, edges):
    """(instance, z, beta): random z, y and three similarity channels on
    the given edge set."""
    edges = np.unique(np.sort(np.asarray(edges, dtype=np.intp).reshape(-1, 2), axis=1), axis=0)
    z = rng.normal(size=n)
    sims = rng.uniform(0.05, 1.0, size=(3, len(edges)))
    inst = CrfInstance(n=n, similarities=sims, edges=edges, y=rng.normal(size=n))
    return inst, z, rng.uniform(0.1, 1.5, size=3)


def path_edges(n):
    return [(p, p + 1) for p in range(n - 1)]


def synth_instance(superpixels, seed):
    """A synth scene's graph at ``superpixels`` and z = truth plus noise."""
    sample = synth.generate(synth.SceneSpec(seed=seed))
    data = build_graph(sample, GraphConfig(target_superpixels=superpixels))
    y = data.instance.y
    z = y + np.random.default_rng(61).normal(0.0, 0.3, size=y.size)
    return data.instance, z


def block_widths(inst):
    return [rows.stop - rows.start for rows in inst.block_rows]


class TestDenseReference:
    """The block tridiagonal edge-list path against the dense (K, n, n) route
    and the dense Cholesky factorization it replaced."""

    @staticmethod
    def assert_matches(inst, z, w):
        value, gz, gb = crf.nll_with_grads(inst, z, w)
        ref_value, ref_gz, ref_gb = crf_reference.nll_with_grads(inst, z, w)
        assert rel_err(value, ref_value) < 1e-12
        assert rel_err(gz, ref_gz) < 1e-12
        assert rel_err(gb, ref_gb) < 1e-12
        assert rel_err(crf.nll(inst, z, w), ref_value) < 1e-12
        assert rel_err(crf.map_infer(inst, z, w), crf_reference.map_infer(inst, z, w)) < 1e-12
        prec = crf.build_precision(inst, crf.coupling_matrix(inst, w))
        starts = [rows.start for rows in inst.block_rows]
        widths = np.array(block_widths(inst))
        assert starts == [0, *np.cumsum(widths)[:-1]] and widths.sum() == inst.n  # no padding rows
        block = np.searchsorted(starts, np.arange(inst.n), side="right") - 1
        assert np.isin(block[inst.edges[:, 1]] - block[inst.edges[:, 0]], [0, 1]).all()
        # the floor holds for every block; one that took in the tail is wider
        assert widths.min() >= min(crf.MIN_BLOCK, inst.n)
        assert [*starts, inst.n] == crf_reference.block_starts(inst.n, inst.edges, crf.MIN_BLOCK)
        assert [g.shape for g in prec.g] == [(w, w) for w in widths]
        assert [h.shape for h in prec.h] == list(zip(widths[1:], widths[:-1]))
        _, ref_chol, ref_logdet = crf_reference.precision(inst, w)
        assert rel_err(prec.logdet, ref_logdet) < 1e-12
        ref_g, ref_h = crf_reference.schur_blocks(inst, w)
        for g, expected in zip(prec.g, ref_g, strict=True):
            assert rel_err(g, expected) < 1e-12
        for h, expected in zip(prec.h, ref_h, strict=True):
            assert rel_err(h, expected) < 1e-12
        rhs = np.random.default_rng(inst.n).normal(size=(inst.n, 3))
        ref_solve = scipy.linalg.cho_solve((ref_chol, True), rhs)
        assert rel_err(prec.solve(rhs), ref_solve) < 1e-12
        ref_inv = scipy.linalg.cho_solve((ref_chol, True), np.eye(inst.n))
        inv_diag, inv_edges = prec.selected_inverse()
        assert rel_err(inv_diag, np.diag(ref_inv)) < 1e-12
        assert rel_err(inv_edges, ref_inv[inst.edges[:, 0], inst.edges[:, 1]]) < 1e-12
        return prec

    def test_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            self.assert_matches(*random_instance(rng, n=int(rng.integers(1, 25))))

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
        inst, z = synth_instance(superpixels, seed=5)
        assert inst.n > 0.9 * superpixels
        prec = self.assert_matches(inst, z, np.array([0.7, 1.3, 0.4]))
        assert len(prec.g) > 1

    def test_ragged_blocks_cut_the_block_cost_at_2000_superpixels(self):
        inst, _ = synth_instance(2000, seed=5)
        ragged = sum(w**3 for w in block_widths(inst))
        assert 2.5 * ragged <= crf_reference.uniform_block_cost(inst, crf.MIN_BLOCK)

    @pytest.mark.parametrize(
        "n, edges, widths",
        [
            (3 * crf.MIN_BLOCK, path_edges(3 * crf.MIN_BLOCK) + [(0, 3 * crf.MIN_BLOCK - 1)],
             [crf.MIN_BLOCK, 2 * crf.MIN_BLOCK]),
            (2 * crf.MIN_BLOCK + 5, [], [crf.MIN_BLOCK, crf.MIN_BLOCK + 5]),
            (1, [], [1]),
            (3 * crf.MIN_BLOCK + 1, path_edges(3 * crf.MIN_BLOCK + 1),
             [crf.MIN_BLOCK, crf.MIN_BLOCK, crf.MIN_BLOCK + 1]),
            # the long edge widens the block it ends in; the tail then merges
            (4 * crf.MIN_BLOCK, path_edges(4 * crf.MIN_BLOCK) + [(10, 2 * crf.MIN_BLOCK + 6)],
             [crf.MIN_BLOCK, crf.MIN_BLOCK + 7, 2 * crf.MIN_BLOCK - 7]),
        ],
        ids=["bandwidth-n-1", "edgeless", "one-node", "merged-tail", "one-long-edge"],
    )
    def test_block_layouts(self, n, edges, widths):
        inst, z, w = edge_list_instance(np.random.default_rng(71), n, edges)
        self.assert_matches(inst, z, w)
        assert block_widths(inst) == widths


def test_nll_with_grads_working_set_stays_small():
    inst, z = synth_instance(2000, seed=3)
    beta = np.array([0.5, 0.7, 0.3])
    tracemalloc.start()
    try:
        crf.nll_with_grads(inst, z, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_selected_inverse_leaves_what_solve_reads():
    # selected_inverse overwrites the factorization's block buffer, so g and
    # h, which solve and selected_inverse read, must never alias it
    rng = np.random.default_rng(73)
    inst, z, beta = edge_list_instance(rng, 5 * crf.MIN_BLOCK, path_edges(5 * crf.MIN_BLOCK))
    prec = crf.build_precision(inst, crf.coupling_matrix(inst, beta))
    assert len(prec.g) > 2
    assert not any(np.shares_memory(a, prec.blocks) for a in (*prec.g, *prec.h))
    g, h = [a.copy() for a in prec.g], [a.copy() for a in prec.h]
    rhs = rng.normal(size=(inst.n, 2))
    first = prec.solve(rhs)
    inverses = [prec.selected_inverse() for _ in range(2)]
    assert np.array_equal(prec.solve(rhs), first)
    for a, b in zip(*inverses, strict=True):
        assert np.array_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip((*g, *h), (*prec.g, *prec.h), strict=True))
