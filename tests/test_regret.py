import signal

import numpy as np
import pytest

from vsrobust import (DomainError, GraphInstance, InfeasibleError,
                      SHORTEST_PATH, SelectionInstance, WeightFunction,
                      bicriteria_extreme_count, compute_val,
                      enumerate_solutions, gen_layered, integrate_profile,
                      is_feasible, mst_changepoint_candidates, regret_at,
                      selection_changepoint_candidates, solve_nominal,
                      upper_envelope, AffinePiece, LambdaInterval)
from vsrobust.instances import SplitMix64

from oracles import (grid_regret, hull_extreme_count, random_digraph,
                     random_instance, random_mst_graph, random_selection,
                     random_sp_graph, random_weight, riemann_val)

EDGE0 = np.array([1, 0], dtype=np.int8)
EDGE1 = np.array([0, 1], dtype=np.int8)


class TestRegretAt:
    def test_nominal_optimal_has_zero_regret_at_zero(self, two_parallel):
        val, wit = regret_at(two_parallel, EDGE0, 0.0)
        assert val == 0.0
        assert np.array_equal(wit, EDGE0)

    def test_full_size_regret(self, two_parallel):
        val, wit = regret_at(two_parallel, EDGE0, 1.0)
        assert val == pytest.approx(8.0)
        assert np.array_equal(wit, EDGE1)

    def test_crossing_point_has_zero_regret(self, two_parallel):
        val, _ = regret_at(two_parallel, EDGE0, 1.0 / 9.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_solution_rejected(self, two_parallel):
        with pytest.raises(InfeasibleError):
            regret_at(two_parallel, np.array([1, 1]), 0.5)

    def test_matches_enumeration_on_random_instances(self):
        rng = SplitMix64(2024)
        for _ in range(25):
            inst = random_instance(rng)
            sols = enumerate_solutions(inst)
            x = sols[rng.randint(0, len(sols) - 1)]
            lam = rng.unit()
            val, _ = regret_at(inst, x, lam)
            expect = grid_regret(inst, x, np.array([lam]), sols)[0]
            assert val == pytest.approx(expect, rel=1e-12, abs=1e-9)


class TestComputeVal:
    def test_micro_case_value_and_changepoint(self, two_parallel, unit_weight):
        ev = compute_val(two_parallel, EDGE0, unit_weight)
        assert ev.val == pytest.approx(32.0 / 9.0, abs=1e-9)
        assert ev.changepoints.size == 1
        assert ev.changepoints[0] == pytest.approx(1.0 / 9.0, abs=1e-9)

    def test_micro_case_other_edge(self, two_parallel, unit_weight):
        ev = compute_val(two_parallel, EDGE1, unit_weight)
        assert ev.val == pytest.approx(5.5, abs=1e-9)
        assert ev.piece_count == 1  # regret 1 + 9 lam everywhere

    def test_degenerate_domain_gives_zero(self, two_parallel):
        w = WeightFunction.constant(0.0, 0.0)
        ev = compute_val(two_parallel, EDGE0, w)
        assert ev.val == 0.0
        assert ev.changepoints.size == 0

    def test_profile_properties_on_random_instances(self):
        rng = SplitMix64(404)
        for _ in range(30):
            inst = random_instance(rng)
            sols = enumerate_solutions(inst)
            x = sols[rng.randint(0, len(sols) - 1)]
            w = random_weight(rng)
            ev = compute_val(inst, x, w)
            ev.profile.validate()  # convex + continuous
            grid = np.linspace(0, 1, 500)
            vals = ev.profile.value(grid)
            assert np.all(vals >= -1e-9)
            x_nom, v_nom = solve_nominal(inst, inst.nominal)
            reg0 = ev.profile.value(np.array([0.0]))[0]
            is_nominal_opt = float(inst.nominal @ x) == pytest.approx(v_nom)
            assert (abs(reg0) < 1e-9) == is_nominal_opt

    def test_matches_riemann_oracle(self):
        rng = SplitMix64(808)
        for _ in range(25):
            inst = random_instance(rng)
            sols = enumerate_solutions(inst)
            x = sols[rng.randint(0, len(sols) - 1)]
            w = random_weight(rng)
            ev = compute_val(inst, x, w)
            oracle = riemann_val(inst, x, w, n_points=20_000, solutions=sols)
            assert ev.val == pytest.approx(oracle, rel=1e-4, abs=1e-6)

    def test_matches_riemann_oracle_on_cyclic_digraphs(self):
        # cycles, zero and tied costs, parallel arcs, s != 0: inputs the
        # DAG generators never produce
        rng = SplitMix64(909)
        for _ in range(60):
            g = random_digraph(rng, max_paths=30)
            sols = enumerate_solutions(g)
            x = sols[rng.randint(0, len(sols) - 1)]
            w = WeightFunction.constant(0, 1) if rng.next_u64() % 2 \
                else random_weight(rng)
            ev = compute_val(g, x, w)
            ev.profile.validate()
            grid = np.linspace(0, 1, 257)
            np.testing.assert_allclose(ev.profile.value(grid),
                                       grid_regret(g, x, grid, sols),
                                       rtol=1e-12, atol=1e-9)
            oracle = riemann_val(g, x, w, n_points=20_000, solutions=sols)
            assert ev.val == pytest.approx(oracle, rel=1e-4, abs=1e-6)
            lam = rng.unit()
            val, _ = regret_at(g, x, lam)
            expect = grid_regret(g, x, np.array([lam]), sols)[0]
            assert val == pytest.approx(expect, rel=1e-12, abs=1e-9)

    def test_zero_cost_cycle_terminates(self):
        # ties make 1 and 2 each other's smallest tight predecessor at
        # lam = 1, where every arc outside x costs 0
        g = GraphInstance(num_nodes=6,
                          tails=np.array([0, 0, 3, 4, 1, 2, 1, 0]),
                          heads=np.array([3, 4, 1, 2, 2, 1, 5, 5]),
                          nominal=np.array([1, 1, 1, 1, 1, 1, 1, 10.0]),
                          kind=SHORTEST_PATH, s=0, t=5)
        x = np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.int8)

        def hang(signum, frame):
            raise TimeoutError("compute_val did not return within 20 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            ev = compute_val(g, x, WeightFunction.constant(0, 1))
            y, val = solve_nominal(g, np.where(x == 1, 20.0, 0.0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert ev.val == pytest.approx(13.5)  # regret 7 + 13 lam
        assert val == 0.0
        assert is_feasible(g, y)

    def test_witnesses_define_profile_pieces(self, two_parallel, unit_weight):
        ev = compute_val(two_parallel, EDGE0, unit_weight)
        assert len(ev.witnesses) == ev.piece_count
        for piece, wit in zip(ev.profile.pieces, ev.witnesses):
            assert np.array_equal(piece.witness, wit)


class TestIntegrateProfile:
    def test_single_piece_closed_form(self, unit_weight):
        piece = AffinePiece(9.0, -1.0, EDGE1)
        prof = upper_envelope([piece], LambdaInterval(1.0 / 9.0, 1.0))
        assert integrate_profile(prof, unit_weight) == pytest.approx(32.0 / 9.0)

    def test_zero_profile(self):
        w = WeightFunction([(0.0, 0.3), (1.0, 2.0)])
        prof = upper_envelope([AffinePiece(0.0, 0.0, EDGE0)],
                              LambdaInterval(0, 1))
        assert integrate_profile(prof, w) == 0.0

    def test_constant_piece_against_linear_weight(self):
        w = WeightFunction([(0.0, 0.0), (1.0, 1.0)])
        prof = upper_envelope([AffinePiece(0.0, 1.0, EDGE0)],
                              LambdaInterval(0, 1))
        assert integrate_profile(prof, w) == pytest.approx(0.5)


class TestChangepointCandidates:
    def test_two_items(self):
        out = selection_changepoint_candidates(np.array([3.0, 1.0]))
        assert np.allclose(out, [0.5])

    def test_equal_costs_no_candidates(self):
        assert selection_changepoint_candidates(np.array([5.0, 5.0, 5.0])).size == 0

    def test_three_items_pairwise_formula(self):
        # pairs (2,1)->1/3, (4,2)->1/3, (4,1)->3/5; the sweep oracle below
        # confirms the sorted order of scaled costs changes exactly there
        out = selection_changepoint_candidates(np.array([1.0, 2.0, 4.0]))
        assert np.allclose(out, [1.0 / 3.0, 0.6])
        crossings = set()
        c = np.array([1.0, 2.0, 4.0])
        lams = np.linspace(0, 1, 100_001)
        for x_bits in range(8):
            x = np.array([(x_bits >> i) & 1 for i in range(3)])
            scaled = c * (1 - lams[:, None] + 2 * lams[:, None] * x)
            order = np.argsort(scaled, axis=1, kind="stable")
            flips = np.nonzero(np.any(np.diff(order, axis=0) != 0, axis=1))[0]
            crossings.update(np.round(lams[flips], 3))
        assert crossings <= {0.333, 0.6}

    def test_mst_same_formula(self):
        out = mst_changepoint_candidates(np.array([2.0, 4.0, 8.0]))
        assert np.allclose(out, [1.0 / 3.0, 0.6])
        assert mst_changepoint_candidates(np.ones(5)).size == 0
        assert np.allclose(mst_changepoint_candidates(np.array([1.0, 3.0])), [0.5])

    def test_zero_pairs_skipped(self):
        out = selection_changepoint_candidates(np.array([0.0, 0.0, 2.0]))
        assert np.all(out > 0) and np.all(out < 1)

    def test_selection_breakpoints_contained(self):
        rng = SplitMix64(606)
        for _ in range(20):
            inst = random_selection(rng, max_n=8)
            sols = enumerate_solutions(inst)
            x = sols[rng.randint(0, len(sols) - 1)]
            ev = compute_val(inst, x, WeightFunction.constant(0, 1))
            cands = selection_changepoint_candidates(inst.nominal)
            for bp in ev.changepoints:
                assert np.min(np.abs(cands - bp)) < 1e-9

    def test_mst_breakpoints_contained(self):
        rng = SplitMix64(707)
        for _ in range(15):
            g = random_mst_graph(rng)
            sols = enumerate_solutions(g)
            x = sols[rng.randint(0, len(sols) - 1)]
            ev = compute_val(g, x, WeightFunction.constant(0, 1))
            cands = mst_changepoint_candidates(g.nominal)
            for bp in ev.changepoints:
                assert np.min(np.abs(cands - bp)) < 1e-9

    def test_selection_profile_piece_bound(self):
        # at most min(p, n-p) interior breakpoints for any fixed solution
        rng = SplitMix64(909)
        for _ in range(20):
            inst = random_selection(rng, max_n=9)
            sols = enumerate_solutions(inst)
            x = sols[rng.randint(0, len(sols) - 1)]
            ev = compute_val(inst, x, WeightFunction.constant(0, 1))
            assert ev.changepoints.size <= min(inst.p, inst.n - inst.p)


class TestBicriteriaExtremeCount:
    def test_two_parallel_edges_both_extreme(self, two_parallel):
        n = bicriteria_extreme_count(two_parallel, np.array([1.0, 2.0]),
                                     np.array([2.0, 1.0]))
        assert n == 2

    def test_single_path_graph(self):
        g = GraphInstance(num_nodes=3, tails=np.array([0, 1]),
                          heads=np.array([1, 2]), nominal=np.ones(2),
                          kind=SHORTEST_PATH, s=0, t=2)
        assert bicriteria_extreme_count(g, np.array([1.0, 2.0]),
                                        np.array([5.0, 1.0])) == 1

    def test_matches_hull_of_enumerated_paths(self):
        rng = SplitMix64(1717)
        for _ in range(25):
            g = random_sp_graph(rng)
            a = np.array([float(rng.randint(1, 50)) for _ in range(g.num_arcs)])
            b = np.array([float(rng.randint(1, 50)) for _ in range(g.num_arcs)])
            paths = enumerate_solutions(g)
            points = [(float(a @ y), float(b @ y)) for y in paths]
            assert bicriteria_extreme_count(g, a, b) == hull_extreme_count(points)

    def test_requires_shortest_path_instance(self, k3_unit):
        with pytest.raises(DomainError):
            bicriteria_extreme_count(k3_unit, np.ones(3), np.ones(3))

    def test_sp_breakpoints_bounded_by_extreme_count(self):
        # weighted-sum identity: criteria (2c on x-edges, c everywhere)
        rng = SplitMix64(2626)
        w = WeightFunction.constant(0, 1)
        for _ in range(15):
            g = random_sp_graph(rng)
            sols = enumerate_solutions(g)
            x = sols[rng.randint(0, len(sols) - 1)]
            ev = compute_val(g, x, w)
            a = 2.0 * g.nominal * x
            b = g.nominal.copy()
            bound = bicriteria_extreme_count(g, a, b)
            assert ev.changepoints.size <= bound


class TestLayeredIdentity:
    def test_full_size_regret_is_twice_nominal_cost(self):
        rng = SplitMix64(3030)
        for seed in range(3):
            g = gen_layered(3, 3, "A", seed=seed)
            paths = None
            for _ in range(5):
                x = _random_layered_path(g, rng)
                val, _ = regret_at(g, x, 1.0)
                assert val == pytest.approx(2.0 * float(g.nominal @ x), abs=1e-9)


def _random_layered_path(g, rng):
    """Random s-t path in a layered instance by walking random out-arcs."""
    indptr, heads, arcs = g.csr()
    x = np.zeros(g.num_arcs, dtype=np.int8)
    v = g.s
    while v != g.t:
        lo, hi = indptr[v], indptr[v + 1]
        k = lo + rng.randint(0, hi - lo - 1)
        x[arcs[k]] = 1
        v = int(heads[k])
    return x
