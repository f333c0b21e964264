import numpy as np
import pytest

from vsrobust import (CapacityError, GraphInstance, InfeasibleError,
                      SHORTEST_PATH, SPANNING_TREE, SelectionInstance,
                      enumerate_solutions, is_feasible, solve_nominal)
from vsrobust.instances import SplitMix64
from vsrobust.problems import _predecessor_arcs, shortest_distances

from oracles import (dijkstra_py, random_digraph, random_mst_graph,
                     random_sp_graph)


class TestSolveNominal:
    def test_selection_tie_broken_by_index(self, small_selection):
        x, val = solve_nominal(small_selection, small_selection.nominal)
        assert np.array_equal(x, [0, 1, 0, 1])
        assert val == 2.0

    def test_parallel_edges_pick_cheaper(self, two_parallel):
        x, val = solve_nominal(two_parallel, two_parallel.nominal)
        assert np.array_equal(x, [1, 0])
        assert val == 4.0

    def test_k3_unit_costs_lowest_indices(self, k3_unit):
        x, val = solve_nominal(k3_unit, k3_unit.nominal)
        assert np.array_equal(x, [1, 1, 0])
        assert val == 2.0

    def test_no_path_raises(self):
        g = GraphInstance(num_nodes=3, tails=np.array([0]), heads=np.array([1]),
                          nominal=np.array([1.0]), kind=SHORTEST_PATH, s=0, t=2)
        with pytest.raises(InfeasibleError):
            solve_nominal(g, g.nominal)

    def test_disconnected_tree_raises(self):
        g = GraphInstance(num_nodes=4, tails=np.array([0, 2]),
                          heads=np.array([1, 3]), nominal=np.ones(2),
                          kind=SPANNING_TREE)
        with pytest.raises(InfeasibleError):
            solve_nominal(g, g.nominal)

    def test_value_never_beaten_by_enumeration(self):
        rng = SplitMix64(31)
        for _ in range(15):
            g = random_sp_graph(rng)
            costs = np.array([rng.randint(0, 60) for _ in range(g.num_arcs)],
                             dtype=float)
            _, opt = solve_nominal(g, costs)
            for y in enumerate_solutions(g):
                assert opt <= costs @ y + 1e-9

    def test_scale_equivariance(self):
        # powers of two keep float products exact, so ties are preserved
        rng = SplitMix64(77)
        for _ in range(10):
            g = random_mst_graph(rng)
            costs = np.array([rng.randint(1, 40) for _ in range(g.num_arcs)],
                             dtype=float)
            x1, v1 = solve_nominal(g, costs)
            x2, v2 = solve_nominal(g, 4.0 * costs)
            assert np.array_equal(x1, x2)
            assert v2 == pytest.approx(4.0 * v1, rel=1e-15)

    def test_kruskal_output_is_spanning_tree(self):
        rng = SplitMix64(41)
        for _ in range(10):
            g = random_mst_graph(rng)
            x, _ = solve_nominal(g, g.nominal)
            assert x.sum() == g.num_nodes - 1
            assert is_feasible(g, x)

    def test_zero_cost_edges_allowed(self, two_parallel):
        x, val = solve_nominal(two_parallel, np.zeros(2))
        assert val == 0.0
        assert x.sum() == 1


class TestIsFeasible:
    def test_selection_cases(self):
        inst = SelectionInstance(n=4, p=2, nominal=np.ones(4))
        assert is_feasible(inst, np.array([1, 1, 0, 0]))
        assert not is_feasible(inst, np.array([1, 0, 0, 0]))

    def test_path_with_cycle_rejected(self):
        # s->a, a->b, b->a cycle arc, a->t: walk with a cycle is not simple
        g = GraphInstance(num_nodes=4,
                          tails=np.array([0, 1, 2, 1]),
                          heads=np.array([1, 2, 1, 3]),
                          nominal=np.ones(4), kind=SHORTEST_PATH, s=0, t=3)
        assert is_feasible(g, np.array([1, 0, 0, 1]))
        assert not is_feasible(g, np.array([1, 1, 1, 1]))

    def test_disconnected_selection_of_arcs_rejected(self, two_parallel):
        assert not is_feasible(two_parallel, np.array([1, 1]))
        assert not is_feasible(two_parallel, np.array([0, 0]))

    def test_tree_feasibility(self, k3_unit):
        assert is_feasible(k3_unit, np.array([1, 1, 0]))
        assert is_feasible(k3_unit, np.array([1, 0, 1]))
        assert not is_feasible(k3_unit, np.array([1, 1, 1]))
        assert not is_feasible(k3_unit, np.array([1, 0, 0]))


class TestEnumerate:
    def test_selection_count(self):
        inst = SelectionInstance(n=4, p=2, nominal=np.ones(4))
        sols = enumerate_solutions(inst)
        assert len(sols) == 6
        keys = {tuple(s) for s in sols}
        assert len(keys) == 6

    def test_two_parallel_paths(self, two_parallel):
        assert len(enumerate_solutions(two_parallel)) == 2

    def test_k3_trees(self, k3_unit):
        assert len(enumerate_solutions(k3_unit)) == 3

    def test_limit_enforced(self):
        inst = SelectionInstance(n=10, p=5, nominal=np.ones(10))
        with pytest.raises(CapacityError):
            enumerate_solutions(inst, limit=100)

    def test_every_enumerated_solution_is_feasible(self):
        rng = SplitMix64(55)
        for factory in (random_sp_graph, random_mst_graph):
            g = factory(rng)
            sols = enumerate_solutions(g)
            assert sols
            for x in sols:
                assert is_feasible(g, x)

    def test_deterministic_order(self):
        rng = SplitMix64(10)
        g = random_sp_graph(rng)
        a = [tuple(s) for s in enumerate_solutions(g)]
        b = [tuple(s) for s in enumerate_solutions(g)]
        assert a == b


def _reference_walk(g, pred_node, pred_arc):
    """Arcs of the reference predecessor walk from t, or None if it cycles."""
    x = np.zeros(g.num_arcs, dtype=np.int8)
    v = g.t
    for _ in range(g.num_nodes):
        if v == g.s:
            return x
        x[pred_arc[v]] = 1
        v = pred_node[v]
    return None


def _reversed(g):
    return GraphInstance(num_nodes=g.num_nodes, tails=g.heads, heads=g.tails,
                         nominal=g.nominal, kind=SHORTEST_PATH, s=g.t, t=g.s)


class TestOracleParity:
    """The csgraph oracle against the dense pure-Python Dijkstra of the
    test oracles: distances bit for bit (from s and, reversed, to t), tight
    predecessors, and the returned path wherever the reference's walk from
    t ends."""

    @pytest.mark.parametrize("factory", [random_sp_graph, random_digraph])
    def test_dijkstra_matches_reference(self, factory):
        rng = SplitMix64(123)
        walked = 0
        for _ in range(60):
            g = factory(rng)
            # few distinct costs, so that ties and zero-cost cycles are common
            costs = np.array([float(rng.randint(0, 5)) for _ in range(g.num_arcs)])
            r = _reversed(g)
            assert np.array_equal(
                shortest_distances(g, costs, g.t, reverse=True),
                dijkstra_py(r.num_nodes, *r.csr(), costs, r.s)[0])
            dist, pred_node, pred_arc = dijkstra_py(
                g.num_nodes, *g.csr(), costs, g.s)
            assert np.array_equal(shortest_distances(g, costs, g.s), dist)
            arcs = _predecessor_arcs(g, costs, dist)
            assert np.array_equal(arcs, pred_arc)
            assert [g.tails[a] if a >= 0 else -1 for a in arcs] \
                == pred_node.tolist()
            if not np.isfinite(dist[g.t]):
                with pytest.raises(InfeasibleError):
                    solve_nominal(g, costs)
                continue
            x, val = solve_nominal(g, costs)
            assert val == dist[g.t]
            assert is_feasible(g, x)
            expect = _reference_walk(g, pred_node, pred_arc)
            if expect is not None:
                assert np.array_equal(x, expect)
                walked += 1
        assert walked >= 20
