import os
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from vsrobust import (BackendError, CapacityError, DomainError,
                      EnumerationBackend, ExternalBackend, GraphInstance,
                      HighsBackend, MilpModel,
                      SHORTEST_PATH, SPANNING_TREE,
                      SelectionInstance, UsageError, WeightFunction,
                      algorithm1, backend_emit_and_invoke,
                      build_formulation_dual_sp, build_formulation_general,
                      compute_val, enumerate_solutions, parse_solution_file,
                      regret_at, solve_minmax_regret_fixed, solve_nominal,
                      write_lp)
from vsrobust import master
from vsrobust.master import (BackendResult, build_segments,
                             definitional_objective)
from vsrobust.instances import SplitMix64, gen_layered

from oracles import general_objective, random_digraph, random_instance, \
    random_mst_graph, random_sp_graph, random_selection, random_weight, \
    riemann_val

MOCK_CMD = (f"{sys.executable} "
            f"{os.path.join(os.path.dirname(__file__), 'mock_solver.py')} "
            "{model} {solution}")

GOLDEN_DUAL_LP = """Minimize
 obj: 6 x_0 + 7.5 x_1 - 0.5 u_0_1 - 0.5 u_1_1
Subject To
 c0: -2 x_0 - 1 u_0_0 + 1 u_0_1 <= 3
 c1: -2.5 x_1 - 1 u_0_0 + 1 u_0_1 <= 3.75
 c2: -6 x_0 - 1 u_1_0 + 1 u_1_1 <= 1
 c3: -7.5 x_1 - 1 u_1_0 + 1 u_1_1 <= 1.25
 c4: 1 x_0 + 1 x_1 = 1
 c5: -1 x_0 - 1 x_1 = -1
Bounds
 u_0_0 = 0
 -19 <= u_0_1 <= 19
 u_1_0 = 0
 -19 <= u_1_1 <= 19
Binary
 x_0 x_1
End
"""


def _sp_graph(num_nodes, arcs, s, t):
    tails, heads, costs = zip(*arcs)
    return GraphInstance(num_nodes=num_nodes, tails=np.array(tails),
                         heads=np.array(heads),
                         nominal=np.array(costs, dtype=np.float64),
                         kind=SHORTEST_PATH, s=s, t=t)


# Shortest-path digraphs that the random generators never produce.  Arcs are
# listed against any topological order, so one relaxation pass in arc order
# does not reach the distances.
ODD_SP_GRAPHS = {
    # cycle 1 -> 2 -> 3 -> 1 with positive costs
    "cycle": _sp_graph(5, [(3, 4, 2), (2, 4, 7), (3, 1, 1), (2, 3, 2),
                           (1, 2, 3), (0, 3, 9), (0, 1, 1)], s=0, t=4),
    # parallel arcs, equal-cost twins included (ties)
    "parallel": _sp_graph(3, [(1, 2, 3), (1, 2, 3), (0, 2, 10), (0, 1, 6),
                              (0, 1, 4), (0, 1, 4)], s=0, t=2),
    # s != 0, a cycle through s, and node 4 that s cannot reach
    "source_not_zero": _sp_graph(5, [(4, 0, 1), (2, 0, 3), (1, 0, 5),
                                     (4, 2, 1), (2, 1, 1), (0, 3, 2),
                                     (3, 2, 4), (3, 1, 2)], s=3, t=0),
    # node 3 cannot be reached from s but has an arc into t
    "unreachable": _sp_graph(4, [(0, 1, 3), (1, 2, 5), (3, 2, 1),
                                 (0, 2, 20)], s=0, t=2),
    # DAG with arc 1 -> 2 inside BFS level 1, so one sweep in level order
    # does not reach the distances either
    "skip": _sp_graph(4, [(2, 3, 1), (1, 2, 1), (0, 2, 10), (0, 1, 1)],
                      s=0, t=3),
    # BFS level 1 has heads of in-degree 1, 2 and 4 (parallel twins into 2,
    # arcs within the level, an arc from node 5, which s cannot reach), so
    # its relaxation grid has empty slots
    "hub": _sp_graph(6, [(1, 4, 2), (3, 4, 1), (2, 4, 3), (5, 3, 1),
                         (1, 3, 1), (2, 3, 2), (0, 3, 6), (0, 2, 2),
                         (0, 2, 2), (0, 1, 3)], s=0, t=4),
}


def _assert_enumeration_first_minimum(model, sols, objective, exact):
    """The enumeration backend returns the first solution of least
    ``objective`` and that objective, exactly or to 1e-12 relative."""
    objs = [objective(model, y) for y in sols]
    best = objs.index(min(objs))
    res = EnumerationBackend().solve(model)
    if exact:
        assert res.objective == objs[best]
    else:
        assert res.objective == pytest.approx(objs[best], rel=1e-12)
    assert np.array_equal(res.assignment[: model.meta["num_x"]], sols[best])
    assert model.check_assignment(res.assignment)


def _raw_one_var():
    m = MilpModel()
    m.add_var("x_0", "B", 0.0, 1.0)
    m.obj = np.array([1.0])
    m.add_row({0: 1.0}, ">=", 0.0)
    return m


def _raw_infeasible():
    m = MilpModel()
    m.add_var("x_0", "B", 0.0, 1.0)
    m.add_var("x_1", "B", 0.0, 1.0)
    m.obj = np.zeros(2)
    m.add_row({0: 1.0, 1: 1.0}, "=", 1.0)
    m.add_row({0: 1.0, 1: 1.0}, "=", 0.0)
    return m


class TestSegments:
    def test_single_interior_point_covers_domain(self, unit_weight):
        segs = build_segments([0.5], unit_weight)
        assert sum(s.weight for s in segs) == pytest.approx(1.0)
        assert segs[0].point == pytest.approx(0.25)
        assert segs[-1].point == pytest.approx(0.75)

    def test_boundary_points_dropped(self, unit_weight):
        segs = build_segments([0.0, 1.0], unit_weight)
        assert len(segs) == 1
        assert segs[0].point == pytest.approx(0.5)

    def test_centroid_equals_midpoint_for_constant_weight(self, unit_weight):
        segs = build_segments([0.125, 0.5], unit_weight)
        for s in segs:
            assert s.point == pytest.approx(0.5 * (s.lo + s.hi))


class TestFormulations:
    def test_general_self_pool_gives_zero_bound(self, two_parallel, unit_weight):
        x0 = np.array([1, 0], dtype=np.int8)
        model = build_formulation_general(two_parallel, [0.5], [x0], unit_weight)
        res = EnumerationBackend().solve(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_general_two_cut_bound(self, two_parallel, unit_weight):
        pool = [np.array([1, 0], dtype=np.int8), np.array([0, 1], dtype=np.int8)]
        model = build_formulation_general(two_parallel, [0.5], pool, unit_weight)
        res = EnumerationBackend().solve(model)
        # reg(edge0, .) sampled at the two centroids: .5*1.25 + .5*5.75
        assert res.objective == pytest.approx(3.5)
        assert res.objective <= 32.0 / 9.0
        highs = HighsBackend().solve(model)
        assert highs.objective == pytest.approx(res.objective, abs=1e-9)

    def test_empty_inputs_rejected(self, two_parallel, unit_weight):
        with pytest.raises(UsageError):
            build_formulation_general(two_parallel, [], [], unit_weight)
        with pytest.raises(UsageError):
            build_formulation_dual_sp(two_parallel, [], unit_weight)

    def test_dual_requires_shortest_path(self, k3_unit, unit_weight):
        with pytest.raises(UsageError):
            build_formulation_dual_sp(k3_unit, [0.5], unit_weight)

    def test_dual_rejects_sizes_above_one(self, two_parallel):
        # the potential box assumes every master arc costs at most 2 c_a
        with pytest.raises(DomainError):
            build_formulation_dual_sp(two_parallel, [0.5],
                                      WeightFunction.constant(0.0, 2.0))

    def test_single_edge_graph_zero_regret(self, unit_weight):
        g = GraphInstance(num_nodes=2, tails=np.array([0]), heads=np.array([1]),
                          nominal=np.array([7.0]), kind=SHORTEST_PATH, s=0, t=1)
        x, val, state = algorithm1(g, unit_weight, backend=EnumerationBackend())
        assert val == pytest.approx(0.0, abs=1e-12)
        assert len(state.iterations) == 1

    def test_dual_model_matches_golden_lp(self, two_parallel, unit_weight):
        model = build_formulation_dual_sp(two_parallel, [0.5], unit_weight)
        assert write_lp(model) == GOLDEN_DUAL_LP

    def test_flow_rows_match_node_arc_incidence(self):
        rng = SplitMix64(4141)
        graphs = (list(ODD_SP_GRAPHS.values())
                  + [random_digraph(rng) for _ in range(20)])
        assert any(np.any(g.tails == g.heads) for g in graphs)  # self-loops
        for g in graphs:
            expect = []
            for v in range(g.num_nodes):
                coeffs = [(a, float(g.tails[a] == v) - float(g.heads[a] == v))
                          for a in range(g.num_arcs)]
                coeffs = [(a, c) for a, c in coeffs if c != 0.0]
                rhs = 1.0 if v == g.s else (-1.0 if v == g.t else 0.0)
                if coeffs or rhs:
                    expect.append((coeffs, "=", rhs))
            model = MilpModel()
            master._feasibility_rows(model, g)
            got = [(list(row.items()), sense, rhs) for row, sense, rhs
                   in zip(model.row_coeffs, model.row_senses, model.row_rhs)]
            assert got == expect

    def test_backend_assignment_satisfies_model(self, two_parallel, unit_weight):
        pool = [np.array([1, 0], dtype=np.int8), np.array([0, 1], dtype=np.int8)]
        for build in (lambda: build_formulation_general(
                          two_parallel, [0.5], pool, unit_weight),
                      lambda: build_formulation_dual_sp(
                          two_parallel, [0.5], unit_weight)):
            model = build()
            for backend in (EnumerationBackend(), HighsBackend()):
                res = backend.solve(model)
                assert model.check_assignment(res.assignment)

    def test_backend_assignment_satisfies_model_with_unreachable_node(
            self, unit_weight):
        # the row of arc 3 -> 2 binds the potential of node 3, which s
        # cannot reach
        model = build_formulation_dual_sp(ODD_SP_GRAPHS["unreachable"], [0.5],
                                          unit_weight)
        for backend in (EnumerationBackend(), HighsBackend()):
            res = backend.solve(model)
            assert model.check_assignment(res.assignment)

    def test_dual_master_without_path_is_infeasible(self, unit_weight):
        g = _sp_graph(3, [(0, 1, 1.0), (2, 1, 1.0)], s=0, t=2)
        forest = GraphInstance(num_nodes=4, tails=np.array([0, 2]),
                               heads=np.array([1, 3]),
                               nominal=np.array([1.0, 2.0]),
                               kind=SPANNING_TREE)
        models = [build_formulation_dual_sp(g, [0.5], unit_weight)]
        for inst in (g, forest):
            pool = [np.ones(inst.num_arcs, dtype=np.int8)]
            models.append(build_formulation_general(inst, [0.5], pool,
                                                    unit_weight))
        for model in models:
            for backend in (EnumerationBackend(), HighsBackend()):
                assert backend.solve(model).status == "infeasible"

    def test_enumeration_rejects_model_without_style(self):
        with pytest.raises(UsageError):
            EnumerationBackend().solve(_raw_one_var())

    @pytest.mark.parametrize("name", sorted(ODD_SP_GRAPHS)
                             + ["digraph", "layered", "random"])
    def test_enumeration_dual_matches_definitional_first_minimum(self, name):
        # dual masters exactly against definitional_objective, whose single
        # row runs Dijkstra instead of the batched relaxation; general
        # masters against the cut-by-cut reference
        if name == "digraph":
            rng = SplitMix64(2029)
            graphs = [random_digraph(rng, max_paths=30) for _ in range(20)]
            cases = [(g, enumerate_solutions(g), []) for g in graphs]
        elif name == "layered":  # graded: a single sweep
            graphs = [gen_layered(3, 3, "B", seed) for seed in (4, 5)]
            cases = [(g, enumerate_solutions(g), []) for g in graphs]
        elif name == "random":
            rng = SplitMix64(1031)
            cases = []
            for _ in range(8):
                inst = random_instance(rng)
                sols = enumerate_solutions(inst)
                pool = [sols[rng.randint(0, len(sols) - 1)]
                        for _ in range(rng.randint(2, 3))]
                cases.append((inst, sols, [pool]))
        else:
            g = ODD_SP_GRAPHS[name]
            sols = enumerate_solutions(g)
            cases = [(g, sols, [sols[:2], sols[-3:]])]
        weights = (WeightFunction.constant(0.0, 1.0),
                   WeightFunction([(0.0, 1.0), (0.5, 3.0), (1.0, 0.5)]))
        for inst, sols, pools in cases:
            for w in weights:
                for lams in ([0.5], [0.2, 0.7], [0.1, 0.4, 0.6, 0.9]):
                    if name != "random":
                        model = build_formulation_dual_sp(inst, lams, w)
                        _assert_enumeration_first_minimum(
                            model, sols, definitional_objective, exact=True)
                    for pool in pools:
                        model = build_formulation_general(inst, lams, pool, w)
                        _assert_enumeration_first_minimum(
                            model, sols, general_objective, exact=False)


class TestAlgorithm1:
    def test_micro_case_exact(self, two_parallel, unit_weight):
        for backend in (EnumerationBackend(), HighsBackend()):
            for formulation in ("dual_sp", "general"):
                x, val, state = algorithm1(two_parallel, unit_weight,
                                           backend=backend,
                                           formulation=formulation)
                assert np.array_equal(x, [1, 0])
                assert val == pytest.approx(32.0 / 9.0, abs=1e-9)
                lbs = state.lower_bounds
                assert lbs == sorted(lbs)
                for rec in state.iterations:
                    assert rec.ub >= rec.lb - 1e-9

    def test_bounds_and_consistency_on_random_instances(self, unit_weight):
        rng = SplitMix64(515)
        for _ in range(12):
            inst = random_instance(rng)
            w = random_weight(rng)
            x, val, state = algorithm1(inst, w, backend=EnumerationBackend())
            ev = compute_val(inst, x, w)
            assert val == pytest.approx(ev.val, rel=1e-9, abs=1e-12)
            lbs = state.lower_bounds
            assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
            for rec in state.iterations:
                assert rec.ub >= rec.lb - 1e-9 * (1 + abs(rec.ub))

    def test_backends_agree_on_random_instances(self, unit_weight):
        rng = SplitMix64(616)
        for _ in range(8):
            inst = random_instance(rng)
            _, val_e, _ = algorithm1(inst, unit_weight,
                                     backend=EnumerationBackend())
            _, val_h, _ = algorithm1(inst, unit_weight, backend=HighsBackend())
            assert val_h == pytest.approx(val_e, rel=1e-7, abs=1e-9)

    def test_long_chain_has_no_recursion_limit(self, unit_weight):
        n = 1500
        g = GraphInstance(num_nodes=n + 1, tails=np.arange(n),
                          heads=np.arange(1, n + 1),
                          nominal=np.arange(1.0, n + 1.0),
                          kind=SHORTEST_PATH, s=0, t=n)
        _, val, _ = algorithm1(g, unit_weight)
        assert val == 0.0
        assert solve_minmax_regret_fixed(g, 0.5)[1] == 0.0
        sols = enumerate_solutions(g)
        assert len(sols) == 1 and np.all(sols[0] == 1)
        tree = GraphInstance(num_nodes=n + 1, tails=np.arange(n),
                             heads=np.arange(1, n + 1),
                             nominal=np.arange(1.0, n + 1.0),
                             kind=SPANNING_TREE)
        sols = enumerate_solutions(tree)
        assert len(sols) == 1 and np.all(sols[0] == 1)
        _, val, _ = algorithm1(tree, unit_weight, EnumerationBackend())
        assert val == 0.0

    def test_enumeration_capacity_error(self, unit_weight):
        inst = SelectionInstance(n=12, p=6, nominal=np.arange(1.0, 13.0))
        with pytest.raises(CapacityError):
            algorithm1(inst, unit_weight, backend=EnumerationBackend(limit=10))

    def test_optimum_beats_every_feasible_solution(self, unit_weight):
        rng = SplitMix64(717)
        for _ in range(6):
            inst = random_instance(rng)
            x, val, _ = algorithm1(inst, unit_weight,
                                   backend=EnumerationBackend())
            for y in enumerate_solutions(inst):
                assert val <= compute_val(inst, y, unit_weight).val + 1e-9


class TestEnumerationCache:
    @staticmethod
    def _count_enumerations(monkeypatch):
        calls = []
        enumerate_all = master.enumerate_solutions

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_all(*args, **kwargs)

        monkeypatch.setattr(master, "enumerate_solutions", counted)
        return calls

    def test_warm_solve_equals_cold(self, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        w = WeightFunction([(0.0, 1.0), (0.5, 3.0), (1.0, 0.5)])
        warm = gen_layered(3, 3, "B", 4)
        pool = enumerate_solutions(warm)[:3]
        builds = [lambda g, lams=lams: build_formulation_dual_sp(g, lams, w)
                  for lams in ([0.5], [0.2, 0.7])]
        builds.append(lambda g: build_formulation_general(g, [0.3], pool, w))
        for build in builds:
            cold = EnumerationBackend().solve(build(gen_layered(3, 3, "B", 4)))
            hot = EnumerationBackend().solve(build(warm))
            assert hot.objective == cold.objective
            assert np.array_equal(hot.assignment, cold.assignment)
        assert len(calls) == len(builds) + 1

    def test_limit_holds_with_and_without_cache(self, monkeypatch,
                                                unit_weight):
        calls = self._count_enumerations(monkeypatch)
        inst = SelectionInstance(n=12, p=6, nominal=np.arange(1.0, 13.0))
        model = build_formulation_general(
            inst, [0.5], [solve_nominal(inst, inst.nominal)[0]], unit_weight)
        with pytest.raises(CapacityError):
            EnumerationBackend(limit=10).solve(model)
        assert EnumerationBackend().solve(model).status == "optimal"
        assert len(calls) == 2  # the failed enumeration left no table
        with pytest.raises(CapacityError):
            EnumerationBackend(limit=10).solve(model)
        assert len(calls) == 2

    def test_replaced_costs_are_followed(self, unit_weight):
        g = gen_layered(3, 3, "A", 7)
        EnumerationBackend().solve(
            build_formulation_dual_sp(g, [0.5], unit_weight))
        g.nominal = g.nominal[::-1].copy()
        fresh = gen_layered(3, 3, "A", 7)
        fresh.nominal = g.nominal.copy()
        model = build_formulation_dual_sp(g, [0.3, 0.6], unit_weight)
        res = EnumerationBackend().solve(model)
        expect = EnumerationBackend().solve(
            build_formulation_dual_sp(fresh, [0.3, 0.6], unit_weight))
        assert res.objective == expect.objective
        assert np.array_equal(res.assignment, expect.assignment)
        assert res.objective == definitional_objective(
            model, res.assignment[:g.num_arcs])


class TestFixedRegret:
    def test_zero_size_returns_nominal(self, two_parallel):
        x, reg = solve_minmax_regret_fixed(two_parallel, 0.0,
                                           backend=EnumerationBackend())
        assert reg == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(x, solve_nominal(two_parallel,
                                               two_parallel.nominal)[0])

    def test_full_size_parallel_edges(self, two_parallel):
        x, reg = solve_minmax_regret_fixed(two_parallel, 1.0,
                                           backend=EnumerationBackend())
        assert np.array_equal(x, [1, 0])
        assert reg == pytest.approx(8.0)

    def test_is_truly_minimal_on_random_instances(self):
        rng = SplitMix64(818)
        for _ in range(10):
            inst = random_instance(rng)
            lam = round(rng.unit(), 3)
            x, reg = solve_minmax_regret_fixed(inst, lam,
                                               backend=EnumerationBackend(),
                                               formulation="general")
            assert reg == pytest.approx(regret_at(inst, x, lam)[0],
                                        rel=1e-9, abs=1e-12)
            best = min(regret_at(inst, y, lam)[0]
                       for y in enumerate_solutions(inst))
            assert reg == pytest.approx(best, rel=1e-7, abs=1e-9)

    def test_formulations_agree_for_shortest_path(self):
        rng = SplitMix64(919)
        for _ in range(8):
            g = random_sp_graph(rng)
            lam = round(rng.unit(), 3)
            _, r1 = solve_minmax_regret_fixed(g, lam, formulation="dual_sp",
                                              backend=EnumerationBackend())
            _, r2 = solve_minmax_regret_fixed(g, lam, formulation="general",
                                              backend=HighsBackend())
            assert r1 == pytest.approx(r2, rel=1e-7, abs=1e-9)


class _OffByOneBackend(EnumerationBackend):
    """Claims an objective one above that of the solution it returns."""

    def solve(self, model):
        res = super().solve(model)
        return BackendResult(res.status, res.assignment, res.objective + 1.0)


class TestMasterVerification:
    @pytest.mark.parametrize("formulation", ["dual_sp", "general"])
    def test_fixed_size_solve_checks_master_objective(self, two_parallel,
                                                      formulation):
        with pytest.raises(BackendError):
            solve_minmax_regret_fixed(two_parallel, 0.37,
                                      backend=_OffByOneBackend(),
                                      formulation=formulation)


class TestHighsCall:
    @staticmethod
    def _masters(two_parallel, unit_weight):
        pool = [np.array([1, 0], dtype=np.int8)]
        return (build_formulation_dual_sp(two_parallel, [0.5], unit_weight),
                build_formulation_general(two_parallel, [0.5], pool,
                                          unit_weight))

    def test_milp_options(self, monkeypatch, two_parallel, unit_weight):
        calls = []
        milp = master.milp

        def recorder(*args, **kwargs):
            calls.append(kwargs["options"])
            return milp(*args, **kwargs)

        monkeypatch.setattr(master, "milp", recorder)
        for incumbents in (None, [np.array([0, 1], dtype=np.int8)]):
            for model in self._masters(two_parallel, unit_weight):
                if incumbents is not None:
                    model.meta["incumbents"] = incumbents
                calls.clear()
                res = HighsBackend().solve(model)
                assert res.status == "optimal"
                assert len(calls) == 1
                options = calls[0]
                assert options["mip_rel_gap"] == 0.0
                assert options["presolve"] is False
                assert options["mip_heuristic_run_feasibility_jump"] is False
                if incumbents is None:
                    assert "objective_bound" not in options
                else:
                    assert options["objective_bound"] >= res.objective

    @pytest.mark.parametrize("claim", ["at_bound", "infeasible"])
    def test_bounded_solve_without_proof_is_repeated(self, monkeypatch, claim,
                                                     two_parallel,
                                                     unit_weight):
        # HiGHS can report "optimal" for an x at or above the objective
        # bound; neither that nor "infeasible" proves anything
        calls = []
        milp = master.milp

        def quirk(*args, **kwargs):
            options = kwargs["options"]
            calls.append(options)
            if "objective_bound" not in options:
                return milp(*args, **kwargs)
            if claim == "infeasible":
                return OptimizeResult(status=2, success=False, x=None,
                                      fun=None, message="infeasible")
            return OptimizeResult(status=0, success=True,
                                  x=np.zeros(len(kwargs["c"])),
                                  fun=options["objective_bound"],
                                  message="optimal")

        masters = self._masters(two_parallel, unit_weight)
        expects = [HighsBackend().solve(model) for model in masters]
        monkeypatch.setattr(master, "milp", quirk)
        for model, expect in zip(masters, expects):
            model.meta["incumbents"] = [np.array([1, 0], dtype=np.int8)]
            calls.clear()
            res = HighsBackend().solve(model)
            assert len(calls) == 2
            assert "objective_bound" in calls[0]
            assert "objective_bound" not in calls[1]
            assert res.status == "optimal"
            assert res.objective == expect.objective
            assert np.array_equal(res.assignment, expect.assignment)

    @pytest.mark.parametrize("name", sorted(ODD_SP_GRAPHS) + ["random"])
    def test_bounded_solve_matches_enumeration(self, name):
        # incumbents that include the optimum make the bound tight.  The
        # bound must not move HiGHS's answer; HiGHS itself, bound or not,
        # can claim some dual masters 1e-6 below the enumerated optimum
        # (its primal feasibility tolerance on the potentials)
        if name == "random":
            rng = SplitMix64(1213)
            instances = [random_instance(rng) for _ in range(8)]
        else:
            instances = [ODD_SP_GRAPHS[name]]
        w = WeightFunction([(0.0, 1.0), (0.5, 3.0), (1.0, 0.5)])
        for inst in instances:
            sols = enumerate_solutions(inst)
            models = [build_formulation_general(inst, lams, sols[:2], w)
                      for lams in ([0.5], [0.2, 0.7])]
            if isinstance(inst, GraphInstance) and inst.kind == SHORTEST_PATH:
                models += [build_formulation_dual_sp(inst, lams, w)
                           for lams in ([0.5], [0.2, 0.7])]
            for model in models:
                expect = EnumerationBackend().solve(model)
                unbounded = HighsBackend().solve(model)
                for incumbents in (sols[-1:], sols):
                    model.meta["incumbents"] = incumbents
                    res = HighsBackend().solve(model)
                    master.verify_master_objective(model, res)
                    assert res.objective == pytest.approx(unbounded.objective,
                                                          rel=1e-9)
                    assert res.objective == pytest.approx(expect.objective,
                                                          rel=1e-9, abs=2e-6)

    def test_solve_leaks_no_warning(self, two_parallel, unit_weight):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in self._masters(two_parallel, unit_weight):
                assert HighsBackend().solve(model).status == "optimal"


class TestExternalBackend:
    def test_one_var_model(self):
        res = backend_emit_and_invoke(_raw_one_var(), MOCK_CMD)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0)
        assert res.assignment[0] == pytest.approx(0.0)

    def test_infeasible_model(self):
        res = backend_emit_and_invoke(_raw_infeasible(), MOCK_CMD)
        assert res.status == "infeasible"

    def test_missing_command_raises(self, monkeypatch):
        from vsrobust import BackendError
        monkeypatch.delenv("VSR_SOLVER_CMD", raising=False)
        with pytest.raises(BackendError):
            backend_emit_and_invoke(_raw_one_var(), None)

    def test_command_from_environment(self, monkeypatch, two_parallel,
                                      unit_weight):
        monkeypatch.setenv("VSR_SOLVER_CMD", MOCK_CMD)
        model = build_formulation_dual_sp(two_parallel, [0.5], unit_weight)
        res = ExternalBackend().solve(model)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.5)

    def test_failing_command_captured(self):
        from vsrobust import BackendError
        with pytest.raises(BackendError) as err:
            backend_emit_and_invoke(_raw_one_var(),
                                    f"{sys.executable} -c 'import sys; sys.exit(3)'")
        assert "3" in str(err.value)

    def test_matches_enumeration_on_random_models(self, unit_weight):
        # cross-backend agreement on a batch of machine-built models
        rng = SplitMix64(50)
        external = ExternalBackend(MOCK_CMD)
        enum = EnumerationBackend()
        for trial in range(50):
            inst = random_instance(rng, kinds=("selection", "sp"))
            pool = [solve_nominal(inst, inst.nominal)[0]]
            lam_set = sorted({round(rng.unit(), 2) or 0.5 for _ in range(2)})
            if (isinstance(inst, GraphInstance) and rng.next_u64() % 2
                    and inst.kind == SHORTEST_PATH):
                model = build_formulation_dual_sp(inst, lam_set, unit_weight)
            else:
                model = build_formulation_general(inst, lam_set, pool,
                                                  unit_weight)
            res_ext = external.solve(model)
            res_enum = enum.solve(model)
            assert res_ext.status == res_enum.status == "optimal"
            assert res_ext.objective == pytest.approx(res_enum.objective,
                                                      rel=1e-6, abs=1e-6)

    def test_algorithm1_via_external_backend(self, two_parallel, unit_weight):
        x, val, _ = algorithm1(two_parallel, unit_weight,
                               backend=ExternalBackend(MOCK_CMD))
        assert np.array_equal(x, [1, 0])
        assert val == pytest.approx(32.0 / 9.0, abs=1e-9)

    def test_mst_master_with_lazy_cycles(self, unit_weight):
        rng = SplitMix64(60)
        g = random_mst_graph(rng)
        pool = [solve_nominal(g, g.nominal)[0]]
        model = build_formulation_general(g, [0.3, 0.7], pool, unit_weight)
        res_ext = ExternalBackend(MOCK_CMD).solve(model)
        res_enum = EnumerationBackend().solve(model)
        res_highs = HighsBackend().solve(model)
        assert res_ext.objective == pytest.approx(res_enum.objective, abs=1e-6)
        assert res_highs.objective == pytest.approx(res_enum.objective, abs=1e-9)


class TestSolutionFileParsing:
    def test_round_trip_precision(self):
        text = "status optimal\nobjective 3.5555555555555554\nx_0 1\nz_0 0.12345678901234567\n"
        status, values, obj = parse_solution_file(text)
        assert status == "optimal"
        assert obj == pytest.approx(32.0 / 9.0, abs=1e-9)
        assert values["z_0"] == pytest.approx(0.12345678901234567, abs=1e-18)

    def test_missing_status_rejected(self):
        from vsrobust import BackendError
        with pytest.raises(BackendError):
            parse_solution_file("x_0 1\n")

    def test_garbage_line_rejected(self):
        from vsrobust import BackendError
        with pytest.raises(BackendError):
            parse_solution_file("status optimal\nx_0 one two\n")
