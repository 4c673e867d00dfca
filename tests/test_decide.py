"""Threshold semi-decision, enumeration, grid localization, interval squeeze."""

import math
from fractions import Fraction

import pytest

from zecap import (
    BUDGET_EXHAUSTED,
    HALTED,
    VALUE,
    BudgetError,
    Certificate,
    DecisionOutcome,
    InputError,
    complete_graph,
    cycle_graph,
    decode,
    disjoint_union,
    edgeless_graph,
    encode,
    enumerate_gt,
    from_rational,
    lipschitz_constant,
    locate_grid,
    lovasz_theta,
    parse_real,
    semidecide_gt,
    semidecide_level,
    single_vertex,
    sqrt_int,
    squeeze_capacity,
    strong_power,
    strong_product,
)
import zecap.alpha as alpha_module
import zecap.decide as decide_module
from zecap.alpha import PowerLadder, greedy_clique_cover, solve_alpha
from zecap.decide import LOCATE_MAX_CELLS, _level_test
from zecap.graphs import Graph, is_isomorphic

from conftest import brute_alpha, random_graph, recursive_alpha


def fraction_level_test(alpha_power, lam, k, n):
    """The level test as the module docstring states it, in Fraction arithmetic."""
    lhs = alpha_power - lam.approx(n) ** (1 << k)
    rhs = lipschitz_constant(lam, k) * Fraction(1, 1 << n)
    return (lhs, rhs) if lhs > rhs else None


def two_triangles() -> Graph:
    """K3 x E2: alpha = 2 and a partition into 2 cliques, so capacity 2."""
    return strong_product(complete_graph(3), edgeless_graph(2))


class TestLipschitzConstant:
    def test_level_zero_is_one(self):
        assert lipschitz_constant(from_rational(7), 0) == 1
        assert lipschitz_constant(sqrt_int(5), 0) == 1

    def test_growth_with_level(self):
        lam = from_rational(2)
        assert lipschitz_constant(lam, 1) == 2 * 3
        assert lipschitz_constant(lam, 2) == 4 * 27

    def test_uses_magnitude(self):
        assert lipschitz_constant(from_rational(-2), 1) == 6


class TestSemidecideGt:
    def test_pentagon_exceeds_two(self, pentagon):
        out = semidecide_gt(pentagon, from_rational(2), 100, lambda_expr="2")
        assert out.status == HALTED
        cert = out.certificate
        assert cert is not None
        assert cert.graph_index == encode(pentagon)
        assert cert.level == 1 and cert.precision == 3
        assert cert.alpha_power == 5
        assert cert.lhs == 1 and cert.rhs == Fraction(3, 4)
        assert cert.verify(from_rational(2))
        assert out.steps_used == 8

    def test_pentagon_does_not_exceed_its_capacity(self, pentagon):
        out = semidecide_gt(pentagon, sqrt_int(5), 60, lambda_expr="sqrt(5)")
        assert out.status == BUDGET_EXHAUSTED
        assert out.certificate is None
        assert out.steps_used == 60

    def test_triangle_free_threshold_below_alpha(self):
        out = semidecide_gt(edgeless_graph(3), from_rational(2), 50)
        assert out.status == HALTED
        assert out.certificate.level == 0
        assert out.certificate.alpha_power == 3

    def test_false_threshold_never_fires(self):
        # capacity of K4 is 1 < 2, so no budget can produce a certificate
        out = semidecide_gt(complete_graph(4), from_rational(2), 200)
        assert out.status == BUDGET_EXHAUSTED
        assert out.certificate is None

    def test_negative_threshold_halts_fast(self):
        out = semidecide_gt(Graph(0, ()), from_rational(-1), 10)
        assert out.status == HALTED
        assert out.certificate.level == 0

    def test_single_vertex_near_threshold(self):
        # alpha(K1^(2^0)) - (1/2)^1 = 1/2 must beat L_0 * 2^-n = 2^-n,
        # which first happens at precision n = 2
        out = semidecide_gt(single_vertex(), from_rational(Fraction(1, 2)), 20)
        assert out.status == HALTED
        assert out.certificate.level == 0
        assert out.certificate.precision == 2

    def test_triangular_schedule_is_fair(self, pentagon):
        out = semidecide_gt(pentagon, sqrt_int(5), 45, lambda_expr="sqrt(5)")
        # after t full stages level k has taken exactly t-k steps
        per_level: dict[int, int] = {}
        stages = 0
        for stage, level, _ in out.log:
            per_level[level] = per_level.get(level, 0) + 1
            stages = max(stages, stage)
        full = stages - 1  # last stage may be partial
        for level in range(full):
            assert per_level[level] >= full - level

    def test_log_precision_increments_within_level(self, pentagon):
        out = semidecide_gt(pentagon, sqrt_int(5), 30)
        seen: dict[int, int] = {}
        for _, level, n in out.log:
            if level in seen and n != 0:
                assert n == seen[level] + 1 or n == seen[level]
            seen[level] = n

    def test_budget_validation(self, pentagon):
        with pytest.raises(InputError):
            semidecide_gt(pentagon, from_rational(2), 0)

    def test_level_cap_stalls_only_a_stepped_level(self, pentagon):
        # budget 4 schedules level 2 in stage 3 but runs out before its step
        lam = sqrt_int(5)
        early = semidecide_gt(pentagon, lam, 4, level_cap=1).progress[2]
        assert early["stalled"] is None and early["last_precision"] == 0
        late = semidecide_gt(pentagon, lam, 6, level_cap=1).progress[2]
        assert late["stalled"] == "level cap" and late["alpha"] is None

    def test_progress_reports_stalls(self, pentagon):
        out = semidecide_gt(
            pentagon, sqrt_int(5), 40, power_cap=30, lambda_expr="sqrt(5)"
        )
        assert out.status == BUDGET_EXHAUSTED
        stalled = [p for p in out.progress.values() if p["stalled"] == "vertex budget"]
        assert stalled  # levels beyond 25 vertices cannot build their power


class TestLevelTest:
    @pytest.mark.parametrize("text", ["3/2", "sqrt(5)", "1+sqrt(5)", "13/4", "0"])
    def test_integer_form_matches_fractions(self, rng, text):
        lam = parse_real(text)
        fired = quiet = 0
        for _ in range(300):
            k, n = rng.randint(0, 6), rng.randint(1, 60)
            # alpha close to r(n)^(2^k), where the last digits decide, or anywhere
            near = math.floor(lam.approx(n) ** (1 << k))
            if rng.random() < 0.8:
                a = max(0, near + rng.randint(-2, 2))
            else:
                a = rng.randint(0, 2 * near + 4)
            want = fraction_level_test(a, lam, k, n)
            assert _level_test(a, lam, k, n) == want
            assert _level_test(a, lam, k, n, lipschitz_constant(lam, k)) == want
            fired += want is not None
            quiet += want is None
        assert fired >= 30 and quiet >= 30, (fired, quiet)


class TestCliqueCoverClosure:
    """A level at the clique-cover bound c^(2^k) closes every later level."""

    def test_levels_match_oracle(self, rng, pentagon):
        closed = 0
        for i in range(40):
            g = pentagon if i % 8 == 0 else random_graph(rng, rng.randint(0, 5), p=0.5)
            lam = from_rational(g.n)  # capacity never exceeds n: nothing fires
            want = recursive_alpha(strong_product(g, g))
            single = semidecide_level(g, lam, 1, 1)
            assert single.progress[1]["alpha"] == want
            # the dovetail solves level 0 first, then level 1
            out = semidecide_gt(g, lam, 3)
            assert out.status == BUDGET_EXHAUSTED
            assert [out.progress[k]["alpha"] for k in (0, 1)] == [brute_alpha(g), want]
            tight = brute_alpha(g) == greedy_clique_cover(g)
            assert (out.progress[1]["nodes_used"] == 0) == tight
            closed += tight
        assert closed == 35, closed  # every random graph here, and no pentagon

    def test_closed_levels_report_no_nodes(self):
        out = semidecide_gt(two_triangles(), from_rational(2), 100, power_cap=50_000)
        assert out.status == BUDGET_EXHAUSTED
        levels = out.progress
        assert [levels[k]["alpha"] for k in (0, 1, 2)] == [2, 4, 16]
        assert levels[0]["nodes_used"] >= 1
        assert levels[1]["nodes_used"] == levels[2]["nodes_used"] == 0
        assert levels[3]["stalled"] == "vertex budget"

    def test_open_graph_still_searches(self, pentagon):
        out = semidecide_gt(pentagon, sqrt_int(5), 30)
        assert out.progress[1]["alpha"] == 5
        assert out.progress[1]["nodes_used"] > 0

    def test_closed_level_beyond_the_power_cap_stalls(self):
        out = semidecide_gt(two_triangles(), from_rational(2), 30, power_cap=50)
        assert out.progress[1]["alpha"] == 4 and out.progress[1]["nodes_used"] == 0
        assert out.progress[2]["alpha"] is None
        assert out.progress[2]["stalled"] == "vertex budget"


class TestSemidecideLevel:
    def test_level_one_fires_for_pentagon(self, pentagon):
        out = semidecide_level(pentagon, from_rational(2), 1, 20, lambda_expr="2")
        assert out.status == HALTED
        assert out.certificate.level == 1

    def test_level_zero_cannot_see_it(self, pentagon):
        # alpha(C5) = 2 is not above threshold 2
        out = semidecide_level(pentagon, from_rational(2), 0, 50)
        assert out.status == BUDGET_EXHAUSTED

    def test_oversized_level_stalls(self, pentagon):
        out = semidecide_level(pentagon, from_rational(2), 9, 10)
        assert out.status == BUDGET_EXHAUSTED
        assert out.progress[9]["stalled"] == "level cap"

    def test_lower_levels_close_the_asked_one(self, monkeypatch):
        # level 0 of K3 x E2 meets its 2-clique cover, so level 2 is closed
        # at 2^4 without building or searching the 1,296-vertex power
        built = []

        def recorded(g, h, cap=None):
            built.append(g.n * h.n)
            return strong_product(g, h, cap)

        monkeypatch.setattr(alpha_module, "strong_product", recorded)
        out = semidecide_level(two_triangles(), from_rational(2), 2, 5, power_cap=50_000)
        assert out.status == BUDGET_EXHAUSTED
        assert out.progress[2]["alpha"] == 16
        assert out.progress[2]["nodes_used"] == 0
        assert built == []

    def test_validation(self, pentagon):
        with pytest.raises(InputError):
            semidecide_level(pentagon, from_rational(2), -1, 5)
        with pytest.raises(InputError):
            semidecide_level(pentagon, from_rational(2), 0, 0)


class TestCertificate:
    def test_verify_round_trip(self, pentagon):
        lam = from_rational(2)
        cert = semidecide_gt(pentagon, lam, 50).certificate
        assert cert.verify(lam)

    def test_tampered_alpha_rejected(self, pentagon):
        lam = from_rational(2)
        cert = semidecide_gt(pentagon, lam, 50).certificate
        forged = Certificate(
            cert.graph_index,
            cert.lambda_expr,
            cert.level,
            cert.precision,
            cert.alpha_power + 1,
            cert.lhs,
            cert.rhs,
        )
        assert not forged.verify(lam)

    def test_wrong_threshold_rejected(self, pentagon):
        cert = semidecide_gt(pentagon, from_rational(2), 50).certificate
        assert not cert.verify(from_rational(3))

    def test_inequality_must_be_strict(self):
        bogus = Certificate(0, "1", 0, 1, 1, Fraction(0), Fraction(1, 2))
        assert not bogus.verify(from_rational(1))


class TestEnumeration:
    def test_threshold_three_halves(self):
        state = enumerate_gt(
            from_rational(Fraction(3, 2)), 10, 12, lambda_expr="3/2"
        )
        # emission order: the edgeless 3-vertex graph outruns the 2-vertex
        # one, whose test needs more precision before it clears the slack
        assert state.emitted_indices() == [4, 2, 5, 6, 7, 8, 9]
        assert state.pending == [1, 2, 4]  # graphs with capacity <= 3/2
        for e in state.emitted:
            assert e.certificate.verify(from_rational(Fraction(3, 2)))
            assert e.graph_index == e.slot - 1

    def test_emitted_graphs_truly_exceed(self):
        lam = from_rational(Fraction(3, 2))
        state = enumerate_gt(lam, 10, 12)
        for e in state.emitted:
            g = decode(e.graph_index)
            out = semidecide_gt(g, lam, 64)
            assert out.status == HALTED

    def test_sqrt5_threshold_skips_pentagon(self, pentagon):
        lam = sqrt_int(5)
        state = enumerate_gt(lam, 690, 695, lambda_expr="sqrt(5)")
        assert encode(pentagon) == 689
        assert 689 not in state.emitted_indices()
        assert 76 in state.emitted_indices()  # edgeless on 5 vertices
        assert 689 + 1 in state.pending  # the pentagon stays pending forever

    # every graph on up to 4 vertices, then up to 5 (where a degree
    # sequence no longer fixes the isomorphism class: P5 and K3 + K2)
    @pytest.mark.parametrize("horizon, stages, emitted", [(76, 96, 71), (200, 220, 195)])
    def test_every_small_graph(self, monkeypatch, horizon, stages, emitted):
        built, searched = [], []

        class Recorded(PowerLadder):
            def __init__(self, g, *args):
                built.append(g)
                super().__init__(g, *args)

        def counted(power, *args, **kwargs):
            searched.append(power.n)
            return solve_alpha(power, *args, **kwargs)

        monkeypatch.setattr(decide_module, "PowerLadder", Recorded)
        monkeypatch.setattr(alpha_module, "solve_alpha", counted)
        lam = from_rational(Fraction(3, 2))
        state = enumerate_gt(lam, horizon, stages)
        # the empty graph, K1, K2, K3 and K4: capacity at most 1
        assert state.pending == [1, 2, 4, 12, 76]
        assert len(state.emitted) == emitted
        for e in state.emitted:
            cert = e.certificate
            assert e.graph_index == cert.graph_index == e.slot - 1
            assert cert.verify(lam)
            power = strong_power(decode(e.graph_index), 1 << cert.level)
            if power.n <= 25:
                assert cert.alpha_power == recursive_alpha(power)
            else:  # a direct search of the power the closure never built
                assert cert.alpha_power == solve_alpha(power)[0].size
        # isomorphic graphs share one ladder
        assert len(built) < horizon
        for i, g in enumerate(built):
            assert not any(is_isomorphic(g, h) for h in built[:i])
        # level 0 meets the clique-cover bound on every graph here, which
        # closes level 1: no power is searched, only the graphs themselves
        assert max(searched) == (4 if horizon == 76 else 5)

    def test_zero_budget_or_horizon(self):
        state = enumerate_gt(from_rational(2), 0, 5)
        assert state.emitted == [] and state.pending == []
        state = enumerate_gt(from_rational(2), 5, 0)
        assert state.emitted == [] and state.pending == []

    def test_monotone_in_stage_budget(self):
        lam = from_rational(Fraction(3, 2))
        early = enumerate_gt(lam, 10, 6).emitted_indices()
        late = enumerate_gt(lam, 10, 12).emitted_indices()
        assert set(early) <= set(late)

    def test_validation(self):
        with pytest.raises(InputError):
            enumerate_gt(from_rational(2), -1, 5)
        with pytest.raises(InputError):
            enumerate_gt(from_rational(2), 5, -1)


class TestLocateGrid:
    def test_pentagon_at_resolution_three(self, pentagon):
        cell = locate_grid(pentagon, 3)
        assert cell.cells == [17]  # sqrt(5) in (17/8, 18/8]
        assert cell.lower <= cell.upper

    def test_single_vertex_fine_grid(self):
        cell = locate_grid(single_vertex(), 1)
        assert cell.cells == [1]  # capacity exactly 1 in (1/2, 1]

    def test_union_lands_in_one_cell(self, pentagon):
        g = disjoint_union(single_vertex(), pentagon)
        cell = locate_grid(g, 3)
        assert cell.cells == [25]  # both sqrt(10) and 1+sqrt(5) fit

    def test_interval_covers_cells(self, pentagon):
        cell = locate_grid(pentagon, 4)
        scale = 1 << 4
        lo_cell, hi_cell = cell.cells[0], cell.cells[-1]
        assert Fraction(lo_cell, scale) <= cell.lower
        assert cell.upper <= Fraction(hi_cell + 1, scale)

    def test_resolution_must_cover_graph(self):
        with pytest.raises(InputError):
            locate_grid(edgeless_graph(3), 1)  # 2^1 < 3 vertices
        with pytest.raises(InputError):
            locate_grid(single_vertex(), -1)

    def test_coarse_resolution_still_works(self):
        cell = locate_grid(complete_graph(2), 1)
        assert cell.cells == [1]

    def test_cell_count_is_capped_before_listing(self):
        # C7's bracket [sqrt(10), theta] spans 162,939 cells of side 2^-20
        with pytest.raises(BudgetError) as exc:
            locate_grid(cycle_graph(7), 20)
        assert exc.value.reason == "cell budget"
        assert exc.value.used == 162_939
        assert len(locate_grid(cycle_graph(7), 12).cells) <= LOCATE_MAX_CELLS


class TestSqueeze:
    def test_pentagon_narrow_interval(self, pentagon):
        result = squeeze_capacity(pentagon, 8)
        assert result.status == VALUE
        assert result.width() < Fraction(1, 256)
        assert result.lower**2 < 5 < result.upper**2

    def test_perfect_graph_collapses_exactly(self):
        result = squeeze_capacity(complete_graph(4), 10)
        assert result.status == VALUE
        assert result.lower == 1 and result.upper == 1

    def test_budget_exhaustion_reports_partial(self, pentagon):
        result = squeeze_capacity(pentagon, 40, budget=2)
        assert result.status == BUDGET_EXHAUSTED
        assert result.rounds_used == 2
        assert result.lower <= result.upper

    def test_monotone_refinement(self, pentagon):
        prev_width = Fraction(5)
        for budget in (1, 2, 4, 8):
            r = squeeze_capacity(pentagon, 12, budget=budget)
            w = r.width()
            assert w <= prev_width
            prev_width = w

    def test_theta_asked_once(self, pentagon, monkeypatch):
        # the theta interval is certified once per graph, so a second ask at
        # a smaller tolerance could only return the same hi or fail; each
        # ladder level is solved once, on one power ladder
        tols = []
        sizes = []

        def counted(g, tol):
            tols.append(tol)
            return lovasz_theta(g, tol)

        def solved(g, *args, **kwargs):
            sizes.append(g.n)
            return solve_alpha(g, *args, **kwargs)

        monkeypatch.setattr("zecap.spectrum.lovasz_theta", counted)
        monkeypatch.setattr("zecap.alpha.solve_alpha", solved)
        result = squeeze_capacity(disjoint_union(single_vertex(), pentagon), 4, budget=15)
        assert tols == [Fraction(1, 64)]
        assert sizes == [6, 36]
        assert result.status == BUDGET_EXHAUSTED
        assert result.lower == Fraction(1617, 512)
        assert result.upper == Fraction(1779047184823, 549755813888)
        assert result.rounds_used == 4  # ladder 0, cover, theta, ladder 1

    def test_programming_errors_propagate(self, pentagon, monkeypatch):
        # only budget and convergence stops may leave a round as a no-op
        def broken(g):
            raise TypeError("broken refinement")

        monkeypatch.setattr("zecap.spectrum.fractional_clique_cover", broken)
        with pytest.raises(TypeError, match="broken refinement"):
            squeeze_capacity(pentagon, 8)

    def test_validation(self, pentagon):
        with pytest.raises(InputError):
            squeeze_capacity(pentagon, -1)
        with pytest.raises(InputError):
            squeeze_capacity(pentagon, 4, budget=0)


class TestOutcomeShape:
    def test_progress_and_log_present(self, pentagon):
        out = semidecide_gt(pentagon, sqrt_int(5), 10)
        assert isinstance(out, DecisionOutcome)
        assert out.steps_used == 10
        assert len(out.log) == 10
        assert set(out.progress) == {r for _, r, _ in out.log} | set(out.progress)

    def test_threshold_parseable_forms(self, pentagon):
        lam = parse_real("1+sqrt(5)")
        out = semidecide_gt(pentagon, lam, 20)
        assert out.status == BUDGET_EXHAUSTED
