"""Rational simplex and integer positive-definiteness, checked independently."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_simplex_max
from zecap.exact import UnboundedError, is_positive_definite, simplex_max

F = Fraction


class TestSimplex:
    def test_textbook_two_variable(self):
        # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
        value, y = simplex_max(
            [F(3), F(5)],
            [[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]],
            [F(4), F(12), F(18)],
        )
        assert value == 36
        assert y == [F(2), F(6)]

    def test_fractional_optimum(self):
        # max x + y  s.t.  2x + y <= 3, x + 2y <= 3  ->  x = y = 1, value 2
        value, y = simplex_max(
            [F(1), F(1)], [[F(2), F(1)], [F(1), F(2)]], [F(3), F(3)]
        )
        assert value == 2
        assert y == [F(1), F(1)]

    def test_exact_fractions_not_floats(self):
        # max y1 + y2 over the fractional relaxation of covering a triangle:
        # each vertex in at most 1 unit of cliques; optimum is rational 3/2
        value, _ = simplex_max(
            [F(1), F(1), F(1)],
            [[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(1)]],
            [F(1), F(1), F(1)],
        )
        assert value == F(3, 2)

    def test_zero_objective(self):
        value, y = simplex_max([F(0)], [[F(1)]], [F(5)])
        assert value == 0 and y == [F(0)]

    def test_degenerate_rhs_terminates(self):
        # Bland's rule must not cycle on a degenerate vertex
        value, _ = simplex_max(
            [F(1), F(1)],
            [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]],
            [F(0), F(1), F(1)],
        )
        assert value == 1

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedError):
            simplex_max([F(1), F(0)], [[F(0), F(1)]], [F(1)])

    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError):
            simplex_max([F(1)], [[F(1)]], [F(-1)])

    @pytest.mark.parametrize(
        "c, rows, rhs",
        [
            ([1], [[1, 1]], [1]),  # row longer than c
            ([1], [[1], [1]], [1]),  # rhs shorter than rows
            ([1], [[1]], [1, 1]),  # rhs longer than rows
        ],
    )
    def test_rejects_shape_mismatch(self, c, rows, rhs):
        with pytest.raises(ValueError):
            simplex_max(c, rows, rhs)

    def test_matches_fraction_reference(self, rng):
        # non-integer and negative coefficients, zero rhs (degenerate
        # vertices) and unbounded directions, against the Fraction tableau
        def q():
            return F(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.8 else F(0)

        outcomes = {"optimal": 0, "unbounded": 0, "degenerate": 0}
        for _ in range(2000):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            c = [q() for _ in range(n)]
            rows = [[q() for _ in range(n)] for _ in range(m)]
            rhs = [abs(q()) if rng.random() < 0.7 else F(0) for _ in range(m)]
            try:
                expected = reference_simplex_max(c, rows, rhs)
            except UnboundedError:
                with pytest.raises(UnboundedError):
                    simplex_max(c, rows, rhs)
                outcomes["unbounded"] += 1
                continue
            assert simplex_max(c, rows, rhs) == expected
            outcomes["optimal"] += 1
            outcomes["degenerate"] += 0 in rhs
        assert min(outcomes.values()) >= 200, outcomes

    def test_feasibility_of_returned_point(self, rng):
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            c = [F(rng.randint(0, 5)) for _ in range(n)]
            rows = [[F(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(0, 6)) for _ in range(m)]
            if any(all(rows[i][j] == 0 for i in range(m)) and c[j] > 0 for j in range(n)):
                continue  # unbounded direction; covered separately
            value, y = simplex_max(c, rows, rhs)
            assert all(yj >= 0 for yj in y)
            for row, b in zip(rows, rhs):
                assert sum(a * yj for a, yj in zip(row, y)) <= b
            assert sum(cj * yj for cj, yj in zip(c, y)) == value


class TestPositiveDefinite:
    def test_identity(self):
        eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert is_positive_definite(eye)

    def test_empty_matrix(self):
        assert is_positive_definite([])

    def test_semidefinite_rejected(self):
        # rank-1 matrix [[1,1],[1,1]] has a zero eigenvalue
        assert not is_positive_definite([[F(1), F(1)], [F(1), F(1)]])

    def test_indefinite_rejected(self):
        assert not is_positive_definite([[F(0), F(1)], [F(1), F(0)]])
        assert not is_positive_definite([[F(-1)]])

    def test_rational_entries(self):
        assert is_positive_definite([[F(1, 3), F(1, 7)], [F(1, 7), F(1, 2)]])
        assert not is_positive_definite([[F(1, 3), F(1)], [F(1), F(1, 2)]])

    def test_against_numpy_on_separated_randoms(self, rng):
        for _ in range(60):
            n = rng.randint(1, 6)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            sym = [[F(a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]
            # shift the diagonal so eigenvalues are far from zero either way
            shift = rng.choice([-12, 12])
            for i in range(n):
                sym[i][i] += F(shift) + F(2 * n)
            eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in sym]))
            if min(abs(e) for e in eigs) < 1e-6:
                continue
            assert is_positive_definite(sym) == bool(eigs.min() > 0)

    def test_perturbed_identity_boundary(self):
        n = 3
        base = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    base[i][j] = F(1, 2)
        # eigenvalues are 2 and 1/2: PD
        assert is_positive_definite(base)
        for i in range(n):
            for j in range(n):
                if i != j:
                    base[i][j] = F(-1, 2)
        # eigenvalues are 3/2, 3/2, 0: not strictly PD
        assert not is_positive_definite(base)
