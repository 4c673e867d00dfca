"""Rational simplex and integer positive-definiteness, checked independently."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_simplex_max
from zecap import exact
from zecap.exact import UnboundedError, is_positive_definite, simplex_max

F = Fraction


def ldlt_positive_definite(matrix) -> bool:
    """Independent oracle: symmetric LDL^T elimination in Fractions, on the
    lower triangle.  True iff every pivot of D is positive."""
    n = len(matrix)
    low = [[F(matrix[i][j]) for j in range(i + 1)] for i in range(n)]
    for k in range(n):
        pivot = low[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = low[i][k] / pivot
            if f:
                row = low[i]
                for j in range(k + 1, i + 1):
                    row[j] -= f * low[j][k]
    return True


def theta_shaped(n: int, t: int) -> list[list[int]]:
    """A dense symmetric matrix in 2^-40 grid units, entries of order one as
    in the theta certificates, whose least eigenvalue is exactly t units:
    G G^T with G of n - 1 columns is PSD and singular."""
    rng = random.Random(n)
    g = [[rng.randrange(-(1 << 20), 1 << 20) for _ in range(n - 1)] for _ in range(n)]
    return [[sum(x * y for x, y in zip(gi, gj)) + (t if i == j else 0) for j, gj in enumerate(g)]
            for i, gi in enumerate(g)]


# the semidefinite and indefinite cases of TestPositiveDefinite, as ints
NOT_DEFINITE = [
    [[1, 1], [1, 1]],
    [[0, 1], [1, 0]],
    [[-1]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # twice the -1/2 perturbed identity
    [[2, 6], [6, 3]],  # six times [[1/3, 1], [1, 1/2]]
]


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


class TestIntegerInputs:
    """All-int input skips the Fraction pass of _to_integers; verdicts and
    optima must be those of the same numbers handed in as Fractions."""

    def test_scaling(self):
        assert exact._to_integers([3, -4, 0]) == ([3, -4, 0], 1)
        assert exact._to_integers([3, F(1, 2), F(-2, 3)]) == ([18, 3, -4], 6)

    def test_positive_definite_verdicts(self):
        cases = NOT_DEFINITE + [theta_shaped(n, t) for n in (2, 5, 16) for t in (1, 0, -1)]
        for a in cases:
            verdict = is_positive_definite(a)
            assert verdict == is_positive_definite([[F(x) for x in row] for row in a])
            # a positive multiple is positive definite exactly when a is
            assert verdict == is_positive_definite([[F(x, 7) for x in row] for row in a])
        assert sum(map(is_positive_definite, cases)) == 3

    def test_simplex_results(self, rng):
        outcomes = {"optimal": 0, "unbounded": 0}
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            c = [rng.randint(-4, 6) for _ in range(n)]
            rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(0, 8) for _ in range(m)]
            as_fractions = ([F(x) for x in c], [[F(x) for x in row] for row in rows], [F(b) for b in rhs])
            try:
                expected = simplex_max(*as_fractions)
            except UnboundedError:
                with pytest.raises(UnboundedError):
                    simplex_max(c, rows, rhs)
                outcomes["unbounded"] += 1
                continue
            assert simplex_max(c, rows, rhs) == expected
            outcomes["optimal"] += 1
        assert min(outcomes.values()) >= 50, outcomes


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


class TestResidualCertificate:
    """The rounded-Cholesky certificate against an exact LDL^T oracle."""

    @pytest.mark.parametrize("t", [1, 0, -1])
    @pytest.mark.parametrize("n", [2, 5, 16, 49, 64])
    def test_grid_matrices_match_ldlt_oracle(self, n, t):
        a = theta_shaped(n, t)
        assert ldlt_positive_definite(a) == (t > 0)
        assert is_positive_definite(a) == (t > 0)
        if t <= 0:
            assert not exact._residual_certificate(a)

    @pytest.mark.parametrize("a", NOT_DEFINITE)
    def test_existing_cases_match_ldlt_oracle(self, a):
        assert not ldlt_positive_definite(a)
        assert not is_positive_definite(a)
        assert not exact._residual_certificate(a)

    @pytest.mark.parametrize("a", NOT_DEFINITE + [theta_shaped(n, t) for n in (5, 16) for t in (0, -1)])
    def test_lying_floats_are_rejected(self, a, monkeypatch):
        # a lambda_min estimate of +2^-20, then also a float factor of the
        # matrix lifted to lambda_min = 2^-19: only the integer residual
        # stands in the way
        eigvalsh, cholesky = np.linalg.eigvalsh, np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) - eigvalsh(m)[0] + 2.0 ** -20)
        assert not exact._residual_certificate(a)
        factored = []

        def lifted(m):
            factored.append(len(m))
            return cholesky(m + (2.0 ** -19 - eigvalsh(m)[0]) * np.eye(len(m)))

        monkeypatch.setattr(np.linalg, "cholesky", lifted)
        assert not exact._residual_certificate(a)
        assert factored == [len(a)]
        assert not is_positive_definite(a)

    def test_wide_entries_stay_finite(self):
        # ints far beyond the float range are scaled down before the float factor
        big = 1 << 2000
        assert exact._residual_certificate([[2 * big, big], [big, 2 * big]])
        assert not is_positive_definite([[big, big], [big, big]])

    def test_asymmetric_input_goes_to_elimination(self):
        # the floats read one triangle, where this matrix is 4I; the
        # certificate needs symmetry, so the leading minors 4 and 16 decide
        assert not exact._residual_certificate([[4, 1], [0, 4]])
        assert is_positive_definite([[F(4), F(1)], [F(0), F(4)]])

    @pytest.mark.parametrize("offsets, proved", [
        ((1, 1, 1, 1), True), ((1, 0, 1, 1), False), ((1, 1, 1, -1), False),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_residual_decides_at_one_unit(self, offsets, proved, sign, monkeypatch):
        # floats that propose an int factor L exactly (|L| in [2^50.5, 2^51),
        # on the 2^-52 grid) for a = L L^T + D: the residual is exactly
        # D * 2^104, and D's rows miss strict dominance by offsets - 1
        rng = random.Random(7)
        n = len(offsets)
        lt = [[rng.choice((-1, 1)) * rng.randrange(3 << 49, 1 << 51) for _ in range(n)]
              for _ in range(n)]
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                d[i][j] = d[j][i] = sign * rng.randrange(1, 6)
        for i in range(n):
            d[i][i] = sum(abs(x) for x in d[i]) + offsets[i]
        a = [[sum(x * y for x, y in zip(li, lj)) + d[i][j] for j, lj in enumerate(lt)]
             for i, li in enumerate(lt)]
        assert max(map(max, a)).bit_length() == 104  # e = 2k: nothing is shifted
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.full(len(m), 0.25))
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: np.ldexp(np.array(lt, dtype=float), -52))
        assert exact._residual_certificate(a) == proved
