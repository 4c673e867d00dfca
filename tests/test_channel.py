"""Discrete channels: parsing, confusability reduction, zero-error codes."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from zecap import (
    Channel,
    InputError,
    capacity_bounds,
    channel_from_csv,
    channel_from_json,
    complete_graph,
    confusability_graph,
    cycle_graph,
    edgeless_graph,
    encode,
    max_zero_error_code,
    strong_power,
    words_distinguishable,
)

from conftest import make_bsc, make_pentagon_channel


class TestChannelType:
    def test_valid(self, pentagon_channel):
        assert pentagon_channel.x_size == 5 and pentagon_channel.y_size == 5
        assert pentagon_channel.support(0) == 0b00011

    def test_rows_must_sum_to_one(self):
        with pytest.raises(InputError, match="row 1"):
            Channel(1, 2, ((Fraction(1, 2), Fraction(1, 3)),))

    def test_negative_probability(self):
        with pytest.raises(InputError, match="row 2"):
            Channel(
                2,
                2,
                (
                    (Fraction(1), Fraction(0)),
                    (Fraction(-1, 2), Fraction(3, 2)),
                ),
            )

    def test_shape_mismatches(self):
        with pytest.raises(InputError):
            Channel(2, 2, ((Fraction(1), Fraction(0)),))
        with pytest.raises(InputError):
            Channel(1, 3, ((Fraction(1), Fraction(0)),))
        with pytest.raises(InputError):
            Channel(0, 1, ())


class TestParsing:
    def test_csv_round(self):
        ch = channel_from_csv("1/2,1/2,0\n0,1/2,1/2\n")
        assert ch.x_size == 2 and ch.y_size == 3
        assert ch.rows[0][0] == Fraction(1, 2)

    def test_csv_decimals_and_blanks(self):
        ch = channel_from_csv("\n0.25,0.75\n\n1,0\n")
        assert ch.x_size == 2
        assert ch.rows[0][0] == Fraction(1, 4)

    def test_csv_errors_carry_line_numbers(self):
        with pytest.raises(InputError, match="line 2"):
            channel_from_csv("1,0\n0.6,0.3\n")
        with pytest.raises(InputError, match="line 3"):
            channel_from_csv("1,0\n0,1\n1,0,0\n")
        with pytest.raises(InputError, match="line 1"):
            channel_from_csv("x,y\n")
        with pytest.raises(InputError):
            channel_from_csv("")

    def test_probabilities_outside_the_unit_interval(self):
        with pytest.raises(InputError, match="line 1, column 1: probability '3/2' is not in"):
            channel_from_csv("3/2,-1/2\n")
        with pytest.raises(InputError, match="row 1, column 2: probability '-1/2' is not in"):
            channel_from_json('{"x_size": 1, "y_size": 2, "rows": [["1", "-1/2"]]}')

    def test_json_round(self):
        ch = channel_from_json(
            '{"x_size": 2, "y_size": 2, "rows": [["1/2", "1/2"], ["0", "1"]]}'
        )
        assert ch.rows[1] == (Fraction(0), Fraction(1))

    def test_json_errors(self):
        with pytest.raises(InputError, match="line"):
            channel_from_json('{"x_size": 2,')
        with pytest.raises(InputError):
            channel_from_json('{"x_size": 2, "rows": []}')
        with pytest.raises(InputError):
            channel_from_json('{"x_size": 1, "y_size": 1, "rows": [["1/2"]]}')
        for size in ('"a"', "1.5", "true", "null"):
            with pytest.raises(InputError, match="x_size"):
                channel_from_json(f'{{"x_size": {size}, "y_size": 1, "rows": [["1"]]}}')


class TestConfusabilityGraph:
    def test_pentagon_channel_yields_pentagon(self, pentagon_channel, pentagon):
        g = confusability_graph(pentagon_channel)
        assert g == pentagon
        assert encode(g) == 689

    def test_depends_only_on_supports(self):
        skew = Channel(
            5,
            5,
            tuple(
                tuple(
                    Fraction(1, 4) if y == x else Fraction(3, 4) if y == (x + 1) % 5 else Fraction(0)
                    for y in range(5)
                )
                for x in range(5)
            ),
        )
        assert confusability_graph(skew) == confusability_graph(make_pentagon_channel())

    def test_noiseless_channel_is_edgeless(self):
        rows = tuple(
            tuple(Fraction(int(y == x)) for y in range(4)) for x in range(4)
        )
        assert confusability_graph(Channel(4, 4, rows)) == edgeless_graph(4)

    def test_useless_channel_is_complete(self):
        rows = tuple((Fraction(1),) for _ in range(4))
        assert confusability_graph(Channel(4, 1, rows)) == complete_graph(4)

    def test_bsc_two_inputs_confusable(self, bsc):
        assert confusability_graph(bsc) == complete_graph(2)


class TestZeroErrorCodes:
    def test_pentagon_block_two(self, pentagon_channel):
        code = max_zero_error_code(pentagon_channel, 2)
        assert code.size == 5
        assert code.block_length == 2
        for u, w in combinations(code.words, 2):
            assert words_distinguishable(pentagon_channel, u, w)

    def test_words_match_witness_vertices(self, pentagon_channel, pentagon):
        code = max_zero_error_code(pentagon_channel, 2)
        # the code words are the base-5 digit strings of the witness vertices
        power = strong_power(pentagon, 2)
        assert code.witness.verify(power)
        words = {tuple(divmod(v, 5)) for v in code.witness.vertices}
        assert set(code.words) == words

    def test_block_one_is_alpha(self, pentagon_channel):
        assert max_zero_error_code(pentagon_channel, 1).size == 2

    def test_bsc_never_beats_one_word(self, bsc):
        for n in (1, 2, 3):
            assert max_zero_error_code(bsc, n).size == 1

    def test_noiseless_channel_grows_exponentially(self):
        rows = tuple(
            tuple(Fraction(int(y == x)) for y in range(3)) for x in range(3)
        )
        ch = Channel(3, 3, rows)
        for n in (1, 2, 3):
            assert max_zero_error_code(ch, n).size == 3**n

    def test_distinguishability_matches_power_graph(self, pentagon_channel, pentagon):
        power = strong_power(pentagon, 2)
        for u in range(25):
            for w in range(u + 1, 25):
                separable = words_distinguishable(
                    pentagon_channel, tuple(divmod(u, 5)), tuple(divmod(w, 5))
                )
                assert separable == (not power.has_edge(u, w))

    def test_block_length_must_be_positive(self, pentagon_channel):
        with pytest.raises(InputError):
            max_zero_error_code(pentagon_channel, 0)


class TestCapacityBounds:
    def test_pentagon_rates(self, pentagon_channel):
        report = capacity_bounds(pentagon_channel, 1, Fraction(1, 10**4))
        assert report.bounds.graph == cycle_graph(5)
        assert report.bounds.errors == []
        half_log5 = math.log2(5) / 2
        assert abs(report.log2_lower - half_log5) < 1e-3
        assert report.log2_upper is not None
        assert abs(report.log2_upper - half_log5) < 1e-3
        assert report.log2_lower <= report.log2_upper

    def test_bsc_has_zero_rate(self, bsc):
        report = capacity_bounds(bsc, 1, Fraction(1, 10**4))
        assert report.log2_lower == 0.0
        assert report.log2_upper is not None and report.log2_upper < 1e-6

    def test_noiseless_rate_is_log_alphabet(self):
        rows = tuple(
            tuple(Fraction(int(y == x)) for y in range(4)) for x in range(4)
        )
        report = capacity_bounds(Channel(4, 4, rows), 1, Fraction(1, 10**4))
        assert abs(report.log2_lower - 2.0) < 1e-9
        assert abs(report.log2_upper - 2.0) < 1e-3

    def test_log2_upper_is_capped_at_the_inputs(self):
        # 70 inputs are past both the theta and the clique-cover vertex caps,
        # but capacity <= 70 still holds
        rows = tuple(
            tuple(Fraction(int(y == x)) for y in range(70)) for x in range(70)
        )
        report = capacity_bounds(Channel(70, 70, rows), 1, Fraction(1, 10**4))
        assert report.bounds.upper is None and len(report.bounds.errors) == 2
        assert report.log2_lower == report.log2_upper == math.log2(70)
