import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tspmeta as tm
from conftest import tsplib_text

FIVE_CITY_TSPLIB = """\
NAME: five-city
TYPE: TSP
DIMENSION: 5
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 1 3
3 4 3
4 6 1
5 3 0
EOF
"""


class TestParseTsplib:
    def test_five_city_file(self):
        inst, warnings = tm.parse_tsplib(FIVE_CITY_TSPLIB)
        assert inst.n == 5
        assert inst.metric is tm.Metric.EUCLIDEAN_ROUNDED
        assert (inst.cities[1].x, inst.cities[1].y) == (1.0, 3.0)
        assert warnings == []

    def test_crlf_and_loose_spacing(self):
        text = FIVE_CITY_TSPLIB.replace("NAME: ", "NAME :  ").replace("\n", "\r\n")
        inst, _ = tm.parse_tsplib(text)
        assert inst.n == 5

    def test_dimension_mismatch(self):
        text = FIVE_CITY_TSPLIB.replace("1 0 0\n", "")
        with pytest.raises(tm.ParseError, match="DIMENSION"):
            tm.parse_tsplib(text)

    def test_explicit_weights_unsupported(self):
        text = FIVE_CITY_TSPLIB.replace("EUC_2D", "EXPLICIT")
        with pytest.raises(tm.UnsupportedFormatError):
            tm.parse_tsplib(text)

    def test_ceil_2d_unsupported(self):
        text = FIVE_CITY_TSPLIB.replace("EUC_2D", "CEIL_2D")
        with pytest.raises(tm.UnsupportedFormatError):
            tm.parse_tsplib(text)

    def test_duplicate_node_id(self):
        text = FIVE_CITY_TSPLIB.replace("2 1 3", "1 1 3")
        with pytest.raises(tm.ParseError, match="duplicate"):
            tm.parse_tsplib(text)

    def test_wrong_type(self):
        text = FIVE_CITY_TSPLIB.replace("TYPE: TSP", "TYPE: TOUR")
        with pytest.raises(tm.ParseError, match="TYPE"):
            tm.parse_tsplib(text)

    def test_missing_dimension(self):
        text = FIVE_CITY_TSPLIB.replace("DIMENSION: 5\n", "")
        with pytest.raises(tm.ParseError, match="DIMENSION"):
            tm.parse_tsplib(text)

    def test_zero_dimension(self):
        with pytest.raises(tm.ParseError, match="DIMENSION"):
            tm.parse_tsplib("DIMENSION: 0\nNODE_COORD_SECTION\nEOF\n")

    def test_missing_coord_section(self):
        text = "NAME: x\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n"
        with pytest.raises(tm.ParseError, match="NODE_COORD_SECTION"):
            tm.parse_tsplib(text)

    def test_missing_edge_weight_type_warns(self):
        text = FIVE_CITY_TSPLIB.replace("EDGE_WEIGHT_TYPE: EUC_2D\n", "")
        inst, warnings = tm.parse_tsplib(text, source_name="five.tsp")
        assert inst.metric is tm.Metric.EUCLIDEAN_ROUNDED
        assert warnings == ["five.tsp:10: missing EDGE_WEIGHT_TYPE, assuming EUC_2D"]

    def test_error_carries_line_number(self):
        text = FIVE_CITY_TSPLIB.replace("3 4 3", "3 4 potato")
        with pytest.raises(tm.ParseError) as err:
            tm.parse_tsplib(text)
        assert err.value.line == 8  # the '3 4 potato' row


class TestParseCoordsCsv:
    def test_five_city(self):
        inst, _ = tm.parse_coords_csv("0,0\n1,3\n4,3\n6,1\n3,0")
        assert inst.n == 5
        assert inst.metric is tm.Metric.EUCLIDEAN_EXACT
        assert (inst.cities[4].x, inst.cities[4].y) == (3.0, 0.0)

    def test_comment_and_single_row(self):
        inst, _ = tm.parse_coords_csv("# comment\n0,0")
        assert inst.n == 1

    def test_non_numeric_field(self):
        with pytest.raises(tm.ParseError) as err:
            tm.parse_coords_csv("0,zero")
        assert err.value.line == 1

    def test_zero_rows(self):
        with pytest.raises(tm.ParseError, match="no coordinate rows"):
            tm.parse_coords_csv("# nothing here\n\n")

    def test_wrong_arity(self):
        with pytest.raises(tm.ParseError):
            tm.parse_coords_csv("1,2,3")


# Cities 1 and 2 are 2e200 apart: squaring that overflows a float.
OVERFLOW_COORDS = ((1e200, 0.0), (-1e200, 0.0), (0.0, 1.0), (3.0, 4.0))


class TestDistanceOverflow:
    def test_csv_rejected(self):
        text = "".join(f"{x!r},{y!r}\n" for x, y in OVERFLOW_COORDS)
        with pytest.raises(tm.ParseError, match="cities 1 and 2 overflows"):
            tm.parse_coords_csv(text)

    def test_tsplib_rejected(self):
        with pytest.raises(tm.ParseError, match="cities 1 and 2 overflows") as err:
            tm.parse_tsplib(tsplib_text(OVERFLOW_COORDS))
        assert err.value.line == 5  # NODE_COORD_SECTION

    def test_wide_bounding_box_without_an_overflowing_pair_accepted(self):
        # the box's diagonal overflows, but no pair of cities is that far apart
        half = math.sqrt(0.75 * sys.float_info.max) / 2
        coords = ((half, 0.0), (-half, 0.0), (0.0, half), (0.0, -half))
        inst, _ = tm.parse_tsplib(tsplib_text(coords))
        assert np.isfinite(tm.build_distance_matrix(inst).d).all()


class TestWriters:
    def test_five_city_csv_round_trip(self, five_city):
        text = tm.write_coords_csv(tm.five_city_instance())
        parsed, _ = tm.parse_coords_csv(text)
        assert parsed.n == 5
        for a, b in zip(parsed.cities, five_city.cities):
            assert (a.x, a.y) == (b.x, b.y)

    def test_five_city_csv_byte_stable(self):
        first = tm.write_coords_csv(tm.five_city_instance())
        assert tm.write_coords_csv(tm.five_city_instance()) == first

    def test_tsplib_round_trip(self):
        inst = tm.Instance.from_coords(
            "rt", [(0.25, 0.75), (10.5, -3.0), (7.0, 7.0)], tm.Metric.EUCLIDEAN_ROUNDED)
        back, _ = tm.parse_tsplib(tm.write_tsplib(inst))
        assert back.name == "rt"
        for a, b in zip(back.cities, inst.cities):
            assert (a.x, a.y) == (b.x, b.y)

    def test_csv_round_trip_preserves_floats(self):
        inst = tm.Instance.from_coords("f", [(0.1, 0.2), (1 / 3, 2 / 7)])
        back, _ = tm.parse_coords_csv(tm.write_coords_csv(inst))
        for a, b in zip(back.cities, inst.cities):
            assert (a.x, a.y) == (b.x, b.y)

    @settings(max_examples=200)
    @given(st.text(st.sampled_from("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029") | st.characters(),
                   max_size=12))
    def test_a_name_with_line_breaks_is_written_on_one_line(self, name):
        # "a\nb" used to spill "b" onto a line of its own: the CSV parser
        # refused it and the TSPLIB parser warned of a keyword 'B'
        coords = [(0.0, 0.0), (1.5, 3.0), (4.0, 3.25)]
        inst = tm.Instance.from_coords(name, coords)
        csv, csv_warnings = tm.parse_coords_csv(tm.write_coords_csv(inst))
        tsp, tsp_warnings = tm.parse_tsplib(tm.write_tsplib(inst))
        for back, warnings in ((csv, csv_warnings), (tsp, tsp_warnings)):
            assert [(c.x, c.y) for c in back.cities] == coords
            assert warnings == []
        assert tsp.name.splitlines() in ([tsp.name], [])


class TestPackagedBerlin52:
    def test_loads(self, berlin52):
        assert berlin52.n == 52
        assert berlin52.metric is tm.Metric.EUCLIDEAN_ROUNDED

    def test_opt_tour_length_matches_nearest_integer_euclidean(self, berlin52):
        # the packaged optimal tour must score exactly 7542 under int(d + 0.5)
        opt = tm.packaged_opt_tour("berlin52", berlin52.n)
        m = tm.build_distance_matrix(berlin52)
        assert tm.tour_length(opt, m) == 7542.0
        by_hand = 0
        for k in range(52):
            a = berlin52.cities[opt[k]]
            b = berlin52.cities[opt[(k + 1) % 52]]
            by_hand += int(math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2) + 0.5)
        assert by_hand == 7542


class TestParseTourFile:
    def test_round_trip(self):
        text = "TYPE: TOUR\nDIMENSION: 4\nTOUR_SECTION\n2\n1\n4\n3\n-1\nEOF\n"
        tour = tm.parse_tour_file(text, 4)
        assert tour == (1, 0, 3, 2)

    def test_not_a_permutation(self):
        text = "TOUR_SECTION\n1\n1\n2\n-1\n"
        with pytest.raises(tm.ParseError):
            tm.parse_tour_file(text, 3)

    def test_bad_token(self):
        text = "TOUR_SECTION\n1\nx\n-1\n"
        with pytest.raises(tm.ParseError):
            tm.parse_tour_file(text, 2)

    @pytest.mark.parametrize("section", [
        "1 2 3 4 5 -1\nEOF\n", "1 2 3\n4 5 -1\n", "1 2 3 4 5 EOF\n", "1\n2\n3\n4\n5\n-1\nEOF\n"])
    def test_the_terminator_ends_the_ids_wherever_it_falls(self, section):
        assert tm.parse_tour_file("TOUR_SECTION\n" + section, 5) == (0, 1, 2, 3, 4)


class TestParsingIsTotal:
    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_tsplib_never_crashes(self, text):
        try:
            inst, _ = tm.parse_tsplib(text)
        except tm.ParseError:
            return
        assert inst.n >= 1

    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_csv_never_crashes(self, text):
        try:
            inst, _ = tm.parse_coords_csv(text)
        except tm.ParseError:
            return
        assert inst.n >= 1
