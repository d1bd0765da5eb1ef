import math
import random
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tspmeta as tm
from conftest import in_time
from golden import check
from tspmeta.svgplot import _scaled_positions

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(text: str):
    return ET.fromstring(text)


class TestRenderTourSvg:
    def test_five_city_structure(self, five_city):
        svg = tm.render_tour_svg(five_city, (0, 1, 2, 3, 4))
        root = parse_svg(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("viewBox") == "0 0 800 600"
        circles = root.findall(f"{SVG_NS}circle")
        lines = root.findall(f"{SVG_NS}line")
        assert len(circles) == 5
        assert len(lines) == 5  # closed cycle
        labels = {t.text for t in root.findall(f"{SVG_NS}text")}
        assert {"1", "2", "3", "4", "5"} <= labels

    def test_caption_has_cost_at_five_decimals(self, five_city):
        svg = tm.render_tour_svg(five_city, (0, 1, 2, 3, 4))
        assert "15.15298" in svg

    @pytest.mark.parametrize("tour", [(0, 1, 2, 3, -1), (0, 0, 1, 2, 3)])
    def test_a_tuple_that_is_no_tour_raises(self, five_city, tour):
        with pytest.raises(tm.InvalidTourError):
            tm.render_tour_svg(five_city, tour)

    def test_single_city(self):
        inst = tm.Instance.from_coords("one", [(2.0, 7.0)])
        svg = tm.render_tour_svg(inst, (0,))
        root = parse_svg(svg)
        assert len(root.findall(f"{SVG_NS}circle")) == 1
        assert len(root.findall(f"{SVG_NS}line")) == 0

    def test_byte_stable(self, five_city):
        assert tm.render_tour_svg(five_city, (0, 2, 1, 3, 4)) == \
               tm.render_tour_svg(five_city, (0, 2, 1, 3, 4))

    def test_larger_y_is_drawn_higher(self, five_city):
        svg = tm.render_tour_svg(five_city, (0, 1, 2, 3, 4))
        root = parse_svg(svg)
        circles = root.findall(f"{SVG_NS}circle")
        # city 1 (0,0) vs city 2 (1,3): higher y must give a smaller screen y
        y_city1 = float(circles[0].get("cy"))
        y_city2 = float(circles[1].get("cy"))
        assert y_city2 < y_city1

    def test_margins_respected(self, berlin52):
        tour = tm.packaged_opt_tour("berlin52", berlin52.n)
        root = parse_svg(tm.render_tour_svg(berlin52, tour))
        for c in root.findall(f"{SVG_NS}circle"):
            assert 40 - 1e-9 <= float(c.get("cx")) <= 760 + 1e-9
            assert 40 - 1e-9 <= float(c.get("cy")) <= 560 + 1e-9

    def test_berlin52_optimum_keeps_its_bytes(self):
        check("svg-berlin52-optimum")

    def test_positions_take_linear_time(self):
        # each city once took min(xs) and min(ys) afresh: 12.9 s at 20,000
        rng = random.Random(20000)
        inst = tm.Instance.from_coords("u", [(rng.random(), rng.random()) for _ in range(20000)])
        assert len(in_time(_scaled_positions, inst, seconds=2)) == 20000

    def test_a_span_too_small_to_scale_is_drawn_centred(self):
        # 720 / 1e-320 overflows to inf, and (x - min) * inf is nan at x = min
        inst = tm.Instance.from_coords("tiny", [(0.0, 0.0), (1e-320, 0.0)])
        root = parse_svg(tm.render_tour_svg(inst, (0, 1)))
        for element in root.iter():
            for name, value in element.attrib.items():
                try:
                    number = float(value)
                except ValueError:
                    continue
                assert math.isfinite(number), (element.tag, name, value)
                limit = 600 if name in {"y", "y1", "y2", "cy", "height"} else 800
                assert 0 <= number <= limit, (element.tag, name, value)

    def test_instance_name_is_escaped(self):
        inst = tm.Instance.from_coords("a<b&c", [(0, 0), (1, 1)])
        svg = tm.render_tour_svg(inst, (0, 1))
        parse_svg(svg)  # must stay well-formed XML


# text that XML holds as it is: no lone surrogates, no U+FFFE or U+FFFF,
# and no control characters (a parser reads CR as LF; the test below has tab)
printable = st.text(st.characters(exclude_categories=("Cc", "Cs"),
                                  exclude_characters="\ufffe\uffff"))


@given(printable)
def test_caption_escapes_printable_names_as_saxutils_does(name):
    inst = tm.Instance.from_coords(name, [(0, 0), (3, 4)])
    svg = tm.render_tour_svg(inst, (0, 1))
    assert f'font-size="16">{escape(name)}: tour length 10.00000</text>' in svg
    assert parse_svg(svg).findall(f"{SVG_NS}text")[-1].text == f"{name}: tour length 10.00000"


def test_characters_xml_cannot_hold_become_replacement_characters():
    inst = tm.Instance.from_coords("\x00a\x01\tb\x0b\x1f\ud800c\udcff\ufffe\uffff&", [(0, 0), (3, 4)])
    caption = parse_svg(tm.render_tour_svg(inst, (0, 1))).findall(f"{SVG_NS}text")[-1].text
    assert caption == "\ufffda\ufffd\tb\ufffd\ufffd\ufffdc\ufffd\ufffd\ufffd&: tour length 10.00000"
