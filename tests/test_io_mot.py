import contextlib
import gc
import math
import re
import tracemalloc
import warnings
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamtrack import io_mot
from hamtrack.core import AppearanceDescriptor, BBox, TrackerConfig
from hamtrack.io_mot import (HIST_SIZE, frame_image_name, histogram_from_patch,
                             parse_det_file, parse_embedding_rows,
                             parse_gt_file, read_ppm, write_embedding_file,
                             write_mot_rows, write_ppm, write_result_file)
from hamtrack.synthgen import generate
from hamtrack.tracker import FrameResult, Tracker
from scenario_utils import line_spec
from test_cli import FRAME, text_rows


class TestParseDetFile:
    def test_field_mapping(self):
        out = parse_det_file("1,-1,10,20,30,60,45.0,-1,-1,-1\n")
        assert list(out) == [1]
        det = out[1][0]
        assert (det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h) == (10, 20, 30, 60)
        assert det.confidence == 45.0

    def test_empty_file(self):
        assert parse_det_file("") == {}

    def test_nine_fields_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_det_file("1,-1,10,20,30,60,45.0,-1,-1,-1\n1,-1,10,20,30,60,45.0,-1,-1\n")

    def test_frames_regrouped_in_order(self):
        text = ("3,-1,1,1,5,5,1,-1,-1,-1\n"
                "1,-1,2,2,5,5,1,-1,-1,-1\n"
                "3,-1,9,9,5,5,2,-1,-1,-1\n")
        out = parse_det_file(text)
        assert list(out) == [1, 3]
        assert [d.bbox.x for d in out[3]] == [1.0, 9.0]

    def test_decimal_fields_accepted(self):
        out = parse_det_file("1,-1,10.5,20.25,30.0,60.75,45.125,-1,-1,-1\n")
        assert out[1][0].bbox.y == 20.25

    def test_bad_number_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_det_file("1,-1,abc,20,30,60,45.0,-1,-1,-1\n")

    def test_nonpositive_box_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_det_file("1,-1,10,20,0,60,45.0,-1,-1,-1\n")

    @pytest.mark.parametrize("row, named", [
        ("1,-1,0,0,1e160,1e160,50,-1,-1,-1", "detection 1 is 1e+160 px tall"),
        ("1,-1,1.7e308,0,1.7e308,10,50,-1,-1,-1", "detection 1 is 1.7e+308 px wide"),
    ], ids=["velocity_prior_overflows", "too_wide"])
    def test_untrackably_large_box_parses_and_step_names_it(self, row, named):
        # The parser checks the format alone; stage (1) of the tracker names the detection.
        out = parse_det_file("1,-1,10,20,30,60,45.0,-1,-1,-1\n" + row + "\n")
        assert out[1][1].bbox.w == float(row.split(",")[4])
        with pytest.raises(ValueError, match="^frame 1: " + re.escape(named)):
            Tracker(TrackerConfig(filter_mode="none"), use_appearance=False).step(1, out[1])

    @pytest.mark.parametrize("frame", ["3", "3.0", "3e0", "+3", "30e-1"])
    def test_whole_frame_in_any_notation(self, frame):
        assert list(parse_det_file(f"{frame},-1,10,20,30,60,45.0,-1,-1,-1\n")) == [3]

    @pytest.mark.parametrize("frame", ["1.9", "0.5", "2.000001"])
    def test_fractional_frame_reports_line(self, frame):
        with pytest.raises(ValueError,
                           match=rf"^line 2: frame is not a whole number: '{frame}'$"):
            parse_det_file(f"1,-1,10,20,30,60,45.0,-1,-1,-1\n{frame},-1,1,1,5,5,1,-1,-1,-1\n")

    def test_area_that_underflows_reports_line(self):
        with pytest.raises(ValueError, match="^line 1: bbox area underflows to 0"):
            parse_det_file("1,-1,0,0,1e-170,1e-170,1,-1,-1,-1\n")

    def test_large_trackable_box_accepted(self):
        out = parse_det_file("1,-1,0,0,1e150,1e150,50,-1,-1,-1\n")
        assert out[1][0].bbox.h == 1e150


class TestParseGtFile:
    def test_seven_fields_enough(self):
        out = parse_gt_file("1,3,10,20,30,60,1\n")
        assert out[1] == [(3, BBox(10, 20, 30, 60))]

    def test_extra_fields_ignored(self):
        out = parse_gt_file("1,3,10,20,30,60,1,7,0.95\n")
        assert out[1][0][0] == 3

    def test_flag_zero_skipped(self):
        out = parse_gt_file("1,3,10,20,30,60,0\n2,4,10,20,30,60,1\n")
        assert list(out) == [2]

    def test_six_fields_rejected(self):
        with pytest.raises(ValueError, match="at least 7"):
            parse_gt_file("1,3,10,20,30,60\n")

    @pytest.mark.parametrize("frame,obj_id", [("3", "2"), ("3.0", "2.0"), ("3e0", "2e0")])
    def test_whole_frame_and_id_in_any_notation(self, frame, obj_id):
        assert parse_gt_file(f"{frame},{obj_id},10,20,30,60,1\n") == {
            3: [(2, BBox(10, 20, 30, 60))]}

    @pytest.mark.parametrize("row,what", [("1.9,2,10,20,30,60,1", "frame '1.9'"),
                                          ("1,2.7,10,20,30,60,1", "id '2.7'"),
                                          ("1,-0.5,10,20,30,60,1", "id '-0.5'")])
    def test_fractional_frame_or_id_reports_line(self, row, what):
        name, value = what.split()
        with pytest.raises(ValueError,
                           match=f"^line 1: {name} is not a whole number: {value}$"):
            parse_gt_file(row + "\n")

    def test_area_that_underflows_reports_line(self):
        with pytest.raises(ValueError, match="^line 2: bbox area underflows to 0"):
            parse_gt_file("1,1,0,0,10,10,1\n1,1,0,0,1e-170,1e-170,1,-1,-1,-1\n")


class TestWriteResultFile:
    def result(self, frame, items):
        return FrameResult(frame=frame, tracks=tuple(items))

    def test_single_row(self):
        text = write_result_file([self.result(1, [(4, BBox(1, 2, 3, 4))])])
        assert text == "1,4,1.00,2.00,3.00,4.00,1,-1,-1,-1\n"

    def test_sorted_by_frame_then_id(self):
        rows = [self.result(2, [(9, BBox(1, 1, 1, 1)), (3, BBox(2, 2, 2, 2))]),
                self.result(1, [(7, BBox(5, 5, 5, 5))])]
        lines = write_result_file(rows).splitlines()
        assert [line.split(",")[:2] for line in lines] == [["1", "7"], ["2", "3"], ["2", "9"]]

    def test_empty(self):
        assert write_result_file([]) == ""

    def test_round_trip_within_hundredth(self):
        box = BBox(10.123, 20.456, 30.789, 60.011)
        text = write_result_file([self.result(1, [(2, box)])])
        parsed = parse_gt_file(text)
        got = parsed[1][0][1]
        for a, b in zip((got.x, got.y, got.w, got.h),
                        (box.x, box.y, box.w, box.h)):
            assert a == pytest.approx(b, abs=0.01)

    def test_exact_bytes_sorted_by_frame_then_id(self):
        rows = [self.result(2, [(9, BBox(1.005, -2.5, 3, 4)), (3, BBox(0.125, 0, 10, 20.999))]),
                self.result(1, [(7, BBox(5, 5, 5, 5))])]
        assert write_result_file(rows) == ("1,7,5.00,5.00,5.00,5.00,1,-1,-1,-1\n"
                                           "2,3,0.12,0.00,10.00,21.00,1,-1,-1,-1\n"
                                           "2,9,1.00,-2.50,3.00,4.00,1,-1,-1,-1\n")

    def test_mot_rows_exact_bytes_in_given_order(self):
        rows = [(2, -1, BBox(10.126, 20.5, 30, 60), 45.123456), (1, 3, BBox(0, 0, 1, 1), 1.0),
                (1, -1, BBox(-3.333, 1e-3, 2.5, 2.5), -0.00004)]
        assert write_mot_rows(rows) == ("2,-1,10.13,20.50,30.00,60.00,45.1235,-1,-1,-1\n"
                                        "1,3,0.00,0.00,1.00,1.00,1.0000,-1,-1,-1\n"
                                        "1,-1,-3.33,0.00,2.50,2.50,-0.0000,-1,-1,-1\n")
        assert write_mot_rows([]) == ""

    def test_round_trip_fixed_point(self):
        text = write_result_file([self.result(1, [(2, BBox(10.12, 20.46, 30.79, 60.01))])])
        parsed = parse_gt_file(text)
        rewritten = write_mot_rows(
            (f, i, b, 1.0) for f, items in parsed.items() for i, b in items)
        reparsed = parse_gt_file(rewritten)
        assert reparsed == parsed


RGB_2X1 = b"P6\n2 1\n255\n" + bytes(range(6))


def solid_image(w, h, rgb):
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[:, :] = rgb
    return img


class TestPpm:
    def test_round_trip(self):
        img = solid_image(4, 3, (200, 16, 64))
        img[1, 2] = (1, 2, 3)
        out = read_ppm(write_ppm(img))
        np.testing.assert_array_equal(out, img)

    def test_header_with_comment(self):
        data = b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
        img = read_ppm(data)
        assert img.shape == (1, 2, 3)
        assert tuple(img[0, 0]) == (255, 0, 0)

    def test_truncated_raster(self):
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(b"P6\n2 2\n255\n\x00\x00\x00")

    def test_wrong_magic(self):
        with pytest.raises(ValueError, match="P6"):
            read_ppm(b"P3\n1 1\n255\n0 0 0")

    def test_sixteen_bit_rejected(self):
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    @pytest.mark.parametrize("header, field", [
        (b"P6\n-4 1\n255\n", "width"), (b"P6\n0 1\n255\n", "width"),
        (b"P6\n1 ab\n255\n", "height"), (b"P6\n1 1\n+255\n", "maxval"),
    ])
    def test_header_field_not_a_positive_integer(self, header, field):
        with pytest.raises(ValueError, match=f"PPM {field} must be a positive integer"):
            read_ppm(header + bytes(3))

    def test_comment_between_every_pair_of_tokens(self):
        data = b"# lead\nP6 # c\n# c\n2 # c\n1\t#c\r\n255\n" + bytes(range(6))
        np.testing.assert_array_equal(read_ppm(data), read_ppm(RGB_2X1))

    @pytest.mark.parametrize("space", list(b" \t\n\r\x0b\x0c"))
    def test_each_whitespace_byte_separates_tokens(self, space):
        gap = bytes([space])
        data = gap + b"P6" + gap * 2 + b"2" + gap + b"1" + gap + b"255" + gap + bytes(range(6))
        np.testing.assert_array_equal(read_ppm(data), read_ppm(RGB_2X1))

    def test_raster_starts_one_byte_after_maxval(self):
        # The byte after maxval is the only separator: a second one is raster.
        img = read_ppm(b"P6\n2 1\n255\n\n" + bytes(range(5)))
        assert img.tolist() == [[[10, 0, 1], [2, 3, 4]]]

    @pytest.mark.parametrize("data, message", [
        (b"P6\n2 1\n# runs to the end", "truncated PPM header"),
        (b"P6 # 2 1 255", "truncated PPM header"),
        (b"P6\n2#1 1\n255\n", "PPM width must be a positive integer, got '2#1'"),
        (b"P6#\n2 1\n255\n", "not a binary PPM (P6) image"),
        (b"", "truncated PPM header"),
        (b"P6", "truncated PPM header"),
        (b"P6\n2", "truncated PPM header"),
        (b"P6\n2 1 ", "truncated PPM header"),
        (b"P6\n2 1\n255", "truncated PPM raster: expected 6 bytes, got 0"),
        (b"P5", "not a binary PPM (P6) image"),
        (b"P5\n2", "not a binary PPM (P6) image"),
    ])
    def test_header_lexing_errors(self, data, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_ppm(data)

    def test_frame_name(self):
        assert frame_image_name(7) == "000007.ppm"


class TestHistogramFromPatch:
    def test_uniform_color_single_bin(self):
        img = solid_image(20, 20, (255, 0, 0))
        (hist,) = histogram_from_patch(img, [BBox(2, 2, 10, 10)])
        assert hist.shape == (HIST_SIZE,)
        assert hist.max() == 1.0
        assert int(np.argmax(hist)) == 7 * 64  # r bin 7, g bin 0, b bin 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(30, 30, 3), dtype=np.uint8)
        a = histogram_from_patch(img, [BBox(3, 4, 12, 13)])
        b = histogram_from_patch(img, [BBox(3, 4, 12, 13)])
        np.testing.assert_array_equal(a, b)

    def test_half_red_half_blue(self):
        img = solid_image(10, 10, (255, 0, 0))
        img[:, 5:] = (0, 0, 255)
        (hist,) = histogram_from_patch(img, [BBox(0, 0, 10, 10)])
        red_bin, blue_bin = 7 * 64, 7
        # independent pixel count: 50 red and 50 blue pixels of 100
        assert hist[red_bin] == 0.5
        assert hist[blue_bin] == 0.5

    def test_odd_split_rounding(self):
        img = solid_image(9, 10, (255, 0, 0))
        img[:, 5:] = (0, 0, 255)
        (hist,) = histogram_from_patch(img, [BBox(0, 0, 9, 10)])
        assert hist[7 * 64] == 50 / 90
        assert hist[7] == 40 / 90

    def test_clipped_to_image(self):
        img = solid_image(10, 10, (0, 255, 0))
        (hist,) = histogram_from_patch(img, [BBox(-5, -5, 8, 8)])
        assert hist.sum() == 1.0

    def test_outside_image_rejected(self):
        img = solid_image(10, 10, (0, 255, 0))
        with pytest.raises(ValueError, match=r"^bbox BBox\(x=50.0, y=50.0, w=5.0, h=5.0\) does "
                                             r"not intersect a 10x10 image$"):
            histogram_from_patch(img, [BBox(1, 1, 5, 5), BBox(50, 50, 5, 5), BBox(60, 1, 5, 5)])

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        (hist,) = histogram_from_patch(img, [BBox(0.7, 3.2, 21.9, 17.1)])
        assert abs(float(hist.sum()) - 1.0) <= 1e-9


def embeddings(text):
    """``parse_embedding_rows`` as one unit row per (frame, ordinal), in file order."""
    index, units = parse_embedding_rows(text)
    return {key: units[n] for key, n in index.items()}


class TestEmbeddingFile:
    def test_unit_vector_kept(self):
        out = embeddings("dim=4\n1,0,1,0,0,0\n")
        np.testing.assert_allclose(out[(1, 0)], [1, 0, 0, 0])

    def test_normalized_on_load(self):
        out = embeddings("dim=4\n1,0,3,4,0,0\n")
        np.testing.assert_allclose(out[(1, 0)], [0.6, 0.8, 0, 0])

    def test_duplicate_key_named(self):
        text = "dim=2\n1,0,1,0\n1,0,0,1\n"
        with pytest.raises(ValueError, match="frame 1, ordinal 0"):
            embeddings(text)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="expected 4 fields"):
            embeddings("dim=2\n1,0,1,0,0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="dim="):
            embeddings("1,0,1,0\n")

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            embeddings("dim=2\n1,0,0,0\n")

    @pytest.mark.parametrize("frame,ordinal", [("2.0", "1e0"), ("2e0", "1.0"), ("2", "1")])
    def test_whole_frame_and_ordinal_in_any_notation(self, frame, ordinal):
        assert set(embeddings(f"dim=2\n{frame},{ordinal},1,0\n")) == {(2, 1)}

    @pytest.mark.parametrize("row,what", [("2.5,0,1,0", "frame '2.5'"),
                                          ("1,0.5,1,0", "ordinal '0.5'"),
                                          ("1,-0.5,1,0", "ordinal '-0.5'")])
    def test_fractional_frame_or_ordinal_reports_line(self, row, what):
        name, value = what.split()
        with pytest.raises(ValueError,
                           match=f"^line 3: {name} is not a whole number: {value}$"):
            embeddings("dim=2\n\n" + row + "\n")

    def test_overflowing_norm_reports_line_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^line 2: cannot normalize: vector norm "
                                                 "overflows a double$"):
                embeddings("dim=2\n10,40,1e308,1\n")

    def test_write_then_parse(self):
        text = write_embedding_file(3, [(1, 0, [1.0, 0.0, 0.0]),
                                        (1, 1, [0.0, 0.6, 0.8]),
                                        (2, 0, [0.5, 0.5, 0.7071067812])])
        table = embeddings(text)
        assert set(table) == {(1, 0), (1, 1), (2, 0)}
        np.testing.assert_allclose(table[(1, 1)], [0.0, 0.6, 0.8], atol=1e-7)

    def test_write_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            write_embedding_file(3, [(1, 0, [1.0, 0.0])])


def outcome(parse, text):
    """What ``parse(text)`` gives, as text that shows every bit, type and order, or its error."""
    try:
        value = parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(value, tuple):  # parse_embedding_rows: the index and the unit rows
        return repr(value[0]), value[1].shape, value[1].tobytes()
    return repr(value)  # a float's repr names its double, -0.0 included


# Within it every line is read by ``_read_rows``, as before the columnar path: every
# columnar parse goes through ``_floats``.
ROWS_ONLY = mock.patch.object(io_mot, "_floats", lambda *args, **kwargs: None)


def by_rows(parse, text):
    with ROWS_ONLY:
        return outcome(parse, text)


# Numbers as a file may spell them. Three in four are plain, so that whole
# files often parse; the rest are in float notation, at the edges of the double
# range, non-finite, padded, or in the notations float() also accepts.
ODD_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "3.0", "3e0", "+3", "-0.0", "-5", "0.1", " 7 ", "1_0", "1e-170",
                     "1e-160", "1e160", "1e308", "5e-324", "2.2250738585072011e-308", "NaN",
                     "-Infinity"]))
NUMBER = st.sampled_from([1, 1, 1, 0]).flatmap(
    lambda plain: st.integers(1, 400).map(str) if plain else ODD_NUMBER)


def numeric_rows(n_fields: int, header: str = ""):
    """Files of one to six rows of ``n_fields`` fields, nearly all of them numbers."""
    row = st.builds(lambda frame, rest: ",".join([frame, *rest]), FRAME,
                    st.lists(NUMBER, min_size=n_fields - 1, max_size=n_fields - 1))
    lines = st.lists(st.one_of(row, row, row, st.just(""), st.just(" ")), min_size=1, max_size=6)
    return lines.map(lambda lines: header + "".join(line + "\n" for line in lines))


class TestColumnarParsers:
    """The columnar parsers against the row parser they fall back to."""

    @pytest.mark.parametrize("parse, text", [
        (parse_det_file, "1,-1,1,1,5,5,1,-1,-1,-1\n"),
        (parse_gt_file, "1,3,10,20,30,60,1\n"),
        (parse_embedding_rows, "dim=2\n1,0,1,0\n"),
    ])
    def test_rows_only_reaches_the_row_parser(self, parse, text):
        # Each comparison below sets the columnar path against the row parser, not itself.
        for path, reached in ((contextlib.nullcontext(), False), (ROWS_ONLY, True)):
            with path, mock.patch.object(io_mot, "_read_rows", wraps=io_mot._read_rows) as rows:
                parse(text)
            assert rows.called == reached

    @given(det=st.one_of(numeric_rows(10), text_rows(8, 10)),
           gt=st.one_of(numeric_rows(7), numeric_rows(9), text_rows(5, 8)),
           emb=st.one_of(numeric_rows(4, header="dim=2\n"), text_rows(2, 4, header="dim=2\n")))
    @settings(max_examples=300, deadline=None)
    def test_same_values_order_and_messages_as_the_row_parser(self, det, gt, emb):
        cases = ((parse_det_file, det), (parse_gt_file, gt), (parse_embedding_rows, emb))
        for parse, text in cases:
            assert outcome(parse, text) == by_rows(parse, text)

    @pytest.mark.parametrize("rows", [
        "3,-1,1,1,5,5,1,-1,-1,-1\n1,-1,2,2,5,5,1,-1,-1,-1\n\n3,-1,9,9,5,5,2,-1,-1,-1\n",
        "1,abc,1,1,5,5,1,x,y,z\n",                    # fields the detection does not read
        "2,-1,1e308,0,1e308,10,50,-1,-1,-1\n",       # x + w overflows, the centre does not
        "2,-1,1.7e308,0,1.7e308,10,50,-1,-1,-1\n",   # the centre overflows
        "1,1,inf,1,-inf,1,1,1,1,1\n",                # the centre is inf - inf
        "1,-1,0,0,inf,0,5,-1,-1,-1\n",               # the area is inf * 0
        "1,-1,0,0,1e150,1e150,50,-1,-1,-1\n1,-1,0,0,1e160,1e160,50,-1,-1,-1\n",
        f"{io_mot.MAX_FRAME + 1},-1,1,1,5,5,1,-1,-1,-1\n",
    ])
    def test_det_rows(self, rows):
        assert outcome(parse_det_file, rows) == by_rows(parse_det_file, rows)

    @pytest.mark.parametrize("rows", [
        "1,3,10,20,30,60,1,7,0.95\n1,2,1,1,1,1,1\n",
        "1,3,10,20,-1,60,0\n2,4,10,20,30,60,-0.0\n",  # rows flagged 0 are not boxes
        "1,3,10,20,30,60,1\n1,4,nan,20,30,60,0\n",     # but their fields are numbers
        "1e300,-1e300,1,1,1,1,1\n",
        "1,3,10,20,30,60,1, \n",
    ])
    def test_gt_rows(self, rows):
        assert outcome(parse_gt_file, rows) == by_rows(parse_gt_file, rows)

    @pytest.mark.parametrize("text", [
        "dim=2\n1,0,1,0\n1,0,0,1\n", "dim=2\n1,0,5e-324,5e-324\n", "dim=2\n1,0,1e308,1e308\n",
        "dim=2\n1,0,0,0\n", "dim=3\n2,1,1,2,3\n1,0,-0.0,1e-200,0\n",
    ])
    def test_embedding_rows(self, text):
        assert outcome(parse_embedding_rows, text) == by_rows(parse_embedding_rows, text)

    # Each text and the double it must round to, correctly rounded (round half to even).
    HARD = [("0.1", "0x1.999999999999ap-4"),
            ("2.2250738585072011e-308", "0x0.fffffffffffffp-1022"),
            ("2.2250738585072012e-308", "0x1.0000000000000p-1022"),
            ("18014398509481986", "0x1.0000000000000p+54"),   # 17 digits, halfway: down to even
            ("18014398509481990", "0x1.0000000000002p+54"),   # 17 digits, halfway: up to even
            ("1.00000000000000011102230246251565404236316680908203125", "0x1.0000000000000p+0"),
            ("1.00000000000000011102230246251565404236316680908203126", "0x1.0000000000001p+0"),
            ("1e-170", "0x1.3529ba7d19eafp-565"),
            ("4.9406564584124654e-324", "0x0.0000000000001p-1022"),
            ("1.7976931348623157e308", "0x1.fffffffffffffp+1023")]

    @pytest.mark.parametrize("text, expected", HARD)
    def test_strings_round_to_the_nearest_double(self, text, expected):
        for path in (contextlib.nullcontext(), ROWS_ONLY):
            with path:
                (det,) = parse_det_file(f"1,-1,0,0,{text},1,{text},-1,-1,-1\n")[1]
                ((_, box),) = parse_gt_file(f"1,1,0,{text},1,{text},1\n")[1]
            hexes = [det.bbox.w.hex(), det.confidence.hex(), box.y.hex(), box.h.hex()]
            assert hexes == [expected] * 4

    def test_tiny_sizes(self):
        message = "ValueError: line 1: bbox area underflows to 0: w=1e-170, h=1e-170"
        rows = "1,-1,0,0,1e-170,1e-170,1,-1,-1,-1\n"
        assert outcome(parse_det_file, rows) == by_rows(parse_det_file, rows) == message
        (det,) = parse_det_file("1,-1,0,0,1e-160,1e-160,1,-1,-1,-1\n")[1]
        assert det.bbox.w * det.bbox.h == 1e-320

    def test_unit_rows_keep_the_bits_of_a_per_row_norm(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 7, 8, 16, 33, 128, 512):
            for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
                vectors = rng.standard_normal((12, dim)) * scale
                vectors[rng.random(vectors.shape) < 0.2] = 0.0
                vectors[:, 0] += scale
                text = f"dim={dim}\n" + "".join(f"1,{k},{','.join(map(repr, v))}\n"
                                               for k, v in enumerate(vectors.tolist()))
                _, units = parse_embedding_rows(text)
                expected = [v / float(np.linalg.norm(v)) for v in map(np.array, vectors.tolist())]
                assert units.tobytes() == np.array(expected).tobytes()
                assert outcome(parse_embedding_rows, text) == by_rows(parse_embedding_rows, text)

    def test_generated_files_take_the_columnar_path(self, monkeypatch):
        scenario = generate(line_spec(n_objects=3, jitter=1.0, fp_rate=0.5, embed_dim=8))
        det, gt = write_mot_rows(scenario.det_rows), write_mot_rows(scenario.gt_rows)
        emb = write_embedding_file(8, scenario.embeddings)
        # text where a detection reads nothing: the id and the last three fields
        labelled = re.sub(r"^(\d+),-1,(.*),-1,-1,-1$", r"\1,ped,\2,x, n/a ,?", det, flags=re.M)
        assert labelled.count(",ped,") == len(scenario.det_rows)
        cases = ((parse_det_file, det), (parse_det_file, labelled), (parse_gt_file, gt),
                 (parse_embedding_rows, emb))
        expected = [by_rows(parse, text) for parse, text in cases]
        assert expected[1] == expected[0]
        monkeypatch.setattr(io_mot, "_read_rows", None)  # the row parser must not run
        assert [outcome(parse, text) for parse, text in cases] == expected


class TestFrameRows:
    """``parse_gt_file``'s view over its row block, on both of its paths."""

    TEXT = "3,2,1,1,5,5,1\n1,4,1,1,5,5,1,x\n3,1,9,9,5,5,1\n2,1,-1,1,-1,1,0\n1,2,2,2,6,6,2\n"

    @pytest.mark.parametrize("path", [contextlib.nullcontext, lambda: ROWS_ONLY])
    def test_a_read_only_view_by_ascending_frame(self, path):
        with path():
            view = parse_gt_file(self.TEXT)
        assert isinstance(view, io_mot.FrameRows) and isinstance(view, Mapping)
        assert list(view) == [1, 3] and len(view) == 2
        assert view == {1: [(4, BBox(1, 1, 5, 5)), (2, BBox(2, 2, 6, 6))],
                        3: [(2, BBox(1, 1, 5, 5)), (1, BBox(9, 9, 5, 5))]}
        with pytest.raises(TypeError):
            view[2] = []  # type: ignore[index]
        with pytest.raises(ValueError):
            view.rows[0, 0] = 2.0
        view[1].clear()  # each read builds a new list
        assert len(view[1]) == 2

    @pytest.mark.parametrize("key", [2, 4, 2.5, "1", None, math.nan, 2 ** 53 + 1, 10 ** 400])
    def test_keys_that_name_no_frame(self, key):
        view = parse_gt_file(self.TEXT + f"{2 ** 53},1,1,1,5,5,1\n")
        assert view.get(key) is None and key not in view
        with pytest.raises(KeyError):
            view[key]

    def test_equal_keys_of_other_types_find_their_frame(self):
        view = parse_gt_file(self.TEXT)
        assert view[1.0] == view[True] == view[np.int64(1)] == view[1]

    @pytest.mark.parametrize("text", ["9007199254740993", "1e300", "1.7976931348623157e308",
                                      "123456789012345678901234567890"])
    def test_whole_numbers_come_back_exactly_as_int(self, text):
        for path in (contextlib.nullcontext(), ROWS_ONLY):
            with path:
                view = parse_gt_file(f"{text},-{text},1,1,5,5,1\n2,{text},1,1,5,5,1\n")
            value = int(float(text))
            assert [(type(f), f) for f in view] == [(int, 2), (int, value)]
            ((obj_id, _),) = view[value]
            assert type(obj_id) is int and obj_id == -value
            assert type(view[2][0][0]) is int and view[2][0][0] == value

    def test_parse_allocates_no_object_per_row_until_a_frame_is_read(self):
        # Measured on 20,000 rows: 48.5 bytes a row kept (the float block) and no tracked
        # object, where one tuple and one BBox a row kept 275 bytes and 2 objects a row.
        n = 20_000
        text = "".join(f"{1 + k // 20},{k % 20 + 1},{k % 97}.5,{k % 89}.25,30,60,1,-1,-1,-1\n"
                       for k in range(n))
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            view = parse_gt_file(text)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        gc.collect()
        assert len(gc.get_objects()) - objects < 50
        assert kept <= 52 * n, kept / n
        frame = view[500]
        assert len(frame) == 20 and len(gc.get_objects()) - objects >= 20


def single_box_histogram(image, box):
    """The histogram of one box as it was computed alone: its patch's bins, then normalised."""
    height, width = image.shape[:2]
    x0, y0 = max(0, math.floor(box.x)), max(0, math.floor(box.y))
    x1, y1 = min(width, math.ceil(box.x + box.w)), min(height, math.ceil(box.y + box.h))
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"bbox {box} does not intersect a {width}x{height} image")
    patch = image[y0:y1, x0:x1].astype(np.int64)
    idx = (patch[..., 0] >> 5) * 64 + (patch[..., 1] >> 5) * 8 + (patch[..., 2] >> 5)
    counts = np.bincount(idx.ravel(), minlength=HIST_SIZE).astype(float)
    return AppearanceDescriptor.histogram(counts, normalize=True).values


def noisy_image(seed, w=40, h=30):
    """Flat colour blocks with pixel noise, so patches fill a few to many bins."""
    rng = np.random.default_rng(seed)
    image = np.repeat(np.repeat(rng.integers(0, 256, (3, 4, 3)), 10, axis=0), 10, axis=1)
    image = image[:h, :w] + rng.integers(-20, 21, (h, w, 3))
    return np.clip(image, 0, 255).astype(np.uint8)


BOX = st.builds(BBox, st.floats(-30.0, 50.0), st.floats(-30.0, 40.0),
                st.floats(0.05, 60.0), st.floats(0.05, 60.0))


class TestFrameHistograms:
    """A frame's (k, 512) rows against each box's histogram computed alone."""

    @pytest.mark.parametrize("boxes", [
        [], [BBox(5, 5, 10, 12)],
        [BBox(-4, 3, 10, 10), BBox(3, -4, 10, 10), BBox(35, 3, 10, 10), BBox(3, 25, 10, 10)],
        [BBox(-100, -100, 500, 500)],                          # clipped at every edge
        [BBox(3.25, 4.5, 0.5, 0.25), BBox(39.9, 29.9, 0.05, 0.05), BBox(0, 0, 1e-9, 1e-9)],
        [BBox(2, 2, 8, 8), BBox(2, 2, 8, 8), BBox(2.5, 2, 8, 8)],  # duplicates
    ], ids=["empty", "one", "each_edge", "all_edges", "sub_pixel", "duplicates"])
    def test_rows_equal_single_box_histograms(self, boxes):
        image = noisy_image(3)
        rows = histogram_from_patch(image, boxes)
        assert rows.shape == (len(boxes), HIST_SIZE)
        expected = np.array([single_box_histogram(image, b) for b in boxes]).reshape(-1, HIST_SIZE)
        assert np.array_equal(rows, expected)

    @given(seed=st.integers(0, 2**16), boxes=st.lists(BOX, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_random_frames(self, seed, boxes):
        image = noisy_image(seed)
        try:
            expected = np.array([single_box_histogram(image, b) for b in boxes])
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                histogram_from_patch(image, boxes)
            return
        assert np.array_equal(histogram_from_patch(image, boxes), expected.reshape(-1, HIST_SIZE))

    def test_box_past_the_largest_double_is_outside(self):
        with pytest.raises(ValueError, match="does not intersect a 40x30 image"):
            histogram_from_patch(noisy_image(1), [BBox(1e308, 0, 1e308, 10)])

    def test_invariant_is_checked_every_frame(self, monkeypatch):
        monkeypatch.setattr(io_mot, "_NORM_TOL", -1.0)
        with pytest.raises(ValueError, match="^patch histograms must be finite, nonnegative "
                                             "and sum to 1$"):
            histogram_from_patch(noisy_image(1), [BBox(1, 1, 5, 5)])
