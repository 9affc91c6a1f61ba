import re
import warnings

import numpy as np
import pytest

from hamtrack.core import BBox
from hamtrack.io_mot import (frame_image_name, histogram_from_patch,
                             parse_det_file, parse_embedding_file,
                             parse_gt_file, read_ppm, write_embedding_file,
                             write_mot_rows, write_ppm, write_result_file)
from hamtrack.tracker import FrameResult


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

    @pytest.mark.parametrize("row", [
        "1,-1,0,0,1e160,1e160,50,-1,-1,-1",
        "1,-1,1.7e308,0,1.7e308,10,50,-1,-1,-1",
    ], ids=["velocity_prior_overflows", "center_overflows"])
    def test_untrackably_large_box_reports_line(self, row):
        with pytest.raises(ValueError, match="line 2: detection box is too large"):
            parse_det_file("1,-1,10,20,30,60,45.0,-1,-1,-1\n" + row + "\n")

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
        hist = histogram_from_patch(img, BBox(2, 2, 10, 10))
        assert hist.values.max() == pytest.approx(1.0)
        assert int(np.argmax(hist.values)) == 7 * 64  # r bin 7, g bin 0, b bin 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(30, 30, 3), dtype=np.uint8)
        a = histogram_from_patch(img, BBox(3, 4, 12, 13))
        b = histogram_from_patch(img, BBox(3, 4, 12, 13))
        np.testing.assert_array_equal(a.values, b.values)

    def test_half_red_half_blue(self):
        img = solid_image(10, 10, (255, 0, 0))
        img[:, 5:] = (0, 0, 255)
        hist = histogram_from_patch(img, BBox(0, 0, 10, 10))
        red_bin, blue_bin = 7 * 64, 7
        # independent pixel count: 50 red and 50 blue pixels of 100
        assert hist.values[red_bin] == pytest.approx(0.5)
        assert hist.values[blue_bin] == pytest.approx(0.5)

    def test_odd_split_rounding(self):
        img = solid_image(9, 10, (255, 0, 0))
        img[:, 5:] = (0, 0, 255)
        hist = histogram_from_patch(img, BBox(0, 0, 9, 10))
        assert hist.values[7 * 64] == pytest.approx(50 / 90)
        assert hist.values[7] == pytest.approx(40 / 90)

    def test_clipped_to_image(self):
        img = solid_image(10, 10, (0, 255, 0))
        hist = histogram_from_patch(img, BBox(-5, -5, 8, 8))
        assert hist.values.sum() == pytest.approx(1.0)

    def test_outside_image_rejected(self):
        img = solid_image(10, 10, (0, 255, 0))
        with pytest.raises(ValueError, match="intersect"):
            histogram_from_patch(img, BBox(50, 50, 5, 5))

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
        hist = histogram_from_patch(img, BBox(0.7, 3.2, 21.9, 17.1))
        assert abs(float(hist.values.sum()) - 1.0) <= 1e-9


class TestEmbeddingFile:
    def test_unit_vector_kept(self):
        out = parse_embedding_file("dim=4\n1,0,1,0,0,0\n")
        np.testing.assert_allclose(out[(1, 0)].values, [1, 0, 0, 0])

    def test_normalized_on_load(self):
        out = parse_embedding_file("dim=4\n1,0,3,4,0,0\n")
        np.testing.assert_allclose(out[(1, 0)].values, [0.6, 0.8, 0, 0])

    def test_duplicate_key_named(self):
        text = "dim=2\n1,0,1,0\n1,0,0,1\n"
        with pytest.raises(ValueError, match="frame 1, ordinal 0"):
            parse_embedding_file(text)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="expected 4 fields"):
            parse_embedding_file("dim=2\n1,0,1,0,0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="dim="):
            parse_embedding_file("1,0,1,0\n")

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_embedding_file("dim=2\n1,0,0,0\n")

    @pytest.mark.parametrize("frame,ordinal", [("2.0", "1e0"), ("2e0", "1.0"), ("2", "1")])
    def test_whole_frame_and_ordinal_in_any_notation(self, frame, ordinal):
        assert set(parse_embedding_file(f"dim=2\n{frame},{ordinal},1,0\n")) == {(2, 1)}

    @pytest.mark.parametrize("row,what", [("2.5,0,1,0", "frame '2.5'"),
                                          ("1,0.5,1,0", "ordinal '0.5'"),
                                          ("1,-0.5,1,0", "ordinal '-0.5'")])
    def test_fractional_frame_or_ordinal_reports_line(self, row, what):
        name, value = what.split()
        with pytest.raises(ValueError,
                           match=f"^line 3: {name} is not a whole number: {value}$"):
            parse_embedding_file("dim=2\n\n" + row + "\n")

    def test_overflowing_norm_reports_line_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^line 2: cannot normalize: vector norm "
                                                 "overflows a double$"):
                parse_embedding_file("dim=2\n10,40,1e308,1\n")

    def test_write_then_parse(self):
        text = write_embedding_file(3, [(1, 0, [1.0, 0.0, 0.0]),
                                        (1, 1, [0.0, 0.6, 0.8]),
                                        (2, 0, [0.5, 0.5, 0.7071067812])])
        table = parse_embedding_file(text)
        assert set(table) == {(1, 0), (1, 1), (2, 0)}
        np.testing.assert_allclose(table[(1, 1)].values, [0.0, 0.6, 0.8], atol=1e-7)

    def test_write_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            write_embedding_file(3, [(1, 0, [1.0, 0.0])])
