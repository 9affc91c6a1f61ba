import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hamtrack
from hamtrack import cli
from hamtrack.cli import main
from hamtrack.io_mot import MAX_FRAME
from hamtrack.tracker import FrameDiagnostics, FrameResult


@pytest.fixture
def scenario_dir(tmp_path):
    """Generate a noise-free two-object scenario into a directory via the CLI."""
    spec_text = """
seed = 21
n_frames = 30
embed_dim = 16
regime.0.start = 1
regime.0.mean = 45
regime.0.std = 0
object.0.w = 30
object.0.h = 60
object.0.waypoints = 1:60,100; 30:400,100
object.1.w = 34
object.1.h = 68
object.1.waypoints = 1:60,300; 30:400,300
"""
    spec_path = tmp_path / "scene.scn"
    spec_path.write_text(spec_text)
    out_dir = tmp_path / "scene"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out_dir),
                 "--frames"]) == 0
    return out_dir


def cli_process(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stderr holds exactly what a user would see."""
    src = str(Path(hamtrack.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "hamtrack.cli", *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


def assert_clean_error(proc: subprocess.CompletedProcess, code: int) -> None:
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


class TestGenerate:
    def test_outputs_exist(self, scenario_dir):
        for name in ("gt.txt", "det.txt", "embeddings.csv"):
            assert (scenario_dir / name).exists()
        assert (scenario_dir / "frames" / "000001.ppm").exists()

    def test_deterministic_bytes(self, scenario_dir, tmp_path):
        spec_path = tmp_path / "scene.scn"
        again = tmp_path / "again"
        assert main(["generate", "--spec", str(spec_path), "--out", str(again)]) == 0
        for name in ("gt.txt", "det.txt", "embeddings.csv"):
            assert (again / name).read_bytes() == (scenario_dir / name).read_bytes()

    def test_bundled_scenario(self, tmp_path):
        bundle = resources.files("hamtrack") / "scenarios" / "occlusion.scn"
        out = tmp_path / "occ"
        assert main(["generate", "--spec", str(bundle), "--out", str(out)]) == 0
        assert (out / "det.txt").stat().st_size > 0

    def test_missing_spec_is_io_error(self, tmp_path, capsys):
        rc = main(["generate", "--spec", str(tmp_path / "nope.scn"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "nope.scn" in capsys.readouterr().err

    def test_invalid_span_names_event_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("""
n_frames = 10
object.0.w = 30
object.0.h = 60
object.0.waypoints = 1:60,100; 10:200,100
event.0.object = 0
event.0.start = 5
event.0.end = 50
""")
        rc = main(["generate", "--spec", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: event.0 span outside [1, 10]\n"
        assert not (tmp_path / "x").exists()


    def test_unparsable_occluder_names_event_key(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("n_frames = 10\nevent.0.object = 0\nevent.0.start = 2\n"
                       "event.0.end = 3\nevent.0.by = q\n")
        proc = cli_process("generate", "--spec", str(bad), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {bad}: event.0.by: cannot parse 'q'\n"

    def test_spec_over_a_size_cap_names_the_key(self, tmp_path, capsys):
        spec = tmp_path / "huge.scn"
        spec.write_text("fp_rate = 1e9\nobject.0.w = 10\nobject.0.h = 10\n"
                        "object.0.waypoints = 1:50,50; 3:60,60\n")
        rc = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {spec}: fp_rate must be in [0, ")
        assert not (tmp_path / "x").exists()

    def test_spec_over_the_draw_budget_names_the_keys(self, tmp_path, capsys):
        spec = tmp_path / "long.scn"
        spec.write_text("n_frames = 100000\nfp_rate = 100\nembed_dim = 1024\nobject.0.w = 10\n"
                        "object.0.h = 10\nobject.0.waypoints = 1:50,50; 3:60,60\n")
        rc = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {spec}: n_frames x (objects + fp_rate) x embed_dim must be at most "
            "100,000,000\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("regime.0.mean", "nan"), ("regime.0.std", "inf"), ("object.1.w", "nan"),
        ("object.2.h", "inf"), ("object.0.waypoints", "1:nan,240; 120:-56,240"),
        ("object.1.waypoints", "1:696,236; 48:inf,236"), ("jitter_std", "nan"),
        ("embed_noise_std", "inf"), ("regime.0.mean", "-inf"),
    ])
    def test_non_finite_spec_value_names_the_key(self, tmp_path, capsys, key, value):
        # Validated only, before any draw: a later line overrides the bundled value.
        bundle = resources.files("hamtrack") / "scenarios" / "occlusion.scn"
        spec = tmp_path / "occlusion.scn"
        spec.write_text(bundle.read_text() + f"{key} = {value}\n")
        rc = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {spec}: {key} must be finite\n"
        assert not (tmp_path / "x").exists()

    def test_generation_failure_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "wild.scn"
        spec.write_text("n_frames = 3\njitter_std = 1e308\nobject.0.w = 10\n"
                        "object.0.h = 10\nobject.0.waypoints = 1:50,50; 3:60,60\n")
        rc = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {spec}: bbox field x is not finite: -inf\n"


class TestTrack:
    def run_track(self, scenario_dir, *extra):
        out = scenario_dir / "res.txt"
        rc = main(["track", "--det", str(scenario_dir / "det.txt"),
                   "--embeddings", str(scenario_dir / "embeddings.csv"),
                   "--out", str(out), *extra])
        return rc, out

    def test_happy_path(self, scenario_dir, capsys):
        rc, out = self.run_track(scenario_dir)
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout reserved for documented summaries
        assert "tracked" in captured.err

    def test_manifest_written(self, scenario_dir):
        rc, out = self.run_track(scenario_dir)
        manifest = json.loads((scenario_dir / "res.txt.manifest.json").read_text())
        assert manifest["appearance"] == "embed"
        assert manifest["config"]["tau_asc"] == 0.05
        assert manifest["totals"]["frames"] == 30
        assert manifest["outputs"]["result"].endswith("res.txt")

    def test_missing_det_file(self, tmp_path, capsys):
        rc = main(["track", "--det", str(tmp_path / "absent.txt"),
                   "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        assert "absent.txt" in capsys.readouterr().err

    def test_untrackably_large_box_exits_1_without_traceback(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,0,0,1e160,1e160,50,-1,-1,-1\n")
        proc = cli_process("track", "--det", str(det), "--out", str(tmp_path / "res.txt"))
        assert_clean_error(proc, 1)
        assert proc.stderr.startswith("error: frame 1: detection 0 is 1e+160 px tall")

    def test_untrackably_small_box_exits_1_naming_it(self, tmp_path):
        # Without process noise, a box 1e-160 px tall once made every update's gain NaN.
        det = tmp_path / "det.txt"
        det.write_text("1,-1,0,0,1e-160,1e-160,50,-1,-1,-1\n2,-1,0,0,1e-160,1e-160,50,-1,-1,-1\n")
        args = ("track", "--det", str(det), "--filter", "none", "--out", str(tmp_path / "res.txt"))
        proc = cli_process(*args, "--set", "process_noise=0")
        assert_clean_error(proc, 1)
        assert proc.stderr.startswith("error: frame 1: detection 0 is 1e-160 px tall, below ")
        assert cli_process(*args).returncode == 0

    @pytest.mark.parametrize("setting", ["measurement_noise=1e200", "process_noise=1e200"])
    def test_overflowing_noise_exits_1_without_warnings(self, tmp_path, setting):
        bundle = resources.files("hamtrack") / "scenarios" / "occlusion.scn"
        occ = tmp_path / "occ"
        assert main(["generate", "--spec", str(bundle), "--out", str(occ)]) == 0
        proc = cli_process("track", "--det", str(occ / "det.txt"),
                           "--embeddings", str(occ / "embeddings.csv"),
                           "--set", setting, "--out", str(tmp_path / "res.txt"))
        assert_clean_error(proc, 1)
        assert "Kalman state overflows" in proc.stderr
        assert not (tmp_path / "res.txt").exists()

    def test_kalman_overflow_on_huge_boxes_exits_1_without_warnings(self, tmp_path):
        # 1e153 boxes pass the det-file check, but a track's predicted covariance
        # would overflow before it had coasted max_age + 1 frames: the first is
        # rejected at intake, before any track starts on it.
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{f},-1,{f * 1e152!r},0,1e153,1e153,50,-1,-1,-1\n"
                               for f in range(1, 30) if f % 7))
        proc = cli_process("track", "--det", str(det), "--filter", "none",
                           "--out", str(tmp_path / "res.txt"))
        assert_clean_error(proc, 1)
        assert proc.stderr.startswith("error: frame 1: detection 0 is 1e+153 px tall, above ")
        assert "Kalman state overflows" in proc.stderr
        assert not (tmp_path / "res.txt").exists()

    def test_fractional_frame_exits_1_naming_the_line(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,10,20,30,60,45,-1,-1,-1\n1.9,-1,10,20,30,60,45,-1,-1,-1\n")
        rc = main(["track", "--det", str(det), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {det}: line 2: frame is not a whole number: '1.9'\n")
        assert not (tmp_path / "res.txt").exists()

    def test_frame_above_max_frame_exits_1_naming_the_line(self, tmp_path, capsys):
        det = tmp_path / "det.txt"
        det.write_text(f"1,-1,10,20,30,60,45,-1,-1,-1\n{MAX_FRAME},-1,10,20,30,60,45,-1,-1,-1\n"
                       f"{MAX_FRAME + 1},-1,10,20,30,60,45,-1,-1,-1\n")
        rc = main(["track", "--det", str(det), "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {det}: line 3: frame {MAX_FRAME + 1} is above the highest "
            f"trackable frame, {MAX_FRAME}\n")
        assert not (tmp_path / "res.txt").exists()

    def test_overflowing_embedding_norm_exits_1_without_warnings(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,10,20,30,60,45,-1,-1,-1\n")
        emb = tmp_path / "e.txt"
        emb.write_text("dim=2\n10,40,1e308,1\n")
        proc = cli_process("track", "--det", str(det), "--embeddings", str(emb),
                           "--out", str(tmp_path / "res.txt"))
        assert_clean_error(proc, 1)
        assert proc.stderr == (f"error: {emb}: line 2: cannot normalize: "
                               f"vector norm overflows a double\n")

    @pytest.mark.parametrize("text,message", [
        ("\n\n", "empty embedding file"),
        ("dim=x\n1,0,1\n", "line 1: bad dimension in header 'dim=x'"),
        ("dim=-2\n", "line 1: dimension must be >= 1"),
    ])
    def test_embedding_header_fault_exits_1_naming_the_file(self, tmp_path, capsys, text,
                                                            message):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,10,20,30,60,45,-1,-1,-1\n")
        emb = tmp_path / "e.txt"
        emb.write_text(text)
        rc = main(["track", "--det", str(det), "--embeddings", str(emb),
                   "--out", str(tmp_path / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {emb}: {message}\n"
        assert not (tmp_path / "res.txt").exists()

    def test_memory_error_exits_1_without_traceback(self, scenario_dir, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_sequence", exhausted)
        rc, out = self.run_track(scenario_dir)
        assert rc == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()

    def test_undecodable_config_is_config_error(self, scenario_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"xi = \xff\n")
        rc, _ = self.run_track(scenario_dir, "--config", str(cfg))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: 'utf-8' codec can't decode")

    def test_bad_set_value_is_config_error(self, scenario_dir, capsys):
        rc, _ = self.run_track(scenario_dir, "--set", "beta=1.5")
        assert rc == 2
        assert "beta out of [0,1]" in capsys.readouterr().err

    def test_hist_max_beyond_int64_is_config_error(self, scenario_dir, capsys):
        rc, _ = self.run_track(scenario_dir, "--set", f"hist_max={2**63}")
        assert rc == 2
        assert capsys.readouterr().err == "error: hist_max must fit in a 64-bit integer\n"

    def test_unknown_set_key(self, scenario_dir, capsys):
        rc, _ = self.run_track(scenario_dir, "--set", "bogus=1")
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_file_and_overrides(self, scenario_dir, tmp_path):
        cfg = tmp_path / "tracker.cfg"
        cfg.write_text("tau_const = 10\nxi = 2.0  # sharper shapes\n")
        rc, out = self.run_track(scenario_dir, "--config", str(cfg),
                                 "--set", "xi=3.0")
        assert rc == 0
        manifest = json.loads((scenario_dir / "res.txt.manifest.json").read_text())
        assert manifest["config"]["tau_const"] == 10.0
        assert manifest["config"]["xi"] == 3.0

    def test_trace_csv(self, scenario_dir):
        trace = scenario_dir / "trace.csv"
        rc, _ = self.run_track(scenario_dir, "--trace", str(trace))
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("frame,tau_sa,tau_t,n_raw,n_kept")
        assert len(lines) == 31

    def test_trace_csv_exact_bytes(self):
        results = [
            FrameResult(1, (), FrameDiagnostics(births=2, n_tracks=2, n_raw=3, n_kept=3)),
            FrameResult(2, (), FrameDiagnostics(deaths=1, n_tracks=1, n_raw=4, n_kept=2,
                                                gated_pairs=5, appearance_evals=6, tau_t=30.0)),
            FrameResult(3, (), FrameDiagnostics(births=1, deaths=2, n_tracks=7, n_raw=9, n_kept=8,
                                                total_pairs=63, gated_pairs=11,
                                                appearance_evals=12, tau_sa=12.345678,
                                                tau_t=np.float64(-0.00004))),
        ]
        header = "frame,tau_sa,tau_t,n_raw,n_kept,n_tracks,gated_pairs,appearance_evals,births,deaths\n"
        assert cli._trace_csv(results) == (header + "1,,,3,3,2,0,0,2,0\n"
                                           "2,,30.0000,4,2,1,5,6,0,1\n"
                                           "3,12.3457,-0.0000,9,8,7,11,12,1,2\n")
        assert cli._trace_csv([]) == header

    def test_manifest_totals_sum_the_trace_columns(self, scenario_dir):
        trace = scenario_dir / "trace.csv"
        rc, out = self.run_track(scenario_dir, "--trace", str(trace), "--filter", "sadf")
        assert rc == 0
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        totals = json.loads((scenario_dir / "res.txt.manifest.json").read_text())["totals"]
        assert totals["frames"] == len(rows) == 30
        assert totals["boxes"] == len(out.read_text().splitlines())
        assert set(totals) == {"frames", "boxes", *cli.MANIFEST_TOTALS}
        for total, column in cli.MANIFEST_TOTALS.items():
            assert totals[total] == sum(int(row[column]) for row in rows), total
        assert totals["births"] > 0 and totals["gated_pairs"] > 0

    def test_histogram_appearance_from_frames(self, scenario_dir):
        out = scenario_dir / "res_hist.txt"
        rc = main(["track", "--det", str(scenario_dir / "det.txt"),
                   "--frames-dir", str(scenario_dir / "frames"),
                   "--appearance", "hist",
                   "--out", str(out)])
        assert rc == 0
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("header, message", [
        (b"P5\n640 480\n255\n", "not a binary PPM (P6) image"),
        (b"P6\n-4 480\n255\n", "PPM width must be a positive integer, got '-4'"),
        (b"P6\nab 480\n255\n", "PPM width must be a positive integer, got 'ab'"),
    ])
    def test_bad_frame_image_exits_1_naming_it(self, scenario_dir, capsys, header, message):
        image = scenario_dir / "frames" / "000003.ppm"
        image.write_bytes(header + image.read_bytes().split(b"\n", 3)[3])
        rc = main(["track", "--det", str(scenario_dir / "det.txt"), "--filter", "none",
                   "--frames-dir", str(scenario_dir / "frames"),
                   "--out", str(scenario_dir / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: frame image {image}: {message}\n"
        assert not (scenario_dir / "res.txt").exists()

    def test_box_outside_the_frame_image_exits_1_naming_it(self, scenario_dir, capsys):
        det = scenario_dir / "det.txt"
        det.write_text(det.read_text() + "3,-1,5000,5000,30,60,45,-1,-1,-1\n")
        rc = main(["track", "--det", str(det), "--filter", "none",
                   "--frames-dir", str(scenario_dir / "frames"),
                   "--out", str(scenario_dir / "res.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: frame image {scenario_dir / 'frames' / '000003.ppm'}: "
                              "bbox BBox(x=5000.0")
        assert err.endswith("does not intersect a 640x480 image\n")

    def test_box_reaching_past_the_largest_double_exits_1_as_too_wide(self, scenario_dir, capsys):
        # x + w overflows to infinity while the centre stays finite; stage (1) rejects the box
        # before its image is read (TestFrameHistograms in test_io_mot.py covers the clipping).
        det = scenario_dir / "det.txt"
        k = sum(line.startswith("2,") for line in det.read_text().splitlines())
        det.write_text(det.read_text() + "2,-1,1e308,0,1e308,10,45,-1,-1,-1\n")
        rc = main(["track", "--det", str(det), "--filter", "none",
                   "--frames-dir", str(scenario_dir / "frames"),
                   "--out", str(scenario_dir / "res.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: frame 2: detection {k} is 1e+308 px wide, above ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (scenario_dir / "res.txt").exists()

    def test_missing_embedding_exits_1_naming_it(self, scenario_dir, capsys):
        emb = scenario_dir / "embeddings.csv"
        emb.write_text("".join(line for line in emb.read_text().splitlines(keepends=True)
                               if not line.startswith("3,1,")))
        rc = main(["track", "--det", str(scenario_dir / "det.txt"), "--filter", "none",
                   "--embeddings", str(emb), "--out", str(scenario_dir / "res.txt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: no embedding for frame 3, ordinal 1\n"

    def test_appearance_none_runs_shape_motion_only(self, scenario_dir):
        out = scenario_dir / "res_none.txt"
        rc = main(["track", "--det", str(scenario_dir / "det.txt"),
                   "--appearance", "none", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((scenario_dir / "res_none.txt.manifest.json").read_text())
        assert manifest["appearance"] == "none"
        assert manifest["totals"]["appearance_evals"] == 0

    def test_byte_identical_reruns(self, scenario_dir):
        _, first = self.run_track(scenario_dir)
        first_bytes = first.read_bytes()
        _, second = self.run_track(scenario_dir)
        assert second.read_bytes() == first_bytes


class TestEval:
    def test_perfect_result(self, scenario_dir, capsys):
        res = scenario_dir / "res.txt"
        assert main(["track", "--det", str(scenario_dir / "det.txt"),
                     "--embeddings", str(scenario_dir / "embeddings.csv"),
                     "--out", str(res)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--gt", str(scenario_dir / "gt.txt"),
                   "--result", str(res)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "1.000,1.000,0,0,0,60"

    def test_empty_result_all_misses(self, scenario_dir, capsys):
        empty = scenario_dir / "empty.txt"
        empty.write_text("")
        rc = main(["eval", "--gt", str(scenario_dir / "gt.txt"),
                   "--result", str(empty)])
        assert rc == 0
        parts = capsys.readouterr().out.strip().split(",")
        assert parts[0] == "0.000"  # MOTA = 1 - FN/GT with FN == GT
        assert parts[4] == parts[5] == "60"

    def test_box_area_that_underflows_exits_1(self, tmp_path, capsys):
        gt = tmp_path / "g.txt"
        gt.write_text("1,1,0,0,1e-170,1e-170,1,-1,-1,-1\n")
        rc = main(["eval", "--gt", str(gt), "--result", str(gt)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (f"error: {gt}: line 1: bbox area underflows to 0: "
                                f"w=1e-170, h=1e-170\n")

    def test_fractional_id_exits_1_naming_the_line(self, tmp_path, capsys):
        gt = tmp_path / "g.txt"
        gt.write_text("1,2.7,10,20,30,60,1,-1,-1,-1\n")
        rc = main(["eval", "--gt", str(gt), "--result", str(gt)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {gt}: line 1: id is not a whole number: '2.7'\n")

    @pytest.mark.parametrize("iou", ["nan", "1.5", "inf", "-0.2"])
    def test_iou_outside_unit_interval_is_config_error(self, scenario_dir, iou, capsys):
        gt = str(scenario_dir / "gt.txt")
        rc = main(["eval", "--gt", gt, "--result", gt, "--iou", iou])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: --iou must be in [0, 1], got {float(iou)}\n"

    def test_missing_gt(self, tmp_path, capsys):
        rc = main(["eval", "--gt", str(tmp_path / "gone.txt"),
                   "--result", str(tmp_path / "alsogone.txt")])
        assert rc == 1
        assert "gone.txt" in capsys.readouterr().err


TINY_SCENE = """
n_frames = 2
regime.0.start = 1
regime.0.mean = 45
regime.0.std = 0
object.0.w = 30
object.0.h = 60
object.0.waypoints = 1:60,100; 2:64,100
"""


@pytest.mark.parametrize("argv, code, message", [
    (["track", "--det", "{d}/det.txt", "--out", "{d}/res.txt", "--set", "beta"], 2,
     "--set expects key=value, got 'beta'"),
    (["track", "--det", "{d}/det.txt", "--out", "{d}/res.txt", "--appearance", "embed"], 2,
     "--appearance embed requires --embeddings"),
    (["track", "--det", "{d}/det.txt", "--out", "{d}/res.txt", "--appearance", "hist"], 2,
     "--appearance hist requires --frames-dir"),
    (["track", "--det", "{d}/det.txt", "--out", "{d}/absent/res.txt"], 1,
     "cannot write {d}/absent/res.txt: "),
    (["generate", "--spec", "{d}/scene.scn", "--out", "{d}/det.txt/scene"], 1,
     "cannot create {d}/det.txt/scene: "),
])
def test_error_exits_with_one_line_naming_it(tmp_path, capsys, argv, code, message):
    (tmp_path / "det.txt").write_text("1,-1,10,20,30,60,45,-1,-1,-1\n")
    (tmp_path / "scene.scn").write_text(TINY_SCENE)
    rc = main([arg.format(d=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (code, "")
    assert captured.err.startswith("error: " + message.format(d=tmp_path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# Field text a det, gt or embedding row may hold. Three in four are plain
# numbers, so that whole files parse often enough to be tracked and scored;
# the rest are whole numbers in float notation, fractions, NaN and infinities,
# sizes whose area underflows or whose Kalman state overflows, and words.
ODD_FIELD = st.one_of(
    st.floats(-50.0, 400.0).map(repr),
    st.sampled_from(["3.0", "3e0", "1.9", "2.7", "-0.5", "-0.0", "nan", "inf", "-inf",
                     "1e-170", "1e308", "1e160", "abc", ""]))
FIELD = st.sampled_from([1, 1, 1, 0]).flatmap(
    lambda plain: st.integers(1, 400).map(str) if plain else ODD_FIELD)
# Accepted frames stay at 50 or below: `track` steps every frame from 1 up to
# the highest one, at about 0.45 ms per empty frame. Frames above MAX_FRAME
# are drawn too; a detection file naming one is rejected before tracking.
FRAME = st.sampled_from([1, 1, 1, 0]).flatmap(
    lambda plain: st.integers(1, 50).map(str) if plain else st.sampled_from(
        ["-1", "0", "3.0", "3e0", "1.9", "0.5", "nan", "inf", "abc", "",
         str(MAX_FRAME + 1), "1e9", "1e300"]))


def text_rows(min_rest: int, max_rest: int, header: str = ""):
    """Files of a frame field plus ``min_rest``..``max_rest`` more fields per row, with blank lines."""
    row = st.builds(lambda frame, rest: ",".join([frame, *rest]),
                    FRAME, st.lists(FIELD, min_size=min_rest, max_size=max_rest))
    return st.lists(st.one_of(row, st.just("")), max_size=5).map(
        lambda lines: header + "".join(line + "\n" for line in lines))


def run_main(argv: list[str]) -> int:
    """``main(argv)``, asserting the CLI contract on its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue()
    if rc != 0:
        assert err.getvalue().startswith("error: ")
    return rc


# Det files the parser accepts whose tracking once failed: a confidence that overflows SADF's
# sums (an OverflowError), and two boxes stepped in two frames whose sizes or centres overflow
# a sum in the shape-motion matrix (a RuntimeWarning), with the exit code and the stderr each
# run now ends with. Boxes 1e308 px wide are rejected at intake.
INTAKE_CASES = {
    "sadf_confidence": ("1,-1,10,10,30,60,1e155,-1,-1,-1\n1,-1,300,10,30,60,1,-1,-1,-1\n", "sadf",
                        1, "error: frame 1: detection 0's confidence 1e+155 is beyond ±1e+100: "
                           "SADF's statistics overflow\n"),
    "sizes_overflow": ("1,-1,0,0,1e308,10,50,-1,-1,-1\n2,-1,0,0,1e308,10,50,-1,-1,-1\n", "none",
                       1, "error: frame 1: detection 0 is 1e+308 px wide, above "),
    "distance_overflows": ("1,-1,-1e308,0,10,10,50,-1,-1,-1\n2,-1,1e308,0,10,10,50,-1,-1,-1\n",
                           "none", 0, "tracked 2 frames"),
}


@pytest.mark.parametrize("case", INTAKE_CASES)
def test_intake_case_exits_without_traceback_or_warning(tmp_path, capsys, case):
    det, filter_mode, code, err = INTAKE_CASES[case]
    (tmp_path / "det.txt").write_text(det)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["track", "--det", str(tmp_path / "det.txt"), "--filter", filter_mode,
                   "--out", str(tmp_path / "res.txt")])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (code, "")
    assert captured.err.startswith(err) and captured.err.count("\n") == 1


@given(det=text_rows(8, 10), gt=text_rows(5, 8), emb=text_rows(2, 4, header="dim=2\n"),
       filter_mode=st.sampled_from(["sadf", "const", "none"]))
@settings(max_examples=80, deadline=None)
@example(det=INTAKE_CASES["sadf_confidence"][0], gt="", emb="dim=2\n", filter_mode="sadf")
@example(det=INTAKE_CASES["sizes_overflow"][0], gt="", emb="dim=2\n", filter_mode="none")
@example(det=INTAKE_CASES["distance_overflows"][0], gt="", emb="dim=2\n", filter_mode="none")
def test_generated_inputs_keep_the_exit_contract(det, gt, emb, filter_mode):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "det.txt").write_text(det)
        (d / "gt.txt").write_text(gt)
        # Every row of one.txt has an embedding unless a generated row breaks the file.
        (d / "e.txt").write_text(emb.replace("dim=2\n", "dim=2\n1,0,1,0\n2,0,0,1\n"))
        (d / "one.txt").write_text("1,-1,10,20,30,60,45,-1,-1,-1\n2,-1,12,20,30,60,45,-1,-1,-1\n")
        run_main(["track", "--det", str(d / "det.txt"), "--filter", filter_mode,
                  "--out", str(d / "res.txt")])
        run_main(["track", "--det", str(d / "one.txt"), "--embeddings", str(d / "e.txt"),
                  "--out", str(d / "res_e.txt")])
        run_main(["eval", "--gt", str(d / "gt.txt"), "--result", str(d / "det.txt")])
        run_main(["eval", "--gt", str(d / "gt.txt"), "--result", str(d / "gt.txt")])
