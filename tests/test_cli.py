import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hamtrack
from hamtrack.cli import main


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
        assert "event.0" in capsys.readouterr().err


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
        src = str(Path(hamtrack.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hamtrack.cli", "track", "--det", str(det),
             "--out", str(tmp_path / "res.txt")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "line 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_set_value_is_config_error(self, scenario_dir, capsys):
        rc, _ = self.run_track(scenario_dir, "--set", "beta=1.5")
        assert rc == 2
        assert "beta out of [0,1]" in capsys.readouterr().err

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

    def test_histogram_appearance_from_frames(self, scenario_dir):
        out = scenario_dir / "res_hist.txt"
        rc = main(["track", "--det", str(scenario_dir / "det.txt"),
                   "--frames-dir", str(scenario_dir / "frames"),
                   "--appearance", "hist",
                   "--out", str(out)])
        assert rc == 0
        assert out.stat().st_size > 0

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

    def test_missing_gt(self, tmp_path, capsys):
        rc = main(["eval", "--gt", str(tmp_path / "gone.txt"),
                   "--result", str(tmp_path / "alsogone.txt")])
        assert rc == 1
        assert "gone.txt" in capsys.readouterr().err
