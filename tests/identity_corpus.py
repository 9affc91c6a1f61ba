"""The identity corpus: tracking results whose bytes a refactor must not change.

``digests(workdir)`` generates the scenes into ``workdir``, tracks them with
``hamtrack track`` and returns one SHA-256 per result file:

- the three-object crossings of ``crossing_spec`` seeds 1-3, with ``--ham``
  on and off (``--filter none``, as acceptance criterion C4 runs them);
- the bundled ``occlusion.scn`` under every ``--appearance`` (embed, hist,
  none) and ``--filter`` (sadf, const, none) mode, histograms read from its
  PPM frames.

``tests/identity_digests.json`` holds the recorded digests and the Python,
numpy and machine they were recorded on; ``tests/test_identity.py`` checks
them. From the repository root:

    PYTHONPATH=src:tests python tests/identity_corpus.py --check
    PYTHONPATH=src:tests python tests/identity_corpus.py --write

``--check`` names each result that differs and exits 1. ``--write`` records
the current digests; only a change meant to alter output bytes may do so,
and it says which digests moved and why.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr
from importlib import resources
from io import StringIO
from pathlib import Path

import numpy as np

from hamtrack.cli import main
from hamtrack.io_mot import write_embedding_file, write_mot_rows
from hamtrack.synthgen import generate
from scenario_utils import crossing_spec

DIGESTS = Path(__file__).with_name("identity_digests.json")
CROSSING_SEEDS = (1, 2, 3)
APPEARANCES = ("embed", "hist", "none")
FILTERS = ("sadf", "const", "none")


def environment() -> dict:
    """What the digests were computed on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def _cli(*args: str) -> None:
    with redirect_stderr(StringIO()) as err:
        code = main(list(args))
    if code != 0:
        raise RuntimeError(f"hamtrack {' '.join(args)} exited {code}: {err.getvalue()}")


def _track(scene: Path, out: Path, *extra: str) -> None:
    _cli("track", "--det", str(scene / "det.txt"), "--out", str(out), *extra)


def digests(workdir: Path) -> dict[str, str]:
    """``{result name: SHA-256 of its bytes}`` over the whole corpus, built in ``workdir``."""
    results = {}
    for seed in CROSSING_SEEDS:
        spec, scene = crossing_spec(seed), workdir / f"crossing_{seed}"
        scenario = generate(spec)
        scene.mkdir()
        (scene / "det.txt").write_text(write_mot_rows(scenario.det_rows))
        (scene / "embeddings.csv").write_text(
            write_embedding_file(spec.embed_dim, scenario.embeddings))
        for ham in ("on", "off"):
            name = f"crossing_{seed}_ham_{ham}"
            results[name] = workdir / f"{name}.txt"
            _track(scene, results[name], "--embeddings", str(scene / "embeddings.csv"),
                   "--ham", ham, "--filter", "none")
    scene = workdir / "occlusion"
    _cli("generate", "--spec", str(resources.files("hamtrack") / "scenarios" / "occlusion.scn"),
         "--out", str(scene), "--frames")
    sources = {"embed": ("--embeddings", str(scene / "embeddings.csv")),
               "hist": ("--frames-dir", str(scene / "frames")), "none": ()}
    for appearance in APPEARANCES:
        for mode in FILTERS:
            name = f"occlusion_{appearance}_{mode}"
            results[name] = workdir / f"{name}.txt"
            _track(scene, results[name], "--appearance", appearance, *sources[appearance],
                   "--filter", mode)
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in results.items()}


def differences(recorded: dict, found: dict[str, str]) -> list[str]:
    """The names whose digest is missing, extra or different."""
    return sorted(name for name in recorded.keys() | found.keys()
                  if recorded.get(name) != found.get(name))


def _main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare with the recorded digests")
    action.add_argument("--write", action="store_true", help="record the current digests")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(Path(tmp))
    if args.write:
        DIGESTS.write_text(json.dumps({"environment": environment(), "digests": found},
                                      indent=2) + "\n")
        print(f"recorded {len(found)} digests in {DIGESTS.name}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    differ = differences(recorded["digests"], found)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(recorded['digests'])} results differ from the digests recorded "
          f"on {recorded['environment']}; this is {environment()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
