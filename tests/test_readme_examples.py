"""The README's CLI examples, run through cli.main against golden output.

The expected stdout and artifact digests are literals recorded from the
program before the one-pass tau refactor; any change to them is a change
of output, not of speed.
"""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pfractal.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

STDOUT = {
    "root": '{"ring":{"p":3,"vars":["x","y"]},"gens":["x^2","y"]}\n',
    "tau": '{"ring":{"p":3,"vars":["x","y"]},"gens":["x^2*y + x*y^2"]}\n',
    "raster": (
        '{"palette":[{"index":0,"key":"1","color":[255,255,255]},'
        '{"index":1,"key":"x*y","color":[31,119,180]},'
        '{"index":2,"key":"x;y","color":[255,127,14]},'
        '{"index":3,"key":"x+y","color":[44,160,44]},'
        '{"index":4,"key":"x^2*y+x*y^2","color":[214,39,40]}]}\n'
    ),
    "threshold": '["1/3","5/9","17/27"]\n',
    "jump": (
        '[{"lo":"5/9","hi":"2/3","key_before":"1","key_after":"x;y"},'
        '{"lo":"8/9","hi":"1","key_before":"x;y","key_after":"x^2*y+x*y^2"}]\n'
    ),
    "fractal-check": '{"holds":true}\n',
    "staircase": '[["0.01","0.22"],["0.21","0.12"]]\n',
}

# sha256 of the k=4 staircase raster's artifacts, keyed by output flag
RASTER_SHA256 = {
    "-out-ppm": "0999314dd164a627e0073841134d1b6bc00bc00718622622b7b2640133e3c756",
    "-out-csv": "37f1ac460565d30f0088b067ac3ba8f2ff0513354f8531549659ba4ec05c6b16",
    "-out-legend": "cb6d64114d3ea08d4293b0f9fb42d96140b1fd68b5109b5f34f052296a75a68e",
}


def _readme_examples() -> list[list[str]]:
    """The argv of every `pfractal ...` line in the README's CLI code block."""
    cli = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("pfractal ")]


EXAMPLES = _readme_examples()


def test_every_subcommand_has_one_example():
    assert sorted(argv[0] for argv in EXAMPLES) == sorted(STDOUT)


@pytest.mark.parametrize("argv", EXAMPLES, ids=[argv[0] for argv in EXAMPLES])
def test_readme_example(argv, tmp_path):
    argv = list(argv)
    artifacts = {}
    for i, arg in enumerate(argv[:-1]):
        if arg in RASTER_SHA256:
            artifacts[arg] = tmp_path / argv[i + 1]
            argv[i + 1] = str(artifacts[arg])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue() == STDOUT[argv[0]]
    assert set(artifacts) == (set(RASTER_SHA256) if argv[0] == "raster" else set())
    for flag, path in artifacts.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RASTER_SHA256[flag], flag
