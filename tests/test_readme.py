"""The README's quick start runs as written and prints what the README says.

The ``## Quick start`` Python block is executed as it stands; its printed
targets must come back within 0.1 deg, 0.2 m and one velocity refinement step
of the scene's truth, and the resolutions quoted beside it must be the ones
its configuration derives.
"""

import contextlib
import io
import pathlib
import re
import warnings

import pytest

from tmadfrc import range_resolution_m, velocity_resolution_mps
from tmadfrc.refine import VELOCITY_POINTS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> tuple:
    """(code of the section's Python block, the section's prose after it)."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```(.*)", section, re.S)
    assert match, "no Python block under ## Quick start"
    return match.group(1), match.group(2)


def test_readme_quick_start_recovers_the_three_targets():
    code, prose = quick_start()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"refined \w+ hit the edge", RuntimeWarning)
        exec(compile(code, str(README), "exec"), namespace)
    rows = re.findall(r"(-?[\d.]+) deg +(-?[\d.]+) m +(-?[\d.]+) m/s", out.getvalue())
    printed = sorted(tuple(map(float, row)) for row in rows)
    cfg, scene = namespace["cfg"], namespace["scene"]
    truth = sorted((t.angle_deg, t.range_m, t.velocity_mps) for t in scene.targets)
    assert len(printed) == len(truth) == 3
    step = velocity_resolution_mps(cfg) / (VELOCITY_POINTS - 1)
    for got, want in zip(printed, truth):
        assert abs(got[0] - want[0]) <= 0.1, (got, want)
        assert abs(got[1] - want[1]) <= 0.2, (got, want)
        assert abs(got[2] - want[2]) <= step, (got, want)

    quoted = re.search(
        r"range resolution is ([\d.]+) m.*?velocity resolution is ([\d.]+) m/s", prose, re.S
    )
    assert quoted, "the quick start no longer quotes its resolutions"
    assert float(quoted.group(1)) == pytest.approx(range_resolution_m(cfg), rel=1e-12)
    assert float(quoted.group(2)) == pytest.approx(velocity_resolution_mps(cfg), rel=1e-12)
