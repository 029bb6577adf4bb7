"""The README's library quickstart and run configuration, run exactly as written."""

import re
from pathlib import Path

import numpy as np
import pytest

from test_console import fockgauge_run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs_as_written(capsys):
    block = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quickstart", "exec"), namespace)
    # the block's comments: a 32-state trivial Gauss sector and a 4-fold
    # degenerate ground level, which it prints
    vals = namespace["vals"]
    assert namespace["cols"].shape[1] == 32
    np.testing.assert_allclose(vals[:4], vals[0], atol=1e-10)
    assert vals[4] > vals[0] + 1e-6
    assert capsys.readouterr().out.strip() == str(vals[:5])


@pytest.mark.parametrize("command", ["verify", "spectrum", "observables", "vortex-masses"])
def test_readme_run_configuration_runs_through_every_model_command(tmp_path, command):
    # the documented schema and the CLI's known keys must agree
    block = re.search(r"^### Run configuration \(YAML\)\n\n```yaml\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.S | re.M).group(1)
    run = fockgauge_run(tmp_path, command, config=block)
    assert run.code == 0, run.err
