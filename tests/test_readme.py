"""The README's library quickstart, run exactly as written."""

import re
from pathlib import Path

import numpy as np

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
