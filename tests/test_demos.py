"""Each demo, run as a script, prints what it printed when its pin was recorded.

The pins are sha256 digests of the demos' stdout.  Several demos print
p-values from scipy, whose last bits may differ on another numpy or scipy,
so the pins are checked only on the versions the report digests were
recorded with (:data:`test_cli.RECORDED_WITH`).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from test_cli import RECORDED_WITH

ROOT = Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "01_single_queue_walkthrough.py":
        "5839edbd8c77e96b6adc492e1f1f1aee3bb692f5ed504bacf364a560aded9e13",
    "02_burke_output_law.py":
        "5038743d136bfbde978f486f91667cca551f32d0ebf8d8b458504e955e5aae4c",
    "03_tableau_identities.py":
        "e6007ce5c7cacdd9698508f7f545c99cfb075b30a972365613a0d9e257b41d99",
    "04_shape_law_and_interchange.py":
        "9823efd0f521f467a51942071c6d63f3b2fffb87a6810bccb9e3182fa70ffece",
    "05_particle_views.py":
        "8741c9a68b4dc7f04c14c9746afde511ccccc25f56a5a8dac58e6fe36a55cfd4",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.skipif((np.__version__, scipy.__version__) != RECORDED_WITH,
                    reason="digests recorded with numpy %s, scipy %s" % RECORDED_WITH)
@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_pinned(demo):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo]
