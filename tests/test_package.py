import os
import subprocess
import sys
from pathlib import Path

import ptwell


def test_exports_resolve():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in ptwell.__all__ if not hasattr(ptwell, name)]
    assert not missing
    assert len(set(ptwell.__all__)) == len(ptwell.__all__)


def test_import_leaves_out_heavy_scipy():
    # scipy.optimize alone adds about 21 MB of resident memory and 0.2 s to
    # every process that imports ptwell; scipy.integrate is as heavy; the
    # spectral engine's eigensolves use numpy.linalg, not scipy.linalg
    src = str(Path(ptwell.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, ptwell; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', "
            "'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
