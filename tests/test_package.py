import os
import subprocess
import sys
import textwrap
from pathlib import Path

import ptwell


def test_exports_resolve():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in ptwell.__all__ if not hasattr(ptwell, name)]
    assert not missing
    assert len(set(ptwell.__all__)) == len(ptwell.__all__)


def _run_fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter with ptwell on the path."""
    src = str(Path(ptwell.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def test_import_leaves_out_heavy_scipy():
    # scipy.special alone took 0.32 s of a 0.47 s `import ptwell` and raised
    # its peak RSS from 29.8 to 54.5 MB (raw, shared 2-core machine, Python
    # 3.11, scipy 1.17); only the limit wavefunctions need it, and specfun
    # imports it on the first Bessel evaluation.  scipy.optimize,
    # scipy.integrate and scipy.linalg are heavier still.
    out = _run_fresh("import sys, ptwell; "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_cli_commands_leave_out_scipy():
    out = _run_fresh("""
        import contextlib, io, sys
        from ptwell import cli
        commands = [
            ["table", "--id", "1"],
            ["eigen", "--M", "1", "--epsilon", "2", "--k", "8"],
            ["figure1", "--eps-max", "0.2", "--step", "0.1", "--k-max", "1"],
            ["wkb", "--M", "2", "--epsilon", "0", "--k", "3", "--order", "2"],
            ["limit", "--M", "2", "--k-max", "1"],
            ["period", "--epsilon", "2"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print(argv[0], code, loaded)
        """)
    assert out.splitlines() == [f"{name} 0 []" for name in (
        "table", "eigen", "figure1", "wkb", "limit", "period")]


def test_first_bessel_call_binds_scipy_special():
    # the first evaluation imports scipy.special and then makes the same
    # calls as the formulas below, evaluated with scipy.special directly
    out = _run_fresh("""
        import cmath, math, sys
        from ptwell.specfun import (_connection_ratio, _sheet, bessel_K_logw,
                                    bessel_K_scaled)
        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        nu, t, w = 1.0 / 3.0, complex(0.4, 2.6), complex(3.0, -1.5)
        got = [bessel_K_logw(nu, t), bessel_K_scaled(nu, w)]
        from scipy import special
        w0, m = _sheet(t)
        ratio = _connection_ratio(nu, m)
        want = [
            cmath.exp(-1j * m * nu * math.pi) * complex(special.kv(nu, w0))
            - 1j * math.pi * ratio * complex(special.iv(nu, w0)),
            complex(special.kve(nu, w)) * cmath.exp(-1j * w.imag),
        ]
        print(m, [g == v for g, v in zip(got, want)])
        """)
    assert out.strip() == "1 [True, True]"
