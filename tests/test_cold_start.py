"""scipy is loaded only where an instance is drawn.

Each test runs a fresh interpreter, since this process has long since
imported scipy through the other tests.
"""

import os
import subprocess
import sys
import textwrap

import kbfdr

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kbfdr.__file__)))

_RUNS = textwrap.dedent(
    """
    import sys
    import numpy as np
    import kbfdr
    assert "scipy" not in sys.modules, "import kbfdr"
    from kbfdr.cli import EXIT_OK, main

    p_file, e_file, out = sys.argv[1:]
    for proc, path in [("bh", p_file), ("holm", p_file), ("domino", p_file),
                       ("domino-e", e_file)]:
        argv = ["run", path, "--proc", proc, "--alpha", "0.05", "--out", out]
        assert main(argv) == EXIT_OK, proc
        assert "scipy" not in sys.modules, proc

    from kbfdr.simulate import SimScenario, gen_instance
    sc = SimScenario(m=50, pi1=0.2, mu_c=3.0, sigma=1.5, rho=0.25, alpha=0.05,
                     k=1, reps=1, seed=7)
    inst = gen_instance(sc, 0)
    assert "scipy" in sys.modules
    from scipy.special import ndtr
    assert np.array_equal(inst.pvalues.values, ndtr(-inst.x / sc.sigma))
    """
)


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_skips_scipy():
    _run('import sys, kbfdr.cli; assert "scipy" not in sys.modules, "import kbfdr.cli"')


def test_run_skips_scipy_until_an_instance_is_drawn(tmp_path):
    p_file = tmp_path / "p.csv"
    p_file.write_text("index,p_value\n1,0.002\n2,0.01\n3,0.9\n", encoding="utf-8")
    e_file = tmp_path / "e.csv"
    e_file.write_text("index,e_value\n1,50\n2,25\n3,0.1\n", encoding="utf-8")
    _run(_RUNS, str(p_file), str(e_file), str(tmp_path / "rejections.csv"))
