"""`import moserlab` loads numpy, not scipy; the first quadrature loads it.

The test session has scipy loaded already, so the check runs in a fresh
interpreter.  Run as a script (``python tests/test_import_graph.py``) it
checks the moserlab that the interpreter finds, which must not be this
checkout's ``src/``: that is how an installed package is checked.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# both values recorded with scipy imported at module level
CHECK = """
import sys
import moserlab, moserlab.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"import moserlab loaded {loaded[:5]}"
from moserlab import functional, rearrange, seqgen
jd = functional.j_direct(functional.moser_from_exponent(5.0))
assert repr(jd) == "8.051655055901817", repr(jd)
f = rearrange.rearrange_radial(seqgen.counterexample_sequence(3).members[-1])
lz = rearrange.lz_quasinorm(f, rearrange.LZIndex(2.0, 2.0, 0.0))
assert repr(lz) == "0.10231956330035505", repr(lz)
assert "scipy.integrate" in sys.modules
print(moserlab.__file__)
"""


def test_import_loads_no_scipy_until_a_quadrature(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=tmp_path, env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve().is_relative_to(SRC)


if __name__ == "__main__":
    exec(CHECK)
    import moserlab

    assert not Path(moserlab.__file__).resolve().is_relative_to(SRC), (
        f"moserlab was imported from the checkout: {moserlab.__file__}"
    )
