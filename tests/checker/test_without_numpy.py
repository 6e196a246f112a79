"""The package imports and verifies on an interpreter without numpy.

numpy (and scipy, which needs it) are optional accelerators: without
them the explicit engine expands successors one config at a time and
the schema DFS decides every LP on the exact simplex.  A fresh
interpreter with ``sys.modules["numpy"] = None`` sees exactly what a
numpy-less installation sees; its verdicts must match the golden
fixtures the accelerated paths are pinned by.  The float LP path also
depends on a private scipy module, ``scipy.optimize._highspy``; hiding
only that one must likewise leave the schema DFS on the exact simplex
with the golden verdicts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from tests.checker.test_param_verdicts import GOLDEN_PATH

REPO_ROOT = Path(__file__).resolve().parents[2]
SEED_VERDICTS = Path(__file__).parent / "data" / "seed_verdicts.json"

SCRIPT = """
import json
import sys

sys.modules["numpy"] = None

from repro import api
from repro.counter.batch import batch_available
from repro.solver import floatlp
from tests.checker.test_param_verdicts import observe

result = api.verify("cc85a")
print(json.dumps({
    "explicit": {
        o.target: {
            "queries": [[q.query, q.verdict, q.states_explored]
                        for q in o.queries],
            "sides": dict(o.side_conditions),
        }
        for o in result.obligations
    },
    "parameterized": observe("naive_voting"),
    "accelerated": [batch_available(), floatlp._HAVE_SCIPY],
}))
"""


HIGHS_SCRIPT = """
import json
import sys

sys.modules["scipy.optimize._highspy"] = None

from repro.counter.batch import batch_available
from repro.solver import floatlp
from tests.checker.test_param_verdicts import observe

print(json.dumps({
    "parameterized": {case: observe(case) for case in %r},
    "accelerated": [batch_available(), floatlp._HAVE_SCIPY],
}))
"""

#: golden cases the exact simplex decides in well under a second
#: (fmr05 takes about 45 s without HiGHS, mmr14-refined minutes)
EXACT_CASES = ("naive_voting",)


def _run(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, cwd=REPO_ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_verdicts_without_highs_match_the_golden_files():
    observed = _run(HIGHS_SCRIPT % (EXACT_CASES,))
    assert observed["accelerated"] == [True, False]
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observed["parameterized"] == {
        case: golden[case] for case in EXACT_CASES
    }


def test_verdicts_without_numpy_match_the_golden_files():
    observed = _run(SCRIPT)
    assert observed["accelerated"] == [False, False]
    assert observed["explicit"] == json.loads(SEED_VERDICTS.read_text())["cc85a"]
    golden = json.loads(GOLDEN_PATH.read_text())
    assert observed["parameterized"] == golden["naive_voting"]
