"""The traced benchmark run still finds every layer and every method it
wraps by name.

`perfbench/tracing.py` reads each of its LAYERS from sys.modules after
`import ffverify.cli`, and wraps hot methods and span methods of the
package by class and method name; a missing layer or a rename would
otherwise only show under a traced benchmark run.  `import ffverify`
registers every layer without running it, and the tracer's vars() of
each layer runs it, so a traced command wraps layers it never reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WRAPPED_METHODS = {
    "Level.mul", "Level.pow",
    "ArtinSchreierExtension.mul", "ArtinSchreierExtension.pow",
    "ArtinSchreierExtension.solve_affine",
    "CycNumber.__mul__", "CycNumber.inverse",
    "CharacterTable.row_orthogonality_ok",
    "CharacterTable.column_orthogonality_ok",
}


def test_cli_import_loads_every_traced_layer():
    """tracing.install imports ffverify and ffverify.cli, then looks up
    each of its LAYERS in sys.modules: the package registers each layer
    there, and the tracer's vars() of the layer runs its code."""
    probe = ("import sys, ffverify.cli\n"
             "loaded = set(sys.modules)\n"
             "from tracing import LAYERS\n"
             "print([layer for layer in LAYERS\n"
             "       if f'ffverify.{layer}' not in loaded])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _traced_calls(job):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith("PERFBENCH_TRACE ")]
    assert len(lines) == 1, proc.stderr
    summary = json.loads(lines[0].split(" ", 1)[1])
    assert not any(summary["errors"].values()), summary["errors"]
    return set(summary["calls"])


def test_traced_runs_reach_every_wrapped_method():
    calls = _traced_calls({"kind": "verify",
                           "argv": ["verify", "--p", "3", "--n", "2", "--ell", "5"]})
    calls |= _traced_calls({"kind": "lib",
                            "argv": ["--n", "2", "--q", "3", "--ell", "5"]})
    assert WRAPPED_METHODS <= calls, WRAPPED_METHODS - calls


def test_a_traced_count_runs_the_layers_it_registered():
    """A count reaches only fields and varieties, yet the tracer finds
    and wraps every layer without an error, and counts the calls of the
    lazily loaded ones."""
    calls = _traced_calls({"kind": "torsor",
                           "argv": ["count", "--p", "3", "--e", "2",
                                    "--torsor", "--n", "3", "--level", "2"]})
    assert {"count_points", "Level.mul"} <= calls, calls
