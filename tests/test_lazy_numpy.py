"""numpy loads on use: only the reduced-form count engine and the census
sieves import it, so q-series commands never pay its start-up cost."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, %r)
argv = json.loads(sys.argv[1])
if argv is None:
    import plusforms
    code = 0
else:
    from plusforms import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, "numpy" in sys.modules]))
""" % SRC


def loads_numpy(argv):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return loaded


@pytest.mark.parametrize("argv", [
    None,
    ["sturm", "--twice-weight", "20", "--level", "324"],
    ["expand", "--form", "phi:9", "--prec", "200", "--mod", "3"],
    ["verify", "rt"],
    ["verify", "remark3"],
    ["verify", "ut:3"],
    ["classnum", "--d", "-23"],
], ids=lambda argv: "import plusforms" if argv is None else " ".join(argv))
def test_command_never_imports_numpy(argv):
    assert not loads_numpy(argv)


@pytest.mark.parametrize("argv", [
    ["census", "--x", "1000"],
    ["classnum", "--hurwitz", "27"],
], ids=" ".join)
def test_class_number_tables_import_numpy(argv):
    assert loads_numpy(argv)
