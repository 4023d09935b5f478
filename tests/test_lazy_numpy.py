"""numpy loads on use: only the reduced-form count engine and the census
sieves import it, so q-series commands never pay its start-up cost, and a
command that needs it fails as a usage error where numpy is missing.  No
command loads dataclasses or inspect: the records are namedtuples and
QSeries a slotted class, so a cold start skips that import machinery.
Nor does the package load typing: without site, nothing else would."""

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
print(json.dumps([code, sorted({"numpy", "dataclasses", "inspect"}
                               & set(sys.modules))]))
""" % SRC


def heavy_imports(argv):
    """Which of numpy, dataclasses and inspect the command loaded."""
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
    assert heavy_imports(argv) == []


@pytest.mark.parametrize("argv", [
    ["census", "--x", "1000"],
    ["classnum", "--hurwitz", "27"],
], ids=" ".join)
def test_class_number_tables_import_numpy(argv):
    assert "numpy" in heavy_imports(argv)


WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.path.insert(0, %r)
sys.modules["numpy"] = None  # every import of numpy now fails
from plusforms import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps(code))
""" % SRC


@pytest.mark.parametrize("argv", [
    ["census", "--x", "100"],
    ["classnum", "--hurwitz", "27"],
    ["verify", "cong"],
    ["verify", "psi:12"],
    ["expand", "--form", "g31", "--prec", "50"],
], ids=" ".join)
def test_missing_numpy_is_a_usage_error(argv):
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == 64
    assert done.stderr == "plusforms: this command needs numpy\n"


def test_cold_start_without_site_never_imports_typing():
    probe = ("import sys; sys.path.insert(0, %r); import plusforms.cli; "
             "print('typing' in sys.modules)" % SRC)
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout == "False\n"
