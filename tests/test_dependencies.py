"""The package runs on numpy alone: importing it and its front end loads
none of the libraries that only the tests use."""
import os
import pathlib
import subprocess
import sys

TEST_ONLY = ("scipy", "mpmath", "hypothesis", "jsonschema", "pytest")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_package_loads_no_test_only_library():
    code = (
        "import sys\n"
        "import pascal_spiral, pascal_spiral.cli, pascal_spiral.schemas\n"
        f"print(' '.join(name for name in {TEST_ONLY!r} if name in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
