"""The byte gate: named CLI configs, each pinned as the sha256 of every
output it writes.

``tests/golden/configs.json`` maps a config name to its ``qpac``
arguments (``args``), the dumps it also asks for (``dumps``: any of
``trials`` and ``training``) and the pinned hash of each output
(``outputs``): the table (``out``), each dump, and the error text that
``qpac`` prints to stderr when the run raises (``error``). Each output
also keeps a short hash per line, so a mismatch names the first line
that moved; the run's files stay in the test's temporary directory for
a re-pin to list its cells. A change that is meant to keep every table
identical must pass this unchanged; one that is meant to change results
re-pins the named configs, or every config, with

    PYTHONPATH=src python tests/test_config_bytes.py [name ...]

The configs that hold cells which move with the OpenBLAS kernel are
named in FORMATS.md and deselected by name from CI's other-kernel step.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

from qpac.cli import main

CONFIGS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "configs.json")
DUMP_FLAGS = {"trials": "--trials-out", "training": "--training-out"}


def _load() -> dict:
    with open(CONFIGS_PATH) as fh:
        return json.load(fh)


def _pin(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "lines": [hashlib.sha256(line).hexdigest()[:12] for line in data.splitlines()]}


def run_config(config: dict, out_dir: str) -> dict:
    """The bytes of each output of one config, run through ``qpac``'s
    entry point with its outputs in ``out_dir``."""
    paths = {"out": os.path.join(out_dir, "out.csv")}
    args = list(config["args"]) + ["--out", paths["out"]]
    for dump in config.get("dumps", ()):
        paths[dump] = os.path.join(out_dir, f"{dump}.csv")
        args += [DUMP_FLAGS[dump], paths[dump]]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(args)
    found = {}
    for key, path in paths.items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[key] = fh.read()
    if code:
        found["error"] = stderr.getvalue().encode()
        with open(os.path.join(out_dir, "error.txt"), "wb") as fh:
            fh.write(found["error"])
    return found


CONFIGS = _load()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_keeps_its_bytes(name, tmp_path):
    pinned = CONFIGS[name]["outputs"]
    found = {key: _pin(data) for key, data in run_config(CONFIGS[name], str(tmp_path)).items()}
    assert sorted(found) == sorted(pinned), f"{name} wrote {sorted(found)}; outputs in {tmp_path}"
    for key, pin in pinned.items():
        if found[key]["sha256"] == pin["sha256"]:
            continue
        got, want = found[key]["lines"], pin["lines"]
        line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"{name}: {key} differs from its pin first at line {line + 1} "
                    f"({len(got)} lines, pinned {len(want)}); outputs in {tmp_path}")


def _repin(names: list[str]) -> None:
    configs = _load()
    for name in names or sorted(configs):
        with tempfile.TemporaryDirectory() as out_dir:
            found = run_config(configs[name], out_dir)
        configs[name]["outputs"] = {key: _pin(data) for key, data in sorted(found.items())}
    # one line per list: no argument or hash holds a space or a bracket
    text = re.sub(r"\[([^][{}]*)\]", lambda m: "[" + " ".join(m[1].split()) + "]",
                  json.dumps(configs, indent=1))
    with open(CONFIGS_PATH, "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    _repin(sys.argv[1:])
