import ast
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raredapt
from raredapt.artifacts import atomic_open, csv_lines, write_csv, write_json, write_text

PACKAGE = Path(raredapt.__file__).parent


def test_an_exception_inside_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "selected_metrics.json"
    write_text(target, "old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(target) as fh:
            fh.write("new, half")
            fh.flush()
            raise RuntimeError("mid-write")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["selected_metrics.json"]


def test_a_killed_writer_leaves_the_old_file(tmp_path):
    target = tmp_path / "history.csv"
    write_text(target, "old\n")
    script = (
        "import os, signal, sys\n"
        "from raredapt.artifacts import atomic_open\n"
        "with atomic_open(sys.argv[1]) as fh:\n"
        "    fh.write('new, half')\n"
        "    fh.flush()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script, str(target)], env=env, timeout=60)
    assert done.returncode == -9
    assert target.read_text(encoding="utf-8") == "old\n"


def test_parent_directories_are_created_and_bytes_written_as_given(tmp_path):
    text_path = tmp_path / "a" / "b" / "train.log"
    write_text(text_path, "one\ntwo\n")
    assert text_path.read_bytes() == b"one\ntwo\n"
    binary_path = tmp_path / "c" / "checkpoint.ckpt"
    with atomic_open(binary_path, "wb") as fh:
        fh.write(b"\x00\r\n\xff")
    assert binary_path.read_bytes() == b"\x00\r\n\xff"
    with pytest.raises(ValueError, match="mode must be 'w' or 'wb', got 'a'"):
        with atomic_open(tmp_path / "log.txt", "a"):
            pass
    assert not (tmp_path / "log.txt").exists()


def test_file_mode_is_what_a_plain_open_gives(tmp_path):
    old_umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
            pass
        write_text(tmp_path / "atomic.txt", "x\n")
    finally:
        os.umask(old_umask)
    plain = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode) == plain == 0o644


def test_write_json_layout_and_nan_leaves_the_target_untouched(tmp_path):
    target = tmp_path / "projection.json"
    write_json(target, {"b": [1.5, None], "a": 1})
    expected = b'{\n  "a": 1,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    assert target.read_bytes() == expected
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(target, {"a": math.nan})
    assert target.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == ["projection.json"]


def test_write_csv_cell_rule(tmp_path):
    # None is an empty cell; a float, Python or numpy, its shortest round-trip
    # form (repr); anything else str()
    floats = [0.1, 1e16, 1e-05, -0.0, 5e-324, math.nan]
    target = tmp_path / "table.csv"
    write_csv(target, ["name", "a", "b", "c", "d", "e", "f"],
              [["py", *floats], ["np", *np.array(floats)], ["int", 3, np.int64(-4), None, "x",
                                                            np.str_("real"), True]])
    assert target.read_text(encoding="utf-8").splitlines() == [
        "name,a,b,c,d,e,f",
        "py,0.1,1e+16,1e-05,-0.0,5e-324,nan",
        "np,0.1,1e+16,1e-05,-0.0,5e-324,nan",
        "int,3,-4,,x,real,True",
    ]


def test_csv_rows_are_streamed_from_a_generator(tmp_path):
    pulled = []

    def rows():
        for i in range(3):
            pulled.append(i)
            yield [i, i / 2]

    lines = csv_lines(("i", "half"), rows())
    assert next(lines) == "i,half\n" and pulled == []
    assert next(lines) == "0,0.0\n" and pulled == [0]
    write_csv(tmp_path / "t.csv", ("i", "half"), rows())
    assert (tmp_path / "t.csv").read_bytes() == b"i,half\n0,0.0\n1,0.5\n2,1.0\n"


def test_a_failing_row_generator_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "sweep_deerdann.csv"
    write_text(target, "old\n")

    def rows():
        yield [1, 2.5]
        raise RuntimeError("row two")

    with pytest.raises(RuntimeError, match="row two"):
        write_csv(target, ("count", "acc"), rows())
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep_deerdann.csv"]


def _writes_outside_the_writer(tree: ast.AST) -> list[str]:
    """Calls that write a file, make a directory or join a CSV line without
    ``artifacts``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes", "mkdir") and isinstance(func, ast.Attribute):
            found.append(f"line {node.lineno}: .{name}(")
        elif name == "join" and getattr(func.value, "value", None) == ",":
            found.append(f'line {node.lineno}: ",".join(')
        elif name == "dump" and getattr(func.value, "id", None) == "json":
            found.append(f"line {node.lineno}: json.dump(")
        elif name == "open":
            at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), path.open(mode)
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None:
                mode = node.args[at] if len(node.args) > at else ast.Constant("r")
            known = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not known or set(mode.value) & set("wax+"):
                found.append(f"line {node.lineno}: open(..., {ast.unparse(mode)})")
    return found


def test_every_file_write_goes_through_the_writer():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "artifacts.py" in sources
    found = {
        path.name: _writes_outside_the_writer(ast.parse(path.read_text(encoding="utf-8")))
        for path in sources
        if path.name != "artifacts.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the scan itself finds each kind of write
    sample = ast.parse(
        "open(p, 'w')\nopen(p, mode='wb')\nopen(p, m)\np.open('a')\np.write_text(t)\n"
        "p.write_bytes(b)\np.mkdir()\njson.dump(x, fh)\nopen(p)\nopen(p, 'rb')\np.open()\n"
        "write_text(p, t)\n"
        '",".join(r)\n", ".join(r)\n'
    )
    assert len(_writes_outside_the_writer(sample)) == 9


def _method_references(tree: ast.AST) -> list[str]:
    """String constants that name a training method, and every import or read
    of ``ADVERSARIAL``, the set of methods with a domain-confusion term."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in raredapt.METHODS:
            found.append(f"line {node.lineno}: {node.value!r}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name == "ADVERSARIAL"]
        elif (isinstance(node, ast.Name) and node.id == "ADVERSARIAL"
              or isinstance(node, ast.Attribute) and node.attr == "ADVERSARIAL"):
            found.append(f"line {node.lineno}: ADVERSARIAL")
    return found


def test_only_domains_names_a_method():
    # domains.py decides what each method does; other modules read what it
    # resolved, not which method runs
    found = {
        path.name: _method_references(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "domains.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    sample = ast.parse('m = "deerdann"\nif m in ("baseline", "alldann"): x = "deercoral "\n')
    assert len(_method_references(sample)) == 3
    sample = ast.parse("from .domains import METHODS, ADVERSARIAL as A\n"
                       "a = m in ADVERSARIAL\nb = domains.ADVERSARIAL\n")
    assert len(_method_references(sample)) == 3


_PROCESS_NAMES = {"ProcessPoolExecutor", "multiprocessing", "get_context", "ctypes"}


def _process_references(tree: ast.AST) -> list[str]:
    """Every import, name or attribute of ``ProcessPoolExecutor``,
    ``multiprocessing``, ``get_context``, ``ctypes`` or ``os.fork``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module.split(".")[0], *(alias.name for alias in node.names),
                     *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else ""
            names = [node.attr, f"{owner}.{node.attr}"]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in _PROCESS_NAMES or name == "os.fork"]
    return found


def test_only_parallel_starts_processes_or_loads_a_c_library():
    # parallel.py decides how raredapt forks workers and holds their BLAS
    # threads; the other modules hand it their work
    sources = sorted(PACKAGE.glob("*.py"))
    owner = PACKAGE / "parallel.py"
    assert _process_references(ast.parse(owner.read_text(encoding="utf-8")))
    found = {
        path.name: _process_references(ast.parse(path.read_text(encoding="utf-8")))
        for path in sources
        if path != owner
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the scan itself finds each kind of reference, and not the broken-pool error
    sample = ast.parse(
        "import multiprocessing, ctypes.util\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from os import fork\n"
        "ctx = mp.get_context('fork')\n"
        "os.fork()\n"
        "pid = os.getpid()\n"
    )
    assert len(_process_references(sample)) == 6
