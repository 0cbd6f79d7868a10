"""Stage a build of etaint into the benchmark's own directory.

The package is built the way users build it, through the repository's
`setup.py`, into ``perfbench/_build/<source hash>/build/lib``; nothing is
written under ``src/``.  When that build yields no compiled extension
(`setup.py` only knows `cythonize`, and Cython may be missing), the
tracked generated ``src/etaint/_ckernels.c`` is compiled into the
staged package with the interpreter's own compiler flags from
`sysconfig`.  The staged modules are byte-compiled, as an install
would, so import time does not depend on whether the interpreter may
write bytecode.  A build is reused while the sources it came from are
unchanged.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class BuildError(RuntimeError):
    """The package could not be staged with a compiled backend."""


def _source_hash(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted((root / "src" / "etaint").rglob("*"))
    files += [root / "setup.py", root / "pyproject.toml", Path(__file__).resolve()]
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _run(cmd: list[str], cwd: Path) -> None:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BuildError(f"{shlex.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def _compile_ckernels(root: Path, pkg: Path, tmp: Path) -> None:
    source = root / "src" / "etaint" / "_ckernels.c"
    if not source.is_file():
        raise BuildError(f"no compiled backend: {source} is missing")
    cfg = sysconfig.get_config_var
    obj = tmp / "_ckernels.o"
    cc = shlex.split(cfg("CC")) + shlex.split(cfg("CFLAGS")) + shlex.split(cfg("CCSHARED"))
    _run(cc + ["-I" + sysconfig.get_paths()["include"], "-c", str(source), "-o", str(obj)], root)
    target = pkg / ("_ckernels" + cfg("EXT_SUFFIX"))
    _run(shlex.split(cfg("LDSHARED")) + [str(obj), "-o", str(target)], root)


def ensure_built(root: Path) -> tuple[Path, dict]:
    """Return (staged lib directory, build info), building if needed."""
    if not (root / "setup.py").is_file() or not (root / "src" / "etaint").is_dir():
        raise BuildError(f"no etaint source tree (setup.py, src/etaint) under {root}")
    stamp = _source_hash(root)
    base = HERE / "_build"
    out = base / stamp
    if (out / "build.json").is_file():
        return out / "build" / "lib", json.loads((out / "build.json").read_text())
    shutil.rmtree(base, ignore_errors=True)
    tmp = base / (stamp + ".tmp")
    (tmp / "egg").mkdir(parents=True)
    t0 = time.perf_counter()
    _run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp / "egg"),
         "build", "--build-base", str(tmp / "build")],
        root,
    )
    lib = tmp / "build" / "lib"
    pkg = lib / "etaint"
    if any(pkg.glob("_ckernels*.so")):
        how = "setup.py"
    else:
        _compile_ckernels(root, pkg, tmp)
        how = "setup.py + sysconfig cc on src/etaint/_ckernels.c"
    # Byte-compile as an install would, naming the final location in the code objects.
    if not compileall.compile_dir(str(lib), quiet=1, stripdir=str(tmp), prependdir=str(out)):
        raise BuildError("byte-compiling the staged package failed")
    info = {"build_s": time.perf_counter() - t0, "source_hash": stamp, "compiled_by": how}
    (tmp / "build.json").write_text(json.dumps(info))
    tmp.rename(out)
    return out / "build" / "lib", info
