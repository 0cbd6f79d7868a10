"""Build script: compiles the optional kernel core.

The extension is built from `src/etaint/_ckernels.c`, a hand-written C
twin of `_pykernels.py`; building needs only a C compiler.  The package
is fully functional without the extension (a pure-Python twin of the
hot kernels is selected at import time), so any failure to build
`etaint._ckernels` is demoted to a warning.
"""

import os
import sys

from setuptools import Extension, setup
from setuptools.command.build import build
from setuptools.command.build_ext import build_ext


class SingleLibBuild(build):
    """Build into <build-base>/lib, the layout of a pure package.

    With an extension module setuptools would default to a
    platform-tagged lib.<plat> directory; perfbench/build.py stages the
    package from <build-base>/lib.
    """

    def finalize_options(self):
        if self.build_lib is None:
            self.build_lib = os.path.join(self.build_base, "lib")
        super().finalize_options()


class OptionalBuildExt(build_ext):
    """Build the extension if possible, otherwise fall back to pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler/toolchain missing
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: could not build the compiled kernel core "
            f"({exc!r}); etaint will use the pure-Python kernels.",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("etaint._ckernels", ["src/etaint/_ckernels.c"])],
    cmdclass={"build": SingleLibBuild, "build_ext": OptionalBuildExt},
)
