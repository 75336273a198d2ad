"""The `lapack_source` fixture: qroot.lapack.provider() from a chosen address source.

A test module imports the fixture by name to use it.
"""

import ctypes

import pytest

import qroot.lapack as kernels

# provider()'s three sources, in the order it tries them: the ctypes type
# of their INTEGER, and whether hidden CHARACTER lengths follow
LAPACK_SOURCES = {"numpy": (ctypes.c_int64, True), "flapack": (ctypes.c_int, True),
                  "capsules": (ctypes.c_int, False)}


class HiddenNames:
    """A ctypes library with some of its symbol names hidden."""

    def __init__(self, lib, names):
        self._lib, self._hidden = lib, set(names)

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._lib, name)


def hide_names(monkeypatch, loader: str, suffix: str, routines=tuple(kernels._ROUTINES)):
    """Hide scipy_<name><suffix> and <name><suffix> of routines in kernels.<loader>()."""
    lib = getattr(kernels, loader)()
    names = {f"{prefix}{name}{suffix}" for name in routines for prefix in ("scipy_", "")}
    monkeypatch.setattr(kernels, loader, lambda: HiddenNames(lib, names))
    kernels.provider.cache_clear()


@pytest.fixture
def lapack_source(monkeypatch):
    """force(source) makes provider() take the given source and returns it.

    "numpy" is the default; "flapack" hides numpy's ILP64 names; "capsules"
    hides _flapack's LP64 names too.  A source this platform cannot give
    skips the test.  The provider is rebuilt afterwards.
    """
    def force(source):
        if source != "numpy":
            hide_names(monkeypatch, "_numpy_lapack_library", "_64_")
        if source == "capsules":
            hide_names(monkeypatch, "_flapack_library", "_")
        kernels.provider.cache_clear()
        lapack = kernels.provider()
        if (lapack.integer, lapack._lengths) != LAPACK_SOURCES[source]:
            pytest.skip(f"this platform's LAPACK does not come from {source}")
        return lapack

    yield force
    kernels.provider.cache_clear()
