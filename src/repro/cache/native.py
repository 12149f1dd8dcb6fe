"""Build and load the compiled plain-LRU step kernel.

The kernel's C source (``lru_kernel.c``) ships inside the package.  It
is compiled with cffi in API mode on first use, into a per-user cache
directory (``$XDG_CACHE_HOME/repro-mmm/native``, by default
``~/.cache/repro-mmm/native``), and loaded from there by every later
process.  The file name carries a build key: a hash of the source, the
cdef, the compiler flags and the interpreter's cache tag.  An edited
source therefore builds a new module and can never load a stale one.

A build compiles into a private temporary directory next to its target
and moves the finished module into place with :func:`os.replace`, so
concurrent processes (pool workers) building the same key at once all
end up loading a complete module.  ``cffi`` itself is imported only
when a build is needed; loading a built module does not import it.

When the build or the load fails, :func:`kernel` logs one warning per
process and returns ``None``, and :class:`~repro.cache.hierarchy.LRUHierarchy`
runs the generic Python path instead, with identical counters.  Which
path ran is recorded on every result (``ExperimentResult.kernel``).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

logger = logging.getLogger(__name__)

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("lru_kernel.c")

#: The kernel's API as cffi sees it; ``lru_kernel.c`` documents each call.
CDEF = """
typedef struct {
    int64_t hits;
    int64_t misses;
    int64_t writebacks;
    int64_t misses_by_matrix[3];
} lru_counters;
typedef struct lru_hier lru_hier;
lru_hier *lru_new(int p, int32_t cs, int32_t cd);
void lru_free(lru_hier *h);
void lru_reset(lru_hier *h);
int lru_touch(lru_hier *h, int core, uint64_t key, int write);
int lru_compute(lru_hier *h, int core, uint64_t ckey, uint64_t akey, uint64_t bkey);
int lru_compute_row(lru_hier *h, int core, uint64_t akey, uint64_t crow,
                    uint64_t brow, int64_t start, int64_t stop, int64_t step);
void lru_counters_of(lru_hier *h, int cache, lru_counters *out);
int32_t lru_size(lru_hier *h, int cache);
void lru_export(lru_hier *h, int cache, uint64_t *keys, int32_t *dirty);
"""

#: Extra compiler flags (part of the build key).
CFLAGS = ("-O2", "-std=c99")

#: Status the kernel's calls return for a core outside ``0..p-1``
#: (``-1`` flags a key whose matrix tag is not A, B or C).
ERR_CORE = -2

_kernel: Optional[Any] = None
_tried = False


def build_key(source: str) -> str:
    """Hash of everything that shapes the compiled module."""
    digest = hashlib.sha256()
    for part in (source, CDEF, " ".join(CFLAGS), sys.implementation.cache_tag):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def cache_dir() -> Path:
    """The per-user directory built kernels live in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-mmm" / "native"


def build(directory: Path, source: str) -> Path:
    """Return the module built from ``source`` in ``directory``.

    Compiles only when no module with the same build key is there yet.
    """
    name = f"_repro_lru_{build_key(source)}"
    target = directory / (name + importlib.machinery.EXTENSION_SUFFIXES[0])
    if target.exists():
        return target
    import cffi

    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".build-", dir=directory) as tmp:
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        ffi.set_source(name, source, extra_compile_args=list(CFLAGS))
        built = ffi.compile(tmpdir=tmp)
        os.replace(built, target)
    return target


def load(path: Path) -> Any:
    """Import a built kernel module from its file."""
    name = path.name.split(".", 1)[0]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_and_load() -> Any:
    return load(build(cache_dir(), SOURCE.read_text()))


def kernel() -> Optional[Any]:
    """The loaded kernel module (``.ffi``, ``.lib``), or ``None``.

    Built and loaded once per process; a failure is logged once and
    remembered, so every later hierarchy takes the Python path quietly.
    """
    global _kernel, _tried
    if not _tried:
        _tried = True
        try:
            _kernel = _build_and_load()
        except Exception as exc:  # any build/load failure degrades, loudly
            logger.warning(
                "native LRU kernel unavailable (%s: %s); LRU hierarchies run "
                "the Python step kernel (identical counters, slower)",
                type(exc).__name__,
                exc,
                exc_info=True,
            )
    return _kernel
