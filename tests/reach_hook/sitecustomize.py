"""Reach-census profiler, loaded by Python at start-up as ``sitecustomize``.

``tests/reach_census.py`` puts this directory first on ``PYTHONPATH`` and
sets ``REPRO_REACH_DIR`` (where to dump) and ``REPRO_REACH_SRC`` (the
``src/repro`` directory to record).  Without those variables the hook does
nothing, so the directory is inert on an ordinary path.

Every thread runs one profile function (``sys.setprofile`` here,
``threading.setprofile`` for threads started later) that remembers each
code object it sees called.  At exit — and at the end of a
``multiprocessing`` child, which leaves through ``os._exit`` and skips
``atexit`` — the process writes the ``path:co_qualname`` of every recorded
code object under ``REPRO_REACH_SRC`` to one JSON file in
``REPRO_REACH_DIR``.  A profiler that something else replaced records
nothing from then on, so a dump asserts that ours is still installed
instead of writing a silently short list.
"""

import atexit
import json
import os
import sys
import threading

_DIR = os.environ.get("REPRO_REACH_DIR")
_SRC = os.environ.get("REPRO_REACH_SRC")

if _DIR and _SRC:
    _SRC = os.path.realpath(_SRC) + os.sep
    _codes = {}  # id(code) -> code; ids stay unique while the code lives

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _codes[id(code)] = code

    def _dump():
        if sys.getprofile() is not _profile:  # a check -O cannot strip
            raise AssertionError(
                f"reach census: the profiler was replaced by "
                f"{sys.getprofile()!r} in {sys.argv!r}; its reach is "
                f"unrecorded")
        names = set()
        for code in list(_codes.values()):
            path = os.path.realpath(code.co_filename)
            if path.startswith(_SRC):
                names.add(f"{path[len(_SRC):]}:{code.co_qualname}")
        out = os.path.join(
            _DIR, f"reach-{os.getpid()}-{threading.get_ident()}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"argv": sys.argv, "names": sorted(names)}, fh)

    def _dump_or_die():
        # An exception in an atexit hook does not change the exit status,
        # and one escaping a forked child's bootstrap would run the
        # parent's code in the child: report and leave with status 3.
        try:
            _dump()
        except AssertionError as exc:
            sys.stdout.flush()
            sys.stderr.write(f"{exc}\n")
            sys.stderr.flush()
            os._exit(3)

    def _install():
        import multiprocessing.process as mp_process

        bootstrap = mp_process.BaseProcess._bootstrap

        def _bootstrap(self, *args, **kwargs):
            code = bootstrap(self, *args, **kwargs)
            _dump_or_die()
            return code

        mp_process.BaseProcess._bootstrap = _bootstrap
        atexit.register(_dump_or_die)
        threading.setprofile(_profile)
        sys.setprofile(_profile)

    _install()
