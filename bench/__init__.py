"""Two-clock benchmark of the MRTS reproduction (see ``bench/README.md``).

A package only so that ``bench/trace.py`` never shadows the standard
library's ``trace``; the entry point is the script ``bench/run.py``.
"""
