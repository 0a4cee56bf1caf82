"""Records every ``src/repro`` function on its first call, when ``CENSUS_OUT``
names a directory.

``python3 -m tools.census`` puts this directory first on the ``PYTHONPATH`` of
each entry point it runs, so ``site`` imports this module at start-up in that
process and in every Python process it starts.  Without ``CENSUS_OUT`` it
does nothing.

A profile function (``sys.setprofile`` for the running thread,
``threading.setprofile`` for threads started later) sees each ``call`` event
and appends one line per code object the first time it is entered:
``<file>\\t<first line>\\t<name>``.  Each line is one ``os.write`` on a file
opened with ``O_APPEND``, so nothing waits in a buffer: a forked worker that
leaves through ``os._exit`` and a server stopped by a signal are counted up to
their last call.
"""

import os
import sys
import threading


def _install(directory):
    marker = os.sep + os.path.join("src", "repro") + os.sep
    path = os.path.join(directory, f"{os.getpid()}.txt")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    # Keyed by id and holding the code object, so an id is never reused.
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                if marker in code.co_filename:
                    line = f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n"
                    os.write(fd, line.encode())

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("CENSUS_OUT"):
    _install(os.environ["CENSUS_OUT"])
