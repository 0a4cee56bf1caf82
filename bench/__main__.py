"""``python3 -m bench`` — see :mod:`bench.cli`."""

import os
import subprocess
import sys
from pathlib import Path


def _continue_under_an_interpreter_with_numpy() -> None:
    """Re-run under the first ``python3``/``python`` on PATH that imports numpy.

    ``BENCHMARK.json``'s command can only say ``python3``, and on the reference
    box the first ``python3`` on an interactive PATH (miniconda) has no numpy
    while the interpreter the repository is tested under (pyenv) does.  Said
    on stderr; when no interpreter has numpy, :func:`bench.cli.main` refuses.
    """
    try:
        import numpy  # noqa: F401
        return
    except ImportError:
        pass
    for name in ("python3", "python"):
        for directory in os.get_exec_path():
            candidate = os.path.join(directory, name)
            if not os.access(candidate, os.X_OK) or os.path.realpath(candidate) == os.path.realpath(sys.executable):
                continue
            probe = subprocess.run([candidate, "-c", "import numpy"], capture_output=True)
            if probe.returncode == 0:
                print(f"bench: {sys.executable} has no numpy; continuing under {candidate}",
                      file=sys.stderr, flush=True)
                os.execv(candidate, [candidate, "-m", "bench", *sys.argv[1:]])


_continue_under_an_interpreter_with_numpy()

# The package under test lives in src/ and is not installed in a bare
# checkout; the benchmark's command cannot set PYTHONPATH, so the entry point
# does.  An explicit PYTHONPATH (tier-1 runs with one) wins.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from bench.cli import main  # noqa: E402

sys.exit(main())
