"""Repo-wide pytest options.

Registered here because pytest only sees ``pytest_addoption`` in the rootdir
conftest (``benchmarks/conftest.py`` is loaded after the command line has
been parsed when the run starts at the repo root, as tier-1 does).
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help=(
            "rewrite the tracked benchmarks/results/*.txt tables; without it a "
            "benchmark prints its table and writes it to the ignored benchmarks/out/"
        ),
    )
