"""The repository's performance benchmark (see ``bench/README.md``).

``python3 -m bench`` runs five pinned-seed workloads against the public
surface of ``repro`` — each once untraced for the end-to-end metrics and once
traced for the per-layer metrics — and verifies every run against a
seed-shape coordinator replay.  ``BENCHMARK.json`` at the repository root
names the workloads and metrics; nothing in ``src/`` knows about this package.
"""
