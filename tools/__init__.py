"""Developer tools run from the repository root (``python3 -m tools.<name>``)."""
