"""The benchmark of record: four lifecycle workloads, speed-normalised
rounds, and an outside-in layer ladder. See README.md in this directory;
run with ``python3 benchmarks/record/run.py`` (or ``python -m
benchmarks.record``) from the repository root."""
