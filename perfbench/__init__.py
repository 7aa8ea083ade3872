"""End-to-end and per-layer benchmark of the eulerlab CLI pipelines.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``--workload all`` runs every
workload in its own process and prints a table.  See README.md here.
"""
