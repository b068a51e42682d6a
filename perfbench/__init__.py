"""Seeded, layer-attributed discovery benchmark for the TANE reproduction.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; ``perfbench/README.md`` describes the
workloads, the metrics and the noise sources they are built around.
"""
