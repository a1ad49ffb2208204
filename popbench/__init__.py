"""Benchmark of `popgcn run` on three synthetic cohort workloads.

Run one workload with ``python3 popbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md in this
directory for the workloads, the metrics and the output checks.
"""
