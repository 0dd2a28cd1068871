"""The repository's benchmark: LQO sweep, JOB execution and open-loop plan serving.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
