"""End-to-end and per-layer benchmark for the Secure-View solve stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints, as its last line, one JSON
object with the answers' correctness and the metrics named in
``BENCHMARK.json``.  The benchmark drives the program only from outside:
``repro serve`` / ``repro fleet`` subprocesses over loopback HTTP,
``run_sweep``, and (in the traced run) the public functions of each layer.
"""
