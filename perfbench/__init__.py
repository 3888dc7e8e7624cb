"""The layered, host-speed-calibrated benchmark of the flexible-relations engine.

Run one workload with ``python3 perfbench/run.py --workload point_read --seed 1
--seconds 10 --trace 0``; see ``perfbench/README.md``.
"""
