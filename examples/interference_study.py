#!/usr/bin/env python3
"""Interference study: repair algorithms racing real-world trace replays.

A miniature of the paper's Exp#1 (Fig. 12): CR, PPR, ECPipe, and
ChameleonEC each repair a failed node while clients replay one of the
four workload traces; the script prints repair throughput and the
foreground P99 latency for every (trace, algorithm) cell.

Usage:
    python examples/interference_study.py [scale]
"""

import sys

from repro import ExperimentConfig, Testbed
from repro.experiments import format_table, run_repair_experiment

TRACES = ("YCSB-A", "IBM-OS", "Memcached", "Facebook-ETC")
ALGORITHMS = ("CR", "PPR", "ECPipe", "ChameleonEC")


def main(scale: float = 0.06) -> None:
    throughput_rows, p99_rows = [], []
    for trace in TRACES:
        config = ExperimentConfig.scaled(scale, trace=trace)
        tp_row, p99_row = [trace], [trace]
        for algorithm in ALGORITHMS:
            result = run_repair_experiment(
                config, algorithm, trace=trace, scenario=Testbed.build(config)
            )
            tp_row.append(result.throughput_mbs)
            p99_row.append(result.p99_latency * 1000)
        throughput_rows.append(tp_row)
        p99_rows.append(p99_row)
        print(f"  finished trace {trace}")

    headers = ["trace", *ALGORITHMS]
    print()
    print(format_table("Repair throughput (MB/s)", headers, throughput_rows))
    print()
    print(format_table("Foreground P99 latency (ms)", headers, p99_rows))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.06)
