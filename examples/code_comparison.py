#!/usr/bin/env python3
"""Erasure-code comparison: RS vs LRC vs Butterfly repair (Exp#9 flavour).

Shows the coding layer end-to-end for three code families:

* correctness — encode random data, drop chunks, decode, compare bytes;
* repair cost — traffic (in chunk units) each code needs per repair;
* repair speed — simulated full-node repair throughput with ChameleonEC.
"""

import numpy as np

from repro import ButterflyCode, ExperimentConfig, LRCCode, RSCode, Testbed, make_code
from repro.experiments import format_table, run_repair_experiment


def correctness_demo() -> None:
    rng = np.random.default_rng(1)
    print("correctness (encode -> lose chunks -> decode):")
    for code in (RSCode(10, 4), LRCCode(10, 2, 2), ButterflyCode()):
        data = [rng.integers(0, 256, 1024, dtype=np.uint8) for _ in range(code.k)]
        stripe = code.encode(data)
        lost = min(code.fault_tolerance(), 2)
        available = {i: stripe[i] for i in range(lost, code.n)}
        decoded = code.decode(available)
        ok = all(np.array_equal(decoded[i], stripe[i]) for i in range(code.n))
        print(f"  {code.name:14s} lost {lost} chunks -> decode {'OK' if ok else 'FAIL'}")


def repair_cost_demo() -> None:
    print("\nsingle-chunk repair traffic (chunk units):")
    for spec in ("RS(10,4)", "LRC(10,2,2)", "Butterfly(4,2)"):
        code = make_code(spec)
        eq = code.repair_equation(0)
        print(f"  {code.name:14s} reads {len(eq.sources)} sources, "
              f"traffic = {eq.traffic_chunks:g} chunks")


def throughput_demo(scale: float = 0.05) -> None:
    rows = []
    for spec in ("RS(10,4)", "LRC(10,2,2)", "Butterfly(4,2)"):
        config = ExperimentConfig.scaled(scale, code=spec)
        result = run_repair_experiment(
            config, "ChameleonEC", scenario=Testbed.build(config)
        )
        rows.append([spec, result.throughput_mbs])
    print()
    print(format_table("ChameleonEC full-node repair", ["code", "MB/s"], rows))


def main() -> None:
    correctness_demo()
    repair_cost_demo()
    throughput_demo()


if __name__ == "__main__":
    main()
