"""Whole-plan repair times against the fluid model's closed forms.

One 64 MB chunk is repaired on an idle uniform cluster whose disks are
effectively unbounded, so every plan is link-bound. With chunk size C,
slice size S, link bandwidth b and k helpers:

* CR (a star) pulls k chunks through the destination's downlink:
  k·C/b.
* ECPipe (a chain) pipelines slices hop by hop: C/b + (k−1)·S/b, the
  (1 + (k−1)/s) factor of "Repair Pipelining for Erasure-Coded
  Storage" with s = C/S slices.
* PPR (a slice-pipelined tree) is bound by its root's fan-in f:
  f·C/b + 2·S/b, with f = 2 at RS(6,3) and 3 at RS(10,4).

The residual allowed is the last slices' disk time, 2·S/disk_bw. These
oracles derive the time from the plan shape and capacities alone, not
from the allocator.
"""

import pytest

from repro.api import Testbed
from repro.experiments.config import ExperimentConfig

#: Fan-in of PPR's root for each code.
PPR_FAN_IN = {"RS(6,3)": 2, "RS(10,4)": 3}


def closed_form(algorithm, k, fan_in, chunk, slice_, link):
    if algorithm == "CR":
        return k * chunk / link
    if algorithm == "ECPipe":
        return chunk / link + (k - 1) * slice_ / link
    return fan_in * chunk / link + 2 * slice_ / link


@pytest.mark.parametrize("algorithm", ["CR", "ECPipe", "PPR"])
@pytest.mark.parametrize("slice_mb", [1, 4])
@pytest.mark.parametrize("code", ["RS(6,3)", "RS(10,4)"])
def test_idle_single_chunk_repair_time_matches_closed_form(code, slice_mb, algorithm):
    config = ExperimentConfig(
        code=code,
        chunk_mb=64,
        slice_mb=slice_mb,
        num_chunks=1,
        concurrency=1,
        link_gbps=10,
        disk_mbs=1e9,
        requests_per_client=None,
    )
    testbed = Testbed.build(config)
    report = testbed.fail_nodes(1)
    assert len(report.failed_chunks) == 1
    repairer = testbed.make_repairer(algorithm)
    repairer.repair(report.failed_chunks)
    testbed.run_until(lambda: repairer.done)

    meter = repairer.meter
    want = closed_form(
        algorithm,
        testbed.code.k,
        PPR_FAN_IN[code],
        config.chunk_size,
        config.slice_size,
        config.link_bw,
    )
    slack = 1e-9 * want + 2 * config.slice_size / config.disk_bw
    assert abs(meter.elapsed - want) <= slack
    assert meter.repaired_bytes == config.chunk_size
