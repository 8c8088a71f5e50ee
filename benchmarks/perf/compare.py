"""Compare two result documents written by run.py: ``compare.py A.json B.json``.

Prints, per workload and end-to-end metric, both medians with quartiles
and n, and exits non-zero when B is worse than A:

* a *host* metric's median worsened by more than its bound (``HOST_BOUNDS``);
* any ``sim_*`` value or the ``sim_digest`` differs at all (rel 1e-9) — the
  two documents must come from the same seed, and a change that only
  speeds the simulator up may not move a simulated result;
* ``ops_failed / ops_attempted`` rose.

A host metric whose quartile ranges are wider than its bound is marked
``unresolved``: the medians are within the bound but the runs cannot show
it. That is reported, not failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Share of A's median by which a host metric (all lower-is-better) may
#: worsen. Two documents of the same seed with five repetitions each
#: resolve this; BENCHMARK.json's bounds are wider because its driver
#: compares runs across ten different seeds on a busier box.
HOST_BOUNDS = {"wall_s": 0.10, "setup_s": 0.15, "peak_rss_mb": 0.10}
SIM_REL_TOL = 1e-9


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], list[str]]:
    """(table lines, failures) for two result documents."""
    lines, failures = [], []
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            failures.append(f"{name}: missing from B")
            continue
        if a["seed"] != b["seed"] or a["sizes"] != b["sizes"]:
            failures.append(f"{name}: seeds or sizes differ; the documents are not comparable")
            continue
        lines.append(f"== {name} (seed {a['seed']})")
        for metric, ma in a.get("end_to_end", {}).items():
            mb = b.get("end_to_end", {}).get(metric)
            if mb is None:
                failures.append(f"{name}.{metric}: missing from B")
                continue
            verdict = "ok"
            if ma["clock"] == "sim":
                if not math.isclose(ma["median"], mb["median"], rel_tol=SIM_REL_TOL, abs_tol=0.0):
                    verdict = "SIM RESULT CHANGED"
                    failures.append(f"{name}.{metric}: {ma['median']!r} -> {mb['median']!r}")
            else:
                bound = HOST_BOUNDS[metric]
                worse = (mb["median"] - ma["median"]) / ma["median"]
                noise = max(m["q3"] - m["q1"] for m in (ma, mb)) / ma["median"]
                if worse > bound:
                    verdict = f"WORSE by {worse:.1%} (bound {bound:.0%})"
                    failures.append(f"{name}.{metric}: {verdict}")
                elif noise > bound:
                    verdict = f"unresolved (quartile range {noise:.1%} > bound {bound:.0%})"
                else:
                    verdict = f"{worse:+.1%} (bound {bound:.0%})"
            lines.append(
                f"   {metric:<20} {ma['unit']:<5} [{ma['clock']:<4}] "
                f"A {ma['median']:.6g} ({ma['q1']:.6g}..{ma['q3']:.6g}, n={ma['n']})  "
                f"B {mb['median']:.6g} ({mb['q1']:.6g}..{mb['q3']:.6g}, n={mb['n']})  {verdict}"
            )
        if a["sim_digest"] != b["sim_digest"]:
            failures.append(f"{name}: sim_digest {a['sim_digest'][:16]} -> {b['sim_digest'][:16]}")
        rate_a = a["ops_failed"] / a["ops_attempted"]
        rate_b = b["ops_failed"] / b["ops_attempted"]
        lines.append(f"   ops failed/attempted  A {a['ops_failed']}/{a['ops_attempted']}  "
                     f"B {b['ops_failed']}/{b['ops_attempted']}")
        if rate_b > rate_a:
            failures.append(f"{name}: failed-op rate rose {rate_a:.3g} -> {rate_b:.3g}")
    return lines, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="baseline result document")
    ap.add_argument("b", type=Path, help="candidate result document")
    args = ap.parse_args(argv)
    doc_a = json.loads(args.a.read_text(encoding="utf-8"))
    doc_b = json.loads(args.b.read_text(encoding="utf-8"))
    lines, failures = compare(doc_a, doc_b)
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
