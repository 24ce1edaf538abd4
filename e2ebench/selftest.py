#!/usr/bin/env python3
"""Self-test of the benchmark's own measurement (about three minutes).

Run from the repository root::

    python3 e2ebench/selftest.py

Traced runs of every workload must show that

- the wrappers are faithful: traced and untraced units render the
  recorded report digest and every pair took exactly one attempt (a
  wrapper that broke a call would make the runner retry, and the
  traced run would silently time the failure path);
- the exact counts repeat: prove calls, warm shortcuts, cache hits and
  certified pairs read the same for two seeds;
- each layer's expected zero shows: no proofs on ``table3-cold``, no
  presolve or HiGHS call on either workload's cache replay, no cache
  hit on a first pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: (workload, seed) pairs run traced, with the minimum run length.
CASES = (
    ("table3-warm", 1), ("table3-warm", 2), ("table3-cold", 1),
    ("service-2tenant", 1),
)


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("selftest: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import run as bench

    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    env = dict(os.environ, PYTHONPATH=src)
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    layers: dict = {}
    counts: dict = {}
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    for workload, seed in CASES:
        work = tempfile.mkdtemp(prefix="selftest-",
                                dir=os.path.join(HERE, "_work"))
        try:
            run = bench.run_workload(workload, seed, 0.0, True, baseline,
                                     work, env)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        case = f"{workload} seed {seed}"
        for error in run.errors:
            print(f"      {error}")
        check(not run.errors and run.failed == 0,
              f"{case}: traced and untraced units pass every output check")
        metrics = bench.per_layer(run)
        check(metrics["exec.attempts_per_pair"] == 1.0
              and metrics["replay.exec.attempts_per_pair"] == 1.0,
              f"{case}: exec.attempts_per_pair == 1")
        layers[(workload, seed)] = metrics
        counts[(workload, seed)] = {
            phase: {key: run.phases[phase][0]["counts"][key]
                    for key in bench.EXACT_COUNTS}
            for phase in ("first", "replay")
        }

    warm1, warm2 = layers[("table3-warm", 1)], layers[("table3-warm", 2)]
    check(warm1["prove.calls"] == warm2["prove.calls"] > 0,
          "table3-warm: prove.calls repeats across seeds")
    check(counts[("table3-warm", 1)] == counts[("table3-warm", 2)],
          "table3-warm: warm shortcuts, cache hits and certified pairs "
          "repeat across seeds")
    check(warm1["warm.shortcut_ratio"] > 0,
          "table3-warm: followers take warm shortcuts")
    check(warm1["cache.hit_ratio"] == 0.0
          and warm1["replay.cache.hit_ratio"] == 1.0
          and warm1["replay.cache.put.calls"] == 0,
          "table3-warm: the replay answers every solved pair from the cache")
    check(warm1["replay.highs.calls"] == 0
          and warm1["replay.presolve.calls"] == 0,
          "table3-warm: no HiGHS or presolve call on the replay")
    check(warm1["replay.warm.shortcut_ratio"] == warm1["warm.shortcut_ratio"],
          "table3-warm: the replay takes the same warm shortcuts")
    check(warm1["journal.calls"] == warm1["replay.journal.calls"] > 0,
          "table3-warm: both passes journal every pair")

    cold = layers[("table3-cold", 1)]
    check(cold["prove.calls"] == 0 and cold["replay.prove.calls"] == 0,
          "table3-cold: prove.calls == 0")
    check(cold["highs.calls"] > 0 and cold["replay.highs.calls"] == 0
          and cold["replay.presolve.calls"] == 0,
          "table3-cold: HiGHS and presolve run on the first pass only")
    check(cold["cache.hit_ratio"] == 0.0
          and cold["replay.cache.hit_ratio"] == 1.0,
          "table3-cold: the replay answers every lookup from the cache")

    service = layers[("service-2tenant", 1)]
    check(service["cache.hit_ratio"] == 0.0
          and service["replay.cache.hit_ratio"] == 1.0,
          "service-2tenant: tenant b replays tenant a's solves")
    check(service["service.run_s"] > 0 and service["replay.service.run_s"] > 0,
          "service-2tenant: client-side phase times recorded")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
