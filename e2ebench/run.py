#!/usr/bin/env python3
"""End-to-end Δcost benchmark: a warm sweep and a two-tenant service
experiment, each with a cache replay, plus a cold sweep run on demand.

Run from the repository root::

    python3 e2ebench/run.py --workload table3-warm --seed 1 --seconds 40 --trace 0

Every run renders each pass's Δcost report as ``repro evaluate
--no-audit`` prints it and fails the output check unless its sha256
equals the digest recorded in ``e2ebench/baseline.json``.  The last line
of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  ``--workload all`` runs the three
workloads one after another, each in its own process and ending with
its own JSON line; ``BENCHMARK.json`` lists the two that fit the
regression check's time budget (``table3-cold`` runs only on demand).
NOTES.md explains the workloads, the metrics and the layer-to-metric
map.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table3-warm", "table3-cold", "service-2tenant")
#: First-pass pair intervals a run collects at least, so that ten or
#: more lie beyond p90.
MIN_PAIR_SAMPLES = 100
#: Units (first pass + replays) a run measures at least.
MIN_UNITS = 2
#: Cache-replay passes per cold unit.
COLD_REPLAYS = 2
#: Cache-replay passes per warm unit.
WARM_REPLAYS = 1
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Reference slices run just before and just after each set-up process.
SETUP_SLICES = 25
#: While the benchmark waits on another process, a reference slice runs
#: at most this often (a slice takes a few milliseconds).
SLICE_PERIOD_S = 0.1
#: A run starts no unit that, at its mean unit time so far, would end
#: after this many seconds (a run must end within 180 s).
HARD_STOP_S = 120.0
POLL_S = 0.02
SERVE_WORKERS = 2
FAILED_STATUSES = ("error", "timeout")


# -- helpers ----------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """User plus sys CPU of this process and every reaped descendant."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def scaled_cpu(run: "Run", cpu0: float, mark) -> float:
    """CPU seconds since ``cpu0``, less the reference slices run since
    ``mark`` and scaled by the speed they measured."""
    cpu = cpu_seconds() - cpu0
    if run.reference is None:
        return cpu
    return ((cpu - run.reference.cpu_since(mark))
            * run.reference.speed_since(mark))


def quantile_ms(samples_s: list, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of seconds, in ms.

    A beta-weighted mean of all order statistics.  Pair latencies are
    clustered (warm shortcuts, cold solves), and a plain sample
    quantile that falls in a gap between clusters jumps with the
    timing of one or two pairs; this estimator does not.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(samples_s, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x) * 1000.0


def record_failed(record: dict) -> bool:
    return record["status"] in FAILED_STATUSES or (
        record["quarantined"] and not record["healed"]
    )


def pair_counts(records: list, baseline_rule: str) -> dict:
    """Exact per-pass counts, plus the records' own layer sums."""
    followers = [r for r in records if r["rule"] != baseline_rule]
    warm = sum(1 for r in records if r["warm_used"])
    certified = sum(1 for r in records if r["certified"])
    return {
        "pairs": len(records),
        "failed": sum(1 for r in records if record_failed(r)),
        "attempts": sum(r["attempts"] for r in records),
        "followers": len(followers),
        "warm": sum(1 for r in followers if r["warm_used"]),
        "certified": certified,
        # Warm shortcuts and certified pairs never reach the cache.
        "cache_lookups": len(records) - warm - certified,
        "cache_hits": sum(1 for r in records if r["cache_hit"]),
        "nnz_removed": sum(r["presolve_nnz_removed"] for r in records),
        "build_s": sum(r["build_seconds"] for r in records),
        "presolve_s": sum(r["presolve_seconds"] for r in records),
        "serialize_s": sum(r["serialize_seconds"] for r in records),
        "solve_s": sum(r["solve_seconds"] for r in records),
    }


def pairs_text(records: list, clip_index: dict) -> str:
    """Status and cost of every (clip position, rule) pair: a finer
    output check than the report, and free of the seed's names."""
    lines = sorted(
        f"{clip_index[r['clip']]} {r['rule']} {r['status']} "
        f"{None if r['cost'] is None else round(r['cost'], 4)}"
        for r in records
    )
    return "\n".join(lines) + "\n"


#: Counts that must read the same in every unit of a run (and, being
#: functions of the geometry only, for every seed).
EXACT_COUNTS = ("pairs", "warm", "certified", "cache_hits")


class Run:
    """Everything one benchmark run measures."""

    def __init__(self, workload: str, baseline: dict, clip_names: list):
        self.workload = workload
        self.baseline = baseline
        self.clip_index = {name: i for i, name in enumerate(clip_names)}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        self.start: list[float] = []
        self.first: list[float] = []
        self.replay: list[float] = []
        self.traced_first: list[float] = []
        self.pair_s: list[float] = []
        self.unit_cpu: list[float] = []
        self.peak_rss_mb = 0.0
        #: phase -> one dict per pass (counts, spans, service times)
        self.phases: dict[str, list[dict]] = {"first": [], "replay": []}
        self.clips_spans: dict = {}
        self.wall_traced = 0.0
        self.accounted = 0.0
        #: Interleaved host-speed reference (None in traced runs, which
        #: report unscaled layer times), and (phase, unscaled seconds,
        #: speed) of every timed pass.
        self.reference: Reference | None = None
        self.scaled: list[tuple[str, float, float]] = []

    def check_digest(self, label: str, kind: str, text: str) -> None:
        got = digest(text)
        if got != self.baseline[kind]:
            self.errors.append(
                f"{label}: {kind} {got[:16]} != recorded "
                f"{self.baseline[kind][:16]}"
            )

    def add_pass(self, label: str, phase: str, records: list,
                 extra: dict) -> None:
        """Check one pass's records and keep its counts."""
        self.check_digest(label, "pairs_sha256", pairs_text(
            records, self.clip_index))
        counts = pair_counts(records, "RULE1")
        self.attempted += counts["pairs"]
        self.failed += counts["failed"]
        if counts["attempts"] != counts["pairs"]:
            self.errors.append(
                f"{phase}: {counts['attempts']} attempts for "
                f"{counts['pairs']} pairs (a retried pair measures the "
                "failure path)"
            )
        entry = {"counts": counts, **extra}
        previous = self.phases[phase]
        if previous:
            for key in EXACT_COUNTS:
                if previous[0]["counts"][key] != counts[key]:
                    self.errors.append(
                        f"{phase}: {key} {counts[key]} differs from the "
                        f"first unit's {previous[0]['counts'][key]}"
                    )
        previous.append(entry)


# -- set-up -----------------------------------------------------------------


def setup_probe(seed: int) -> int:
    """Child side of ``setup_s``: import, generate, select, serialize,
    and hand the clip set to the parent on stdout."""
    import inputs

    from repro.eval import EvalConfig, evaluate_clips  # noqa: F401

    inputs.rules()
    json.dump(inputs.clip_set(seed), sys.stdout)
    return 0


def time_setup(seed: int, env: dict,
               reference: Reference) -> tuple[list[float], list[dict]]:
    """Wall times of fresh set-up processes, from outside and scaled by
    the reference slices run right before and after each, and the clip
    set they generated.  The parent imports nothing of ``repro`` here,
    so a server it starts later inherits no large resident set into
    ``RUSAGE_CHILDREN``'s peak."""
    walls, outputs = [], []
    for _ in range(SETUP_PROBES):
        mark = reference.mark()
        for _ in range(SETUP_SLICES):
            reference.slice()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--seed", str(seed)],
            env=env, check=True, timeout=60, stdout=subprocess.PIPE,
        )
        wall = time.perf_counter() - t0
        for _ in range(SETUP_SLICES):
            reference.slice()
        walls.append(wall * reference.speed_since(mark))
        outputs.append(done.stdout)
    if len(set(outputs)) != 1:
        raise RuntimeError("set-up processes generated different clip sets")
    return walls, json.loads(outputs[0])


# -- sweep workloads --------------------------------------------------------


def sweep_unit(run: Run, kind: str, clip_dicts, work: str, index: int,
               tracer=None) -> None:
    """One unit: the first pass, then the replay passes, all sharing a
    fresh solve cache.

    ``table3-warm``: ``EvalConfig()`` with the solve cache and a fresh
    checkpoint journal per pass (``repro evaluate --checkpoint J
    --solve-cache D``); a replay answers every solved pair from the
    cache and proves the warm shortcuts again.  ``table3-cold``:
    ``EvalConfig(incremental=False)``; a replay answers every pair from
    the cache.
    """
    import inputs
    from repro.clips.serialization import clip_from_dict
    from repro.eval import EvalConfig, evaluate_clips, outcome_to_record

    from tracer import installed

    rules = inputs.rules()
    cache_dir = os.path.join(work, f"cache-{index}")
    if kind == "table3-warm":
        config = EvalConfig(solve_cache_dir=cache_dir)
        replays = WARM_REPLAYS
    else:
        config = EvalConfig(incremental=False, solve_cache_dir=cache_dir)
        replays = COLD_REPLAYS

    def pass_kwargs(n: int) -> dict:
        if kind != "table3-warm":
            return {}
        return {"checkpoint_path": os.path.join(work, f"warm-{index}-{n}.jsonl")}

    reference = run.reference

    def one_pass(phase: str, kwargs: dict, pairs=None) -> float:
        """Time one ``evaluate_clips`` call; with ``pairs``, also collect
        each pair's latency: from the call's start or the previous
        callback's end until its ``on_outcome`` callback.  With the
        reference on, a slice runs inside every callback; the pass time
        and the latencies leave the slices out and are scaled by the
        speed they measured."""
        clips = [clip_from_dict(d) for d in clip_dicts]
        latencies: list[float] = []
        resumed = [0.0]

        def on_outcome(_outcome):
            now = time.perf_counter()
            latencies.append(now - resumed[0])
            if reference is not None:
                reference.slice()
            resumed[0] = time.perf_counter()

        mark = reference.mark() if reference is not None else None
        t0 = resumed[0] = time.perf_counter()
        if tracer is None:
            study = evaluate_clips(clips, rules, config, on_outcome=on_outcome,
                                   **kwargs)
        else:
            study = tracer.call("flow", evaluate_clips, (clips, rules, config),
                                dict(kwargs, on_outcome=on_outcome))
        wall = time.perf_counter() - t0
        if reference is not None:
            wall -= reference.wall_since(mark)
            speed = reference.speed_since(mark)
            run.scaled.append((phase, wall, speed))
            wall *= speed
            latencies = [x * speed for x in latencies]
        if pairs is not None:
            pairs.extend(latencies)
        label = f"{kind} {phase} pass"
        run.check_digest(label, "report_sha256", inputs.render(study))
        records = [
            outcome_to_record(outcome)
            for rule in study.rule_names
            for outcome in study.outcomes[rule]
        ]
        extra = {"wall": wall, "traced": tracer is not None}
        if tracer is not None:
            extra["spans"] = tracer.take()
            # Coverage: the share of the pass spent in a named layer
            # below the root (flow's own self time is the unnamed rest).
            run.wall_traced += wall
            run.accounted += sum(
                seconds for layer, seconds in extra["spans"]["self_s"].items()
                if layer != "flow"
            )
        run.add_pass(label, phase, records, extra)
        return wall

    pairs: list[float] = []
    cpu0 = cpu_seconds()
    mark = reference.mark() if reference is not None else None
    with installed(tracer) if tracer is not None else nullcontext():
        first = one_pass("first", pass_kwargs(0), pairs)
        replay = [one_pass("replay", pass_kwargs(n))
                  for n in range(1, replays + 1)]
    if tracer is None:
        run.first.append(first)
        run.replay.extend(replay)
        run.pair_s.extend(pairs)
        run.unit_cpu.append(scaled_cpu(run, cpu0, mark))
    else:
        run.traced_first.append(first)


# -- service workload -------------------------------------------------------


def http_call(port: int, method: str, path: str, body: bytes | None = None,
              headers: dict | None = None) -> tuple[int, bytes]:
    """One request on its own connection (the server closes after each
    response), read to the end."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def start_server(data_dir: str, env: dict, log,
                 reference: Reference | None) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` and wait until ``/healthz`` answers 200,
    running reference slices while waiting."""
    def wait(seconds: float) -> None:
        if reference is not None:
            reference.slice_every(SLICE_PERIOD_S)
        time.sleep(seconds)

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir", data_dir,
         "--port", "0", "--workers", str(SERVE_WORKERS)],
        env=env, stdout=subprocess.PIPE, stderr=log, text=True,
    )
    deadline = time.monotonic() + 60
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            if not sel.select(timeout=POLL_S):
                if time.monotonic() > deadline:
                    stop_server(proc)
                    raise RuntimeError(
                        "server printed no listening line in 60 s")
                wait(0.0)
                continue
            line = proc.stdout.readline()
            if not line:
                stop_server(proc)
                raise RuntimeError("server exited before listening")
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
    while True:
        try:
            status, _ = http_call(port, "GET", "/healthz")
        except OSError:
            status = 0
        if status == 200:
            return proc, port
        if time.monotonic() > deadline:
            stop_server(proc)
            raise RuntimeError("/healthz never answered 200")
        wait(POLL_S)


def stop_server(proc: subprocess.Popen) -> tuple[int, str]:
    """SIGTERM (graceful drain), wait, and collect the rest of stdout."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return proc.returncode, out or ""


def experiment(run: Run, port: int, tenant: str, body: bytes) -> dict:
    """POST, poll to DONE, GET the report: the closed-loop client.  A
    rejected submission or a failed experiment aborts the run.  With the
    reference on, slices run between polls; ``speed`` is what they
    measured (1.0 without)."""
    reference = run.reference
    headers = {"content-type": "application/json", "x-tenant": tenant}
    if reference is not None:
        mark = reference.mark()
        reference.slice()
    t0 = time.perf_counter()
    status, raw = http_call(port, "POST", "/v1/experiments", body, headers)
    t_ack = time.perf_counter()
    if status not in (200, 201):
        raise RuntimeError(f"tenant {tenant}: POST answered {status}: {raw!r}")
    exp_id = json.loads(raw)["id"]
    running_at = None
    while True:
        status, raw = http_call(port, "GET", f"/v1/experiments/{exp_id}")
        now = time.perf_counter()
        state = json.loads(raw)["state"] if status == 200 else "?"
        if state in ("RUNNING", "DEGRADED") and running_at is None:
            running_at = now
        if state == "DONE":
            done_at = now
            break
        if state in ("FAILED", "CANCELLED", "?") or now - t0 > HARD_STOP_S:
            raise RuntimeError(f"tenant {tenant}: experiment ended {state}")
        if reference is not None:
            reference.slice_every(SLICE_PERIOD_S)
        time.sleep(POLL_S)
    status, report = http_call(port, "GET", f"/v1/experiments/{exp_id}/report")
    t_end = time.perf_counter()
    if status != 200:
        raise RuntimeError(f"tenant {tenant}: report answered {status}")
    run.check_digest(f"service tenant {tenant}", "report_sha256",
                     report.decode("utf-8"))
    status, ndjson = http_call(port, "GET", f"/v1/experiments/{exp_id}/results")
    if status != 200:
        raise RuntimeError(f"tenant {tenant}: results answered {status}")
    records = [json.loads(line) for line in ndjson.decode().splitlines() if line]
    if running_at is None:  # queued and finished between two polls
        running_at = done_at
    speed = 1.0
    if reference is not None:
        speed = reference.speed_since(mark)
        run.scaled.append(("first" if tenant == "a" else "replay",
                           t_end - t0, speed))
    return {
        "wall": t_end - t0,
        "speed": speed,
        "records": records,
        "service": {
            "submit_ms": (t_ack - t0) * 1000.0,
            "queue_wait_s": running_at - t_ack,
            "run_s": done_at - running_at,
            "report_ms": (t_end - done_at) * 1000.0,
        },
    }


def service_unit(run: Run, body: bytes, work: str, index: int, env: dict,
                 traced: bool) -> None:
    """A fresh ``repro serve`` per unit: tenant ``a``, then tenant ``b``
    with the identical payload (a cross-tenant solve-cache replay)."""
    data_dir = os.path.join(work, f"svc-{index}")
    reference = run.reference
    cpu0 = cpu_seconds()
    mark = reference.mark() if reference is not None else None
    if reference is not None:
        reference.slice()
    t0 = time.perf_counter()
    with open(os.path.join(work, f"svc-{index}.log"), "w") as log:
        proc, port = start_server(data_dir, env, log, reference)
        start = time.perf_counter() - t0
        if reference is not None:
            start *= reference.speed_since(mark)
        try:
            a = experiment(run, port, "a", body)
            b = experiment(run, port, "b", body)
        finally:
            code, out = stop_server(proc)
    if code != 0 or "drain complete" not in out:
        run.errors.append(f"server exited {code} without a clean drain")
    for phase, result in (("first", a), ("replay", b)):
        extra = {"wall": result["wall"], "traced": traced,
                 "service": result["service"]}
        run.add_pass(f"service {phase} tenant", phase, result["records"],
                     extra)
    if traced:
        # Coverage: tenant a's per-pair layer time from its records (the
        # replay's records carry the cached solves' original times).
        counts = run.phases["first"][-1]["counts"]
        run.wall_traced += a["wall"]
        run.accounted += sum(
            counts[key] for key in ("build_s", "presolve_s", "serialize_s",
                                    "solve_s"))
        run.traced_first.append(a["wall"])
        return
    run.start.append(start)
    run.first.append(a["wall"] * a["speed"])
    run.replay.append(b["wall"] * b["speed"])
    run.pair_s.extend(
        a["speed"] * sum(step["seconds"] for step in r["attempt_log"])
        for r in a["records"]
    )
    run.unit_cpu.append(scaled_cpu(run, cpu0, mark))


# -- metrics ----------------------------------------------------------------

#: End-to-end metrics (``--trace 0``) with their units.
END_TO_END = (
    ("setup_s", "s"), ("sweep_s", "s"), ("replay_s", "s"),
    ("pair_p50_ms", "ms"), ("pair_p90_ms", "ms"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
RATIOS = ("certify.hit_ratio", "prove.hold_ratio", "warm.shortcut_ratio",
          "cache.hit_ratio", "exec.attempts_per_pair")
SUMS = (("presolve.nnz_removed", "nnz_removed", "count"),
        ("records.build_s", "build_s", "s"),
        ("records.presolve_s", "presolve_s", "s"),
        ("records.serialize_s", "serialize_s", "s"),
        ("records.solve_s", "solve_s", "s"))
SERVICE = (("service.submit_ms", "ms"), ("service.queue_wait_s", "s"),
           ("service.run_s", "s"), ("service.report_ms", "ms"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    from tracer import PASS_LAYERS

    names = [("clips.calls", "count"), ("clips.self_s", "s")]
    for prefix in ("", "replay."):
        for layer in PASS_LAYERS:
            names += [(f"{prefix}{layer}.calls", "count"),
                      (f"{prefix}{layer}.self_s", "s")]
        names += [(f"{prefix}{name}", "ratio") for name in RATIOS]
        names += [(f"{prefix}{name}", unit) for name, _, unit in SUMS]
        names += [(f"{prefix}{name}", unit) for name, unit in SERVICE]
    return names + [("coverage", "ratio"), ("trace_overhead", "ratio")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(run: Run) -> dict:
    setup = statistics.median(run.setup)
    if run.start:  # the service's start-until-/healthz, per unit
        setup += statistics.median(run.start)
    return {
        "setup_s": setup,
        "sweep_s": statistics.median(run.first),
        "replay_s": statistics.median(run.replay),
        "pair_p50_ms": quantile_ms(run.pair_s, 0.5),
        "pair_p90_ms": quantile_ms(run.pair_s, 0.9),
        "cpu_s": statistics.median(run.unit_cpu),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict:
    """Means per traced pass of each phase ("first" and "replay")."""
    from tracer import PASS_LAYERS

    out = {
        "clips.calls": run.clips_spans.get("calls", {}).get("clips", 0),
        "clips.self_s": run.clips_spans.get("self_s", {}).get("clips", 0.0),
    }
    for phase, prefix in (("first", ""), ("replay", "replay.")):
        traced = [e for e in run.phases[phase] if e["traced"]]
        n = len(traced)
        calls, self_s, hits, counts, service = {}, {}, {}, {}, {}
        for entry in traced:
            spans = entry.get("spans", {})
            for key, into in (("calls", calls), ("self_s", self_s),
                              ("hits", hits)):
                for layer, value in spans.get(key, {}).items():
                    into[layer] = into.get(layer, 0) + value
            for key, value in entry["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, value in entry.get("service", {}).items():
                service[key] = service.get(key, 0.0) + value
        for layer in PASS_LAYERS:
            out[f"{prefix}{layer}.calls"] = _ratio(calls.get(layer, 0), n)
            out[f"{prefix}{layer}.self_s"] = _ratio(self_s.get(layer, 0.0), n)
        out[f"{prefix}certify.hit_ratio"] = _ratio(
            hits.get("certify", 0), calls.get("certify", 0))
        out[f"{prefix}prove.hold_ratio"] = _ratio(
            hits.get("prove", 0), calls.get("prove", 0))
        out[f"{prefix}warm.shortcut_ratio"] = _ratio(
            counts.get("warm", 0), counts.get("followers", 0))
        out[f"{prefix}cache.hit_ratio"] = _ratio(
            counts.get("cache_hits", 0), counts.get("cache_lookups", 0))
        out[f"{prefix}exec.attempts_per_pair"] = _ratio(
            counts.get("attempts", 0), counts.get("pairs", 0))
        for name, key, _unit in SUMS:
            out[f"{prefix}{name}"] = _ratio(counts.get(key, 0), n)
        for name, _unit in SERVICE:
            out[f"{prefix}{name}"] = _ratio(
                service.get(name.split(".", 1)[1], 0.0), n)
    out["coverage"] = _ratio(run.accounted, run.wall_traced)
    untraced = [e["wall"] for e in run.phases["first"] if not e["traced"]]
    out["trace_overhead"] = _ratio(
        statistics.median(run.traced_first), statistics.median(untraced))
    return out


# -- entry point ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 baseline: dict, work: str, env: dict) -> Run:
    """Measure ``workload`` for at least ``seconds``.

    Untraced, units repeat until the window has passed, at least
    :data:`MIN_UNITS` units ran and :data:`MIN_PAIR_SAMPLES` first-pass
    pairs were timed.  Traced, units alternate untraced / traced (so
    drift cannot bias ``trace_overhead``) until the window has passed
    and one of each ran.
    """
    import inputs

    from tracer import Tracer, installed

    tracer = reference = None
    if trace:
        # The traced run generates the clip set in-process: the clips layer.
        tracer = Tracer()
        with installed(tracer):
            clip_dicts = inputs.clip_set(seed)
        setup = []
    else:
        reference = Reference()
        setup, clip_dicts = time_setup(seed, env, reference)
    run = Run(workload, baseline, [c["name"] for c in clip_dicts])
    run.setup = setup
    run.reference = reference
    if tracer is not None:
        run.clips_spans = tracer.take()
    body = json.dumps({"version": 1, "tech": inputs.TECH, "clips": clip_dicts,
                       "time_limit": 60.0}).encode("utf-8")

    t_begin = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - t_begin
        if trace:
            done = elapsed >= seconds and index >= 2 and index % 2 == 0
        else:
            done = (elapsed >= seconds and index >= MIN_UNITS
                    and len(run.pair_s) >= MIN_PAIR_SAMPLES)
        if done or (index and elapsed * (index + 1) / index > HARD_STOP_S):
            break
        traced_unit = trace and index % 2 == 1
        if workload == "service-2tenant":
            service_unit(run, body, work, index, env, traced_unit)
        else:
            sweep_unit(run, workload, clip_dicts, work, index,
                       tracer if traced_unit else None)
        index += 1
    who = (resource.RUSAGE_CHILDREN if workload == "service-2tenant"
           else resource.RUSAGE_SELF)
    run.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if not trace and len(run.pair_s) < MIN_PAIR_SAMPLES:
        run.errors.append(
            f"only {len(run.pair_s)} pair samples before the hard stop")
    return run


def human_lines(run: Run, metrics: dict, trace: bool) -> list[str]:
    """The metrics by name and unit, plus the service's names for
    ``sweep_s`` / ``replay_s`` and ``failed_frac``."""
    lines = [f"== {run.workload}"]
    if trace:
        units = dict(per_layer_names())
        return lines + [f"{name:34s} {value:14.6f} {units[name]}"
                        for name, value in metrics.items()]
    units = dict(END_TO_END)
    for name, value in metrics.items():
        lines.append(f"{name:34s} {value:14.6f} {units[name]}")
    service = run.workload == "service-2tenant"
    for alias, source in (("experiment_s", "sweep_s"),
                          ("experiment_replay_s", "replay_s")):
        shown = f"{metrics[source]:14.6f} s" if service else f"{'n/a':>14s}"
        lines.append(f"{alias:34s} {shown}")
    lines.append(f"{'failed_frac':34s} "
                 f"{_ratio(run.failed, run.attempted):14.6f} ratio")
    lines.append(f"samples: {len(run.first)} units, {len(run.replay)} replay "
                 f"passes, {len(run.pair_s)} pair latencies")
    lines.append(f"host speed: {run.reference.slices} reference slices; "
                 "each pass unscaled s @ speed:")
    for phase in ("first", "replay"):
        lines.append(f"  {phase:7s}" + "".join(
            f" {wall:.3f}@{speed:.3f}"
            for name, wall, speed in run.scaled if name == phase))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("e2ebench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    if args.setup_probe:
        return setup_probe(args.seed)
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    if args.workload == "all":
        # A process per workload, so no workload inherits another's
        # caches or resident set.
        code = 0
        for workload in WORKLOADS:
            code |= subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
            ).returncode
        return code

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    try:
        run = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), baseline, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print("\n".join(human_lines(run, metrics, bool(args.trace))))
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    units = dict(per_layer_names() if args.trace else END_TO_END)
    print(json.dumps({
        "correct": not run.errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
