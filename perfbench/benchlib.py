"""Metrics, statistics and correctness checks of the perfbench benchmark.

The C++ driver (perfbench/driver) prints raw samples for one workload;
this module turns them into the benchmark's named metrics and decides
whether the program's outputs were correct. Pure functions only, so the
unit tests in perfbench/tests exercise them without building anything.
"""

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# name -> unit; the order is the print order.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "sim_s_per_wall_s": "s/s",
    "peak_rss_mb": "MB",
    "converged_frac": "ratio",
    "converge_s": "s",
    "placed_nodes": "count",
    "msgs_per_placement": "frames/node",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.dispatch_ns": "ns",
    "sim.dispatch_share": "ratio",
    "radio.tx": "count",
    "radio.rx": "count",
    "radio.dropped": "count",
    "radio.collisions": "count",
    "radio.useful_rx_ratio": "ratio",
    "radio.deliver_ns": "ns",
    "radio.share": "ratio",
    "liveness.observes": "count",
    "liveness.observe_ns": "ns",
    "liveness.share": "ratio",
    "arq.sent": "count",
    "arq.retx": "count",
    "arq.acks": "count",
    "arq.gave_up": "count",
    "arq.dup_drops": "count",
    "arq.queued": "count",
    "arq.retx_ratio": "ratio",
    "arq.send_ns": "ns",
    "arq.share": "ratio",
    "dataplane.forwarded": "count",
    "dataplane.no_route_drops": "count",
    "dataplane.ttl_drops": "count",
    "dataplane.duplicates": "count",
    "coverage.discs": "count",
    "coverage.polls": "count",
    "coverage.choices": "count",
    "coverage.disc_ns": "ns",
    "coverage.poll_ns": "ns",
    "coverage.choose_ns": "ns",
    "coverage.share": "ratio",
    "telemetry.events": "count",
    "telemetry.bytes": "B",
    "telemetry.publish_ns.jsonl": "ns",
    "telemetry.publish_ns.dtlm": "ns",
    "telemetry.publish_ns.otlp": "ns",
    "telemetry.publish_ns.record": "ns",
    "telemetry.share": "ratio",
    "setup.points_s": "s",
    "setup.index_s": "s",
    "protocol.placements": "count",
    "protocol.seeded": "count",
    "protocol.unattributed_share": "ratio",
    "trace.overhead_frac": "ratio",
    # End-to-end quantities that are 0 on workloads without the phase or
    # the data plane, so they cannot be bounded end-to-end metrics.
    "restore_s": "s",
    "goodput_Bps": "B/s",
    "delivery_ratio": "ratio",
}

SHARES = ("sim.dispatch_share", "radio.share", "liveness.share", "arq.share",
          "coverage.share", "telemetry.share")

# Time of the driver's host-speed probe on an idle vCPU of the host the
# benchmark was tuned on (Xeon, 2.1 GHz). On a shared host it runs up to
# about 1.8x slower, in bursts of seconds to minutes, and timings are
# divided by that slowdown.
PROBE_NOMINAL_S = 0.0005

# Fewer probes than this in one case: use the run's overall slowdown.
MIN_CASE_PROBES = 3

# Counts that must repeat exactly for one sub-seed.
WITNESSES = ("placed", "tx", "events")


def valid_name(name):
    """True when `name` may label a metric or workload."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def quartiles(values):
    """(q1, median, q3) of `values` as statistics.quantiles(n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def trimmed_mean(values, cut=0.2):
    """Mean of `values` without the lowest and highest `cut` share: robust
    to the rare stalled or budget-cut case, steadier than the median."""
    values = sorted(values)
    k = int(len(values) * cut)
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


def _ratio(num, den):
    return num / den if den else 0.0


def _by_seed(cases):
    seeds = {}
    for c in cases:
        seeds.setdefault(c["subseed"], []).append(c)
    return seeds


def check_cases(cases):
    """Correctness problems in a list of case records: a coverage verdict
    the independent recount contradicts, a determinism witness that
    differs between repetitions of one sub-seed, or impossible counts.
    Returns (failed case count, list of messages)."""
    bad = set()
    problems = []
    for i, c in enumerate(cases):
        for p in c["phases"]:
            if not p["proof_ok"]:
                bad.add(i)
                problems.append(
                    f"sub-seed {c['subseed']}: {p['proof_detail']}")
        if c["delivered"] > c["originated"]:
            bad.add(i)
            problems.append(f"sub-seed {c['subseed']}: delivered "
                            f"{c['delivered']} > originated {c['originated']}")
        if c["events"] <= 0 or c["wall_s"] <= 0:
            bad.add(i)
            problems.append(f"sub-seed {c['subseed']}: empty run")
    index = {id(c): i for i, c in enumerate(cases)}
    for seed, group in _by_seed(cases).items():
        for key in WITNESSES:
            if len({c[key] for c in group}) > 1:
                bad.update(index[id(c)] for c in group
                           if c[key] != group[0][key])
                problems.append(f"sub-seed {seed}: {key} differs between "
                                f"repetitions {[c[key] for c in group]}")
    return len(bad), problems


def host_slowdown(probes):
    """How much slower than nominal the host ran while `probes` (probe
    durations, in seconds) were taken."""
    return statistics.median(probes) / PROBE_NOMINAL_S if probes else 1.0


def _probe_free(case):
    return case["wall_s"] - case.get("probe_s", 0.0)


def calibrated_wall(case, fallback_slowdown):
    """A case's wall seconds without its probes, over the host slowdown
    its own probes saw (`fallback_slowdown` when it took too few)."""
    probes = case.get("probes", [])
    slow = (host_slowdown(probes) if len(probes) >= MIN_CASE_PROBES
            else fallback_slowdown)
    return _probe_free(case) / slow


def run_slowdown(doc):
    """Host slowdown over every probe of the run."""
    return host_slowdown(
        [p for c in doc["cases"] for p in c.get("probes", [])])


def end_to_end(doc, calibrate=True):
    """End-to-end metric values of one untraced run document. Timings are
    in calibrated seconds (see calibrated_wall) unless `calibrate` is
    false."""
    cases = doc["cases"]
    distinct = cases[:doc["distinct_cases"]]
    slow = run_slowdown(doc) if calibrate else 1.0
    walls = {seed: statistics.median(
                 calibrated_wall(c, slow) if calibrate else _probe_free(c)
                 for c in group)
             for seed, group in _by_seed(cases).items()}
    wall_total = sum(walls[c["subseed"]] for c in distinct)
    # A case cut by the driver's event budget converged nowhere.
    phases = [dict(p, covered=p["covered"] and not c["cut"])
              for c in distinct for p in c["phases"]]
    deploys = [p["duration_s"] for p in phases
               if p["kind"] == "deploy" and p["covered"]]
    placed = sum(c["placed"] for c in distinct)
    return {
        "wall_s": trimmed_mean([walls[c["subseed"]] for c in distinct]),
        "setup_s": statistics.median(s["s"] for s in doc["setups"]) / slow,
        "events_per_s": _ratio(sum(c["events"] for c in distinct),
                               wall_total),
        "sim_s_per_wall_s": _ratio(sum(c["sim_s"] for c in distinct),
                                   wall_total),
        "peak_rss_mb": peak_rss_mb(doc),
        "converged_frac": _ratio(sum(p["covered"] for p in phases),
                                 len(phases)),
        "converge_s": statistics.mean(deploys) if deploys else 0.0,
        "placed_nodes": placed / len(distinct),
        "msgs_per_placement": _ratio(sum(c["tx"] for c in distinct), placed),
    }


def peak_rss_mb(doc):
    """Median over the run's distinct cases of each case's peak resident
    memory, measured in its own window. A case cut by the event budget is
    left out: converged_frac reports its storm, and its memory would
    swamp the figure. Falls back to the process peak when no window was
    measured."""
    cases = doc["cases"][:doc["distinct_cases"]]
    peaks = [c["peak_rss_mb"] for c in cases
             if not c["cut"] and c.get("peak_rss_mb", 0.0) > 0]
    return statistics.median(peaks) if peaks else doc["peak_rss_mb"]


def phase_metrics(case):
    restores = [p["duration_s"] for p in case["phases"]
                if p["kind"] == "restore" and p["covered"]]
    return {
        "restore_s": statistics.mean(restores) if restores else 0.0,
        "goodput_Bps": _ratio(case["bytes"], case["end_time_s"]),
        "delivery_ratio": _ratio(case["delivered"], case["originated"]),
    }


def per_layer(doc):
    """Per-layer metric values of one traced document. Each share is the
    layer's operation count times its probed cost over the untraced wall
    time; whatever no layer claims is the protocol logic's."""
    wall = statistics.median(_probe_free(c) for c in doc["untraced"])
    t = doc["traced"]
    p = doc["probes"]
    tel = doc["telemetry"]
    ns = 1e-9 / wall
    radio_ops = t["rx"] + t["dropped"] + t["collisions"]
    m = {
        "sim.events": t["events"],
        "sim.dispatch_ns": p["dispatch_ns"],
        "sim.dispatch_share": t["events"] * p["dispatch_ns"] * ns,
        "radio.tx": t["tx"],
        "radio.rx": t["rx"],
        "radio.dropped": t["dropped"],
        "radio.collisions": t["collisions"],
        "radio.useful_rx_ratio": _ratio(t["rx"], radio_ops),
        "radio.deliver_ns": p["deliver_ns"],
        "radio.share": radio_ops * p["deliver_ns"] * ns,
        "liveness.observes": doc["liveness_observes"],
        "liveness.observe_ns": p["observe_ns"],
        "liveness.share": doc["liveness_observes"] * p["observe_ns"] * ns,
        "arq.sent": t["arq_sent"],
        "arq.retx": t["arq_retx"],
        "arq.acks": t["arq_acks"],
        "arq.gave_up": t["arq_gave_up"],
        "arq.dup_drops": t["arq_dup_drops"],
        "arq.queued": t["arq_queued"],
        "arq.retx_ratio": _ratio(t["arq_retx"], t["arq_sent"]),
        "arq.send_ns": p["arq_ns"],
        "arq.share": (t["arq_sent"] + t["arq_retx"]) * p["arq_ns"] * ns,
        "dataplane.forwarded": t["dp_forwarded"],
        "dataplane.no_route_drops": t["dp_no_route_drops"],
        "dataplane.ttl_drops": t["dp_ttl_drops"],
        "dataplane.duplicates": t["dp_duplicates"],
        "coverage.discs": t["discs"],
        "coverage.polls": t["polls"],
        "coverage.choices": t["choices"],
        "coverage.disc_ns": p["disc_ns"],
        "coverage.poll_ns": p["poll_ns"],
        "coverage.choose_ns": p["choose_ns"],
        "coverage.share": (t["discs"] * p["disc_ns"]
                           + t["polls"] * p["poll_ns"]
                           + t["choices"] * p["choose_ns"]) * ns,
        "telemetry.events": tel["events"],
        "telemetry.bytes": tel["bytes"],
        "telemetry.publish_ns.jsonl": tel["jsonl_ns"],
        "telemetry.publish_ns.dtlm": tel["dtlm_ns"],
        "telemetry.publish_ns.otlp": tel["otlp_ns"],
        "telemetry.publish_ns.record": tel["record_ns"],
        "telemetry.share": (tel["jsonl_events"] * tel["jsonl_ns"]
                            + tel["dtlm_events"] * tel["dtlm_ns"]
                            + tel["otlp_events"] * tel["otlp_ns"]
                            + tel["record_events"] * tel["record_ns"]) * ns,
        "setup.points_s": p["points_s"],
        "setup.index_s": p["index_s"],
        "protocol.placements": t["placed"],
        "protocol.seeded": t["seeded"],
        "trace.overhead_frac": _probe_free(t) / wall - 1.0,
    }
    m["protocol.unattributed_share"] = 1.0 - sum(m[s] for s in SHARES)
    m.update(phase_metrics(t))
    return m


def result_line(correct, attempted, failed, values, units):
    """The benchmark's final stdout line."""
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def validate_benchmark(spec):
    """Problems with a BENCHMARK.json document (names, units, bounds)."""
    problems = []
    names = [w["name"] for w in spec.get("workloads", [])]
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            names.append(m["name"])
            if not valid_unit(m["unit"]):
                problems.append(f"bad unit {m['unit']!r} of {m['name']}")
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"bad direction of {m['name']}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    for n in names:
        if not valid_name(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    return problems
