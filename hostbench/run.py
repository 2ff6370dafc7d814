#!/usr/bin/env python3
"""Host-time benchmark of the mcdsm simulator.

Usage (from the repository root):

    python3 hostbench/run.py --workload scale512 --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --record            # rewrite hostbench/goldens.json

Builds hostbench/ (the simulator library plus the hostbench binary) into
.bench_build/hostbench on first use, then runs single-pass hostbench
processes for --seconds and prints the metrics by name with units. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json and --trace 1
the per-layer ones. "attempted" counts config runs checked against the
recorded goldens and "failed" those whose simulated digest differed, so
failed / attempted is the fail fraction. The simulated inputs are those
of --app-seed (default 1); --seed only names the run, so runs under
different --seed values measure the same input. See hostbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
GOLDENS = os.path.join(HERE, "goldens.json")
PROBE_FIT = os.path.join(HERE, "probe_fit.json")

# Golden digest fields; a checked run must reproduce all of them.
DIGEST_FIELDS = [
    "elapsed_ns", "messages", "net_bytes", "one_sided_bytes",
    "checksum_bits", "kv_service_digest", "kv_get_verify_failures",
    "check_findings",
]
# Record mode compares each parallel checksum with runSequential's at
# the tolerance tests/test_apps.cc uses (water merges forces in lock
# order, so its sum is only equal to a relative 1e-4).
CHECKSUM_REL_TOL = {"water": 1e-4}
DEFAULT_REL_TOL = 1e-9
# App seeds with goldens: the default seed and one held out, on which a
# claimed gain must also hold.
RECORD_SEEDS = [1, 2]
DEFAULT_APP_SEED = 1
# The workload whose traced run also measures the verification layer:
# one extra pass with all four analyses on. It is the fig5 grid, on
# which checker overhead is tracked; the analyses charge no virtual
# time, so that pass must reproduce the bare goldens exactly.
CHECK_LAYER_WORKLOAD = "fig5_p16"
DSM_SPAN_APPS = ["sor", "gauss", "kv", "water"]
DSM_SPAN_PROTOCOLS = ["csm_poll", "tmk_mc_poll"]
# End-to-end metrics scaled to the reference host speed, and whether a
# slower host makes each larger (+1) or smaller (-1).
SCALED = {"wall_s": 1, "setup_s": 1, "events_per_s": -1}
# --fit-probe groups rounds (one probe and pass per workload) into
# windows of 20-25 seconds, about the length of one run.
FIT_WINDOW_ROUNDS = 5
# A fit needs the host's speed to have varied: the slowest window's
# median probe must exceed the fastest's by this factor.
FIT_MIN_PROBE_RANGE = 1.15


class BenchError(Exception):
    """A failure that ends the run without a result line."""

    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {what} {path}: {e}", 2)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"), "BENCHMARK.json")


def build():
    """Configure (once) and build the hostbench binary; return its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "hostbench")


def commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def job(binary, args):
    """Run one hostbench (or hostprobe) process; return its JSON output."""
    cmd = [binary] + args
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}",
                         2 if p.returncode == 2 else 1)
    try:
        return json.loads(p.stdout)
    except ValueError as e:
        raise BenchError(f"{' '.join(cmd)}: bad output: {e}")


# ---- goldens ---------------------------------------------------------------

def load_goldens(path=GOLDENS):
    g = load_json(path, "goldens")
    seeds = g.get("seeds", {})
    if not seeds:
        raise BenchError(f"{path} holds no goldens; run --record", 2)
    return {int(s): v for s, v in seeds.items()}


def check_digests(configs, golden):
    """Compare each config's digest with its golden.

    Returns a list of failure messages, one per config run that failed;
    each names every field that differed.
    """
    failures = []
    for c in configs:
        want = golden.get(c["config"])
        if want is None:
            failures.append(f"{c['config']}: no golden recorded")
            continue
        got = c["digest"]
        bad = [f"{f} (got {got[f]}, golden {want.get(f)})"
               for f in DIGEST_FIELDS if got[f] != want.get(f)]
        if bad:
            failures.append(f"{c['config']}: " + ", ".join(bad))
    return failures


def record(binary, seeds):
    """Write goldens for every config at each seed, after checking each
    checksum against the sequential reference."""
    out = {"seeds": {}}
    problems = []
    for seed in seeds:
        golden = {}
        for w in [w["name"] for w in benchmark_spec()["workloads"]]:
            ref = job(binary, ["--workload", w, "--seed", str(seed),
                               "--reference"])["reference"]
            run = job(binary, ["--workload", w, "--seed", str(seed)])
            for c in run["configs"]:
                want = ref[c["app"]]["checksum"]
                got = c["digest"]["checksum"]
                tol = CHECKSUM_REL_TOL.get(c["app"], DEFAULT_REL_TOL)
                if abs(got - want) > tol * max(abs(want), 1e-12):
                    problems.append(f"seed {seed} {c['config']}: checksum "
                                    f"{got!r} != sequential {want!r}")
                if c["digest"]["kv_get_verify_failures"] != 0:
                    problems.append(f"seed {seed} {c['config']}: KV GET "
                                    "verification failures")
                golden[c["config"]] = {f: c["digest"][f]
                                       for f in DIGEST_FIELDS}
        out["seeds"][str(seed)] = golden
    if problems:
        for p in problems:
            log(p)
        raise BenchError("refusing to record goldens")
    with open(GOLDENS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {GOLDENS} for seeds {seeds}")


# ---- measurement -------------------------------------------------------------

def median(values):
    return statistics.median(values)


def pass_setup_s(p):
    return sum(c["make_s"] + c["create_s"] + c["configure_s"]
               for c in p["configs"])


def pass_run_s(p):
    return sum(c["run_s"] for c in p["configs"])


def pass_events(p):
    return sum(c["counts"]["dsm.sim_events"] for c in p["configs"])


def probed_pass(binary, base):
    """One untraced pass, preceded by a host-speed probe in its own
    process; the probe's seconds are stored in the pass as probe_s."""
    probe = job(os.path.join(os.path.dirname(binary), "hostprobe"), [])
    p = job(binary, base)
    p["probe_s"] = probe["probe_s"]
    return p


def run_passes(binary, base, traced_too, seconds):
    """Single-pass processes until --seconds have elapsed (at least one).

    Without traced_too, each pass is probed. With it, each round runs
    one untraced and one traced pass, alternating which goes first, and
    nothing is probed. Returns (untraced, traced).
    """
    untraced, traced = [], []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < seconds:
        if not traced_too:
            untraced.append(probed_pass(binary, base))
            log(f"pass: {untraced[-1]['pass']['wall_s']:.3f} s, probe "
                f"{untraced[-1]['probe_s']:.3f} s")
            continue
        for tr in ([False, True] if len(traced) % 2 == 0
                   else [True, False]):
            p = job(binary, base + (["--trace", "1"] if tr else []))
            (traced if tr else untraced).append(p)
            log(f"pass{' (traced)' if tr else ''}: {p['pass']['wall_s']:.3f} s")
    return untraced, traced


def fastest(passes):
    """The timed metrics of the fastest passes: interference from other
    tenants only ever adds time, and in bursty stretches a run's median
    moved with the bursts while its minimum did not."""
    return {
        "wall_s": min(p["pass"]["wall_s"] for p in passes),
        "setup_s": min(pass_setup_s(p) for p in passes),
        "events_per_s": max(pass_events(p) / pass_run_s(p)
                            for p in passes),
    }


def load_probe_fit(workload):
    fit = load_json(PROBE_FIT, "probe fit")
    if workload not in fit.get("exponents", {}):
        raise BenchError(f"{PROBE_FIT} has no exponents for {workload}; "
                         "run --fit-probe")
    return fit["ref_probe_s"], fit["exponents"][workload]


def timed_metrics(binary, base, workload, seconds):
    """Fastest-pass metrics at the reference host speed.

    The host's speed drifts over minutes with other tenants' memory
    load, in phases longer than a run. Each time metric is scaled by
    (ref / median probe) ** exponent, and each rate by its inverse,
    with the exponent --fit-probe measured for this workload and metric.
    """
    ref, exponents = load_probe_fit(workload)
    passes, _ = run_passes(binary, base, False, seconds)
    raw = fastest(passes)
    probe = median([p["probe_s"] for p in passes])
    metrics = {k: raw[k] * (ref / probe) ** (sign * exponents[k])
               for k, sign in SCALED.items()}
    metrics["peak_rss_mb"] = median([p["pass"]["peak_rss_mb"]
                                     for p in passes])
    log(f"unscaled: wall_s {raw['wall_s']:.6g} s, setup_s "
        f"{raw['setup_s']:.6g} s, events_per_s {raw['events_per_s']:.6g}; "
        f"median probe {probe:.6g} s (reference {ref:.6g} s)")
    return metrics, passes, len(passes)


def spread(values):
    """Interquartile range over the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def fit_window(probes, by_workload):
    """One fit window, which stands for one run: its median probe and
    each workload's fastest-pass metrics (6 significant digits)."""
    win = {"probe_s": float(f"{median(probes):.6g}")}
    for w, passes in by_workload.items():
        win[w] = {k: float(f"{v:.6g}") for k, v in fastest(passes).items()}
    return win


def fit_exponents(windows, workloads):
    """Per workload and scaled metric, the exponent of the median probe
    that best explains the fastest-pass metric across windows: the
    least-squares slope of log metric on log probe, signed so that a
    metric a slower host worsens gets a positive exponent. Also returns
    each metric's spread across windows before and after scaling."""
    log_probes = [math.log(win["probe_s"]) for win in windows]
    exponents, spreads = {}, {}
    for w in workloads:
        exponents[w], spreads[w] = {}, {}
        for k, sign in SCALED.items():
            values = [win[w][k] for win in windows]
            slope = statistics.linear_regression(
                log_probes, [math.log(v) for v in values]).slope
            b = round(sign * slope, 3)
            scaled = [v * math.exp(-sign * b * lp)
                      for v, lp in zip(values, log_probes)]
            exponents[w][k] = b
            spreads[w][k] = {"unscaled": round(spread(values), 4),
                             "scaled": round(spread(scaled), 4)}
    return exponents, spreads


def fit_probe(binary, workloads, seconds):
    """Measure how each workload's timed metrics follow the probe and
    write the exponents to probe_fit.json.

    Rounds of one probed pass per workload run for --seconds; every
    FIT_WINDOW_ROUNDS rounds form a window. The windows are added to
    those probe_fit.json already holds and the fit is made over all of
    them, so that stretches of calm and of busy host add up; in a calm
    stretch alone the probe's own noise flattens the slopes. Re-fit only
    in a change to the benchmark itself (README.md, "Reference host
    speed"), so that parent and child are scaled alike.
    """
    windows = []
    if os.path.exists(PROBE_FIT):
        windows = load_json(PROBE_FIT, "probe fit")["windows"]
        log(f"adding to the {len(windows)} windows in {PROBE_FIT}")
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        probes, by_w = [], {w: [] for w in workloads}
        for _ in range(FIT_WINDOW_ROUNDS):
            for w in workloads:
                p = probed_pass(binary, ["--workload", w, "--seed",
                                         str(DEFAULT_APP_SEED)])
                probes.append(p["probe_s"])
                by_w[w].append(p)
        windows.append(fit_window(probes, by_w))
        log(f"window {len(windows)}: median probe "
            f"{windows[-1]['probe_s']:.4f} s")
    probes = [win["probe_s"] for win in windows]
    if len(windows) < 8:
        raise BenchError(f"{len(windows)} windows; fit for longer")
    if max(probes) < FIT_MIN_PROBE_RANGE * min(probes):
        raise BenchError(f"the median probe only ranged over "
                         f"{min(probes):.4f}..{max(probes):.4f} s, too "
                         "little host-speed change to fit; add windows "
                         "when the host is busier")
    exponents, spreads = fit_exponents(windows, workloads)
    summary = json.dumps({
        "ref_probe_s": round(median(probes), 4),
        "window_rounds": FIT_WINDOW_ROUNDS,
        "window_probe_s": [min(probes), max(probes)],
        "exponents": exponents,
        "window_spread": spreads,
    }, indent=1, sort_keys=True)
    # One window a line keeps the file short.
    rows = ",\n  ".join(json.dumps(win, sort_keys=True) for win in windows)
    with open(PROBE_FIT, "w") as f:
        f.write(summary[:-2] + f',\n "windows": [\n  {rows}\n ]\n}}\n')
    log(f"wrote {PROBE_FIT} from {len(windows)} windows")


def layer_sums(p):
    """Per-layer totals of one pass: work counts and phase times."""
    m = {f"dsm.run_s.{a}-{k}": 0.0
         for a in DSM_SPAN_APPS for k in DSM_SPAN_PROTOCOLS}
    for key in ("dsm.create_s", "dsm.run_s", "dsm.teardown_s",
                "apps.configure_s"):
        m[key] = 0.0
    for c in p["configs"]:
        for k, v in c["counts"].items():
            m[k] = m.get(k, 0.0) + v
        m["dsm.create_s"] += c["create_s"]
        m["dsm.run_s"] += c["run_s"]
        m["dsm.teardown_s"] += c["teardown_s"]
        m["apps.configure_s"] += c["make_s"] + c["configure_s"]
        m["dsm.run_s." + c["label"]] += c["run_s"]
    m["host.wall_s"] = p["pass"]["wall_s"]
    m["host.sys_s"] = p["pass"]["sys_s"]
    m["host.minor_faults"] = p["pass"]["minor_faults"]
    return m


def ratio(m, num, den, default):
    return m[num] / m[den] if m[den] > 0 else default


def traced_metrics(binary, base, seconds, trace_path, with_checks):
    untraced, traced = run_passes(binary, base, True, seconds)
    sums = [layer_sums(p) for p in traced]
    m = {k: median([s[k] for s in sums]) for k in sums[0]}
    extra = []

    # Verification layer: self time is checked minus bare run time per
    # config; wall_ratio is checked over bare pass wall time.
    m["check.self_s"] = 0.0
    m["check.wall_ratio"] = 0.0
    if with_checks:
        checked = job(binary, base + ["--trace", "1", "--checked"])
        extra.append(checked)
        for i, c in enumerate(checked["configs"]):
            bare = median([p["configs"][i]["run_s"] for p in traced])
            m["check.self_s"] += c["run_s"] - bare
        m["check.violations"] = sum(c["counts"]["check.violations"]
                                    for c in checked["configs"])
        m["check.wall_ratio"] = (checked["pass"]["wall_s"] /
                                 median([p["pass"]["wall_s"]
                                         for p in traced]))

    # Unit costs on inputs shaped by this workload's own counts.
    verbs = m["net.rdma_verbs"]
    transfer_bytes = 64
    if m["net.transfers"] > verbs:
        transfer_bytes = ((m["net.bytes"] - m["net.one_sided_bytes"]) /
                          (m["net.transfers"] - verbs))
    shape = {
        "--transfer-bytes": transfer_bytes,
        "--message-bytes": ratio(m, "net.message_bytes", "net.messages", 64),
        "--verb-bytes": ratio(m, "net.one_sided_bytes", "net.rdma_rw_verbs",
                              64),
        "--diff-bytes": ratio(m, "treadmarks.diff_bytes",
                              "treadmarks.diffs_created", 64),
    }
    args = base + ["--calibrate"]
    for flag, v in shape.items():
        args += [flag, str(int(round(v)))]
    args += ["--l1-miss-ratio",
             repr(ratio(m, "cache.l1_misses", "cache.accesses", 0.0))]
    calib = job(binary, args)
    m.update(calib["unit_costs"])

    m["sim.est_s"] = (m["sim.stacks_allocated"] * m["sim.spawn_ns"] +
                      m["sim.yield_switches"] * m["sim.switch_ns"]) * 1e-9
    m["net.est_s"] = ((m["net.transfers"] - verbs) * m["net.transfer_ns"] +
                      verbs * m["net.verb_ns"] +
                      m["net.messages"] * m["net.mailbox_ns"]) * 1e-9
    m["treadmarks.est_s"] = (
        m["treadmarks.diffs_created"] * m["treadmarks.diff_create_ns"] +
        m["treadmarks.diffs_applied"] * m["treadmarks.diff_apply_ns"]) * 1e-9
    m["cache.est_s"] = m["cache.accesses"] * m["cache.access_ns"] * 1e-9
    m["host.fault_est_s"] = (m["host.run_minor_faults"] * m["host.fault_ns"] *
                             1e-9)
    explained = sum(m[k] for k in ("sim.est_s", "net.est_s",
                                   "treadmarks.est_s", "cache.est_s",
                                   "host.fault_est_s"))
    m["host.unexplained_frac"] = 1.0 - explained / m["dsm.run_s"]
    m["trace.overhead_s"] = (median([p["pass"]["wall_s"] for p in traced]) -
                             median([p["pass"]["wall_s"] for p in untraced]))

    processes = ([("pass (traced)", p) for p in traced] +
                 [("pass.checked (traced)", p) for p in extra] +
                 [("calibrate", calib)])
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump([{"process": name, "spans": p["spans"]}
                   for name, p in processes], f, indent=1)
    log(f"spans written to {trace_path}")
    return m, untraced + traced + extra, len(traced)


# ---- command line ----------------------------------------------------------

def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(
        description="Host-time benchmark of the mcdsm simulator.")
    ap.add_argument("--workload", choices=workload_names)
    ap.add_argument("--seed", type=int, default=1,
                    help="run label, printed with the result; it does not "
                         "change the inputs (default 1)")
    ap.add_argument("--app-seed", type=int, default=DEFAULT_APP_SEED,
                    help="recorded app seed whose inputs are run (default "
                         f"{DEFAULT_APP_SEED}; seed 2 is held out)")
    ap.add_argument("--seconds", type=int, default=10,
                    help="measure for at least this long (default 10)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--record", action="store_true",
                    help="rewrite hostbench/goldens.json for app seeds "
                         "1 and 2")
    ap.add_argument("--fit-probe", action="store_true",
                    help="rewrite hostbench/probe_fit.json from probed "
                         "passes of every workload for --seconds "
                         "(at least 600 recommended)")
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (a.record or a.fit_probe) and a.workload is None:
        ap.error("--workload is required")
    return a


def main(argv):
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    a = parse_args(argv, workloads)
    if a.record:
        record(build(), RECORD_SEEDS)
        return 0
    if a.fit_probe:
        fit_probe(build(), workloads, a.seconds)
        return 0

    goldens = load_goldens()
    app_seed = a.app_seed
    if app_seed not in goldens:
        raise BenchError(f"no goldens for app seed {app_seed} "
                         f"(recorded: {sorted(goldens)})", 2)

    binary = build()
    base = ["--workload", a.workload, "--seed", str(app_seed)]
    if a.trace:
        trace_path = os.path.join(BUILD_DIR, "traces",
                                  f"{a.workload}-seed{a.seed}.json")
        metrics, passes, n = traced_metrics(
            binary, base, a.seconds, trace_path,
            a.workload == CHECK_LAYER_WORKLOAD)
        wanted = spec["per_layer"]
    else:
        metrics, passes, n = timed_metrics(binary, base, a.workload,
                                           a.seconds)
        wanted = spec["end_to_end"]

    failures = []
    attempted = 0
    for p in passes:
        attempted += len(p["configs"])
        failures += check_digests(p["configs"], goldens[app_seed])
    for f in failures:
        log(f"golden mismatch (app seed {app_seed}): {f}")
    if attempted == 0:
        raise BenchError("no config ran")

    b = passes[0]["build"]
    print(f"workload {a.workload}, seed {a.seed} (app seed {app_seed}), "
          f"{'traced' if a.trace else 'timed'}, {n} passes")
    print(f"build: {b['compiler']} {b['build_type']}, nproc {b['nproc']}, "
          f"commit {commit()}")
    result = {}
    for w in wanted:
        if w["name"] not in metrics:
            raise BenchError(f"metric {w['name']} was not measured")
        v = metrics[w["name"]]
        result[w["name"]] = {"value": v, "unit": w["unit"]}
        print(f"  {w['name']:32s} {v:.6g} {w['unit']}")
    print(f"  {'fail_frac':32s} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} config runs differ from the "
          "goldens)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(str(e))
        sys.exit(e.code)
