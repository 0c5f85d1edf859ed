#!/usr/bin/env python3
"""Runner of the rarsub benchmark (see rarbench/README.md).

It builds the measuring program (rarbench/rarsub_bench.cpp) under
.bench_build/rarbench, runs workloads through it, turns the program's raw
measurements into the metrics BENCHMARK.json names, and compares sets.

One run, whose last stdout line is the result object:
  python3 rarbench/bench.py --workload W --seed N --seconds S --trace 0|1
      [--circuit-seed N] [--max-circuits K]

Sets and tools:
  python3 rarbench/bench.py run [--repeats 3] [--seconds S] [--workload W]...
      [--out FILE] [--append]
  python3 rarbench/bench.py trace [--seconds S] [--workload W]... [--seed N]
      [--out FILE]
  python3 rarbench/bench.py compare A.json B.json
  python3 rarbench/bench.py smoke
  python3 rarbench/bench.py --self-test
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "rarbench"
BENCH_BIN = BUILD_DIR / "rarsub_bench"
# A run must end within 180 s; leave room for the build check and Python.
RUN_TIMEOUT_S = 170

# Layer of each per-layer metric (its first name component, after "self.")
# and the end-to-end metric and workload it is expected to move.
LAYERS = {
    "benchcir": ("benchcir", "setup_s, every workload"),
    "opt": ("opt", "setup_s on paper_tables and large_3k; "
                   "optimize_s on algebraic_flow"),
    "espresso": ("sop/espresso", "optimize_s on algebraic_flow; 0 elsewhere"),
    "subst": ("division (substitution loop)",
              "optimize_s on large_3k and paper_tables"),
    "division": ("division (RAR division)", "optimize_s on gdc_mid"),
    "atpg": ("atpg", "optimize_s on gdc_mid; no move on algebraic_flow"),
    "gateview": ("gatenet", "optimize_s on gdc_mid"),
    "rar": ("rar", "optimize_s on large_3k (rr job)"),
    "rr": ("rar", "optimize_s on large_3k (rr job)"),
    "verify": ("verify", "none: outside optimize_s"),
    "mem": ("mem", "peak_rss_mb"),
    "unattributed": ("(no phase)",
                     "optimize_s on algebraic_flow and large_3k (sis jobs)"),
    "prof": ("trace", "none"),
    "trace": ("trace", "none"),
}


def layer_of(metric):
    """(layer, what it should move) of a per-layer metric name."""
    first = metric.removeprefix("self.").split(".")[0]
    return LAYERS[first.removesuffix("_ms")]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- build/run

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found: {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_tool(["cmake", "-S", str(ROOT / "rarbench"), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release", *generator])
    run_tool(["cmake", "--build", str(BUILD_DIR), "--target", "rarsub_bench",
              "-j", "2"])


def run_tool(cmd):
    # Tool output goes to stderr: stdout is reserved for the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("command failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace, circuit_seed=0, max_circuits=0):
    cmd = [str(BENCH_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--circuit-seed", str(circuit_seed),
           "--max-circuits", str(max_circuits)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: rarsub_bench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in raw["errors"]:
        log(f"{workload}: {err}")
    return raw


# ------------------------------------------------------------------ metrics

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def ratio(num, den):
    return num / den if den else 0.0


def best_pass_ns(jobs, key):
    """The time of one pass at each job's fastest run: the sum over jobs of
    the job's minimum run time, in ns. The work is deterministic and the
    host's noise only ever slows a run down, so the minimum is the steadiest
    estimate of what the code costs."""
    return sum(min(j[key]) for j in jobs if j[key])


def end_to_end(raw):
    jobs = raw["jobs"]
    setup_ns = [b + s for b, s in zip(raw["setup"]["build_ns"],
                                      raw["setup"]["script_ns"])]
    literals = sum(j["literals"] for j in jobs)
    init = sum(j["init_literals"] for j in jobs)
    return {
        "optimize_s": best_pass_ns(jobs, "method_ns") / 1e9,
        "setup_s": statistics.median(setup_ns) / 1e9,
        "literals": literals,
        "literal_gain_pct": 100.0 * ratio(init - literals, init),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    traced = [p for p in raw["passes"] if p["traced"]]
    first = traced[0]
    for p in traced[1:]:
        if p["counters"] != first["counters"]:
            log(f"{raw['workload']}: counters differ between traced passes")

    def count(name):
        return first["counters"].get(name, 0)

    def over_passes(fn):
        return statistics.median(fn(p) for p in traced)

    def timer_ms(name):
        return over_passes(
            lambda p: p["timers"].get(name, {}).get("total_ns", 0) / 1e6)

    def span_ms(name):
        return over_passes(lambda p: p["spans_ns"].get(name, 0) / 1e6)

    def self_ms(phase):
        # The phase's share of the method window's samples times the
        # window's measured CPU time: the sampler's effective rate is far
        # below its nominal one, so samples x period under-reports.
        return over_passes(lambda p: ratio(
            p["prof_self_samples"].get(phase, 0),
            sum(p["prof_self_samples"].values())) * p["method_cpu_us"] / 1e3)

    def effective_hz(p):
        return ratio(sum(p["prof_self_samples"].values()),
                     p["method_cpu_us"] / 1e6)

    def coverage_pct(p):
        attributed = sum(p["prof_self_samples"].values())
        return 100.0 * ratio(attributed, attributed + p["prof_samples_dropped"])

    pruned = sum(count("subst.pairs_pruned_" + k)
                 for k in ("sig", "memo", "cycle"))
    jobs = raw["jobs"]
    both = [j for j in jobs if j["method_ns"] and j["traced_ns"]]
    return {
        "benchcir.build_ms": statistics.median(raw["setup"]["build_ns"]) / 1e6,
        "opt.script_ms": statistics.median(raw["setup"]["script_ns"]) / 1e6,
        "self.opt.eliminate_ms": self_ms("opt.eliminate"),
        "self.opt.simplify_ms": self_ms("opt.simplify"),
        "self.espresso.lite_ms": self_ms("espresso.lite"),
        "espresso.lite.calls":
            first["timers"].get("espresso.lite", {}).get("calls", 0),
        "espresso.iterations": count("espresso.iterations"),
        "subst.network_ms": timer_ms("subst.network"),
        "self.subst.attempt_ms": self_ms("subst.attempt"),
        "self.subst.pass_ms": self_ms("subst.pass"),
        "subst.attempts": count("subst.attempts"),
        "subst.commits": count("subst.commits"),
        "subst.commit_ratio":
            ratio(count("subst.commits"), count("subst.attempts")),
        "subst.pairs_tried": count("subst.pairs_tried"),
        "subst.pairs_pruned_sig": count("subst.pairs_pruned_sig"),
        "subst.pairs_pruned_memo": count("subst.pairs_pruned_memo"),
        "subst.pairs_pruned_cycle": count("subst.pairs_pruned_cycle"),
        "subst.prune_ratio":
            ratio(pruned, pruned + count("subst.pairs_tried")),
        "division.region_rr_ms": timer_ms("division.region_rr"),
        "division.vote_table_ms": timer_ms("division.vote_table"),
        "division.basic_ms": timer_ms("division.basic"),
        "division.extended_ms": timer_ms("division.extended"),
        "division.regions": count("division.regions"),
        "division.region_wires_removed": count("division.region_wires_removed"),
        "self.atpg.implication_ms": self_ms("atpg.implication"),
        "self.atpg.fault_ms": self_ms("atpg.fault"),
        "atpg.implications": count("atpg.implications"),
        "atpg.faults": count("atpg.faults"),
        "atpg.conflicts": count("atpg.conflicts"),
        "atpg.untestable_ratio":
            ratio(count("atpg.faults.untestable"), count("atpg.faults")),
        "gateview.full_rebuilds": count("gateview.full_rebuilds"),
        "gateview.patched_gates": count("gateview.patched_gates"),
        "rar.network_rr_ms": span_ms("rr"),
        "rr.onepass.updates": count("rr.onepass.updates"),
        "rr.onepass.region_reuse": count("rr.onepass.region_reuse"),
        "verify.equiv_ms": span_ms("check_equivalence"),
        "verify.proved_frac": ratio(
            sum(j["equivalence"] == "exhaustive" for j in jobs), len(jobs)),
        "mem.arena.high_water": first["arena_high_water"],
        "self.unattributed_ms": self_ms("(unattributed)"),
        "prof.window_cpu_ms": over_passes(lambda p: p["method_cpu_us"] / 1e3),
        "prof.effective_hz": over_passes(effective_hz),
        "prof.coverage_pct": over_passes(coverage_pct),
        "trace.overhead_pct": 100.0 * (
            ratio(best_pass_ns(both, "traced_ns"),
                  best_pass_ns(both, "method_ns")) - 1.0),
    }


def summarize(raw, trace, spec):
    """The result object of one run: every end-to-end metric (trace off) or
    every per-layer metric (trace on), by name with its unit."""
    kind = "per_layer" if trace else "end_to_end"
    values = per_layer(raw) if trace else end_to_end(raw)
    correct = raw["failed"] == 0 and all(
        j["literals"] >= 0 and (j["method_ns"] or j["traced_ns"])
        for j in raw["jobs"])
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }


# ------------------------------------------------------------------ compare

def wins(parent, change, better):
    """Pairs (run i of each side) in which the change reads better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (b - a) < 0 for a, b in zip(parent, change))


def verdict(parent, change, bound, better):
    """Classify a (workload, metric) pairing from paired runs, following the
    paired-run rules: worse beyond the bound, unresolved when the
    parent's own spread is wider than the bound, improved when the change
    wins nine tenths of the pairs by more than the parent's spread."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: worse
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    scale = abs(med_a) or 1.0
    if sign > 0:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    pairs = min(len(parent), len(change))
    if spread / scale > bound and not all_better:
        return "unresolved"
    if sign * (med_b - med_a) / scale > bound:
        return "worse"
    if all_better or (wins(parent, change, better) >= 0.9 * pairs and
                      sign * (med_a - med_b) > spread):
        return "improved"
    return "unchanged"


def cmd_compare(a_path, b_path):
    spec = load_spec()
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    bad = 0
    print(f"{'workload':15s} {'metric':17s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B wins':>7s}  verdict")
    for w, runs_a in a.get("runs", {}).items():
        runs_b = b.get("runs", {}).get(w)
        if not runs_b:
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in runs_a]
            vb = [r["metrics"][m["name"]]["value"] for r in runs_b]
            v = verdict(va, vb, m["bound"], m["better"])
            cells = []
            for vals in (va, vb):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            print(f"{w:15s} {m['name']:17s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{wins(va, vb, m['better']):>3d}/{min(len(va), len(vb)):<3d}"
                  f"  {v}")
            bad += v in ("worse", "unresolved")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for w, layer_a in a.get("trace", {}).items():
        layer_b = b.get("trace", {}).get(w)
        if layer_b is None:
            continue
        differ = [n for n in counts if layer_a[n] != layer_b[n]]
        print(f"{w:15s} counters: " +
              ("all equal" if not differ else "differ: " + ", ".join(differ)))
        bad += bool(differ)
    return 1 if bad else 0


# ------------------------------------------------------------------ commands

def cmd_single(args):
    spec = load_spec()
    build()
    raw = run_bench(args.workload, args.seed, args.seconds, args.trace,
                     args.circuit_seed, args.max_circuits)
    result = summarize(raw, args.trace, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selected(args, spec):
    return args.workload or [w["name"] for w in spec["workloads"]]


def cmd_run(args):
    spec = load_spec()
    build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out = Path(args.out)
    data = {"runs": {}}
    if args.append and out.is_file():
        data = json.loads(out.read_text())
    failures = 0
    for _ in range(args.repeats):
        for w in selected(args, spec):
            runs = data["runs"].setdefault(w, [])
            seed = len(runs) + 1
            raw = run_bench(w, seed, seconds, False)
            result = summarize(raw, False, spec)
            runs.append(dict(seed=seed, **result))
            failures += not result["correct"]
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{'workload':15s} {'metric':17s} {'unit':>5s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s} {'bound':>7s} {'failed':>9s}")
    for w, runs in data["runs"].items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q3 = quartiles(vals)
            print(f"{w:15s} {m['name']:17s} {m['unit']:>5s} "
                  f"{statistics.median(vals):12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(vals):3d} {m['bound']:7.4g} "
                  f"{failed:>4d}/{attempted:<4d}")
    log(f"set written to {out}")
    return 1 if failures else 0


def cmd_trace(args):
    spec = load_spec()
    build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    data = {"trace": {}}
    failures = 0
    for w in selected(args, spec):
        raw = run_bench(w, args.seed, seconds, True)
        result = summarize(raw, True, spec)
        failures += not result["correct"]
        data["trace"][w] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"\n{w}  (attempted {result['attempted']}, "
              f"failed {result['failed']})")
        for m in spec["per_layer"]:
            layer, moves = layer_of(m["name"])
            print(f"  {m['name']:30s} {data['trace'][w][m['name']]:14.6g} "
                  f"{m['unit']:6s} {layer:31s} {moves}")
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 1 if failures else 0


def cmd_smoke():
    """A three-circuit cut of paper_tables at the minimum number of passes,
    untraced and traced: the build, rarsub_bench and both metric paths in
    about half a minute."""
    spec = load_spec()
    build()
    ok = True
    for trace in (False, True):
        raw = run_bench("paper_tables", 1, 0, trace, max_circuits=3)
        result = summarize(raw, trace, spec)
        ok &= result["correct"] and result["attempted"] > 0
        print(json.dumps(result))
    if not ok:
        log("smoke: FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------- self-test

def canned_raw():
    """A hand-made rarsub_bench result with known metric values."""
    def job(method, init, lits, untraced, traced, eq):
        return {"circuit": "c", "method": method, "init_literals": init,
                "literals": lits, "equivalence": eq, "failed": 0,
                "method_ns": untraced, "traced_ns": traced}

    counters = {"subst.attempts": 40, "subst.commits": 10,
                "subst.pairs_tried": 40, "subst.pairs_pruned_sig": 50,
                "subst.pairs_pruned_memo": 6, "subst.pairs_pruned_cycle": 4,
                "atpg.faults": 8, "atpg.faults.untestable": 2}
    traced = {"traced": True, "method_cpu_us": 2_000_000,
              "spans_ns": {"check_equivalence": 3_000_000},
              "counters": counters,
              "timers": {"espresso.lite": {"calls": 7, "total_ns": 5_000_000}},
              "prof_self_samples": {"subst.attempt": 300, "atpg.fault": 100,
                                    "(unattributed)": 100},
              "prof_samples_dropped": 0,
              "arena_high_water": 4096}
    return {
        "workload": "canned", "attempted": 8, "failed": 0, "errors": [],
        "peak_rss_kb": 2048,
        "setup": {"build_ns": [1e8, 3e8, 2e8], "script_ns": [1e8, 1e8, 5e8]},
        "jobs": [job("basic", 100, 90, [2e9, 3e9, 2.5e9], [2.2e9],
                     "exhaustive"),
                 job("ext", 100, 80, [4.5e9, 4e9], [4.4e9], "sampled")],
        "passes": [{"traced": False, "method_cpu_us": 1, "spans_ns": {}},
                   traced],
    }


def self_test():
    spec = load_spec()
    checks = []

    def check(name, cond):
        checks.append((name, bool(cond)))

    def close(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(y))

    # Medians and quartiles.
    check("median of even count", statistics.median([4, 1, 3, 2]) == 2.5)
    q1, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check("quartiles match statistics.quantiles",
          close(q1, 2.75) and close(q3, 8.25))
    check("quartiles of one value", quartiles([7.0]) == (7.0, 7.0))

    # End-to-end metrics of the canned result.
    raw = canned_raw()
    e2e = end_to_end(raw)
    check("optimize_s = sum of per-job minimums", close(e2e["optimize_s"], 6.0))
    check("setup_s = median of build + script", close(e2e["setup_s"], 0.4))
    check("literals summed over jobs", e2e["literals"] == 170)
    check("literal gain", close(e2e["literal_gain_pct"], 15.0))
    check("peak rss in MB", close(e2e["peak_rss_mb"], 2.0))
    result = summarize(raw, False, spec)
    check("result has exactly the contract keys",
          list(result) == ["correct", "attempted", "failed", "metrics"])
    check("every end-to-end metric reported",
          set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]})
    bad = canned_raw()
    bad["failed"] = 1
    check("a failed job makes the run incorrect",
          not summarize(bad, False, spec)["correct"])

    # Per-layer metrics: self time = sample share x window CPU.
    layer = per_layer(raw)
    check("self time is share x CPU",
          close(layer["self.subst.attempt_ms"], 1200.0))
    check("unattributed share", close(layer["self.unattributed_ms"], 400.0))
    check("effective sampling rate", close(layer["prof.effective_hz"], 250.0))
    check("coverage", close(layer["prof.coverage_pct"], 100.0))
    check("prune ratio", close(layer["subst.prune_ratio"], 0.6))
    check("untestable ratio", close(layer["atpg.untestable_ratio"], 0.25))
    check("proved fraction", close(layer["verify.proved_frac"], 0.5))
    check("check span", close(layer["verify.equiv_ms"], 3.0))
    check("tracing overhead", close(layer["trace.overhead_pct"], 10.0))
    check("every per-layer metric reported",
          set(summarize(raw, True, spec)["metrics"]) ==
          {m["name"] for m in spec["per_layer"]})
    check("every per-layer metric has a layer", all(
        layer_of(m["name"]) for m in spec["per_layer"]))

    # Verdicts on paired runs.
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    opt, lits = bounds["optimize_s"], bounds["literals"]
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]
    check("identical runs are unchanged",
          verdict(base, list(base), opt["bound"], "lower") == "unchanged")
    check("a 30% slowdown is worse", verdict(
        base, [v * 1.3 for v in base], opt["bound"], "lower") == "worse")
    check("a 20% slowdown is within the bound", verdict(
        base, [v * 1.2 for v in base], opt["bound"], "lower") == "unchanged")
    check("a 20% speed-up is improved", verdict(
        base, [v * 0.8 for v in base], opt["bound"], "lower") == "improved")
    check("a speed-up inside the parent's spread is unchanged", verdict(
        base, [v * 0.998 for v in base], opt["bound"], "lower") == "unchanged")
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    check("a spread wider than the bound is unresolved", verdict(
        noisy, [v * 1.01 for v in noisy], opt["bound"], "lower")
          == "unresolved")
    check("one extra literal is worse",
          verdict([7139] * 10, [7140] * 10, lits["bound"], "lower") == "worse")
    check("one literal fewer is improved", verdict(
        [7139] * 10, [7138] * 10, lits["bound"], "lower") == "improved")
    gain = bounds["literal_gain_pct"]
    check("a lower literal gain is worse", verdict(
        [9.27] * 10, [9.25] * 10, gain["bound"], "higher") == "worse")

    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(not ok for _, ok in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------- main

def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise BenchError("usage: bench.py compare A.json B.json")
        return cmd_compare(argv[1], argv[2])
    if argv[:1] == ["smoke"]:
        return cmd_smoke()
    if argv[:1] in (["run"], ["trace"]):
        p = argparse.ArgumentParser(prog=f"bench.py {argv[0]}")
        p.add_argument("--seconds", type=float)
        p.add_argument("--workload", action="append")
        if argv[0] == "run":
            p.add_argument("--repeats", type=int, default=3)
            p.add_argument("--out",
                           default=str(ROOT / ".bench_build" / "set.json"))
            p.add_argument("--append", action="store_true")
            return cmd_run(p.parse_args(argv[1:]))
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out")
        return cmd_trace(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="bench.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--circuit-seed", type=int, default=0)
    p.add_argument("--max-circuits", type=int, default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"bench.py: {e}")
        sys.exit(2)
