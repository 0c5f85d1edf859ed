// The measuring program of the rarsub benchmark (rarbench/README.md).
//
//   rarsub_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--circuit-seed <n>] [--max-circuits <k>]
//
// One workload per process, one thread, closed loop. The program runs passes
// over the workload's jobs — every circuit under every method — until the
// next pass would overrun the window. A pass first sets the circuits up
// (build + preparation script, timed), then runs the jobs in an order drawn
// from --seed, each on a fresh copy of its prepared circuit, and checks
// every output against that prepared circuit with check_equivalence.
// Setting up once per pass spreads the set-up samples over the window, so a
// burst of load on the host spoils at most a few of them.
//
// With --trace 1 the passes alternate untraced / traced: a traced pass runs
// its jobs under the sampling profiler and keeps its obs counters and
// timers, and the untraced ones give the tracing overhead. Spans recorded
// here around the calls into the library (build, script, each method,
// check) complete the per-layer picture.
//
// The result is one JSON object on stdout with raw measurements (times as
// integer nanoseconds or microseconds); rarbench/bench.py turns it into the
// benchmark's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "benchcir/suite.hpp"
#include "benchcir/synth.hpp"
#include "mem/arena.hpp"
#include "obs/json.hpp"
#include "obs/memstat.hpp"
#include "obs/obs.hpp"
#include "obs/prof.hpp"
#include "opt/scripts.hpp"
#include "rar/network_rr.hpp"
#include "verify/equivalence.hpp"

namespace {

using namespace rarsub;

// Passes run even past the window, so every job has a minimum and the
// set-up a median over at least this many samples.
constexpr std::size_t kMinPasses = 3;

// Profiler frames this program opens itself. Samples under kMethodPhase are
// the method window; a sample whose innermost frame is kMethodPhase ran in
// library code that opens no phase of its own.
constexpr const char* kMethodPhase = "bench.method";
constexpr const char* kVerifyPhase = "bench.verify";

struct Circuit {
  std::string name;
  std::function<Network()> build;
};

struct Method {
  std::string name;
  std::function<void(Network&)> run;
};

struct Workload {
  std::vector<Circuit> circuits;
  std::function<void(Network&)> prepare;
  std::vector<Method> methods;
};

// The benchmark_suite_large() recipe (clustered tiles of 2000 mids, shared
// bases), restated here so the benchmark's inputs stay fixed even if the
// library's own suite is retuned.
Circuit large_synthetic(const std::string& name, std::uint64_t seed,
                        int target) {
  SynthSpec s;
  s.name = name;
  s.seed = seed;
  s.num_mids = target;
  s.num_bases = std::max(16, target / 50);
  s.num_pis = std::max(64, target / 200);
  s.num_outputs = std::max(16, target / 40);
  s.cluster = 2000;
  return {name, [s] { return make_synthetic(s); }};
}

Method resub_method(ResubMethod m) {
  return {method_name(m), [m](Network& n) { run_resub(n, m); }};
}

Method algebraic_method(ResubMethod m) {
  return {method_name(m), [m](Network& n) { script_algebraic(n, m); }};
}

std::vector<Circuit> paper_suite() {
  std::vector<Circuit> v;
  for (BenchmarkEntry& e : benchmark_suite())
    v.push_back({e.name, std::move(e.build)});
  return v;
}

// The four workloads; README.md gives the reason for each and why each is
// sized so that one pass over its jobs takes a few seconds. circuit_seed
// replaces the synthetic circuits' recipe seed for held-out checks (0 keeps
// the defaults).
bool make_workload(const std::string& name, std::uint64_t circuit_seed,
                   Workload* w) {
  const auto seed_or = [circuit_seed](std::uint64_t dflt) {
    return circuit_seed != 0 ? circuit_seed : dflt;
  };
  if (name == "paper_tables") {
    // Table II without its ext_gdc column: Script A, then each method on a
    // fresh copy.
    w->circuits = paper_suite();
    w->prepare = [](Network& n) { script_a(n); };
    for (ResubMethod m : {ResubMethod::SisAlgebraic, ResubMethod::Basic,
                          ResubMethod::Extended})
      w->methods.push_back(resub_method(m));
  } else if (name == "algebraic_flow") {
    // Table V's sis column: the whole script.algebraic flow is the method,
    // and no step of it reaches division or ATPG. cmp8 is left out: its
    // flow alone takes three times as long as all other circuits' together.
    w->circuits = paper_suite();
    std::erase_if(w->circuits,
                  [](const Circuit& c) { return c.name == "cmp8"; });
    w->prepare = [](Network& n) { n.sweep(); };
    w->methods.push_back(algebraic_method(ResubMethod::SisAlgebraic));
  } else if (name == "gdc_mid") {
    w->circuits = {large_synthetic("syn_m800", seed_or(1507), 800)};
    w->prepare = [](Network& n) { script_c(n); };
    for (ResubMethod m : {ResubMethod::Extended, ResubMethod::ExtendedGdc})
      w->methods.push_back(resub_method(m));
  } else if (name == "large_3k") {
    w->circuits = {large_synthetic("syn_l3000", seed_or(9234), 3000)};
    w->prepare = [](Network& n) { script_c(n); };
    w->methods.push_back(
        {"rr", [](Network& n) { network_redundancy_removal(n); }});
    for (ResubMethod m : {ResubMethod::SisAlgebraic, ResubMethod::Basic})
      w->methods.push_back(resub_method(m));
  } else {
    return false;
  }
  return true;
}

std::int64_t cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000LL +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

struct JobResult {
  int init_literals = 0;
  int literals = -1;  // from the first run; later runs must match it
  bool proved = false;
  int failed = 0;
  std::vector<std::int64_t> method_ns;  // successful runs, untraced passes
  std::vector<std::int64_t> traced_ns;  // successful runs, traced passes
};

struct PassResult {
  bool traced = false;
  std::int64_t wall_ns = 0;
  std::int64_t method_cpu_us = 0;
  // Spans around the calls into the library: each method's calls, by
  // method name, and "check_equivalence".
  std::map<std::string, std::int64_t> span_ns;
  obs::Snapshot obs;  // traced passes only
  obs::ProfSnapshot prof;
  std::int64_t arena_high_water = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t circuit_seed = 0;
  int max_circuits = 0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v) != 0;
    else if (k == "--circuit-seed")
      a->circuit_seed = std::strtoull(v, nullptr, 10);
    else if (k == "--max-circuits") a->max_circuits = std::atoi(v);
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty();
}

void write_snapshot(obs::JsonWriter& w, const PassResult& p) {
  // The snapshot also republishes the mem.* and prof.* gauges, which vary
  // from pass to pass; only the work counters must repeat exactly.
  w.key("counters");
  w.begin_object();
  for (const obs::CounterSnap& c : p.obs.counters) {
    if (c.name.starts_with("mem.") || c.name.starts_with("prof.")) continue;
    w.key(c.name);
    w.value(c.value);
  }
  w.end_object();
  w.key("timers");
  w.begin_object();
  for (const obs::TimerSnap& t : p.obs.timers) {
    w.key(t.name);
    w.begin_object();
    w.key("calls");
    w.value(t.calls);
    w.key("total_ns");
    w.value(t.total_ns);
    w.end_object();
  }
  w.end_object();
  // Profiler samples of the method window, charged to the innermost frame.
  std::map<std::string, std::int64_t> self;
  for (const obs::ProfPathSnap& path : p.prof.paths)
    if (!path.frames.empty() && path.frames.front() == kMethodPhase)
      self[path.frames.back()] += path.samples;
  w.key("prof_self_samples");
  w.begin_object();
  for (const auto& [phase, n] : self) {
    w.key(phase == kMethodPhase ? "(unattributed)" : phase);
    w.value(n);
  }
  w.end_object();
  w.key("prof_samples_dropped");
  w.value(p.prof.dropped);
  w.key("arena_high_water");
  w.value(p.arena_high_water);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rarsub_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--circuit-seed <n>] "
                 "[--max-circuits <k>]\n");
    return 2;
  }
  Workload wl;
  if (!make_workload(args.workload, args.circuit_seed, &wl)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (args.max_circuits > 0 &&
      static_cast<int>(wl.circuits.size()) > args.max_circuits)
    wl.circuits.resize(static_cast<std::size_t>(args.max_circuits));
  if (args.trace && !obs::prof_available()) {
    std::fprintf(stderr, "sampling profiler unavailable in this build\n");
    return 1;
  }

  struct Job {
    std::size_t circuit;
    std::size_t method;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < wl.circuits.size(); ++c)
    for (std::size_t m = 0; m < wl.methods.size(); ++m) jobs.push_back({c, m});
  std::vector<JobResult> results(jobs.size());
  EquivalenceOptions eq_opts;
  eq_opts.seed = args.seed;

  std::mt19937_64 rng(args.seed);
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::vector<std::int64_t> build_ns, script_ns;
  std::vector<PassResult> passes;
  std::vector<std::string> errors;
  std::int64_t attempted = 0, failed = 0;
  const std::int64_t window_ns =
      static_cast<std::int64_t>(args.seconds * 1e9);
  obs::Timer window;
  while (passes.size() < kMinPasses ||
         window.elapsed_ns() + passes.back().wall_ns <= window_ns) {
    PassResult pass;
    pass.traced = args.trace && passes.size() % 2 == 1;
    obs::Timer pass_timer;

    // ---- set-up, timed per layer.
    std::vector<Network> prepared;
    std::int64_t b = 0, s = 0;
    for (const Circuit& c : wl.circuits) {
      obs::Timer t;
      Network n = c.build();
      b += t.elapsed_ns();
      t.restart();
      wl.prepare(n);
      s += t.elapsed_ns();
      prepared.push_back(std::move(n));
    }
    build_ns.push_back(b);
    script_ns.push_back(s);
    if (passes.empty()) {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Network& p = prepared[jobs[j].circuit];
        results[j].init_literals = p.factored_literals();
        // No method adds a PI, so the checker's union input space is the
        // prepared circuit's PIs and this predicts its exhaustive branch.
        results[j].proved =
            static_cast<int>(p.pis().size()) <= eq_opts.max_exhaustive_pis;
      }
    }

    // ---- the jobs, in seeded order.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng() % i]);
    obs::reset();
    if (pass.traced && !obs::prof_start()) {
      std::fprintf(stderr, "profiler: %s\n", obs::prof_status().c_str());
      return 1;
    }
    for (std::size_t j : order) {
      const Job& job = jobs[j];
      const Method& method = wl.methods[job.method];
      const std::string label =
          wl.circuits[job.circuit].name + "/" + method.name;
      JobResult& r = results[j];
      ++attempted;
      Network net = prepared[job.circuit];
      bool ok = true;
      std::int64_t ns = 0;
      const std::int64_t cpu0 = cpu_us();
      try {
        obs::PhaseScope phase(kMethodPhase);
        obs::Timer t;
        method.run(net);
        ns = t.elapsed_ns();
      } catch (const std::exception& e) {
        ok = false;
        errors.push_back(label + ": " + e.what());
      }
      pass.method_cpu_us += cpu_us() - cpu0;
      if (ok) {
        obs::PhaseScope phase(kVerifyPhase);
        obs::Timer t;
        const EquivalenceResult eq =
            check_equivalence(prepared[job.circuit], net, eq_opts);
        pass.span_ns["check_equivalence"] += t.elapsed_ns();
        const int lits = net.factored_literals();
        if (!eq.equivalent) {
          ok = false;
          errors.push_back(label + ": not equivalent: " + eq.message);
        } else if (r.literals >= 0 && lits != r.literals) {
          ok = false;
          errors.push_back(label + ": literals differ between runs");
        }
        if (r.literals < 0) r.literals = lits;
      }
      if (!ok) {
        ++failed;
        ++r.failed;
        continue;
      }
      (pass.traced ? r.traced_ns : r.method_ns).push_back(ns);
      pass.span_ns[method.name] += ns;
    }
    if (pass.traced) {
      obs::prof_stop();
      pass.prof = obs::prof_snapshot();
      pass.obs = obs::snapshot();
      pass.arena_high_water =
          static_cast<std::int64_t>(mem::arena_stats().high_water);
    }
    pass.wall_ns = pass_timer.elapsed_ns();
    passes.push_back(std::move(pass));
  }

  // ---- report.
  std::string out;
  obs::JsonWriter w(&out);
  w.begin_object();
  w.key("workload");
  w.value(args.workload);
  w.key("seed");
  w.value(static_cast<std::int64_t>(args.seed));
  w.key("trace");
  w.value(args.trace);
  w.key("attempted");
  w.value(attempted);
  w.key("failed");
  w.value(failed);
  w.key("errors");
  w.begin_array();
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) w.value(errors[i]);
  w.end_array();
  w.key("peak_rss_kb");
  w.value(obs::read_peak_rss_kb());
  w.key("setup");
  w.begin_object();
  w.key("build_ns");
  w.begin_array();
  for (std::int64_t v : build_ns) w.value(v);
  w.end_array();
  w.key("script_ns");
  w.begin_array();
  for (std::int64_t v : script_ns) w.value(v);
  w.end_array();
  w.end_object();
  w.key("jobs");
  w.begin_array();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobResult& r = results[j];
    w.begin_object();
    w.key("circuit");
    w.value(wl.circuits[jobs[j].circuit].name);
    w.key("method");
    w.value(wl.methods[jobs[j].method].name);
    w.key("init_literals");
    w.value(r.init_literals);
    w.key("literals");
    w.value(r.literals);
    w.key("equivalence");
    w.value(r.proved ? "exhaustive" : "sampled");
    w.key("failed");
    w.value(r.failed);
    w.key("method_ns");
    w.begin_array();
    for (std::int64_t v : r.method_ns) w.value(v);
    w.end_array();
    w.key("traced_ns");
    w.begin_array();
    for (std::int64_t v : r.traced_ns) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const PassResult& p : passes) {
    w.begin_object();
    w.key("traced");
    w.value(p.traced);
    w.key("method_cpu_us");
    w.value(p.method_cpu_us);
    w.key("spans_ns");
    w.begin_object();
    for (const auto& [name, ns] : p.span_ns) {
      w.key(name);
      w.value(ns);
    }
    w.end_object();
    if (p.traced) write_snapshot(w, p);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", out.c_str());
  return 0;
}
