// Closed-loop benchmark of a long-lived recnet::Session under sustained
// link churn. One client keeps one Apply in flight: it generates an update,
// applies it, makes its reads, and only then generates the next one. The
// program under test sees nothing but the generated facts; topology, the
// failure/repair stream, the trigger stream and the read keys all derive
// from --seed.
//
//   session_bench --workload churn_absorption --seed 1 --seconds 10
//                 [--trace-out trace.json] [--updates N] [--work-dir DIR]
//
// The amount of work in a run depends on the arguments alone, never on how
// fast the host or the engine is: --seconds picks a fixed number of trials
// (see WorkloadSpec::trial_seconds), so both sides of a comparison run
// exactly the same inputs.
//
// The last line of stdout is one JSON object: correctness counts, every
// metric (value, unit, sample count, and whether BENCHMARK.json lists it
// under end_to_end) and the exact traffic/BDD counters the self-check
// compares.
// Every metric is measured from outside the library: the benchmark times its
// own calls into the public API and reads the public counters. See
// perfbench/README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/session.h"
#include "queries/reference.h"
#include "topology/sensor_grid.h"
#include "topology/transit_stub.h"
#include "topology/workload.h"

namespace recnet {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr char kReachable[] = R"(
  reachable(x,y) :- link(x,y).
  reachable(x,y) :- link(x,z), reachable(z,y).
)";

constexpr char kShortestPath[] = R"(
  path(x,y,c) :- wlink(x,y,c).
  path(x,y,c) :- wlink(x,z,c), path(z,y,c2).
  minCost(x,y,min<c>) :- path(x,y,c).
)";

constexpr char kRegion[] = R"(
  activeRegion(r,x) :- seed(r,x), triggered(x).
  activeRegion(r,y) :- activeRegion(r,x), triggered(x), near(x,y).
  regionSizes(r,count<x>) :- activeRegion(r,x).
)";

// Convergence is bounded by deliveries only: whether an Apply converges
// depends on the code, never on the host's speed.
constexpr uint64_t kMessageBudget = 50'000'000;
constexpr int kPhysicalPeers = 12;
// Share of the directed link tuples kept down by the failure/repair stream.
constexpr double kDownShare = 0.05;
// multiview_ttl: per Apply, 4 link events, 4 sensor triggers and one clock
// tick. With 4 uniform triggers per tick over 100 sensors, a 17-tick TTL
// keeps 1 - 0.99^68 ~ 50% of the sensors live.
constexpr int kLinkEventsPerApply = 4;
constexpr int kTriggersPerApply = 4;
constexpr double kTriggerTtl = 17;
constexpr int kReadsPerKind = 3;
// churn_*: reads after each Apply, as (Contains, Lookup) pairs. The first
// read after an Apply runs on a cold cache; with only one or two reads per
// Apply the read median would fall between the cold and warm populations.
constexpr int kChurnReadPairs = 2;
// Applies between the periodic checkpoints of multiview_ttl (timed, inside
// the churn loop) and between full-scan oracle checks (untimed).
constexpr int kCheckpointEvery = 32;
constexpr int kOracleEvery = 16;
// Set-ups and restores of the freshly loaded session per trial.
constexpr int kRepeats = 3;

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // > 0: run one trial cut short after this many updates (the self-check's
  // short form) instead of the trials that `seconds` asks for.
  long updates = 0;
  std::string trace_out;
  std::string work_dir = ".";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "session_bench: %s\nusage: session_bench --workload "
               "{churn_absorption|churn_dred|multiview_ttl} [--seed N] "
               "[--seconds S] [--updates N] [--trace-out PATH] "
               "[--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

long ParseLong(const std::string& flag, const char* text, long lo, long hi) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || value[0] == '-') {
        Usage("bad value for --seed: '" + std::string(value) + "'");
      }
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseLong(flag, value, 1, 600));
    } else if (flag == "--updates") {
      args.updates = ParseLong(flag, value, 1, 1L << 30);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

// ---------------------------------------------------------------------------
// Tracing: one span per call the benchmark makes into the library, kept in
// memory and written as Chrome trace-event JSON when the run ends. Span ids
// are 1-based indexes; 0 means "no span" (tracing off, or no parent).

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  size_t Open(const char* layer, const char* name, size_t parent,
              Clock::time_point begin) {
    if (!enabled_) return 0;
    spans_.push_back({layer, name, parent, Micros(begin), 0, {}});
    return spans_.size();
  }

  // `args` is a comma-separated list of JSON members (may be empty).
  void Close(size_t id, Clock::time_point end, std::string args = {}) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.dur_us = Micros(end) - s.ts_us;
    s.args = std::move(args);
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%zu%s%s}}\n",
                   i == 0 ? "" : ",", s.name, s.layer, s.ts_us, s.dur_us,
                   i + 1, s.parent, s.args.empty() ? "" : ",",
                   s.args.c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* layer;
    const char* name;
    size_t parent;
    double ts_us;
    double dur_us;
    std::string args;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times one call into the library, recording its span; returns seconds.
template <typename Call>
double Timed(Tracer& tracer, const char* layer, const char* name,
             size_t parent, Call&& call) {
  Clock::time_point t0 = Clock::now();
  size_t id = tracer.Open(layer, name, parent, t0);
  call();
  Clock::time_point t1 = Clock::now();
  tracer.Close(id, t1);
  return Seconds(t0, t1);
}

// ---------------------------------------------------------------------------
// Public counters: the router's per-namespace traffic summed over every
// view, plus the shared BDD manager's totals.

struct Counters {
  uint64_t messages = 0;  // Cross-peer messages of every type, kills included.
  uint64_t kill_messages = 0;
  uint64_t bytes = 0;
  uint64_t prov_bytes = 0;
  uint64_t prov_samples = 0;
  uint64_t batches = 0;
  uint64_t delivered = 0;
  uint64_t generations = 0;
  uint64_t bdd_probes = 0;
  uint64_t bdd_cache_hits = 0;
  uint64_t bdd_cache_lookups = 0;
  uint64_t bdd_gc_runs = 0;
  uint64_t bdd_contention = 0;
};

Counters Sample(const Session& session) {
  Counters c;
  const Router& router = session.substrate()->router();
  for (int ns = 0; ns < router.num_namespaces(); ++ns) {
    NetworkStats s = router.stats(ns);
    c.messages += s.messages;
    c.kill_messages += s.kill_messages;
    c.bytes += s.bytes;
    c.prov_bytes += s.prov_bytes;
    c.prov_samples += s.prov_samples;
    c.batches += s.batches;
  }
  c.delivered = router.delivered();
  c.generations = router.generations_begun();
  const bdd::Manager& bdd = *session.substrate()->bdd_manager();
  c.bdd_probes = bdd.unique_probes();
  c.bdd_cache_hits = bdd.cache_hits();
  c.bdd_cache_lookups = bdd.cache_lookups();
  c.bdd_gc_runs = bdd.gc_runs();
  c.bdd_contention = bdd.stripe_contention();
  return c;
}

// JSON members for an Apply span: the counter deltas that call produced.
std::string DeltaArgs(const Counters& a, const Counters& b) {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "\"messages\":%llu,\"kill_messages\":%llu,\"bytes\":%llu,"
      "\"generations\":%llu,\"batches\":%llu,\"bdd_probes\":%llu,"
      "\"bdd_cache_lookups\":%llu,\"bdd_cache_hits\":%llu,\"bdd_gc_runs\":%llu",
      static_cast<unsigned long long>(b.messages - a.messages),
      static_cast<unsigned long long>(b.kill_messages - a.kill_messages),
      static_cast<unsigned long long>(b.bytes - a.bytes),
      static_cast<unsigned long long>(b.generations - a.generations),
      static_cast<unsigned long long>(b.batches - a.batches),
      static_cast<unsigned long long>(b.bdd_probes - a.bdd_probes),
      static_cast<unsigned long long>(b.bdd_cache_lookups -
                                      a.bdd_cache_lookups),
      static_cast<unsigned long long>(b.bdd_cache_hits - a.bdd_cache_hits),
      static_cast<unsigned long long>(b.bdd_gc_runs - a.bdd_gc_runs));
  return buf;
}

// ---------------------------------------------------------------------------
// Sample statistics.

struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  size_t size() const { return values.size(); }
  double Sum() const {
    double s = 0;
    for (double v : values) s += v;
    return s;
  }
  // Linear interpolation between closest ranks; 0 for no samples.
  double Quantile(double q) const {
    if (values.empty()) return 0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  double Median() const { return Quantile(0.5); }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Inputs. Everything is generated from the seed before anything is timed:
// trial t of a run draws its topology, sensor grid and every stream from
// StreamSeed(seed, t, stream), so a run averages over several topologies
// and one seed always replays the same sequence of trials.

uint64_t StreamSeed(uint64_t seed, uint64_t trial, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + trial * 0x100 + stream;
}

struct Inputs {
  Topology topo;
  std::vector<LinkTuple> links;  // Directed link tuples, all loaded at set-up.
  SensorField field;
  // multiview_ttl's soft-state history: sensor triggers of the kTriggerTtl
  // ticks before time 0, as (sensor, remaining TTL), so set-up starts the
  // session at the steady ~50% live share.
  std::vector<std::pair<int, double>> initial_triggers;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  // The fig07 reduced-scale dense transit-stub: 52 nodes, ~204 link tuples.
  in.topo = MakeTransitStubWithTargetLinks(100, /*dense=*/true, seed);
  in.links = DirectedLinks(in.topo);
  SensorGridOptions grid;
  grid.grid_dim = 10;
  grid.k = 20.0;
  grid.num_seeds = 5;
  grid.seed = seed;
  in.field = MakeSensorGrid(grid);
  for (int tick = 0; tick < static_cast<int>(kTriggerTtl); ++tick) {
    for (int k = 0; k < kTriggersPerApply; ++k) {
      int sensor = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(in.field.num_sensors)));
      in.initial_triggers.push_back({sensor, static_cast<double>(tick + 1)});
    }
  }
  return in;
}

// One trial's failure/repair stream: fail a random live link tuple, then
// repair the one that has been down longest, keeping about kDownShare of
// the tuples down (until that share is reached every event is a failure).
// Failures walk a seeded permutation of all tuples, so each tuple fails
// exactly once per trial, and the stream ends by repairing whatever is
// still down: a trial is 2 x (link tuples) updates and leaves the network
// fully loaded again. Sampling links without replacement matters because
// per-update costs differ by orders of magnitude between a stub link and a
// transit link.
class LinkChurn {
 public:
  LinkChurn(size_t num_links, uint64_t seed)
      : rng_(seed),
        down_target_(static_cast<size_t>(
            std::lround(kDownShare * static_cast<double>(num_links)))),
        order_(num_links),
        down_flag_(num_links, false) {
    for (size_t i = 0; i < num_links; ++i) order_[i] = i;
    rng_.Shuffle(&order_);
  }

  struct Event {
    size_t link;
    bool fail;
  };

  bool done() const { return cursor_ == order_.size() && down_.empty(); }

  Event Next() {
    if (cursor_ < order_.size() && down_.size() <= down_target_) {
      size_t link = order_[cursor_++];
      down_flag_[link] = true;
      down_.push_back(link);
      return {link, true};
    }
    size_t link = down_.front();
    down_.pop_front();
    down_flag_[link] = false;
    return {link, false};
  }

  bool live(size_t link) const { return !down_flag_[link]; }

 private:
  Rng rng_;
  size_t down_target_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
  std::vector<bool> down_flag_;
  std::deque<size_t> down_;
};

// ---------------------------------------------------------------------------
// The workloads.

struct WorkloadSpec {
  const char* name;
  bool multiview;
  ProvMode prov;  // churn_* only: the reachable view's maintenance strategy.
  ShipMode ship;
  // Nominal seconds of one trial (set-ups, restores and churn) on a 4-vCPU
  // 2.1 GHz Xeon VM, whose speed varies by up to 1.6x; they only size a run.
  // A run makes round(--seconds / trial_seconds) trials: the count is a
  // function of the arguments, not of the speed of the host or the engine.
  double trial_seconds;
};

const WorkloadSpec kWorkloads[] = {
    {"churn_absorption", false, ProvMode::kAbsorption, ShipMode::kLazy,
     6.25},
    {"churn_dred", false, ProvMode::kSet, ShipMode::kDirect, 3.125},
    {"multiview_ttl", true, ProvMode::kAbsorption, ShipMode::kLazy, 5.0},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
  bool end_to_end;  // Listed under end_to_end in BENCHMARK.json (bounded).
};

// Runs a fixed number of trials. A trial sets a fresh session up on its own
// topology, runs one full churn stream through it, checkpoints it and
// restores the snapshot. Oracle checks run between timed sections.
class Harness {
 public:
  Harness(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        tracer_(!args.trace_out.empty()),
        snapshot_(args.work_dir + "/session.ckpt") {
    session_options_.num_physical = kPhysicalPeers;
    session_options_.shards = spec_.multiview ? 2 : 1;
  }

  int Run();

 private:
  EngineOptions Options(ProvMode prov, ShipMode ship) const {
    EngineOptions o;
    o.num_nodes = in_.topo.num_nodes;
    o.runtime.prov = prov;
    o.runtime.ship = ship;
    o.runtime.num_physical = kPhysicalPeers;
    o.runtime.shards = session_options_.shards;
    o.runtime.message_budget = kMessageBudget;
    o.runtime.time_budget_s = 0;
    return o;
  }

  void RunTrial(uint64_t trial);
  void SetUp(size_t parent);
  void Step(size_t parent);
  bool LinkEvent(size_t parent);
  double TracedApply(size_t parent, Status* status);
  void Apply(size_t parent, bool failure);
  void Read(size_t parent, bool lookup, View* view, const char* relation,
            const Tuple& key);
  double Checkpoint(size_t parent);
  std::pair<double, double> RestoreAndCompare(size_t parent);
  void CheckReads();
  void CheckScans(const char* phase);
  void SampleState();

  // One operation's outcome: every library call and every oracle
  // comparison counts as attempted; failures are non-OK statuses,
  // non-converged Applies and oracle mismatches.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }

  std::vector<LinkTuple> LiveLinks() const {
    std::vector<LinkTuple> live;
    for (size_t i = 0; i < in_.links.size(); ++i) {
      if (churn_->live(i)) live.push_back(in_.links[i]);
    }
    return live;
  }
  std::vector<bool> LiveTriggers() const {
    std::vector<bool> t(static_cast<size_t>(in_.field.num_sensors), false);
    for (const auto& [sensor, deadline] : deadline_) {
      t[static_cast<size_t>(sensor)] = true;
    }
    return t;
  }

  std::vector<Metric> Metrics() const;

  const Args& args_;
  const WorkloadSpec& spec_;
  Tracer tracer_;
  const std::string snapshot_;
  SessionOptions session_options_;

  // The current trial.
  Inputs in_;
  std::unique_ptr<Session> session_;
  View* reach_ = nullptr;
  View* path_ = nullptr;
  View* region_ = nullptr;
  std::optional<LinkChurn> churn_;
  std::optional<Rng> keys_;
  std::optional<Rng> triggers_;
  // Soft-state model mirroring the session clock: live sensor -> the time
  // at which it expires (a fact expires once the clock reaches it).
  std::map<int, double> deadline_;
  long trial_updates_ = 0;

  // A read made in the current step, checked against the oracle after the
  // step (outside the timed region).
  struct PendingRead {
    std::string relation;
    Tuple key;
    bool lookup;
    Status status;
    Tuple found;
    bool contains;
  };
  std::vector<PendingRead> reads_;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t trials_ = 0;
  long updates_ = 0;
  long applies_ = 0;
  double churn_wall_s_ = 0;
  Counters counters_;  // Summed over every trial's churn phase.
  bool first_read_pending_ = false;

  Samples setup_s_, add_program_s_, bulk_apply_s_;
  Samples apply_s_, failure_apply_s_;
  Samples read_s_, contains_s_, lookup_s_, first_read_s_;
  Samples ingest_s_, advance_s_;
  Samples checkpoint_s_, restore_s_, restore_call_s_, snapshot_bytes_;
  // Operator state, sampled every kOracleEvery Applies: the total and each
  // view's share, by the view's name.
  Samples state_mb_;
  std::map<std::string, Samples> view_state_mb_;
  // Per trial: BDD manager size at the end of the churn, and the GC runs,
  // stripe contention and MinShip demotions the churn caused.
  Samples bdd_live_, bdd_allocated_, bdd_segments_;
  Samples gc_runs_, contention_, ship_demotions_;
  double peak_rss_mb_ = 0;
};

void AddDelta(Counters* sum, const Counters& a, const Counters& b) {
  sum->messages += b.messages - a.messages;
  sum->kill_messages += b.kill_messages - a.kill_messages;
  sum->bytes += b.bytes - a.bytes;
  sum->prov_bytes += b.prov_bytes - a.prov_bytes;
  sum->prov_samples += b.prov_samples - a.prov_samples;
  sum->batches += b.batches - a.batches;
  sum->delivered += b.delivered - a.delivered;
  sum->generations += b.generations - a.generations;
  sum->bdd_probes += b.bdd_probes - a.bdd_probes;
  sum->bdd_cache_hits += b.bdd_cache_hits - a.bdd_cache_hits;
  sum->bdd_cache_lookups += b.bdd_cache_lookups - a.bdd_cache_lookups;
  sum->bdd_gc_runs += b.bdd_gc_runs - a.bdd_gc_runs;
  sum->bdd_contention += b.bdd_contention - a.bdd_contention;
}

// Session construction, AddPrograms, the bulk load and the first fixpoint:
// everything a restart pays before it serves updates.
void Harness::SetUp(size_t parent) {
  session_.reset();
  Clock::time_point t0 = Clock::now();
  size_t span = tracer_.Open("bench", "setup", parent, t0);
  session_ = std::make_unique<Session>(session_options_);
  double add_program = 0;
  auto add = [&](const char* source, const EngineOptions& options) {
    View* view = nullptr;
    add_program += Timed(tracer_, "datalog", "AddProgram", span, [&] {
      auto added = session_->AddProgram(source, options);
      Op(added.ok(), "AddProgram: " + added.status().ToString());
      if (added.ok()) view = added.value();
    });
    return view;
  };
  if (!spec_.multiview) {
    reach_ = add(kReachable, Options(spec_.prov, spec_.ship));
  } else {
    reach_ = add(kReachable, Options(ProvMode::kRelative, ShipMode::kLazy));
    path_ = add(kShortestPath,
                Options(ProvMode::kAbsorption, ShipMode::kLazy));
    EngineOptions region = Options(ProvMode::kAbsorption, ShipMode::kLazy);
    region.field = in_.field;
    region_ = add(kRegion, region);
  }
  Clock::time_point load0 = Clock::now();
  size_t load_span = tracer_.Open("engine", "BulkLoad", span, load0);
  for (const LinkTuple& l : in_.links) {
    Status st = session_->Insert("link", {double(l.src), double(l.dst)});
    if (spec_.multiview && st.ok()) {
      st = session_->Insert("wlink",
                            {double(l.src), double(l.dst), l.cost_ms});
    }
    Op(st.ok(), "bulk insert: " + st.ToString());
  }
  deadline_.clear();
  if (spec_.multiview) {
    for (const auto& [sensor, ttl] : in_.initial_triggers) {
      Status st = session_->InsertWithTtl(
          "triggered", Tuple::OfInts({sensor}), ttl);
      Op(st.ok(), "initial trigger: " + st.ToString());
      deadline_[sensor] = session_->now() + ttl;
    }
  }
  tracer_.Close(load_span, Clock::now());
  Status st;
  double bulk_apply = TracedApply(span, &st);
  Op(st.ok(), "bulk Apply: " + st.ToString());
  Clock::time_point t1 = Clock::now();
  tracer_.Close(span, t1);
  setup_s_.Add(Seconds(t0, t1));
  add_program_s_.Add(add_program);
  bulk_apply_s_.Add(bulk_apply);
}

// Applies one failure/repair event; returns true for a failure.
bool Harness::LinkEvent(size_t parent) {
  LinkChurn::Event ev = churn_->Next();
  const LinkTuple& l = in_.links[ev.link];
  const char* name = ev.fail ? "Delete" : "Insert";
  auto ingest = [&](const char* relation, std::initializer_list<double> f) {
    ingest_s_.Add(Timed(tracer_, "engine", name, parent, [&] {
      Status st = ev.fail ? session_->Delete(relation, f)
                          : session_->Insert(relation, f);
      Op(st.ok(), std::string(name) + " " + relation + ": " + st.ToString());
    }));
  };
  ingest("link", {double(l.src), double(l.dst)});
  if (spec_.multiview) {
    ingest("wlink", {double(l.src), double(l.dst), l.cost_ms});
  }
  ++trial_updates_;
  return ev.fail;
}

// Times one Session::Apply; its span carries the call's counter deltas.
double Harness::TracedApply(size_t parent, Status* status) {
  Counters before;
  if (tracer_.enabled()) before = Sample(*session_);
  Clock::time_point t0 = Clock::now();
  size_t id = tracer_.Open("engine", "Apply", parent, t0);
  *status = session_->Apply();
  Clock::time_point t1 = Clock::now();
  tracer_.Close(id, t1,
                tracer_.enabled() ? DeltaArgs(before, Sample(*session_))
                                  : std::string());
  return Seconds(t0, t1);
}

// apply_p50_ms / apply_p90_ms count the Applies that carry a link failure:
// the paper's deletion latency. In the churn workloads every other Apply
// is a repair, 100x cheaper under DRed, and a median over both kinds would
// fall into the gap between them.
void Harness::Apply(size_t parent, bool failure) {
  Status st;
  const double s = TracedApply(parent, &st);
  apply_s_.Add(s);
  if (failure) failure_apply_s_.Add(s);
  bool converged = st.ok();
  for (size_t i = 0; i < session_->num_views(); ++i) {
    converged = converged && session_->view(i)->converged();
  }
  Op(converged, "Apply: " + st.ToString());
  ++applies_;
  first_read_pending_ = true;
}

void Harness::Read(size_t parent, bool lookup, View* view,
                  const char* relation, const Tuple& key) {
  PendingRead r{relation, key, lookup, Status::OK(), Tuple(), false};
  double s = Timed(tracer_, "views", lookup ? "Lookup" : "Contains", parent,
                   [&] {
                     if (lookup) {
                       StatusOr<Tuple> got = view->Lookup(relation, key);
                       r.status = got.status();
                       if (got.ok()) r.found = got.value();
                     } else {
                       StatusOr<bool> got = view->Contains(relation, key);
                       r.status = got.status();
                       if (got.ok()) r.contains = got.value();
                     }
                   });
  read_s_.Add(s);
  (lookup ? lookup_s_ : contains_s_).Add(s);
  if (first_read_pending_) {
    first_read_s_.Add(s);
    first_read_pending_ = false;
  }
  reads_.push_back(std::move(r));
}

double Harness::Checkpoint(size_t parent) {
  return Timed(tracer_, "persist", "Checkpoint", parent, [&] {
    Status st = session_->Checkpoint(snapshot_);
    Op(st.ok(), "Checkpoint: " + st.ToString());
  });
}

// One closed-loop step: the updates of one Apply, the clock tick, the Apply
// itself and the reads that follow it.
void Harness::Step(size_t parent) {
  const uint64_t n = static_cast<uint64_t>(in_.topo.num_nodes);
  auto node = [&] { return static_cast<int64_t>(keys_->NextBounded(n)); };
  Clock::time_point t0 = Clock::now();
  size_t step = tracer_.Open("bench", "step", parent, t0);
  reads_.clear();
  bool failure = false;
  if (!spec_.multiview) {
    failure = LinkEvent(step);
  } else {
    for (int k = 0; k < kLinkEventsPerApply && !churn_->done(); ++k) {
      failure = LinkEvent(step) || failure;
    }
    for (int k = 0; k < kTriggersPerApply; ++k) {
      int sensor = static_cast<int>(triggers_->NextBounded(
          static_cast<uint64_t>(in_.field.num_sensors)));
      ingest_s_.Add(Timed(tracer_, "engine", "InsertWithTtl", step, [&] {
        Status st = session_->InsertWithTtl(
            "triggered", Tuple::OfInts({sensor}), kTriggerTtl);
        Op(st.ok(), "InsertWithTtl: " + st.ToString());
      }));
      deadline_[sensor] = session_->now() + kTriggerTtl;
      ++trial_updates_;
    }
  }
  // Every Apply is one tick of the soft-state clock. The churn workloads
  // hold no soft state, so there the tick expires nothing.
  const double tick = session_->now() + 1;
  advance_s_.Add(Timed(tracer_, "engine", "AdvanceTime", step, [&] {
    Status st = session_->AdvanceTime(tick);
    Op(st.ok(), "AdvanceTime: " + st.ToString());
  }));
  for (auto it = deadline_.begin(); it != deadline_.end();) {
    it = it->second <= tick ? deadline_.erase(it) : std::next(it);
  }
  Apply(step, failure);
  if (!spec_.multiview) {
    for (int k = 0; k < kChurnReadPairs; ++k) {
      int64_t x = node();
      int64_t y = node();
      Read(step, false, reach_, "reachable", Tuple::OfInts({x, y}));
      Read(step, true, reach_, "reachable", Tuple::OfInts({x}));
    }
  } else {
    for (int k = 0; k < kReadsPerKind; ++k) {
      int64_t x = node();
      int64_t y = node();
      Read(step, false, reach_, "reachable", Tuple::OfInts({x, y}));
    }
    for (int k = 0; k < kReadsPerKind; ++k) {
      int64_t x = node();
      int64_t y = node();
      Read(step, true, path_, "minCost", Tuple::OfInts({x, y}));
    }
    for (int k = 0; k < kReadsPerKind; ++k) {
      int64_t r = static_cast<int64_t>(
          keys_->NextBounded(in_.field.seed_sensors.size()));
      Read(step, true, region_, "regionSizes", Tuple::OfInts({r}));
    }
    if (applies_ % kCheckpointEvery == 0) {
      checkpoint_s_.Add(Checkpoint(step));
    }
  }
  Clock::time_point t1 = Clock::now();
  tracer_.Close(step, t1);
  churn_wall_s_ += Seconds(t0, t1);
}

// Restores the snapshot into a fresh session and checks that the restored
// session serves exactly what the live one does. Returns the seconds taken
// by session construction plus Restore, and by the Restore call alone.
std::pair<double, double> Harness::RestoreAndCompare(size_t parent) {
  Clock::time_point t0 = Clock::now();
  size_t span = tracer_.Open("bench", "restore", parent, t0);
  auto fresh = std::make_unique<Session>(session_options_);
  const double call_s = Timed(tracer_, "persist", "Restore", span, [&] {
    Status st = fresh->Restore(snapshot_);
    Op(st.ok(), "Restore: " + st.ToString());
  });
  Clock::time_point t1 = Clock::now();
  tracer_.Close(span, t1);
  bool same = fresh->num_views() == session_->num_views();
  for (size_t v = 0; same && v < session_->num_views(); ++v) {
    const View* live = session_->view(v);
    const View* restored = fresh->view(v);
    std::vector<std::string> names = {live->plan().view};
    for (const auto& agg : live->plan().agg_views) names.push_back(agg.name);
    for (const std::string& name : names) {
      auto a = live->Scan(name);
      auto b = restored->Scan(name);
      same = same && a.ok() && b.ok() && a.value() == b.value();
    }
  }
  Op(same, "restored session's scans differ from the live session's");
  return {Seconds(t0, t1), call_s};
}

void Harness::SampleState() {
  double total = 0;
  for (size_t v = 0; v < session_->num_views(); ++v) {
    const View* view = session_->view(v);
    const double mb = view->Metrics().state_mb;
    view_state_mb_[view->plan().view].Add(mb);
    total += mb;
  }
  state_mb_.Add(total);
}

// --- Oracle (never timed) ---------------------------------------------------

void Harness::CheckReads() {
  const int n = in_.topo.num_nodes;
  const std::vector<LinkTuple> live = LiveLinks();
  std::vector<std::set<int>> reach = ReferenceReachability(n, live);
  std::optional<ReferenceShortestPaths> sp;
  std::vector<std::set<int>> regions;
  if (spec_.multiview) {
    sp = ReferenceShortest(n, live);
    regions = ReferenceRegions(in_.field, LiveTriggers());
  }
  for (const PendingRead& r : reads_) {
    const bool found = r.status.ok();
    if (!found && r.status.code() != StatusCode::kNotFound) {
      Op(false, "read " + r.relation + ": " + r.status.ToString());
      continue;
    }
    // A looked-up row must lead with the key it was looked up by.
    auto keyed = [&] {
      if (r.found.size() <= r.key.size()) return false;
      for (size_t i = 0; i < r.key.size(); ++i) {
        if (r.found.IntAt(i) != r.key.IntAt(i)) return false;
      }
      return true;
    };
    bool ok = false;
    const size_t x = static_cast<size_t>(r.key.IntAt(0));
    if (r.relation == "reachable" && !r.lookup) {
      ok = r.contains ==
           (reach[x].count(static_cast<int>(r.key.IntAt(1))) > 0);
    } else if (r.relation == "reachable") {
      ok = found ? keyed() &&
                       reach[x].count(static_cast<int>(r.found.IntAt(1))) > 0
                 : reach[x].empty();
    } else if (r.relation == "minCost") {
      const auto& want = sp->min_cost[x][static_cast<size_t>(r.key.IntAt(1))];
      ok = found ? keyed() && want.has_value() && r.found.DoubleAt(2) == *want
                 : !want.has_value();
    } else {
      const size_t size = regions[x].size();
      ok = found ? keyed() && static_cast<size_t>(r.found.IntAt(1)) == size
                 : size == 0;
    }
    Op(ok, "read " + r.relation + " " + r.key.ToString() +
               " disagrees with the reference");
  }
}

// A Scan as a set of numeric rows (node ids, counts and exact costs).
using Row = std::vector<double>;

std::set<Row> Rows(const std::vector<Tuple>& tuples) {
  std::set<Row> rows;
  for (const Tuple& t : tuples) {
    Row row;
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.at(i);
      row.push_back(v.is_int() ? static_cast<double>(v.AsInt())
                               : v.AsDouble());
    }
    rows.insert(std::move(row));
  }
  return rows;
}

// "N extra, M missing" and the first few rows of each, for a failure line.
std::string RowDiff(const std::set<Row>& have, const std::set<Row>& want) {
  std::string extra, missing;
  size_t num_extra = 0, num_missing = 0;
  auto note = [](const Row& row, size_t* count, std::string* out) {
    if ((*count)++ >= 3) return;
    *out += " (";
    for (size_t i = 0; i < row.size(); ++i) {
      char value[32];
      std::snprintf(value, sizeof(value), "%s%g", i ? "," : "", row[i]);
      *out += value;
    }
    *out += ")";
  };
  for (const Row& row : have) {
    if (!want.count(row)) note(row, &num_extra, &extra);
  }
  for (const Row& row : want) {
    if (!have.count(row)) note(row, &num_missing, &missing);
  }
  return std::to_string(num_extra) + " extra" + extra + ", " +
         std::to_string(num_missing) + " missing" + missing;
}

// Compares every view's full Scan with src/queries/reference.cc recomputed
// from the live link and trigger sets.
void Harness::CheckScans(const char* phase) {
  const int n = in_.topo.num_nodes;
  const std::vector<LinkTuple> live = LiveLinks();
  std::vector<std::tuple<View*, std::string, std::set<Row>>> want;
  std::set<Row> reach;
  std::vector<std::set<int>> ref = ReferenceReachability(n, live);
  for (int x = 0; x < n; ++x) {
    for (int y : ref[static_cast<size_t>(x)]) {
      reach.insert({double(x), double(y)});
    }
  }
  want.emplace_back(reach_, "reachable", std::move(reach));
  if (spec_.multiview) {
    ReferenceShortestPaths sp = ReferenceShortest(n, live);
    std::set<Row> cost;
    for (int x = 0; x < n; ++x) {
      for (int y = 0; y < n; ++y) {
        const auto& c =
            sp.min_cost[static_cast<size_t>(x)][static_cast<size_t>(y)];
        if (c.has_value()) cost.insert({double(x), double(y), *c});
      }
    }
    want.emplace_back(path_, "minCost", std::move(cost));
    std::vector<std::set<int>> regions =
        ReferenceRegions(in_.field, LiveTriggers());
    std::set<Row> members, sizes;
    for (size_t r = 0; r < regions.size(); ++r) {
      for (int s : regions[r]) members.insert({double(r), double(s)});
      if (!regions[r].empty()) {
        sizes.insert({double(r), double(regions[r].size())});
      }
    }
    want.emplace_back(region_, "activeRegion", std::move(members));
    want.emplace_back(region_, "regionSizes", std::move(sizes));
  }
  for (const auto& [view, name, rows] : want) {
    StatusOr<std::vector<Tuple>> got = view->Scan(name);
    if (!got.ok()) {
      Op(false, std::string(phase) + ": Scan(" + name +
                    "): " + got.status().ToString());
      continue;
    }
    const std::set<Row> have = Rows(got.value());
    Op(have == rows, std::string(phase) + ": Scan(" + name +
                         ") disagrees with the reference at trial " +
                         std::to_string(trials_ + 1) + ", Apply " +
                         std::to_string(applies_) + ": " +
                         RowDiff(have, rows));
  }
}

void Harness::RunTrial(uint64_t trial) {
  in_ = MakeInputs(StreamSeed(args_.seed, trial, 0));
  session_options_.num_nodes = in_.topo.num_nodes;
  size_t span = tracer_.Open("bench", "trial", 0, Clock::now());
  for (int i = 0; i < kRepeats; ++i) SetUp(span);
  churn_.emplace(in_.links.size(), StreamSeed(args_.seed, trial, 1));
  keys_.emplace(StreamSeed(args_.seed, trial, 2));
  triggers_.emplace(StreamSeed(args_.seed, trial, 3));
  trial_updates_ = 0;
  CheckScans("after set-up");
  // restore_s: restarting from a snapshot of the freshly loaded session.
  // Its size depends on the topology alone; after churn it also depends on
  // the order in which links came back (absorption allocates a new BDD
  // variable per re-inserted link), which varies restore time by 2x from
  // one stream to the next.
  Checkpoint(span);
  for (int i = 0; i < kRepeats; ++i) {
    restore_s_.Add(RestoreAndCompare(span).first);
  }
  const Counters start = Sample(*session_);
  const double churn_before = churn_wall_s_;
  while (!churn_->done() &&
         (args_.updates == 0 || trial_updates_ < args_.updates)) {
    Step(span);
    CheckReads();
    if (applies_ % kOracleEvery == 0) {
      CheckScans("periodic");
      SampleState();
    }
  }
  const Counters end = Sample(*session_);
  AddDelta(&counters_, start, end);
  gc_runs_.Add(double(end.bdd_gc_runs - start.bdd_gc_runs));
  contention_.Add(double(end.bdd_contention - start.bdd_contention));
  updates_ += trial_updates_;
  CheckScans("after churn");
  if (state_mb_.size() == 0) SampleState();
  double demotions = 0;
  for (size_t v = 0; v < session_->num_views(); ++v) {
    demotions += double(session_->view(v)->Metrics().ship_demotions);
  }
  ship_demotions_.Add(demotions);
  const bdd::Manager& bdd = *session_->substrate()->bdd_manager();
  bdd_live_.Add(static_cast<double>(bdd.live_nodes()));
  bdd_allocated_.Add(static_cast<double>(bdd.allocated_nodes()));
  bdd_segments_.Add(static_cast<double>(bdd.store_segments()));
  // The churned state: persist.* describe its checkpoints and restore.
  checkpoint_s_.Add(Checkpoint(span));
  std::error_code ec;
  snapshot_bytes_.Add(
      static_cast<double>(std::filesystem::file_size(snapshot_, ec)));
  restore_call_s_.Add(RestoreAndCompare(span).second);
  std::filesystem::remove(snapshot_, ec);
  tracer_.Close(span, Clock::now());
  ++trials_;
  std::fprintf(stderr, "trial %llu: %ld updates in %.2f s of churn\n",
               static_cast<unsigned long long>(trials_), trial_updates_,
               churn_wall_s_ - churn_before);
}

int Harness::Run() {
  const uint64_t trials =
      args_.updates > 0
          ? 1
          : static_cast<uint64_t>(std::max(
                1.0, std::round(args_.seconds / spec_.trial_seconds)));
  for (uint64_t trial = 0; trial < trials; ++trial) RunTrial(trial);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  session_.reset();
  if (tracer_.enabled() && !tracer_.Write(args_.trace_out)) {
    std::fprintf(stderr, "cannot write trace %s\n", args_.trace_out.c_str());
    return 1;
  }

  std::vector<Metric> metrics = Metrics();
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trials\":%llu,"
              "\"updates\":%ld,\"applies\":%ld,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              spec_.name, static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(trials_), updates_, applies_,
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu,"
                "\"end_to_end\":%s}",
                i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.end_to_end ? "true" : "false");
  }
  // Exact counters of the churn phase, for the exact-repeat self-check.
  std::printf("},\"counters\":{\"messages\":%llu,\"kill_messages\":%llu,"
              "\"bytes\":%llu,\"bdd_unique_probes\":%llu,"
              "\"state_mb\":%.17g}}\n",
              static_cast<unsigned long long>(counters_.messages),
              static_cast<unsigned long long>(counters_.kill_messages),
              static_cast<unsigned long long>(counters_.bytes),
              static_cast<unsigned long long>(counters_.bdd_probes),
              state_mb_.Median());
  return failed_ == 0 ? 0 : 1;
}

std::vector<Metric> Harness::Metrics() const {
  const double updates = static_cast<double>(updates_);
  const size_t u = static_cast<size_t>(updates_);
  const Counters& c = counters_;
  auto view_state = [&](const char* view) {
    auto it = view_state_mb_.find(view);
    return it == view_state_mb_.end() ? 0.0 : it->second.Median();
  };
  const size_t states = state_mb_.size();
  // End-to-end metrics with a bound. The user-facing timings other than
  // setup_s are reported with the per-layer metrics instead: on a shared
  // host they swing by more than the largest bound allowed (see README.md).
  return {
      {"setup_s", setup_s_.Median(), "s", setup_s_.size(), true},
      {"messages_per_update", Ratio(double(c.messages), updates), "count", u,
       true},
      {"comm_kb_per_update", Ratio(double(c.bytes) / 1024.0, updates), "KB",
       u, true},
      {"state_mb", state_mb_.Median(), "MB", states, true},
      {"peak_rss_mb", peak_rss_mb_, "MB", 1, true},
      // End-to-end timings without a bound, and the per-layer metrics.
      {"updates_per_s", Ratio(updates, churn_wall_s_), "1/s", u, false},
      {"apply_p50_ms", 1e3 * failure_apply_s_.Quantile(0.5), "ms",
       failure_apply_s_.size(), false},
      {"apply_p90_ms", 1e3 * failure_apply_s_.Quantile(0.9), "ms",
       failure_apply_s_.size(), false},
      {"read_p50_us", 1e6 * read_s_.Quantile(0.5), "us", read_s_.size(),
       false},
      {"read_p99_us", 1e6 * read_s_.Quantile(0.99), "us", read_s_.size(),
       false},
      {"restore_s", restore_s_.Median(), "s", restore_s_.size(), false},
      {"datalog.add_program_ms", 1e3 * add_program_s_.Median(), "ms",
       add_program_s_.size(), false},
      {"engine.ingest_us", 1e6 * ingest_s_.Median(), "us", ingest_s_.size(),
       false},
      {"engine.advance_time_us", 1e6 * advance_s_.Median(), "us",
       advance_s_.size(), false},
      {"engine.bulk_apply_s", bulk_apply_s_.Median(), "s",
       bulk_apply_s_.size(), false},
      {"engine.apply_share", Ratio(apply_s_.Sum(), churn_wall_s_), "ratio",
       apply_s_.size(), false},
      {"views.contains_us", 1e6 * contains_s_.Median(), "us",
       contains_s_.size(), false},
      {"views.lookup_us", 1e6 * lookup_s_.Median(), "us", lookup_s_.size(),
       false},
      {"views.first_read_after_apply_us", 1e6 * first_read_s_.Median(), "us",
       first_read_s_.size(), false},
      {"net.generations_per_update", Ratio(double(c.generations), updates),
       "count", u, false},
      {"net.messages_per_batch",
       Ratio(double(c.delivered), double(c.batches)), "count", u, false},
      {"net.kill_share", Ratio(double(c.kill_messages), double(c.messages)),
       "ratio", u, false},
      {"operators.state_mb.reachable", view_state("reachable"), "MB", states,
       false},
      {"operators.state_mb.path", view_state("path"), "MB", states, false},
      {"operators.state_mb.region", view_state("activeRegion"), "MB", states,
       false},
      {"operators.ship_demotions", ship_demotions_.Median(), "count",
       ship_demotions_.size(), false},
      {"provenance.per_tuple_bytes",
       Ratio(double(c.prov_bytes), double(c.prov_samples)), "B", u, false},
      {"bdd.unique_probes_per_update", Ratio(double(c.bdd_probes), updates),
       "count", u, false},
      {"bdd.cache_hit_rate",
       Ratio(double(c.bdd_cache_hits), double(c.bdd_cache_lookups)), "ratio",
       u, false},
      {"bdd.gc_runs", gc_runs_.Median(), "count", gc_runs_.size(), false},
      {"bdd.live_nodes", bdd_live_.Median(), "count", bdd_live_.size(),
       false},
      {"bdd.allocated_nodes", bdd_allocated_.Median(), "count",
       bdd_allocated_.size(), false},
      {"bdd.store_segments", bdd_segments_.Median(), "count",
       bdd_segments_.size(), false},
      {"bdd.stripe_contention", contention_.Median(), "count",
       contention_.size(), false},
      {"persist.checkpoint_ms", 1e3 * checkpoint_s_.Median(), "ms",
       checkpoint_s_.size(), false},
      {"persist.snapshot_bytes", snapshot_bytes_.Median(), "B",
       snapshot_bytes_.size(), false},
      {"persist.restore_ms", 1e3 * restore_call_s_.Median(), "ms",
       restore_call_s_.size(), false},
      {"trace.spans", double(tracer_.size()), "count", 1, false},
  };
}

}  // namespace
}  // namespace recnet

int main(int argc, char** argv) {
  using namespace recnet;
  Args args = ParseArgs(argc, argv);
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      Harness harness(args, spec);
      return harness.Run();
    }
  }
  Usage("unknown workload '" + args.workload + "'");
}
