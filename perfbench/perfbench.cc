// perfbench: dlog's benchmark program. Runs one named workload of ET1
// nodes (et1_node.h) on the serial engine, single-threaded, and prints one
// JSON object: simulated end-to-end metrics (exact for a seed), host
// end-to-end metrics, exact per-layer counts, and — with --spans — host
// time per layer from spans around the benchmark's own calls into each
// layer plus replay timings of the layers that run inside the engine.
//
//   perfbench --workload fleet|lan1987|recovery --seed N
//             [--spans] [--attr] [--short] [--no-workarounds]
//
// --attr turns on the cluster tracer and profiler and adds the simulated
// ForceLog latency attribution (obs::Profiler::AttributeForces); it is
// never used for the host-time metrics. --short shrinks every workload
// for the determinism self-test. --no-workarounds turns off the ET1
// node's workarounds for two open library defects (NodeParams), which
// then fail the correctness checks on some seeds. Exit status is 1 when
// a correctness check fails (the JSON is still printed, with "correct":
// false).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "et1_node.h"
#include "forest/append_forest.h"
#include "obs/profiler.h"
#include "server/track_format.h"
#include "sim/simulator.h"
#include "wire/messages.h"

namespace perfbench {
namespace {

constexpr sim::Duration kQuantum = 1 * sim::kMillisecond;
/// The capacity SLO: force p99 at most this, goodput at least
/// kGoodputShare of the arrivals drawn, and nothing shed or refused.
constexpr double kForceP99LimitMs = 50.0;
constexpr double kGoodputShare = 0.95;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool spans = false;
  bool attr = false;
  bool short_run = false;
  bool workarounds = true;
};

// ---------------------------------------------------------------------------
// Small output helpers.

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    Raw(key, q + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CurrentRssKb() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// A cluster plus its ET1 nodes.

struct Geometry {
  int clients = 0;
  int servers = 0;
  int networks = 1;
  double bandwidth_bps = 10e6;
  /// Servers per client (a slice starting at the client's index); 0 means
  /// every client uses every server.
  int slice = 0;
  NodeParams node;
  /// Boot (Init) calls are spread evenly over this much simulated time.
  sim::Duration boot_spread = 0;
};

struct Fleet {
  // Destroyed after the cluster (declared first), so no callback from a
  // dying LogClient reaches a destroyed node.
  std::vector<std::unique_ptr<Et1Node>> nodes;
  std::unique_ptr<harness::Cluster> cluster;
  int ready = 0;
  /// Set when restarts are still in flight at the end of a failed run:
  /// destroying a Cluster while a ReadLog is in flight crashes the process
  /// (an open defect), so such a cluster is left alive and the failure is
  /// reported instead.
  bool abandoned = false;

  ~Fleet() {
    Stats().shutdown = true;
    if (abandoned) (void)cluster.release();
    cluster.reset();
    nodes.clear();
    Stats().shutdown = false;
  }
};

/// Builds the cluster and its nodes; every seed comes from `seeds`.
std::unique_ptr<Fleet> Build(const Geometry& g, bool attr, Rng* seeds,
                             double* rss_kb_per_client) {
  auto f = std::make_unique<Fleet>();
  harness::ClusterConfig cc;
  cc.num_servers = g.servers;
  cc.num_networks = g.networks;
  cc.network.bandwidth_bits_per_sec = g.bandwidth_bps;
  cc.network.seed = seeds->NextU64();
  cc.seed = seeds->NextU64();
  cc.run_until_quantum = kQuantum;
  cc.tracing = attr;
  cc.profiling = attr;
  f->cluster = std::make_unique<harness::Cluster>(cc);
  const double rss_before = CurrentRssKb();
  f->nodes.reserve(static_cast<size_t>(g.clients));
  for (int i = 0; i < g.clients; ++i) {
    client::LogClientConfig lc;
    lc.client_id = static_cast<ClientId>(i + 1);
    if (g.slice > 0) {
      for (int j = 0; j < g.slice; ++j) {
        lc.servers.push_back(
            static_cast<net::NodeId>((i + j) % g.servers + 1));
      }
      lc.generator_reps.assign(lc.servers.begin(),
                               lc.servers.begin() + std::min(3, g.slice));
    }
    lc.seed = seeds->NextU64();
    const uint64_t node_seed = seeds->NextU64();
    f->nodes.push_back(
        std::make_unique<Et1Node>(f->cluster.get(), lc, g.node, node_seed));
  }
  if (rss_kb_per_client != nullptr) {
    *rss_kb_per_client = (CurrentRssKb() - rss_before) / g.clients;
  }
  return f;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void BootAll(Fleet* f, sim::Duration spread) {
  const size_t n = f->nodes.size();
  const sim::Time now = f->cluster->Now();
  for (size_t i = 0; i < n; ++i) {
    Et1Node* node = f->nodes[i].get();
    f->cluster->scheduler().At(
        now + static_cast<sim::Time>(i) * spread / n, [f, node]() {
          node->Boot([f, node]() {
            ++f->ready;
            node->StartArrivals();
          });
        });
  }
  if (!f->cluster->RunUntil(
          [f, n]() { return static_cast<size_t>(f->ready) == n; },
          120 * sim::kSecond)) {
    Fail("nodes failed to initialize");
  }
}

/// Stops arrivals and runs until every in-flight transaction completed.
void Drain(Fleet* f) {
  for (auto& n : f->nodes) n->StopArrivals();
  f->cluster->RunUntil(
      [f]() {
        for (auto& n : f->nodes) {
          if (n->inflight() != 0) return false;
        }
        return true;
      },
      60 * sim::kSecond);
}

// ---------------------------------------------------------------------------
// Cumulative counters, read before and after a measured phase.

struct Tally {
  int64_t wall = 0;
  int64_t check_ns = 0;
  sim::Time now = 0;
  uint64_t events = 0;
  uint64_t bytes_copied = 0;
  uint64_t acked = 0;
  uint64_t attempted = 0;
  uint64_t refused = 0;
  uint64_t records_written = 0;
  uint64_t tracks = 0;
  uint64_t read_rpcs = 0;
  uint64_t shed = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_reads = 0;
  double cpu_busy_s = 0;
  double disk_busy_s = 0;
  uint64_t bits = 0;
  uint64_t packets = 0;
  uint64_t drops = 0;
  ClientCounts client;

  void AddDelta(const Tally& a, const Tally& b) {
    wall += (b.wall - a.wall) - (b.check_ns - a.check_ns);
    now += b.now - a.now;
    events += b.events - a.events;
    bytes_copied += b.bytes_copied - a.bytes_copied;
    acked += b.acked - a.acked;
    attempted += b.attempted - a.attempted;
    refused += b.refused - a.refused;
    records_written += b.records_written - a.records_written;
    tracks += b.tracks - a.tracks;
    read_rpcs += b.read_rpcs - a.read_rpcs;
    shed += b.shed - a.shed;
    disk_writes += b.disk_writes - a.disk_writes;
    disk_reads += b.disk_reads - a.disk_reads;
    cpu_busy_s += b.cpu_busy_s - a.cpu_busy_s;
    disk_busy_s += b.disk_busy_s - a.disk_busy_s;
    bits += b.bits - a.bits;
    packets += b.packets - a.packets;
    drops += b.drops - a.drops;
    client.AddDelta(a.client, b.client);
  }
};

Tally Take(Fleet* f) {
  Tally t;
  harness::Cluster& c = *f->cluster;
  t.wall = WallNs();
  t.check_ns = Stats().check_ns;
  t.now = c.Now();
  t.events = c.sim().events_executed();
  t.bytes_copied = BytesCopied();
  t.acked = Stats().acked;
  t.attempted = Stats().attempted;
  t.refused = Stats().refused;
  for (int s = 1; s <= c.num_servers(); ++s) {
    server::LogServer& srv = c.server(s);
    t.records_written += srv.records_written().value();
    t.tracks += srv.tracks_written().value();
    t.read_rpcs += srv.read_rpcs().value();
    t.shed += srv.writes_shed().value();
    t.disk_writes += srv.disk().writes().value();
    t.disk_reads += srv.disk().reads().value();
    t.cpu_busy_s += sim::DurationToSeconds(srv.cpu().busy_time());
    t.disk_busy_s += sim::DurationToSeconds(srv.disk().busy_time());
    for (int n = 0; n < c.num_networks(); ++n) {
      t.drops += srv.nic(n).overflow_drops().value();
    }
  }
  for (int n = 0; n < c.num_networks(); ++n) {
    net::Network& net = c.network(n);
    t.bits += net.bits_sent();
    t.packets += net.packets_sent().value();
    t.drops += net.packets_lost().value() +
               net.packets_partition_dropped().value();
  }
  for (auto& node : f->nodes) t.client.AddDelta({}, node->counts());
  return t;
}

/// Runs one measured phase: counters before/after go into `sum`, and the
/// traced run records spans only here.
template <typename RunFn>
void Measure(Fleet* f, bool spans, Tally* sum, RunFn run) {
  const Tally before = Take(f);
  Stats().window = true;
  Spans().enabled = spans;
  {
    Span span("sim.RunFor");
    run();
  }
  Spans().enabled = false;
  Stats().window = false;
  sum->AddDelta(before, Take(f));
}

// ---------------------------------------------------------------------------
// Rate points and capacity.

struct Point {
  double offered = 0;  // TPS, the configured rate
  double arrived = 0;  // TPS, the Poisson arrivals actually drawn
  double goodput = 0;  // TPS
  double mean = 0;
  double p99 = 0;
  uint64_t shed = 0;  // server sheds + refused arrivals
  bool Pass() const {
    return p99 <= kForceP99LimitMs && goodput >= kGoodputShare * arrived &&
           shed == 0;
  }
};

/// The goodput delivered at the highest grid rate that meets the SLO
/// (grid ascending; 0 when the lowest rate fails).
double Capacity(const std::vector<Point>& points) {
  double capacity = 0.0;
  for (const Point& p : points) {
    if (!p.Pass()) break;
    capacity = p.goodput;
  }
  return capacity;
}

Point TakePoint(double offered, sim::Duration window, const Tally& before,
                const Tally& after) {
  const double seconds = sim::DurationToSeconds(window);
  Point p;
  p.offered = offered;
  p.arrived = static_cast<double>(after.attempted - before.attempted) /
              seconds;
  p.goodput = static_cast<double>(after.acked - before.acked) / seconds;
  p.mean = Stats().force_ms.Mean();
  p.p99 = Stats().force_ms.Percentile(0.99);
  p.shed = (after.shed - before.shed) + (after.refused - before.refused);
  return p;
}

// ---------------------------------------------------------------------------
// Restart phases.

/// Crashes and restarts nodes from `queue` in order, with at most
/// `concurrency` restarts in progress: each crash comes a seeded gap after
/// the slot frees, the node stays down a seeded time, then restarts and
/// recovers. A node still recovering is passed over until it serves again.
/// Runs until every queued restart has recovered.
class CrashLoop {
 public:
  CrashLoop(harness::Cluster* cluster, std::vector<Et1Node*> queue,
            int concurrency, Rng* rng)
      : cluster_(cluster), queue_(std::move(queue)),
        concurrency_(concurrency), rng_(rng) {}

  bool Run(sim::Duration timeout) {
    Pump();
    return cluster_->RunUntil([this]() { return done_ == queue_.size(); },
                              timeout);
  }

 private:
  void Pump() {
    while (running_ < concurrency_ && next_ < queue_.size()) {
      size_t pick = next_;
      while (pick < queue_.size() && busy(queue_[pick])) ++pick;
      if (pick == queue_.size()) return;  // retried when a restart ends
      std::swap(queue_[next_], queue_[pick]);
      Launch(queue_[next_++]);
    }
  }
  bool busy(Et1Node* n) const {
    return std::find(active_.begin(), active_.end(), n) != active_.end();
  }
  void Launch(Et1Node* node) {
    ++running_;
    active_.push_back(node);
    const sim::Duration gap = rng_->NextBelow(1 * sim::kSecond);
    const sim::Duration down =
        200 * sim::kMillisecond + rng_->NextBelow(800 * sim::kMillisecond);
    cluster_->scheduler().After(gap, [this, node, down]() {
      node->Crash();
      cluster_->scheduler().After(down, [this, node]() {
        node->Restart([this, node]() {
          --running_;
          ++done_;
          active_.erase(std::find(active_.begin(), active_.end(), node));
          Pump();
        });
      });
    });
  }

  harness::Cluster* cluster_;
  std::vector<Et1Node*> queue_;
  int concurrency_;
  Rng* rng_;
  size_t next_ = 0;
  int running_ = 0;
  size_t done_ = 0;
  std::vector<Et1Node*> active_;
};

/// `rounds` seeded permutations of the fleet's nodes, back to back.
std::vector<Et1Node*> CrashQueue(Fleet* f, int rounds, size_t per_round,
                                 Rng* rng) {
  std::vector<Et1Node*> queue;
  for (int r = 0; r < rounds; ++r) {
    std::vector<Et1Node*> round;
    for (auto& n : f->nodes) round.push_back(n.get());
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng->NextBelow(i)]);
    }
    round.resize(std::min(per_round, round.size()));
    queue.insert(queue.end(), round.begin(), round.end());
  }
  return queue;
}

/// Restarts `victims` distinct nodes of a drained (idle) fleet, `rounds`
/// times each.
void RestartProbe(Fleet* f, int rounds, int victims, int concurrency,
                  Rng* rng) {
  CrashLoop loop(f->cluster.get(),
                 CrashQueue(f, rounds, static_cast<size_t>(victims), rng),
                 concurrency, rng);
  if (!loop.Run(1800 * sim::kSecond)) {
    Stats().Error("restart probe: recoveries did not finish");
    f->abandoned = true;
  }
}

// ---------------------------------------------------------------------------
// Workload results.

struct Result {
  Geometry geometry;
  double setup_s = 0;
  std::vector<Point> grid;  // the rates the capacity SLO is judged on
  Point reported;           // the phase whose force/goodput are reported
  Tally window;             // summed over every measured phase
  Tally restart;            // the restart phase(s)
  double rss_kb_per_client = 0;
  double mean_forest_nodes = 0;
  double nvram_max_bytes = 0;
  std::vector<obs::Profiler::Attribution> attribution;
  uint64_t pending_events = 0;
  uint64_t digest = 1469598103934665603ULL;
};

void Finish(Fleet* f, Result* r) {
  Drain(f);
  for (auto& n : f->nodes) n->FinalCheck();
  harness::Cluster& c = *f->cluster;
  for (auto& n : f->nodes) r->digest = n->Digest(r->digest);
  double forest_nodes = 0;
  int forests = 0;
  for (int s = 1; s <= c.num_servers(); ++s) {
    const uint64_t w = c.server(s).records_written().value();
    for (int i = 0; i < 8; ++i) {
      r->digest ^= (w >> (8 * i)) & 0xff;
      r->digest *= 1099511628211ULL;
    }
    for (auto& n : f->nodes) {
      const forest::AppendForest* fo =
          c.server(s).ForestOf(n->log().client_id());
      if (fo != nullptr && !fo->empty()) {
        forest_nodes += static_cast<double>(fo->size());
        ++forests;
      }
    }
  }
  r->mean_forest_nodes = Ratio(forest_nodes, forests);
  // Peak NVRAM group-buffer occupancy over the cluster's life, from each
  // server's registered occupancy gauge.
  for (const obs::MetricRef& m : c.metrics().Enumerate()) {
    if (m.tw_gauge != nullptr &&
        m.name.ends_with("/nvram/occupancy_bytes")) {
      r->nvram_max_bytes = std::max(r->nvram_max_bytes, m.tw_gauge->max());
    }
  }
}

void Attribute(Fleet* f, sim::Time from, sim::Time to, Result* r) {
  for (auto& a : f->cluster->profiler().AttributeForces(
           f->cluster->tracer())) {
    if (a.start >= from && a.start < to) r->attribution.push_back(a);
  }
}

/// fleet: many clients on fast hardware; host cost per transaction.
Result RunFleet(const Options& o, Rng* seeds) {
  Geometry g;
  g.clients = o.short_run ? 200 : 2000;
  g.servers = o.short_run ? 10 : 20;
  g.bandwidth_bps = 1e9;
  g.slice = 5;
  g.node.tps = 2.0;
  g.node.bank.accounts = 100;
  g.node.bank.tellers = 10;
  g.node.bank.branches = 2;
  g.boot_spread = 2 * sim::kSecond;
  g.node.workarounds = o.workarounds;
  const sim::Duration window = (o.short_run ? 1 : 8) * sim::kSecond;

  Result r;
  r.geometry = g;
  const int64_t t0 = WallNs();
  auto f = Build(g, o.attr, seeds, &r.rss_kb_per_client);
  BootAll(f.get(), g.boot_spread);
  f->cluster->RunFor(1 * sim::kSecond);
  r.setup_s = static_cast<double>(WallNs() - t0) / 1e9;

  const Tally before = Take(f.get());
  Measure(f.get(), o.spans, &r.window,
          [&]() { f->cluster->RunFor(window); });
  r.reported =
      TakePoint(g.clients * g.node.tps, window, before, Take(f.get()));
  r.grid.push_back(r.reported);
  r.pending_events = f->cluster->sim().pending_events();
  if (o.attr) Attribute(f.get(), before.now, before.now + window, &r);

  Rng rng(seeds->NextU64());
  Drain(f.get());
  const Tally rb = Take(f.get());
  RestartProbe(f.get(), o.short_run ? 1 : 2, o.short_run ? 20 : 800, 4, &rng);
  r.restart.AddDelta(rb, Take(f.get()));
  Finish(f.get(), &r);
  return r;
}

/// lan1987: the paper's hardware over a rate grid around the knee.
Result RunLan1987(const Options& o, Rng* seeds) {
  Geometry g;
  g.clients = 50;
  g.servers = 6;
  g.networks = 2;
  g.bandwidth_bps = 10e6;
  g.boot_spread = 500 * sim::kMillisecond;
  g.node.workarounds = o.workarounds;
  const std::vector<double> grid =
      o.short_run ? std::vector<double>{18, 26}
                  : std::vector<double>{16, 18, 20, 22, 24, 26};
  const double ref_rate = o.short_run ? 18 : 16;
  // The reported point runs longer: its force p99 is a reported metric.
  const sim::Duration window = (o.short_run ? 2 : 5) * sim::kSecond;
  const sim::Duration ref_window = (o.short_run ? 2 : 15) * sim::kSecond;

  Result r;
  r.geometry = g;
  r.grid.resize(grid.size());
  // The reference point runs last: its restart probe leaves a large,
  // fragmented heap behind (every Recover scan state leaks), which would
  // slow the other points' measured windows.
  std::vector<size_t> order;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i] != ref_rate) order.push_back(i);
  }
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i] == ref_rate) order.push_back(i);
  }
  for (size_t i : order) {
    g.node.tps = grid[i];
    const bool ref = grid[i] == ref_rate;
    Rng point_seeds(seeds->NextU64());
    const int64_t t0 = WallNs();
    auto f = Build(g, o.attr && ref, &point_seeds,
                   i == order.front() ? &r.rss_kb_per_client : nullptr);
    BootAll(f.get(), g.boot_spread);
    f->cluster->RunFor(2 * sim::kSecond);
    r.setup_s += static_cast<double>(WallNs() - t0) / 1e9;

    Stats().force_ms.Clear();
    const sim::Duration d = ref ? ref_window : window;
    const Tally before = Take(f.get());
    Measure(f.get(), o.spans, &r.window, [&]() { f->cluster->RunFor(d); });
    r.grid[i] = TakePoint(g.clients * grid[i], d, before, Take(f.get()));
    if (ref) {
      r.reported = r.grid[i];
      r.pending_events = f->cluster->sim().pending_events();
      if (o.attr) Attribute(f.get(), before.now, before.now + d, &r);
      Rng rng(point_seeds.NextU64());
      Drain(f.get());
      const Tally rb = Take(f.get());
      RestartProbe(f.get(), o.short_run ? 1 : 5, g.clients, 2, &rng);
      r.restart.AddDelta(rb, Take(f.get()));
    }
    Finish(f.get(), &r);
  }
  return r;
}

/// recovery: every client crashes and recovers several times while the
/// others keep writing; one server crash overlaps.
Result RunRecovery(const Options& o, Rng* seeds) {
  Geometry g;
  g.clients = o.short_run ? 8 : 40;
  g.servers = 6;
  g.bandwidth_bps = 10e6;
  g.node.tps = 1.0;
  g.boot_spread = 1 * sim::kSecond;
  g.node.workarounds = o.workarounds;
  const int rounds = o.short_run ? 1 : 3;
  const int trials = o.short_run ? 1 : 6;
  const sim::Duration steady = 5 * sim::kSecond;
  const double offered = g.clients * g.node.tps;

  Result r;
  r.geometry = g;
  sim::Histogram steady_ms, crash_ms;
  Point steady_point, crash_point;
  double steady_s = 0, crash_s = 0;
  for (int t = 0; t < trials; ++t) {
    Rng trial_seeds(seeds->NextU64());
    const int64_t t0 = WallNs();
    auto f = Build(g, o.attr && t == 0, &trial_seeds,
                   t == 0 ? &r.rss_kb_per_client : nullptr);
    BootAll(f.get(), g.boot_spread);
    f->cluster->RunFor(2 * sim::kSecond);
    r.setup_s += static_cast<double>(WallNs() - t0) / 1e9;

    // Below the knee: the SLO holds at the offered rate.
    Stats().force_ms.Clear();
    Stats().window = true;  // sample the steady phase's forces
    Tally before = Take(f.get());
    f->cluster->RunFor(steady);
    Stats().window = false;
    Tally after = Take(f.get());
    steady_ms.Merge(Stats().force_ms);
    Stats().force_ms.Clear();
    steady_point.goodput += static_cast<double>(after.acked - before.acked);
    steady_point.arrived +=
        static_cast<double>(after.attempted - before.attempted);
    steady_point.shed +=
        (after.shed - before.shed) + (after.refused - before.refused);
    steady_s += sim::DurationToSeconds(steady);

    // Every client crashes `rounds` times while the others keep writing;
    // one server crash overlaps the start. The schedule comes from the
    // seed.
    Rng rng(trial_seeds.NextU64());
    harness::Cluster* c = f->cluster.get();
    CrashLoop loop(c, CrashQueue(f.get(), rounds, f->nodes.size(), &rng),
                   4, &rng);
    const sim::Time start = c->Now();
    const int victim = 1 + static_cast<int>(rng.NextBelow(g.servers));
    c->scheduler().At(start + 10 * sim::kSecond,
                      [c, victim]() { c->CrashServer(victim); });
    c->scheduler().At(start + 18 * sim::kSecond,
                      [c, victim]() { c->RestartServer(victim); });

    before = Take(f.get());
    bool completed = false;
    Measure(f.get(), o.spans, &r.window,
            [&]() { completed = loop.Run(1800 * sim::kSecond); });
    after = Take(f.get());
    if (!completed) {
      Stats().Error("recovery: not every recovery finished");
      f->abandoned = true;
      return r;
    }
    r.restart.AddDelta(before, after);
    crash_ms.Merge(Stats().force_ms);
    Stats().force_ms.Clear();
    crash_point.goodput += static_cast<double>(after.acked - before.acked);
    crash_point.arrived +=
        static_cast<double>(after.attempted - before.attempted);
    crash_point.shed +=
        (after.shed - before.shed) + (after.refused - before.refused);
    crash_s += sim::DurationToSeconds(after.now - before.now);
    r.pending_events += c->sim().pending_events();
    if (o.attr && t == 0) Attribute(f.get(), before.now, after.now, &r);
    Finish(f.get(), &r);
  }
  // Pooled over the trials.
  auto pool = [offered](Point p, double seconds, const sim::Histogram& h) {
    p.offered = offered;
    p.arrived /= seconds;
    p.goodput /= seconds;
    p.mean = h.Mean();
    p.p99 = h.Percentile(0.99);
    return p;
  };
  r.grid.push_back(pool(steady_point, steady_s, steady_ms));
  // The reported force/goodput are those of the crash phases, where reads
  // run beside writes.
  r.reported = pool(crash_point, crash_s, crash_ms);
  return r;
}

// ---------------------------------------------------------------------------
// Replay timings of the layers that run inside the engine, shaped by the
// run's own counts. Each returns the median of several timed batches.

template <typename Fn>
double MedianNs(int batches, int iters, Fn fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = WallNs();
    for (int i = 0; i < iters; ++i) fn(i);
    v.push_back(static_cast<double>(WallNs() - t0) / iters);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

volatile uint64_t g_sink = 0;
/// Keeps a replayed result alive so the optimizer cannot drop the work.
void Keep(uint64_t v) { g_sink = g_sink + v; }

struct Replays {
  double encode_ns_per_record = 0;
  double decode_ns_per_record = 0;
  double track_encode_ns = 0;
  double track_decode_ns = 0;
  double forest_find_ns = 0;
  double dispatch_ns = 0;
};

Replays RunReplays(size_t batch_records, size_t record_bytes,
                   size_t track_records, size_t forest_nodes,
                   uint64_t seed) {
  Replays out;
  Rng rng(seed);
  batch_records = std::max<size_t>(batch_records, 1);
  track_records = std::max<size_t>(track_records, 1);
  forest_nodes = std::max<size_t>(forest_nodes, 1);

  wire::RecordBatch batch;
  batch.client = 7;
  batch.epoch = 3;
  for (size_t i = 0; i < batch_records; ++i) {
    LogRecord rec;
    rec.lsn = 1000 + i;
    rec.epoch = 3;
    Bytes data(record_bytes);
    for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
    rec.data = SharedBytes(std::move(data));
    batch.records.push_back(rec);
  }
  const double rec = static_cast<double>(batch_records);
  out.encode_ns_per_record =
      MedianNs(7, 2000, [&](int) {
        Keep(wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch)
                 .size());
      }) /
      rec;
  const SharedBytes encoded(
      wire::EncodeRecordBatch(wire::MessageType::kForceLog, batch));
  out.decode_ns_per_record =
      MedianNs(7, 2000, [&](int) {
        auto env = wire::DecodeEnvelope(encoded);
        if (env.ok()) {
          auto b = wire::DecodeRecordBatch(env->body);
          if (b.ok()) Keep(b->records.size());
        }
      }) /
      rec;

  std::vector<Bytes> entries;
  for (size_t i = 0; i < track_records; ++i) {
    server::StreamEntry e;
    e.client = static_cast<ClientId>(1 + i % 50);
    e.record = batch.records[i % batch.records.size()];
    e.record.lsn = 1 + i;
    entries.push_back(server::EncodeStreamEntry(e));
  }
  std::vector<const Bytes*> ptrs;
  for (const Bytes& e : entries) ptrs.push_back(&e);
  out.track_encode_ns = MedianNs(7, 500, [&](int) {
    Keep(server::EncodeTrackFromEncoded(ptrs).size());
  });
  const Bytes track = server::EncodeTrackFromEncoded(ptrs);
  out.track_decode_ns = MedianNs(7, 500, [&](int) {
    auto d = server::DecodeTrack(track);
    if (d.ok()) Keep(d->size());
  });

  forest::AppendForest forest;
  const uint64_t width = 16;
  for (uint64_t i = 0; i < forest_nodes; ++i) {
    (void)forest.Append(1 + i * width, (i + 1) * width, i);
  }
  const uint64_t keys = forest_nodes * width;
  std::vector<uint64_t> probes(4096);
  for (auto& k : probes) k = 1 + rng.NextBelow(keys);
  out.forest_find_ns = MedianNs(7, 20000, [&](int i) {
    auto n = forest.Find(probes[static_cast<size_t>(i) & 4095]);
    if (n.ok()) Keep(n->value);
  });

  // Simulator::At + dispatch of events spread over a window, as timers
  // and packet deliveries are.
  constexpr int kEvents = 20000;
  std::vector<sim::Time> when(kEvents);
  for (auto& t : when) t = rng.NextBelow(100 * sim::kMillisecond);
  out.dispatch_ns = MedianNs(5, 1, [&](int) {
                      sim::Simulator s;
                      uint64_t n = 0;
                      for (sim::Time t : when) s.At(t, [&n]() { ++n; });
                      s.Run();
                      Keep(n);
                    }) /
                    kEvents;
  return out;
}

/// Per-name span totals: count, inclusive ns, self ns (inclusive minus
/// the time covered by child spans).
struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

std::map<std::string, SpanTotals> SummarizeSpans() {
  const auto& spans = Spans().spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const double d = static_cast<double>(spans[i].end - spans[i].start);
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - child[i];
  }
  return out;
}

// ---------------------------------------------------------------------------

int Main(const Options& o) {
  Rng seeds(o.seed * 0x9E3779B97F4A7C15ULL + 0x243F6A8885A308D3ULL);
  Result r;
  if (o.workload == "fleet") {
    r = RunFleet(o, &seeds);
  } else if (o.workload == "lan1987") {
    r = RunLan1987(o, &seeds);
  } else if (o.workload == "recovery") {
    r = RunRecovery(o, &seeds);
  } else {
    Fail("unknown workload '" + o.workload + "'");
  }
  RunStats& st = Stats();
  const Tally& w = r.window;
  const Tally& rs = r.restart;
  const Point& ref = r.reported;

  // attempted = acknowledged + failed + refused + cut off by a crash.
  if (st.attempted != st.acked + st.failed + st.refused + st.cut_off) {
    st.Error("ET1 accounting: attempted " + std::to_string(st.attempted) +
             " != acked+failed+refused+cut_off");
  }
  if (st.recovery_attempts != st.recoveries + st.recovery_failures) {
    st.Error("recovery attempts do not add up");
  }
  if (st.recovery_ms.count() == 0 || w.acked == 0) {
    st.Error("the workload completed no recovery or no transaction");
  }
  const uint64_t attempted = st.attempted + st.recovery_attempts;
  const uint64_t acked = st.acked + st.recoveries;

  JsonObject sim;
  sim.Num("goodput_tps", ref.goodput);
  sim.Num("force_mean_ms", ref.mean);
  sim.Num("force_p99_ms", ref.p99);
  sim.Num("capacity_tps", Capacity(r.grid));
  sim.Num("recovery_p50_ms", st.recovery_ms.Percentile(0.50));
  sim.Num("recovery_p90_ms", st.recovery_ms.Percentile(0.90));
  sim.Num("read_mean_ms", st.read_ms.Mean());
  sim.Num("ack_frac", Ratio(static_cast<double>(acked),
                            static_cast<double>(attempted)));

  JsonObject host;
  host.Num("setup_s", r.setup_s);
  host.Num("host_us_per_txn",
           Ratio(static_cast<double>(w.wall) / 1e3,
                 static_cast<double>(w.acked)));
  host.Num("peak_rss_mb", PeakRssMb());
  host.Num("client.rss_kb_per_client", r.rss_kb_per_client);

  const double txns = static_cast<double>(w.acked);
  const double window_s = sim::DurationToSeconds(w.now);
  const double recoveries = static_cast<double>(st.recoveries);
  // Exact per-layer counts (a pure function of the seed).
  JsonObject counts;
  counts.Num("sim.events_per_txn", Ratio(w.events, txns));
  counts.Num("sim.pending_events", static_cast<double>(r.pending_events));
  counts.Num("tp.log_bytes_per_txn", Ratio(w.client.log_bytes, txns));
  counts.Num("tp.reads_per_recovery", Ratio(st.recovery_reads, recoveries));
  counts.Num("tp.recover_fail_frac",
             Ratio(st.recover_failures, st.recover_calls));
  counts.Num("client.records_per_batch",
             Ratio(w.client.records_sent, w.client.batches_sent));
  counts.Num("client.resends_per_kforce",
             1000.0 * Ratio(w.client.resends, w.client.forces));
  counts.Num("client.server_switches",
             static_cast<double>(w.client.server_switches));
  counts.Num("client.init_p50_ms", st.init_ms.Percentile(0.50));
  counts.Num("client.init_p99_ms", st.init_ms.Percentile(0.99));
  counts.Num("client.read_local_frac", Ratio(st.reads_local, st.reads));
  counts.Num("client.read_p99_ms", st.read_ms.Percentile(0.99));
  counts.Num("net.packets_per_txn", Ratio(w.packets, txns));
  counts.Num("net.bits_per_txn", Ratio(w.bits, txns));
  const Geometry& g = r.geometry;
  counts.Num("net.lan_util",
             Ratio(w.bits, g.bandwidth_bps * g.networks * window_s));
  counts.Num("net.drop_frac", Ratio(w.drops, w.packets));
  counts.Num("server.records_per_track", Ratio(w.records_written, w.tracks));
  counts.Num("server.records_written_per_txn",
             Ratio(w.records_written, txns));
  counts.Num("server.cpu_util", Ratio(w.cpu_busy_s, g.servers * window_s));
  counts.Num("server.read_rpcs_per_read",
             Ratio(rs.read_rpcs, st.reads));
  counts.Num("storage.disk_util",
             Ratio(w.disk_busy_s, g.servers * window_s));
  counts.Num("storage.disk_writes_per_force",
             Ratio(w.disk_writes, w.client.forces));
  counts.Num("storage.disk_reads_per_recovery",
             Ratio(rs.disk_reads, recoveries));
  counts.Num("storage.nvram_max_bytes", r.nvram_max_bytes);
  counts.Num("flow.shed_frac",
             Ratio(w.shed, w.records_written + w.shed));
  counts.Num("flow.txn_refused_frac", Ratio(st.refused, st.attempted));
  counts.Num("wire.bytes_copied_per_record",
             Ratio(w.bytes_copied, w.records_written));

  JsonObject out;
  out.Str("workload", o.workload);
  out.Num("seed", static_cast<double>(o.seed));
  out.Raw("correct", st.errors.empty() ? "true" : "false");
  // The run's operations: ET1 transactions and restarts. A restart counts
  // once however many Init/Recover retries it took (they are in ack_frac
  // and tp.recover_fail_frac); refused and crash-cut transactions are
  // neither acknowledged nor failed.
  out.Num("attempted", static_cast<double>(st.attempted + st.recoveries));
  out.Num("failed", static_cast<double>(st.failed));
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    out.Str("digest", buf);
  }
  {
    std::string errs = "[";
    for (size_t i = 0; i < st.errors.size(); ++i) {
      JsonObject e;
      e.Str("error", st.errors[i]);
      errs += (i ? ", " : "") + e.Done();
    }
    out.Raw("errors", errs + "]");
  }
  out.Raw("sim", sim.Done());
  out.Raw("counts", counts.Done());
  out.Raw("host", host.Done());

  if (o.spans) {
    const auto totals = SummarizeSpans();
    auto self = [&](const char* n) {
      auto it = totals.find(n);
      return it == totals.end() ? 0.0 : it->second.self_ns;
    };
    auto total = [&](const char* n) {
      auto it = totals.find(n);
      return it == totals.end() ? 0.0 : it->second.total_ns;
    };
    auto count = [&](const char* n) {
      auto it = totals.find(n);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    const double submitted = count("tp.RunEt1");
    JsonObject timing;
    timing.Num("sim.runfor_self_ns_per_txn", Ratio(self("sim.RunFor"), txns));
    timing.Num("tp.submit_self_ns_per_txn",
               Ratio(self("tp.RunEt1"), submitted));
    timing.Num("client.submit_ns_per_txn",
               Ratio(total("client.WriteLog") + total("client.ForceLog"),
                     submitted));
    timing.Num("harness.arrival_self_ns_per_txn",
               Ratio(self("harness.arrival"), submitted));
    const Replays rp = RunReplays(
        static_cast<size_t>(std::lround(
            Ratio(w.client.records_sent, w.client.batches_sent))),
        static_cast<size_t>(
            std::lround(Ratio(w.client.log_bytes, w.client.log_records))),
        static_cast<size_t>(
            std::lround(Ratio(w.records_written, w.tracks))),
        static_cast<size_t>(std::lround(r.mean_forest_nodes)), o.seed);
    timing.Num("wire.encode_ns_per_record", rp.encode_ns_per_record);
    timing.Num("wire.decode_ns_per_record", rp.decode_ns_per_record);
    timing.Num("server.track_encode_ns", rp.track_encode_ns);
    timing.Num("server.track_decode_ns", rp.track_decode_ns);
    timing.Num("forest.find_ns", rp.forest_find_ns);
    timing.Num("sim.replay_dispatch_ns", rp.dispatch_ns);
    out.Raw("timing", timing.Done());
  }
  if (o.attr) {
    const auto& names = obs::AttributionComponents();
    std::vector<double> sum(names.size(), 0.0);
    for (const auto& a : r.attribution) {
      for (size_t i = 0; i < names.size() && i < a.components.size(); ++i) {
        sum[i] += Ms(a.components[i].second);
      }
    }
    JsonObject attr;
    const double n = static_cast<double>(r.attribution.size());
    for (size_t i = 0; i < names.size(); ++i) {
      std::string key = names[i];
      std::replace(key.begin(), key.end(), '.', '_');
      attr.Num("attr." + key + "_ms", Ratio(sum[i], n));
    }
    attr.Num("attr.forces", n);
    out.Raw("attr", attr.Done());
  }
  std::printf("%s\n", out.Done().c_str());
  std::fflush(stdout);
  return st.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      o.workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--spans") {
      o.spans = true;
    } else if (a == "--attr") {
      o.attr = true;
    } else if (a == "--short") {
      o.short_run = true;
    } else if (a == "--no-workarounds") {
      o.workarounds = false;
    } else {
      std::fprintf(stderr,
                   "usage: perfbench --workload fleet|lan1987|recovery "
                   "--seed N [--spans] [--attr] [--short] "
                   "[--no-workarounds]\n");
      return 2;
    }
  }
  return perfbench::Main(o);
}
