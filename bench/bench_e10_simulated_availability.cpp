// Experiment E10 — simulated vs closed-form availability (Section 3.2).
//
// The first end-to-end check that the implemented protocol actually
// delivers the availability the paper computes. A chaos::ChaosController
// runs the Section 3.2 Markov fault process (per-server exponential
// up/down cycles, p = MTTR/(MTTF+MTTR) = 10/200 = 0.05) against a live
// cluster while two probe clients Monte-Carlo the paper's two
// operations:
//
//   * WriteLog availability — a persistent writer attempts a small
//     write + force every probe interval. The paper: available iff at
//     most M-N servers are down (any N of M can hold the copies).
//   * ClientInit availability — a probe client is crash-cycled through
//     the cluster lifecycle (CrashClient/RestartClient) and re-runs the
//     Section 3.1.2 initialization. The paper: available iff at most
//     N-1 servers are down (M-N+1 interval lists are reachable).
//
// Alongside the protocol probes, the same instants are state-sampled
// (count down servers, apply the combinatorial condition directly),
// separating Monte-Carlo noise from protocol effects: state-sampled vs
// closed-form shows sampling error; protocol vs state-sampled shows
// implementation deviation.
//
// Output: BENCH_E10.json, one row per (N, M) configuration. With fixed
// seeds the run — and the JSON — is byte-identical across reruns.
//
// Each configuration's probes are split into kTrialsPerConfig fully
// independent trials (own cluster, own seeds) fanned across a
// harness::TrialRunner thread pool. The decomposition, the per-trial
// seeds, and the merge order are fixed regardless of thread count, so
// the JSON is byte-identical whether the trials run serially or on
// eight threads — parallelism only changes wall-clock time.
//
// Usage: bench_e10_simulated_availability [probes_per_config] [threads]
//            [shard_workers]
//   default 4000 probes (a few tens of seconds) on 1 thread; CI soak
//   uses a small count and the tolerance below widens with the matching
//   3.5-sigma bound. shard_workers > 0 runs every trial cluster on the
//   sharded parallel engine; predicate waits are quantized on the LAN
//   propagation delay in both modes, so the JSON is byte-identical to
//   the serial run at every worker count.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/availability.h"
#include "chaos/controller.h"
#include "harness/cluster.h"
#include "harness/trial_runner.h"
#include "obs/bench_report.h"
#include "obs/flight.h"

namespace {

using namespace dlog;

constexpr sim::Duration kProbeInterval = 10 * sim::kSecond;
constexpr sim::Duration kWarmup = 300 * sim::kSecond;
constexpr sim::Duration kProbeTimeout = 3 * sim::kSecond;

struct ConfigResult {
  double write_measured = 0;  // protocol probe success fraction
  double init_measured = 0;
  double write_state = 0;  // state-sampled (same instants, same path)
  double init_state = 0;
  uint64_t server_crashes = 0;
};

/// Raw success counts from one independent trial.
struct TrialCounts {
  uint64_t write_ok = 0;
  uint64_t init_ok = 0;
  uint64_t state_write_ok = 0;
  uint64_t state_init_ok = 0;
  uint64_t server_crashes = 0;
};

/// How many independent trials each configuration decomposes into. Fixed
/// (not derived from the thread count) so the probe/seed split — and the
/// resulting JSON — never depends on the degree of parallelism.
constexpr int kTrialsPerConfig = 8;

/// Probe clients fail fast: a probe must resolve well inside the probe
/// interval, so an unavailable instant is reported as a failure instead
/// of being ridden out until the servers repair.
client::LogClientConfig ProbeClientConfig(uint32_t client_id, int copies) {
  client::LogClientConfig cfg;
  cfg.client_id = client_id;
  cfg.copies = copies;
  cfg.force_timeout = 300 * sim::kMillisecond;
  cfg.force_retries = 2;
  cfg.rpc_timeout = 150 * sim::kMillisecond;
  cfg.rpc_attempts = 2;
  return cfg;
}

TrialCounts RunTrial(int m, int n, int probes, uint64_t seed,
                     int shard_workers) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = m;
  cluster_cfg.seed = seed;
  cluster_cfg.shard_workers = shard_workers;
  // Quantized predicate waits in both modes: stopping times become a
  // pure function of the simulated schedule, so serial and parallel
  // runs probe at identical instants.
  cluster_cfg.run_until_quantum = cluster_cfg.network.propagation_delay;
  harness::Cluster cluster(cluster_cfg);

  harness::ClientHandle writer = cluster.AddClient(ProbeClientConfig(1, n));
  harness::ClientHandle initer = cluster.AddClient(ProbeClientConfig(2, n));

  // Probe callbacks hold their state on the heap: a probe that times out
  // (counted unavailable) may still complete later, once servers repair,
  // and that late completion must land somewhere harmless.
  struct ProbeState {
    bool done = false;
    Status status = Status::Internal("pending");
  };
  auto init_client = [&](harness::ClientHandle& c) {
    auto state = std::make_shared<ProbeState>();
    c->Init([state](Status s) {
      state->status = s;
      state->done = true;
    });
    cluster.RunUntil([&]() { return state->done; }, kProbeTimeout);
    return state->done && state->status.ok();
  };
  if (!init_client(writer) || !init_client(initer)) {
    std::fprintf(stderr, "E10: initial Init failed (M=%d N=%d)\n", m, n);
    std::exit(2);
  }

  chaos::MarkovFaultConfig markov;  // 190s/10s defaults: p = 0.05
  markov.seed = seed + 17;
  cluster.chaos().StartMarkov(markov);
  cluster.RunFor(kWarmup);  // mix toward the stationary state

  TrialCounts r;
  uint64_t write_ok = 0, init_ok = 0, state_write_ok = 0, state_init_ok = 0;
  Lsn last_forced = kNoLsn;
  for (int i = 0; i < probes; ++i) {
    const sim::Time probe_start = cluster.Now();

    // State sample at the probe instant (the closed forms' condition).
    int down = 0;
    for (int s = 1; s <= m; ++s) {
      if (!cluster.server(s).IsUp()) ++down;
    }
    if (down <= m - n) ++state_write_ok;
    if (down <= n - 1) ++state_init_ok;

    // WriteLog probe: one record, forced.
    Result<Lsn> lsn =
        writer->WriteLog(ToBytes(std::string("p").append(std::to_string(i))));
    if (lsn.ok()) {
      auto state = std::make_shared<ProbeState>();
      writer->ForceLog(*lsn, [state](Status st) {
        state->status = st;
        state->done = true;
      });
      cluster.RunUntil([&]() { return state->done; }, kProbeTimeout);
      if (state->done && state->status.ok()) {
        ++write_ok;
        last_forced = *lsn;
      }
    }
    // Keep the accumulated per-server interval lists bounded so late
    // probes pay the same RPC sizes as early ones.
    if (i % 64 == 63 && last_forced != kNoLsn) {
      writer->TruncateLog(last_forced);
    }

    // ClientInit probe: a fresh incarnation re-enters the log.
    cluster.CrashClient(initer);
    cluster.RestartClient(initer);
    if (init_client(initer)) ++init_ok;

    const sim::Duration spent = cluster.Now() - probe_start;
    if (spent < kProbeInterval) cluster.RunFor(kProbeInterval - spent);
  }
  cluster.chaos().StopMarkov();

  r.write_ok = write_ok;
  r.init_ok = init_ok;
  r.state_write_ok = state_write_ok;
  r.state_init_ok = state_init_ok;
  r.server_crashes = cluster.chaos().server_crashes().value();
  return r;
}

/// Splits `probes` across kTrialsPerConfig independent trials, fans them
/// over `runner`, and merges the counts in trial order.
ConfigResult RunConfig(int m, int n, int probes, uint64_t seed,
                       const harness::TrialRunner& runner,
                       int shard_workers) {
  std::vector<TrialCounts> counts = runner.Run(
      kTrialsPerConfig, [m, n, probes, seed, shard_workers](size_t trial) {
        // Even probe split, remainder to the earliest trials; each trial
        // gets a disjoint deterministic seed.
        int trial_probes = probes / kTrialsPerConfig;
        if (static_cast<int>(trial) < probes % kTrialsPerConfig) {
          ++trial_probes;
        }
        if (trial_probes == 0) return TrialCounts{};
        return RunTrial(m, n, trial_probes,
                        seed + 1000 * (static_cast<uint64_t>(trial) + 1),
                        shard_workers);
      });

  TrialCounts total;
  for (const TrialCounts& c : counts) {
    total.write_ok += c.write_ok;
    total.init_ok += c.init_ok;
    total.state_write_ok += c.state_write_ok;
    total.state_init_ok += c.state_init_ok;
    total.server_crashes += c.server_crashes;
  }
  ConfigResult r;
  r.write_measured = static_cast<double>(total.write_ok) / probes;
  r.init_measured = static_cast<double>(total.init_ok) / probes;
  r.write_state = static_cast<double>(total.state_write_ok) / probes;
  r.init_state = static_cast<double>(total.state_init_ok) / probes;
  r.server_crashes = total.server_crashes;
  return r;
}

/// Acceptance band: +-0.01 at the default probe count, widened to the
/// 3.5-sigma binomial bound when a small CI run can't resolve 0.01.
double Tolerance(double closed_form, int probes) {
  const double sigma =
      std::sqrt(closed_form * (1.0 - closed_form) / probes);
  return std::max(0.01, 3.5 * sigma);
}

}  // namespace

/// Flight-recorder post-mortem artifact: a small serial chaos run with
/// the per-node span rings on. A writer streams forced records while a
/// scripted plan crashes a server, fails another's disk, and finally
/// crashes the writer itself; each fault freezes the victim's recent
/// spans. The dump of everything — E10_flight.json — is the CI artifact
/// showing what each node was doing when it died. Fixed seeds, serial
/// engine regardless of the sweep's shard_workers: byte-identical every
/// run.
bool WriteFlightArtifact() {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 3;
  cluster_cfg.flight_recorder = true;
  harness::Cluster cluster(cluster_cfg);

  harness::ClientHandle writer = cluster.AddClient(ProbeClientConfig(1, 2));
  bool init_done = false;
  writer->Init([&](Status s) { init_done = s.ok(); });
  if (!cluster.RunUntil([&]() { return init_done; }, kProbeTimeout)) {
    return false;
  }

  chaos::FaultPlan plan;
  plan.CrashServer(2 * sim::kSecond, 2)
      .FailDisk(3 * sim::kSecond, 3)
      .CrashClient(4 * sim::kSecond, 0);
  cluster.chaos().Execute(plan);

  // Forced writes until the plan kills the writer; failures past that
  // point are the powered-off machine answering, which is fine — the
  // rings already hold its final spans. Each probe roots its own trace
  // (the client only emits spans under a valid parent), which is what
  // feeds the rings the crash dumps snapshot.
  obs::Tracer& tracer = cluster.tracer();
  for (int i = 0; i < 400 && cluster.Now() < 5 * sim::kSecond; ++i) {
    const obs::SpanContext root = tracer.StartTrace("probe", "client-1");
    bool forced = false;
    {
      obs::Tracer::Scope scope(&tracer, root);
      Result<Lsn> lsn = writer->WriteLog(
          ToBytes(std::string("f").append(std::to_string(i))));
      if (lsn.ok()) {
        writer->ForceLog(*lsn, [&](Status) { forced = true; });
      } else {
        forced = true;
      }
    }
    if (!forced) {
      cluster.RunUntil([&]() { return forced; }, 500 * sim::kMillisecond);
    }
    tracer.EndSpan(root);
    cluster.RunFor(10 * sim::kMillisecond);
  }
  cluster.RunFor(1 * sim::kSecond);

  const obs::FlightRecorder* recorder = cluster.flight_recorder();
  size_t spans = 0;
  for (const obs::FlightRecorder::DumpRecord& d : recorder->dumps()) {
    spans += d.spans.size();
  }
  std::ofstream out("E10_flight.json", std::ios::binary);
  out << obs::FlightDumpsJson(*recorder);
  if (!out) return false;
  std::printf("wrote E10_flight.json (%zu dumps, %zu spans)\n",
              recorder->dumps().size(), spans);
  // Three crash-class faults -> three dumps, and the crashed server /
  // client rings must not both be empty under a forced-write load.
  return recorder->dumps().size() == 3 && spans > 0;
}

int main(int argc, char** argv) {
  const int probes = argc > 1 ? std::atoi(argv[1]) : 4000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 1;
  const int shard_workers = argc > 3 ? std::atoi(argv[3]) : 0;
  const double p = 0.05;
  harness::TrialRunner runner(threads > 0 ? threads : 1);

  obs::BenchReport report("e10_simulated_availability");
  bool all_ok = true;

  std::printf(
      "E10: Monte-Carlo availability on the running protocol, Markov "
      "faults (MTTF=190s MTTR=10s, p=%.2f), %d probes/config, %d trials "
      "on %d thread(s)\n\n",
      p, probes, kTrialsPerConfig, threads);
  std::printf("%-3s %-3s | %-28s | %-28s\n", "N", "M",
              "WriteLog (closed/state/meas)",
              "ClientInit (closed/state/meas)");
  std::printf("--------+------------------------------+-----------------"
              "-------------\n");

  const int kConfigs[][2] = {{2, 3}, {2, 5}};  // {N, M}
  for (const auto& nm : kConfigs) {
    const int n = nm[0], m = nm[1];
    const double write_closed = analysis::WriteLogAvailability(m, n, p);
    const double init_closed = analysis::ClientInitAvailability(m, n, p);
    const ConfigResult r =
        RunConfig(m, n, probes, /*seed=*/1000 + m, runner, shard_workers);

    const double write_tol = Tolerance(write_closed, probes);
    const double init_tol = Tolerance(init_closed, probes);
    const bool ok =
        std::abs(r.write_measured - write_closed) <= write_tol &&
        std::abs(r.init_measured - init_closed) <= init_tol;
    all_ok = all_ok && ok;

    std::printf("%-3d %-3d | %.4f / %.4f / %.4f     | %.4f / %.4f / "
                "%.4f     %s\n",
                n, m, write_closed, r.write_state, r.write_measured,
                init_closed, r.init_state, r.init_measured,
                ok ? "[ok]" : "[OUT OF BAND]");

    report.BeginRow();
    report.SetConfig("n_copies", n);
    report.SetConfig("m_servers", m);
    report.SetConfig("p", p);
    report.SetConfig("mttf_s", 190);
    report.SetConfig("mttr_s", 10);
    report.SetConfig("probes", probes);
    report.SetMetric("write_availability_closed_form", write_closed);
    report.SetMetric("write_availability_state_mc", r.write_state);
    report.SetMetric("write_availability_measured", r.write_measured);
    report.SetMetric("init_availability_closed_form", init_closed);
    report.SetMetric("init_availability_state_mc", r.init_state);
    report.SetMetric("init_availability_measured", r.init_measured);
    report.SetMetric("write_abs_error",
                     std::abs(r.write_measured - write_closed));
    report.SetMetric("init_abs_error",
                     std::abs(r.init_measured - init_closed));
    report.SetMetric("tolerance_write", write_tol);
    report.SetMetric("tolerance_init", init_tol);
    report.SetMetric("server_crashes",
                     static_cast<double>(r.server_crashes));
  }

  Status st = report.WriteJson("BENCH_E10.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E10.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E10.json (%zu rows)\n", report.rows());
  if (!WriteFlightArtifact()) {
    std::printf("E10 FAILED: flight-recorder artifact missing dumps\n");
    return 1;
  }
  if (!all_ok) {
    std::printf("E10 FAILED: measured availability outside the closed-"
                "form band\n");
    return 1;
  }
  return 0;
}
