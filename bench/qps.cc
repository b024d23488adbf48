// Open-loop load harness for the resident GraphService: arrivals follow a
// seeded Poisson schedule at a target rate REGARDLESS of completions (the
// open-loop discipline — a saturated service keeps receiving work and must
// shed, not silently queue), mixing all four query kinds from random
// sources, with an optional fraction of queries armed with per-query fault
// specs. Emits JSON: latency percentiles, throughput, shed/fault/retry
// rates and the full service ledger.
//
// Besides the open-loop phase (whose service takes --batch / --cache /
// --hot-fraction), the harness always runs a closed A/B probe: the same
// 64-source BFS burst through a paused service twice — batching off, then
// batch_max=64 with a result cache — plus a replay pass that must be served
// entirely from the cache. --remote times that burst over a Unix-domain
// socket with concurrent clients and prices the codec in-process.
//
// This binary measures; the tests under tests/service/ gate correctness.
// The checks kept here are the ones on what it times — a timing of wrong
// answers is not a measurement: the ledger identities of the open-loop run,
// and every probe, replay and remote answer value-fingerprint-equal to its
// one-shot oracle. --smoke exits 1 if any of them fails.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algos/algos.h"
#include "common.h"
#include "core/fingerprint.h"
#include "graph/generators.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "simt/device.h"

namespace simdx::bench {
namespace {

using service::AdmissionVerdict;
using service::GraphService;
using service::Query;
using service::QueryKind;
using service::QueryResult;
using service::ServiceOptions;
using service::ServiceStats;
namespace wire = service::wire;

struct Args {
  uint32_t scale = 10;
  uint32_t edge_factor = 8;
  uint64_t graph_seed = 3;
  uint64_t seed = 42;       // arrival schedule + workload mix
  uint32_t workers = 4;
  uint32_t queue_capacity = 64;
  double target_qps = 500.0;
  uint32_t queries = 400;
  double fault_rate = 0.0;
  double deadline_ms = 0.0;  // 0 = no deadline
  uint32_t batch = 1;        // open-loop service batch_max (1 = off)
  uint32_t cache = 0;        // open-loop service cache entries (0 = off)
  double hot_fraction = 0.0; // fraction of queries re-asking a hot BFS set
  std::string json_path;
  bool smoke = false;
  bool remote = false;       // also time the burst over the socket server
  uint32_t clients = 4;      // concurrent remote client connections
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--scale") {
      args.scale = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--scale"), "--scale");
    } else if (a == "--edge-factor") {
      args.edge_factor = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--edge-factor"), "--edge-factor");
    } else if (a == "--graph-seed") {
      args.graph_seed = ParseU64Flag(
          RequireFlagValue(argc, argv, i, "--graph-seed"), "--graph-seed");
    } else if (a == "--seed") {
      args.seed = ParseU64Flag(
          RequireFlagValue(argc, argv, i, "--seed"), "--seed");
    } else if (a == "--workers") {
      args.workers = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--workers"), "--workers");
    } else if (a == "--queue-capacity") {
      args.queue_capacity = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--queue-capacity"), "--queue-capacity");
    } else if (a == "--qps") {
      args.target_qps = ParsePositiveFlag(
          RequireFlagValue(argc, argv, i, "--qps"), "--qps");
    } else if (a == "--queries") {
      args.queries = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--queries"), "--queries");
    } else if (a == "--fault-rate") {
      args.fault_rate = ParseFractionFlag(
          RequireFlagValue(argc, argv, i, "--fault-rate"), "--fault-rate");
    } else if (a == "--deadline-ms") {
      args.deadline_ms = ParseDoubleFlag(
          RequireFlagValue(argc, argv, i, "--deadline-ms"), "--deadline-ms");
    } else if (a == "--batch") {
      args.batch = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--batch"), "--batch");
    } else if (a == "--cache") {
      args.cache = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--cache"), "--cache");
    } else if (a == "--hot-fraction") {
      args.hot_fraction = ParseFractionFlag(
          RequireFlagValue(argc, argv, i, "--hot-fraction"), "--hot-fraction");
    } else if (a == "--json") {
      args.json_path = RequireFlagValue(argc, argv, i, "--json");
    } else if (a == "--remote") {
      args.remote = true;
    } else if (a == "--clients") {
      args.clients = ParseU32Flag(
          RequireFlagValue(argc, argv, i, "--clients"), "--clients");
    } else if (a == "--smoke") {
      args.smoke = true;
      args.scale = 8;
      args.queries = 120;
      args.workers = 3;
      args.queue_capacity = 48;
      args.target_qps = 5000.0;  // flood: exercises the queue + ladder
      args.fault_rate = 0.1;
      // The throughput layers run (and are gated) in the smoke too: the
      // open-loop flood coalesces and caches, and the hot fraction makes
      // repeat questions actually occur.
      args.batch = 16;
      args.cache = 64;
      args.hot_fraction = 0.25;
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: " << argv[0]
          << " [--scale N] [--edge-factor N] [--graph-seed N] [--seed N]"
             " [--workers N] [--queue-capacity N] [--qps R] [--queries N]"
             " [--fault-rate F] [--deadline-ms D] [--batch N] [--cache N]"
             " [--hot-fraction F] [--json out.json] [--remote] [--clients N]"
             " [--smoke]\n\n"
             "Open-loop QPS load harness for the resident GraphService:\n"
             "Poisson arrivals at --qps (> 0) mixing BFS/SSSP/PPR/k-Core\n"
             "queries, --fault-rate (in [0,1]) of them armed with per-query\n"
             "fault injection. --batch enables coalesced multi-source BFS\n"
             "dispatch, --cache a bounded LRU result cache, --hot-fraction\n"
             "(in [0,1]) redirects that fraction of arrivals to a small\n"
             "repeating BFS question set.\n"
             "A closed A/B probe (64-source BFS burst, batching off vs\n"
             "batch_max=64 + cache, plus a cache replay) always runs and\n"
             "feeds the batching/cache JSON sections.\n"
             "--remote additionally serves the burst over the wire codec: a\n"
             "SocketServer on a Unix-domain socket and --clients concurrent\n"
             "BlockingClient threads, every answer value-bit-compared against\n"
             "its one-shot oracle; and an in-process loopback A/B gating\n"
             "codec overhead at <= 5% of direct-Submit time.\n"
             "--smoke shrinks the run and gates (exit 1) on the ledger\n"
             "identities and value-fingerprint equality of every batched,\n"
             "cached and remote answer against its one-shot oracle.\n"
             "Correctness probes that time nothing (per-kind oracles,\n"
             "hostile frames, chaos, drain) live in tests/service/.\n"
             "JSON (stdout, and --json <path>):\n"
             "{graph: {vertices, edges, rmat_scale, seed},\n"
             " config: {workers, queue_capacity, target_qps, queries,\n"
             "  fault_rate, deadline_ms, batch_max, cache_capacity,\n"
             "  hot_fraction, seed},\n"
             " wall_ms, throughput_qps, offered_qps,\n"
             " latency_ms: {p50, p99, max, mean},\n"
             " rates: {shed, fault, retry},\n"
             " ledger: {submitted, admitted, shed_queue_full, shed_deadline,\n"
             "  rejected_invalid, completed, faulted, cancelled,\n"
             "  deadline_exceeded, sink_failed, retries, expired_in_queue,\n"
             "  batches, batched_queries, cache_hits, cache_misses,\n"
             "  cache_evictions, ladder_transitions},\n"
             " batching: {probe_queries, unbatched_wall_ms, batched_wall_ms,\n"
             "  unbatched_qps, batched_qps, speedup, batched_runs},\n"
             " cache: {open_loop_hit_rate, replay_hits, replay_wall_ms},\n"
             " remote (with --remote): {clients, responses, mismatches,\n"
             "  wall_ms, direct_ms, loopback_ms, codec_ms, codec_overhead,\n"
             "  server: {accepted, requests, responses, rejects,\n"
             "  decode_errors, fatal_decode_errors, bytes_rx, bytes_tx}},\n"
             " ledger_ok, batch_oracle_ok, cache_oracle_ok\n"
             " (+ remote_ok, codec_overhead_ok with --remote)}\n";
      std::exit(0);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--scale N] [--edge-factor N] [--graph-seed N]"
                   " [--seed N] [--workers N] [--queue-capacity N] [--qps R]"
                   " [--queries N] [--fault-rate F] [--deadline-ms D]"
                   " [--batch N] [--cache N] [--hot-fraction F]"
                   " [--json out.json] [--remote] [--clients N] [--smoke]"
                   " [--help]\n";
      std::exit(2);
    }
  }
  return args;
}

EngineOptions ServiceEngineOptions() {
  EngineOptions o;
  o.sim_worker_threads = 64;
  return o;
}

// The accounting identities every drained service must satisfy exactly.
bool LedgerHolds(const ServiceStats& s) {
  const uint64_t verdicts = s.admitted + s.shed_queue_full + s.shed_deadline +
                            s.rejected_invalid;
  const uint64_t outcomes = s.completed + s.faulted + s.cancelled +
                            s.deadline_exceeded + s.sink_failed;
  bool ok = true;
  if (s.submitted != verdicts) {
    std::cerr << "LEDGER: submitted=" << s.submitted
              << " != verdict sum=" << verdicts << "\n";
    ok = false;
  }
  if (s.admitted != outcomes) {
    std::cerr << "LEDGER: admitted=" << s.admitted
              << " != outcome sum=" << outcomes << "\n";
    ok = false;
  }
  return ok;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

// ---- --remote: the wire codec + socket dispatch loop under load ----

struct RemoteReport {
  bool ran = false;
  bool remote_ok = true;         // every socket-served answer == its oracle
  bool codec_overhead_ok = true; // codec_ms <= 5% of direct_ms
  uint64_t responses = 0;
  uint64_t mismatches = 0;
  double wall_ms = 0.0;     // concurrent-client phase
  double direct_ms = 0.0;   // A: burst via plain Submit
  double loopback_ms = 0.0; // B: burst via encode->decode->Submit->encode->decode
  double codec_ms = 0.0;    // codec-only time accumulated inside pass B
  double codec_overhead = 0.0;  // codec_ms / direct_ms
  service::ServerStats server;
};

RemoteReport RunRemote(const Graph& g, const ServiceOptions& base,
                       const std::vector<VertexId>& burst,
                       const std::vector<uint64_t>& oracle_vfp,
                       uint32_t client_threads) {
  RemoteReport rep;
  rep.ran = true;

  // Wire-path focus: batching and caching equality are already gated by the
  // closed probe, so the remote service answers solo — every socket answer
  // is a fresh engine run compared bit-for-bit against its one-shot oracle.
  ServiceOptions so = base;
  so.batch_max = 1;
  so.cache_capacity = 0;
  so.start_paused = false;
  GraphService svc(g, so);

  service::ServerOptions sopts;
  {
    std::ostringstream path;
    path << "/tmp/simdx_qps_" << ::getpid() << ".sock";
    sopts.uds_path = path.str();
  }
  // Lifecycle hardening stays ARMED with no fault in front, so the remote
  // wall time prices the resilience hooks on the clean path. The budgets
  // sit far above anything a healthy run produces.
  sopts.idle_timeout_ms = 10000.0;
  sopts.header_timeout_ms = 2000.0;
  sopts.max_pipeline = 64;
  service::SocketServer server(svc, sopts);
  std::string err;
  if (!server.Start(&err)) {
    std::cerr << "remote: server start failed: " << err << "\n";
    rep.remote_ok = false;
    svc.Shutdown();
    return rep;
  }

  // Phase 1: concurrent process-style clients. Each thread owns one UDS
  // connection (its own FrameDecoder state, like an independent process) and
  // round-robins through the burst; want_values pulls the raw level arrays
  // across the wire so "bit-equal" is checked on the bytes themselves, not
  // just the fingerprint the server computed.
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> mismatches{0};
  const uint32_t n_clients = std::max<uint32_t>(1, client_threads);
  const double t0 = HostNowMs();
  {
    std::vector<std::thread> threads;
    threads.reserve(n_clients);
    for (uint32_t c = 0; c < n_clients; ++c) {
      threads.emplace_back([&, c] {
        service::BlockingClient cli;
        std::string e;
        if (cli.ConnectUds(sopts.uds_path, &e) != service::ClientStatus::kOk) {
          std::cerr << "remote client " << c << ": connect failed: " << e
                    << "\n";
          mismatches.fetch_add(1);
          return;
        }
        for (size_t i = c; i < burst.size(); i += n_clients) {
          Query q;
          q.kind = QueryKind::kBfs;
          q.source = burst[i];
          q.want_values = true;
          wire::Frame reply;
          const auto st = cli.Call(service::ToRequestFrame(q), &reply, &e);
          if (st != service::ClientStatus::kOk ||
              reply.type != wire::MsgType::kResponse) {
            std::cerr << "remote client " << c << ": call for source "
                      << burst[i] << " failed: " << ToString(st) << " " << e
                      << "\n";
            mismatches.fetch_add(1);
            continue;
          }
          const auto& r = reply.response;
          const uint64_t bytes_vfp =
              ValueBytesFingerprint(r.value_bytes.data(), r.value_bytes.size());
          if (r.value_fingerprint != oracle_vfp[i] ||
              bytes_vfp != oracle_vfp[i]) {
            std::cerr << "remote: answer for source " << burst[i]
                      << " diverged from its direct-Submit oracle\n";
            mismatches.fetch_add(1);
            continue;
          }
          responses.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  rep.wall_ms = HostNowMs() - t0;
  rep.responses = responses.load();
  rep.mismatches = mismatches.load();
  rep.remote_ok = rep.mismatches == 0 && rep.responses == burst.size();

  rep.server = server.stats();
  server.Stop();
  svc.Shutdown();

  // Phase 2: in-process loopback A/B — what does the codec itself cost?
  // Pass A answers the burst via plain Submit; pass B runs the full wire
  // shape without sockets (encode request -> decode -> Submit -> encode
  // response -> decode) and accumulates the codec-only time with a
  // fine-grained clock. The gate is codec_ms <= 5% of direct_ms: engine
  // runs are milliseconds and frames are microseconds, and gating on the
  // accumulated codec time (rather than B-minus-A wall time) keeps the 5%
  // check meaningful on a noisy single-core CI box.
  {
    GraphService direct(g, so);
    const double a0 = HostNowMs();
    for (VertexId s : burst) {
      Query q;
      q.kind = QueryKind::kBfs;
      q.source = s;
      q.want_values = true;
      auto ticket = direct.Submit(q);
      if (ticket.verdict == AdmissionVerdict::kAdmitted) {
        ticket.result.get();
      }
    }
    rep.direct_ms = HostNowMs() - a0;
    direct.Shutdown();
  }
  {
    GraphService loop(g, so);
    wire::FrameDecoder req_dec;
    wire::FrameDecoder resp_dec;
    // Reused across iterations the way a real dispatch loop reuses its
    // per-connection buffers — per-frame allocation is not a codec cost.
    std::vector<uint8_t> req_bytes;
    std::vector<uint8_t> resp_bytes;
    double codec_ms = 0.0;
    const double b0 = HostNowMs();
    for (size_t i = 0; i < burst.size(); ++i) {
      Query q;
      q.kind = QueryKind::kBfs;
      q.source = burst[i];
      q.want_values = true;
      wire::RequestFrame rf = service::ToRequestFrame(q);
      rf.request_id = i + 1;

      double c0 = HostNowMs();
      req_bytes.clear();
      wire::EncodeRequest(rf, &req_bytes);
      req_dec.Feed(req_bytes.data(), req_bytes.size());
      wire::Frame in;
      const auto dst = req_dec.Next(&in);
      codec_ms += HostNowMs() - c0;
      if (dst != wire::DecodeStatus::kOk || in.type != wire::MsgType::kRequest) {
        std::cerr << "loopback: request round trip failed\n";
        rep.remote_ok = false;
        break;
      }

      // Rebuild the Query exactly the way the dispatch loop does.
      Query dq;
      dq.kind = static_cast<QueryKind>(in.request.kind);
      dq.source = in.request.source;
      dq.k = in.request.k;
      dq.deadline_ms = in.request.deadline_rel_ms;
      dq.max_attempts = in.request.max_attempts;
      dq.want_values = in.request.want_values != 0;
      auto ticket = loop.Submit(dq);
      if (ticket.verdict != AdmissionVerdict::kAdmitted) {
        std::cerr << "loopback: burst query not admitted\n";
        rep.remote_ok = false;
        break;
      }
      QueryResult r = ticket.result.get();

      c0 = HostNowMs();
      wire::ResponseFrame out;
      out.request_id = in.request.request_id;
      out.kind = static_cast<uint8_t>(r.kind);
      out.outcome = static_cast<uint8_t>(r.outcome);
      out.served = static_cast<uint8_t>(r.served);
      out.attempts = r.attempts;
      out.queue_ms = r.queue_ms;
      out.run_ms = r.run_ms;
      out.value_fingerprint = r.value_fingerprint;
      out.value_bytes = std::move(r.value_bytes);
      resp_bytes.clear();
      wire::EncodeResponse(out, &resp_bytes);
      resp_dec.Feed(resp_bytes.data(), resp_bytes.size());
      wire::Frame back;
      const auto bst = resp_dec.Next(&back);
      codec_ms += HostNowMs() - c0;
      if (bst != wire::DecodeStatus::kOk ||
          back.type != wire::MsgType::kResponse ||
          back.response.value_fingerprint != oracle_vfp[i]) {
        std::cerr << "loopback: response " << i
                  << " diverged from its oracle\n";
        rep.remote_ok = false;
        break;
      }
    }
    rep.loopback_ms = HostNowMs() - b0;
    rep.codec_ms = codec_ms;
    loop.Shutdown();
  }
  rep.codec_overhead =
      rep.direct_ms > 0.0 ? rep.codec_ms / rep.direct_ms : 0.0;
  // The 5% bound is a release-build claim: sanitizer instrumentation
  // multiplies the codec's memcpy-ish work far more than engine compute, so
  // the ratio would measure the sanitizer. Waived there (printed), like
  // every other wall-clock ratio gate in this harness; the bit-equality
  // gates above stay enforced everywhere.
  rep.codec_overhead_ok = rep.codec_overhead <= 0.05;
  if (!rep.codec_overhead_ok && SanitizedBuild()) {
    std::cerr << "codec-overhead gate SKIPPED: sanitizer build (overhead="
              << rep.codec_overhead << "; correctness gates still enforced)\n";
    rep.codec_overhead_ok = true;
  }
  return rep;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);

  std::cerr << "building RMAT scale=" << args.scale
            << " edge_factor=" << args.edge_factor
            << " seed=" << args.graph_seed << "...\n";
  const Graph g = Graph::FromEdges(
      GenerateRmat(args.scale, args.edge_factor, args.graph_seed), false);
  std::cerr << "graph: " << g.vertex_count() << " vertices, " << g.edge_count()
            << " edges\n";
  const VertexId hub = DefaultSource(g);

  ServiceOptions so;
  so.workers = args.workers;
  so.queue_capacity = args.queue_capacity;
  so.engine = ServiceEngineOptions();
  so.device = MakeK40();
  so.batch_max = args.batch;
  so.cache_capacity = args.cache;

  // ---- deterministic open-loop schedule ----
  // Exponential inter-arrival gaps (Poisson process) and the workload mix
  // both come from the one seed, so a rerun offers the identical load.
  std::mt19937_64 rng(args.seed);
  std::exponential_distribution<double> gap_s(args.target_qps);
  // The hot set: a handful of BFS questions that --hot-fraction of arrivals
  // re-ask, which is what makes the result cache (and same-source lane
  // sharing in coalesced dispatch) observable under open-loop load.
  std::vector<VertexId> hot_sources;
  for (int i = 0; i < 8; ++i) {
    hot_sources.push_back(static_cast<VertexId>(rng() % g.vertex_count()));
  }
  struct Planned {
    Query query;
    double at_s = 0.0;  // offset from harness start
    bool armed = false;
  };
  std::vector<Planned> plan;
  plan.reserve(args.queries);
  double clock_s = 0.0;
  for (uint32_t i = 0; i < args.queries; ++i) {
    Planned p;
    clock_s += gap_s(rng);
    p.at_s = clock_s;
    p.query.kind = static_cast<QueryKind>(rng() % service::kQueryKindCount);
    p.query.source = static_cast<VertexId>(rng() % g.vertex_count());
    p.query.k = 2 + static_cast<uint32_t>(rng() % 3);
    p.query.deadline_ms = args.deadline_ms;
    if (args.hot_fraction > 0.0 &&
        std::uniform_real_distribution<double>(0.0, 1.0)(rng) <
            args.hot_fraction) {
      p.query.kind = QueryKind::kBfs;
      p.query.source = hot_sources[rng() % hot_sources.size()];
    }
    const bool armed =
        args.fault_rate > 0.0 &&
        std::uniform_real_distribution<double>(0.0, 1.0)(rng) < args.fault_rate;
    if (armed) {
      // Armed queries start from the hub on a traversal kind so the run has
      // an iteration 1 for the fault to fire in (an isolated source would
      // converge at iteration 0 and never fault).
      constexpr QueryKind kTraversals[] = {QueryKind::kBfs, QueryKind::kSssp,
                                           QueryKind::kPpr};
      p.query.kind = kTraversals[rng() % 3];
      p.query.source = hub;
      p.query.fault_spec = (rng() % 2) ? "iteration-start@1" : "frontier@1";
      p.query.max_attempts = (rng() % 2) ? 3 : 1;
      p.armed = true;
    }
    plan.push_back(std::move(p));
  }

  // ---- drive the load ----
  GraphService svc(g, so);
  std::vector<GraphService::Ticket> tickets(plan.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < plan.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(plan[i].at_s));
    std::this_thread::sleep_until(due);  // open loop: never waits on results
    tickets[i] = svc.Submit(plan[i].query);
  }
  svc.Drain();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  const ServiceStats stats = svc.stats();

  // ---- collect results ----
  std::vector<double> latencies_ms;  // admitted queries that produced answers
  latencies_ms.reserve(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    if (tickets[i].verdict != AdmissionVerdict::kAdmitted) {
      continue;
    }
    const QueryResult r = tickets[i].result.get();
    if (r.ok()) {
      latencies_ms.push_back(r.queue_ms + r.run_ms);
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  double mean_ms = 0.0;
  for (double l : latencies_ms) {
    mean_ms += l;
  }
  mean_ms = latencies_ms.empty() ? 0.0 : mean_ms / latencies_ms.size();

  const bool ledger_ok = LedgerHolds(stats);
  svc.Shutdown();

  // ---- closed A/B probe: the same BFS burst, batching off vs on ----
  // start_paused composes the whole burst in the queue before any dispatch,
  // so the batched run coalesces deterministically; the unbatched control
  // answers the identical questions one engine run at a time. The per-query
  // value fingerprints are gated against one-shot oracles — throughput
  // layers must never change an answer.
  std::vector<VertexId> burst;
  {
    std::mt19937_64 brng(args.seed ^ 0x9e3779b97f4a7c15ull);
    const size_t want = std::min<size_t>(64, g.vertex_count());
    while (burst.size() < want) {
      const VertexId s = static_cast<VertexId>(brng() % g.vertex_count());
      bool dup = false;
      for (VertexId t : burst) {
        dup = dup || t == s;
      }
      if (!dup) {
        burst.push_back(s);
      }
    }
  }
  std::vector<uint64_t> burst_oracle_vfp;
  burst_oracle_vfp.reserve(burst.size());
  for (VertexId s : burst) {
    const auto r = RunBfs(g, s, so.device, so.engine);
    burst_oracle_vfp.push_back(ValueBytesFingerprint(
        r.values.data(), r.values.size() * sizeof(uint32_t)));
  }

  ServiceOptions probe = so;
  probe.queue_capacity =
      std::max<uint32_t>(probe.queue_capacity, static_cast<uint32_t>(burst.size()));
  probe.start_paused = true;
  const auto flood = [&burst](GraphService& psvc,
                              std::vector<QueryResult>* out) {
    std::vector<GraphService::Ticket> tks;
    tks.reserve(burst.size());
    for (VertexId s : burst) {
      Query q;
      q.kind = QueryKind::kBfs;
      q.source = s;
      tks.push_back(psvc.Submit(q));
    }
    const auto t0 = std::chrono::steady_clock::now();
    psvc.Resume();
    psvc.Drain();
    const double w = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    for (auto& t : tks) {
      out->push_back(t.verdict == AdmissionVerdict::kAdmitted
                         ? t.result.get()
                         : QueryResult{});
    }
    return w;
  };

  double unbatched_ms = 0.0;
  {
    ServiceOptions a = probe;
    a.batch_max = 1;
    a.cache_capacity = 0;
    GraphService asvc(g, a);
    std::vector<QueryResult> results;
    unbatched_ms = flood(asvc, &results);
    asvc.Shutdown();
  }

  double batched_ms = 0.0;
  double replay_ms = 0.0;
  uint64_t replay_hits = 0;
  ServiceStats probe_stats;
  bool batch_oracle_ok = true;
  bool cache_oracle_ok = true;
  {
    ServiceOptions b = probe;
    b.batch_max = 64;
    b.cache_capacity =
        std::max<size_t>(so.cache_capacity, burst.size());
    GraphService bsvc(g, b);
    std::vector<QueryResult> results;
    batched_ms = flood(bsvc, &results);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() ||
          results[i].value_fingerprint != burst_oracle_vfp[i]) {
        std::cerr << "probe: batched answer " << i
                  << " diverged from its one-shot oracle\n";
        batch_oracle_ok = false;
      }
    }
    // The replay pass: every question was just answered, so every answer
    // must now come from the cache — bit-identical again, no arena touched.
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < burst.size(); ++i) {
      Query q;
      q.kind = QueryKind::kBfs;
      q.source = burst[i];
      auto t = bsvc.Submit(q);
      if (t.verdict != AdmissionVerdict::kAdmitted) {
        cache_oracle_ok = false;
        continue;
      }
      const QueryResult r = t.result.get();
      if (r.served == service::ServedBy::kCache) {
        ++replay_hits;
      }
      if (!r.ok() || r.value_fingerprint != burst_oracle_vfp[i]) {
        std::cerr << "probe: cached answer " << i
                  << " diverged from its one-shot oracle\n";
        cache_oracle_ok = false;
      }
    }
    replay_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    probe_stats = bsvc.stats();
    bsvc.Shutdown();
    if (probe_stats.batches == 0) {
      std::cerr << "probe: coalesced dispatch never engaged\n";
      batch_oracle_ok = false;
    }
    if (replay_hits != burst.size()) {
      std::cerr << "probe: replay expected " << burst.size()
                << " cache hits, got " << replay_hits << "\n";
      cache_oracle_ok = false;
    }
  }

  // ---- remote mode: the same burst served across the process boundary ----
  RemoteReport remote;
  if (args.remote) {
    remote = RunRemote(g, so, burst, burst_oracle_vfp, args.clients);
  }

  const double wall_s = wall_ms / 1000.0;
  const uint64_t sheds = stats.shed_queue_full + stats.shed_deadline;
  const double shed_rate =
      stats.submitted ? static_cast<double>(sheds) / stats.submitted : 0.0;
  const double fault_rate =
      stats.admitted ? static_cast<double>(stats.faulted) / stats.admitted : 0.0;
  const double retry_rate =
      stats.admitted ? static_cast<double>(stats.retries) / stats.admitted : 0.0;

  std::ostringstream json;
  json.precision(6);
  json << std::fixed;
  json << "{\n  \"graph\": {\"vertices\": " << g.vertex_count()
       << ", \"edges\": " << g.edge_count()
       << ", \"rmat_scale\": " << args.scale << ", \"seed\": " << args.graph_seed
       << "},\n  \"config\": {\"workers\": " << args.workers
       << ", \"queue_capacity\": " << args.queue_capacity
       << ", \"target_qps\": " << args.target_qps
       << ", \"queries\": " << args.queries
       << ", \"fault_rate\": " << args.fault_rate
       << ", \"deadline_ms\": " << args.deadline_ms
       << ", \"batch_max\": " << args.batch
       << ", \"cache_capacity\": " << args.cache
       << ", \"hot_fraction\": " << args.hot_fraction
       << ", \"seed\": " << args.seed
       << "},\n  \"wall_ms\": " << wall_ms
       << ",\n  \"throughput_qps\": "
       << (wall_s > 0 ? stats.completed / wall_s : 0.0)
       << ",\n  \"offered_qps\": "
       << (wall_s > 0 ? stats.submitted / wall_s : 0.0)
       << ",\n  \"latency_ms\": {\"p50\": " << Percentile(latencies_ms, 0.50)
       << ", \"p99\": " << Percentile(latencies_ms, 0.99)
       << ", \"max\": " << (latencies_ms.empty() ? 0.0 : latencies_ms.back())
       << ", \"mean\": " << mean_ms
       << "},\n  \"rates\": {\"shed\": " << shed_rate
       << ", \"fault\": " << fault_rate << ", \"retry\": " << retry_rate
       << "},\n  \"ledger\": {\"submitted\": " << stats.submitted
       << ", \"admitted\": " << stats.admitted
       << ", \"shed_queue_full\": " << stats.shed_queue_full
       << ", \"shed_deadline\": " << stats.shed_deadline
       << ", \"rejected_invalid\": " << stats.rejected_invalid
       << ", \"completed\": " << stats.completed
       << ", \"faulted\": " << stats.faulted
       << ", \"cancelled\": " << stats.cancelled
       << ", \"deadline_exceeded\": " << stats.deadline_exceeded
       << ", \"sink_failed\": " << stats.sink_failed
       << ", \"retries\": " << stats.retries
       << ", \"expired_in_queue\": " << stats.expired_in_queue
       << ", \"batches\": " << stats.batches
       << ", \"batched_queries\": " << stats.batched_queries
       << ", \"cache_hits\": " << stats.cache_hits
       << ", \"cache_misses\": " << stats.cache_misses
       << ", \"cache_evictions\": " << stats.cache_evictions
       << ", \"ladder_transitions\": " << stats.ladder.size()
       << "},\n  \"batching\": {\"probe_queries\": " << burst.size()
       << ", \"unbatched_wall_ms\": " << unbatched_ms
       << ", \"batched_wall_ms\": " << batched_ms
       << ", \"unbatched_qps\": "
       << (unbatched_ms > 0 ? burst.size() * 1000.0 / unbatched_ms : 0.0)
       << ", \"batched_qps\": "
       << (batched_ms > 0 ? burst.size() * 1000.0 / batched_ms : 0.0)
       << ", \"speedup\": "
       << (batched_ms > 0 ? unbatched_ms / batched_ms : 0.0)
       << ", \"batched_runs\": " << probe_stats.batches
       << "},\n  \"cache\": {\"open_loop_hit_rate\": "
       << (stats.cache_hits + stats.cache_misses > 0
               ? static_cast<double>(stats.cache_hits) /
                     (stats.cache_hits + stats.cache_misses)
               : 0.0)
       << ", \"replay_hits\": " << replay_hits
       << ", \"replay_wall_ms\": " << replay_ms
       << "},\n";
  if (remote.ran) {
    json << "  \"remote\": {\"clients\": " << args.clients
         << ", \"responses\": " << remote.responses
         << ", \"mismatches\": " << remote.mismatches
         << ", \"wall_ms\": " << remote.wall_ms
         << ", \"direct_ms\": " << remote.direct_ms
         << ", \"loopback_ms\": " << remote.loopback_ms
         << ", \"codec_ms\": " << remote.codec_ms
         << ", \"codec_overhead\": " << remote.codec_overhead
         << ", \"server\": {\"accepted\": " << remote.server.accepted
         << ", \"requests\": " << remote.server.requests
         << ", \"responses\": " << remote.server.responses
         << ", \"rejects\": " << remote.server.rejects
         << ", \"decode_errors\": " << remote.server.decode_errors
         << ", \"fatal_decode_errors\": " << remote.server.fatal_decode_errors
         << ", \"bytes_rx\": " << remote.server.bytes_rx
         << ", \"bytes_tx\": " << remote.server.bytes_tx
         << "}},\n";
  }
  json << "  \"ledger_ok\": " << (ledger_ok ? "true" : "false")
       << ",\n  \"batch_oracle_ok\": " << (batch_oracle_ok ? "true" : "false")
       << ",\n  \"cache_oracle_ok\": " << (cache_oracle_ok ? "true" : "false");
  if (remote.ran) {
    json << ",\n  \"remote_ok\": " << (remote.remote_ok ? "true" : "false")
         << ",\n  \"codec_overhead_ok\": "
         << (remote.codec_overhead_ok ? "true" : "false");
  }
  json << "\n}\n";

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << json.str();
    std::cerr << "wrote " << args.json_path << "\n";
  }
  std::cout << json.str();

  if (args.smoke) {
    const bool remote_gates_ok =
        !remote.ran || (remote.remote_ok && remote.codec_overhead_ok);
    if (!ledger_ok || !batch_oracle_ok || !cache_oracle_ok ||
        !remote_gates_ok) {
      std::cerr << "SMOKE FAIL: ledger_ok=" << ledger_ok
                << " batch_oracle_ok=" << batch_oracle_ok
                << " cache_oracle_ok=" << cache_oracle_ok;
      if (remote.ran) {
        std::cerr << " remote_ok=" << remote.remote_ok
                  << " codec_overhead_ok=" << remote.codec_overhead_ok
                  << " (codec_overhead=" << remote.codec_overhead << ")";
      }
      std::cerr << "\n";
      return 1;
    }
    std::cerr << "smoke OK\n";
  }
  return 0;
}

}  // namespace
}  // namespace simdx::bench

int main(int argc, char** argv) { return simdx::bench::Main(argc, argv); }
