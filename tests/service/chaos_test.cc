// The transport-resilience verification harness: a chaos proxy between
// retrying clients and the real server, injecting seeded delays, splits,
// stalls, duplicate flushes, drops and mid-stream resets. The contract
// being gated:
//   * every COMPLETED call's answer is value-bit-equal to the direct-Submit
//     oracle (chaos may slow or kill a call, never corrupt an answer);
//   * every FAILED call carries a typed ClientStatus and lands within the
//     retry policy's worst-case wall bound (no hangs);
//   * after the sweep tears down, the process fd count returns to its
//     baseline (no leaked sockets on any path, including the violent ones).
//
// Sweep scale responds to the nightly env knobs: SIMDX_SWEEP_SEEDS chooses
// how many proxy seeds run (each seed is an independent fault schedule) and
// SIMDX_SWEEP_CHAOS_DENSITY multiplies every fault probability.
#include "tests/service/chaos.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fingerprint.h"
#include "service/retry.h"
#include "service/server.h"
#include "service/service.h"
#include "tests/service/wire_test_support.h"

namespace simdx::service {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::strtoull(v, nullptr, 10) : def;
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::strtod(v, nullptr) : def;
}

// ---------------------------------------------------------------------------
// Spec grammar.

TEST(ChaosSpecTest, ParsesTheFullGrammar) {
  ChaosSpec s;
  std::string err;
  ASSERT_TRUE(ChaosSpec::Parse(
      "seed=7,delay@p=0.2:ms=3,split@p=0.5,stall@p=0.1:ms=25,dup@p=0.05,"
      "drop@p=0.04,reset@p=0.02",
      &s, &err))
      << err;
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.delay_p, 0.2);
  EXPECT_DOUBLE_EQ(s.delay_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.split_p, 0.5);
  EXPECT_DOUBLE_EQ(s.stall_p, 0.1);
  EXPECT_DOUBLE_EQ(s.stall_ms, 25.0);
  EXPECT_DOUBLE_EQ(s.dup_p, 0.05);
  EXPECT_DOUBLE_EQ(s.drop_p, 0.04);
  EXPECT_DOUBLE_EQ(s.reset_p, 0.02);
  EXPECT_TRUE(s.armed());
}

TEST(ChaosSpecTest, DescribeRoundTripsThroughParse) {
  const ChaosSpec def = ChaosSpec::Default();
  ChaosSpec back;
  std::string err;
  ASSERT_TRUE(ChaosSpec::Parse(def.Describe(), &back, &err)) << err;
  EXPECT_EQ(back.Describe(), def.Describe());
}

TEST(ChaosSpecTest, RejectsHostileSpecsTyped) {
  ChaosSpec s;
  std::string err;
  EXPECT_FALSE(ChaosSpec::Parse("", &s, &err));
  EXPECT_FALSE(ChaosSpec::Parse("delay@p=0.1,delay@p=0.2", &s, &err));
  EXPECT_TRUE(err.find("duplicate") != std::string::npos) << err;
  EXPECT_FALSE(ChaosSpec::Parse("seed=1,seed=2", &s, &err));
  EXPECT_FALSE(ChaosSpec::Parse("explode@p=0.5", &s, &err));
  EXPECT_FALSE(ChaosSpec::Parse("delay@p=1.5", &s, &err));      // p > 1
  EXPECT_FALSE(ChaosSpec::Parse("delay@p=banana", &s, &err));
  EXPECT_FALSE(ChaosSpec::Parse("drop@p=0.1:ms=5", &s, &err));  // no ms knob
  EXPECT_FALSE(ChaosSpec::Parse("seed=xyz", &s, &err));
  EXPECT_FALSE(ChaosSpec::Parse("delay@p=0.1,,split@p=0.2", &s, &err));
}

TEST(ChaosSpecTest, ScalingClampsToProbabilityRange) {
  const ChaosSpec s = ChaosSpec::Default().Scaled(100.0);
  EXPECT_LE(s.split_p, 1.0);
  EXPECT_GE(s.split_p, ChaosSpec::Default().split_p);
  const ChaosSpec z = ChaosSpec::Default().Scaled(0.0);
  EXPECT_FALSE(z.armed());
}

// ---------------------------------------------------------------------------
// Retry policy math.

TEST(RetryPolicyTest, BackoffIsDeterministicAndCapped) {
  RetryPolicy pol;
  std::mt19937_64 a(pol.jitter_seed);
  std::mt19937_64 b(pol.jitter_seed);
  for (uint32_t k = 0; k < 12; ++k) {
    const double x = RetryBackoffMs(pol, k, a);
    const double y = RetryBackoffMs(pol, k, b);
    EXPECT_DOUBLE_EQ(x, y) << "retry " << k;
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, pol.backoff_max_ms * (1.0 + pol.jitter_fraction) + 1e-9);
  }
}

TEST(RetryPolicyTest, MaxCallWallBoundIsFiniteOnlyWhenBudgetsAre) {
  RetryPolicy pol;  // defaults carry non-zero budgets
  const double bound = MaxCallWallMs(pol);
  EXPECT_GT(bound, 0.0);
  EXPECT_TRUE(std::isfinite(bound));
  RetryPolicy unbounded = pol;
  unbounded.timeouts.recv_ms = 0.0;
  EXPECT_FALSE(std::isfinite(MaxCallWallMs(unbounded)));
}

// ---------------------------------------------------------------------------
// Proxy + retrying client against the real server.

TEST(ChaosProxyTest, UnarmedProxyIsTransparent) {
  Harness h;
  ASSERT_TRUE(h.ok) << h.error;
  ChaosSpec spec;  // nothing armed: pure byte forwarding
  ChaosProxy proxy(spec, UniqueSocketPath("chaos_front"), h.uds);
  std::string err;
  ASSERT_TRUE(proxy.Start(&err)) << err;

  RetryPolicy pol;
  RetryingClient rc(pol);
  rc.TargetUds(proxy.listen_path());
  wire::Frame reply;
  ASSERT_EQ(rc.Call(BfsRequest(5), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, h.OracleVfp(5));
  EXPECT_EQ(rc.ledger().attempts, 1u);  // no faults, no retries
  rc.Close();
  proxy.Stop();
  const ChaosStats& ps = proxy.stats();
  EXPECT_EQ(ps.connections, 1u);
  EXPECT_EQ(ps.faults(), 0u);
  EXPECT_GT(ps.bytes_in, 0u);
  EXPECT_EQ(ps.bytes_in, ps.bytes_out);  // transparent: every byte forwarded
}

TEST(ChaosProxyTest, RetryingClientSurvivesEndpointRestart) {
  Harness h;
  ASSERT_TRUE(h.ok) << h.error;
  const std::string front = UniqueSocketPath("chaos_front");
  ChaosSpec spec;  // unarmed: the "fault" is the endpoint dying entirely
  auto proxy1 = std::make_unique<ChaosProxy>(spec, front, h.uds);
  std::string err;
  ASSERT_TRUE(proxy1->Start(&err)) << err;

  RetryPolicy pol;
  RetryingClient rc(pol);
  rc.TargetUds(front);
  wire::Frame reply;
  ASSERT_EQ(rc.Call(BfsRequest(1), &reply, &err), ClientStatus::kOk) << err;

  // Kill the endpoint and resurrect it on the same path: the next call's
  // first attempt fails on the dead connection, the retry reconnects.
  proxy1->Stop();
  proxy1.reset();
  ChaosProxy proxy2(spec, front, h.uds);
  ASSERT_TRUE(proxy2.Start(&err)) << err;
  ASSERT_EQ(rc.Call(BfsRequest(2), &reply, &err), ClientStatus::kOk) << err;
  ASSERT_EQ(reply.type, wire::MsgType::kResponse);
  EXPECT_EQ(reply.response.value_fingerprint, h.OracleVfp(2));
  EXPECT_GE(rc.ledger().reconnects, 2u);
  EXPECT_GE(rc.ledger().attempts, 3u);
  EXPECT_EQ(rc.ledger().failed, 0u);
  rc.Close();
  proxy2.Stop();
}

// The sweep: every outcome typed, every answer bit-equal, no leaked fd.
TEST(ChaosSweepTest, FaultedTransportNeverCorruptsOrHangs) {
  const uint64_t rounds =
      std::min<uint64_t>(std::max<uint64_t>(EnvU64("SIMDX_SWEEP_SEEDS", 2), 1),
                         64);
  const double density = EnvDouble("SIMDX_SWEEP_CHAOS_DENSITY", 1.0);

  ServerOptions sopts;
  // The server runs with its own resilience armed — chaos must not be able
  // to park garbage connections on it either.
  sopts.header_timeout_ms = 500.0;
  sopts.idle_timeout_ms = 2000.0;
  sopts.max_pipeline = 8;
  Harness h(sopts);
  ASSERT_TRUE(h.ok) << h.error;

  constexpr int kSources = 16;
  std::vector<uint64_t> oracle;
  for (int s = 0; s < kSources; ++s) {
    oracle.push_back(h.OracleVfp(static_cast<VertexId>(s)));
  }
  // Baseline AFTER the harness and oracles exist (lazy pools and arenas are
  // process state, not sweep leakage).
  const int fd_baseline = CountOpenFds();
  ASSERT_GT(fd_baseline, 0);

  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> hangs{0};
  std::atomic<uint64_t> untyped{0};

  for (uint64_t round = 0; round < rounds; ++round) {
    ChaosSpec spec = ChaosSpec::Default().Scaled(density);
    spec.seed = round + 1;
    ChaosProxy proxy(spec, UniqueSocketPath("chaos_sweep"), h.uds);
    std::string perr;
    ASSERT_TRUE(proxy.Start(&perr)) << perr;

    constexpr int kClients = 3;
    constexpr int kCallsPerClient = 5;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c, round] {
        RetryPolicy pol;
        pol.jitter_seed = round * 100 + static_cast<uint64_t>(c) + 1;
        pol.timeouts = ClientTimeouts{1000.0, 1000.0, 3000.0};
        const double wall_bound_ms = MaxCallWallMs(pol) + 2000.0;
        RetryingClient rc(pol);
        rc.TargetUds(proxy.listen_path());
        for (int m = 0; m < kCallsPerClient; ++m) {
          const int src = (c * kCallsPerClient + m) % kSources;
          wire::Frame reply;
          std::string err;
          const auto t0 = std::chrono::steady_clock::now();
          const ClientStatus st =
              rc.Call(BfsRequest(static_cast<VertexId>(src)), &reply, &err);
          const double el = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (el > wall_bound_ms) {
            hangs.fetch_add(1);
          }
          if (st == ClientStatus::kOk) {
            if (reply.type == wire::MsgType::kResponse) {
              completed.fetch_add(1);
              // Both the server-computed fingerprint and the bytes that
              // actually crossed the proxy must match the oracle.
              const auto& r = reply.response;
              if (r.value_fingerprint != oracle[src] ||
                  ValueBytesFingerprint(r.value_bytes.data(),
                                        r.value_bytes.size()) != oracle[src]) {
                mismatches.fetch_add(1);
              }
            } else {
              // A typed server reject (e.g. kBadFrame after chaos mangled
              // our request bytes) is a SUCCESSFUL transport outcome.
              rejected.fetch_add(1);
            }
          } else {
            failed.fetch_add(1);
            if (ToString(st) == std::string("?")) {
              untyped.fetch_add(1);
            }
          }
        }
        rc.Close();
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    proxy.Stop();
    const ChaosStats& ps = proxy.stats();
    // The proxy genuinely interfered (density 0 in a nightly config is the
    // only legitimate quiet case).
    if (spec.armed()) {
      EXPECT_GT(ps.chunks, 0u) << "round " << round;
    }
  }

  const uint64_t total = completed.load() + rejected.load() + failed.load();
  EXPECT_EQ(total, rounds * 3 * 5);
  EXPECT_EQ(mismatches.load(), 0u) << "chaos corrupted an accepted answer";
  EXPECT_EQ(hangs.load(), 0u) << "a call exceeded its worst-case wall bound";
  EXPECT_EQ(untyped.load(), 0u);
  // Under the default mix most calls must still get through — the retry
  // layer exists to WIN against this fault density, not to lose politely.
  if (density <= 1.0) {
    EXPECT_GT(completed.load(), total / 2);
  }

  // fd-leak gate: closes trail teardown by a poll cycle; wait them out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CountOpenFds() > fd_baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(CountOpenFds(), fd_baseline);
}

}  // namespace
}  // namespace simdx::service
