// In-process socket chaos proxy: the adversarial network between a client
// and the query service. It listens on its own UDS path, forwards every
// byte to the real server's UDS path, and injects a seeded, configurable
// mix of transport faults on the way through — the faults a LAN actually
// serves (delay, fragmentation, stalls) plus the ones only a proxy can
// manufacture on demand (byte duplication, silent drops, mid-stream
// resets). The resilience stack's whole contract is verified against it:
// every completed call bit-equal to the direct-Submit oracle, every failed
// call a TYPED status within its timeout bound, zero hangs, zero crashes,
// zero leaked fds.
//
// Spec grammar (mirrors core/fault.h's FaultRegistry: comma-separated
// terms, duplicate terms rejected, unparseable specs are a typed false,
// never an abort):
//   spec  := term ("," term)*
//   term  := "seed=" u64
//          | name "@p=" float [":ms=" float]
//   name  := "delay" | "split" | "stall" | "dup" | "drop" | "reset"
// Example: "seed=7,delay@p=0.2:ms=3,split@p=0.5,drop@p=0.02,reset@p=0.01"
// `p` is the per-chunk probability of the fault; `ms` parameterizes the
// time-based faults (delay holds one chunk, stall freezes one direction)
// and is rejected on the others.
//
// Fault semantics, drawn PER CHUNK in a fixed order (reset, drop, dup,
// split, delay, stall) from one mt19937_64 seeded by `seed` — a failing
// sweep replays with the same decisions for the same byte-arrival pattern:
//   reset  abruptly closes BOTH sides of the link, queues and all
//   drop   the chunk's bytes silently vanish (stream desync downstream —
//          the CRC/framing machinery must turn that into typed errors)
//   dup    the chunk is forwarded twice back-to-back (ditto)
//   split  the chunk is cut at a random midpoint into two queue entries
//   delay  the chunk is held for `ms` before forwarding
//   stall  the whole direction freezes for `ms` (queued bytes wait too)
//
// Single poll thread, non-blocking fds, MSG_NOSIGNAL writes, self-pipe
// Stop() — the same dispatch discipline as the server it proxies.
#ifndef SIMDX_TESTS_SERVICE_CHAOS_H_
#define SIMDX_TESTS_SERVICE_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace simdx::service {

struct ChaosSpec {
  uint64_t seed = 1;
  double delay_p = 0.0;
  double delay_ms = 2.0;
  double split_p = 0.0;
  double stall_p = 0.0;
  double stall_ms = 20.0;
  double dup_p = 0.0;
  double drop_p = 0.0;
  double reset_p = 0.0;

  // True when any fault has a non-zero probability; an unarmed proxy is a
  // pure pass-through (the overhead-baseline configuration).
  bool armed() const {
    return delay_p > 0 || split_p > 0 || stall_p > 0 || dup_p > 0 ||
           drop_p > 0 || reset_p > 0;
  }

  // Canonical one-line rendering (round-trips through Parse).
  std::string Describe() const;

  // Parses the grammar above into *out. False (with *error set) on unknown
  // names, bad numbers, out-of-range probabilities, duplicate terms, or an
  // `ms` on a fault that takes none.
  static bool Parse(const std::string& spec, ChaosSpec* out,
                    std::string* error);

  // The mix the chaos sweep (tests/service/chaos_test) runs: every fault
  // armed at low-but-bite probability, time faults short enough that the
  // client timeouts (seconds) dominate them by orders of magnitude.
  static ChaosSpec Default();

  // Multiplies every probability by `factor` (clamped to [0,1]) — the
  // SIMDX_SWEEP_CHAOS_DENSITY scaling hook for nightly sweeps.
  ChaosSpec Scaled(double factor) const;
};

// Everything the proxy did, for JSON emission and test gates. Snapshotted
// after Stop(); reading while the proxy runs races.
struct ChaosStats {
  uint64_t connections = 0;   // client links accepted
  uint64_t backend_fails = 0; // accepted links whose backend connect failed
  uint64_t bytes_in = 0;      // bytes read from either side
  uint64_t bytes_out = 0;     // bytes forwarded to either side
  uint64_t chunks = 0;        // fault-decision opportunities
  uint64_t delays = 0;
  uint64_t splits = 0;
  uint64_t stalls = 0;
  uint64_t dups = 0;
  uint64_t drops = 0;
  uint64_t resets = 0;
  uint64_t faults() const {
    return delays + splits + stalls + dups + drops + resets;
  }
};

class ChaosProxy {
 public:
  ChaosProxy(ChaosSpec spec, std::string listen_uds, std::string backend_uds);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  // Binds the listen path and starts the forwarding thread. False (with
  // *error set) if the listen socket cannot be created.
  bool Start(std::string* error);

  // Stops accepting, abandons every live link (clients see EOF/EPIPE — by
  // design: proxy death is just one more fault they must survive), joins.
  // Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& listen_path() const { return listen_uds_; }

  // Valid after Stop().
  const ChaosStats& stats() const { return stats_; }

 private:
  struct Link;
  void Loop();
  void CloseLink(Link& link);

  ChaosSpec spec_;
  std::string listen_uds_;
  std::string backend_uds_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread thread_;
  ChaosStats stats_;
};

}  // namespace simdx::service

#endif  // SIMDX_TESTS_SERVICE_CHAOS_H_
