// Heap allocations per committed transaction on the write path.
//
// This binary replaces the global operator new/delete with counting
// versions that forward to malloc/free (so ASan still sees every block),
// which is why it is a test executable of its own. A small ET1 cluster
// runs to steady state; the test then counts the allocations of a
// measured window and divides by the transactions it committed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"

namespace {

bool g_counting = false;
uint64_t g_allocations = 0;

}  // namespace

// Out of line, so the compiler does not pair an inlined new with an
// inlined free() and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dlog::harness {
namespace {

/// Allocations per committed ET1 transaction over a 5 s window of
/// 4 clients x 3 servers, N = 2, 20 TPS each.
double AllocationsPerTransaction() {
  Cluster cluster(ClusterConfig{});
  std::vector<std::unique_ptr<Et1Driver>> drivers;
  for (uint32_t i = 1; i <= 4; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = i;
    Et1DriverConfig cfg;
    cfg.tps = 20.0;
    cfg.seed = i;
    drivers.push_back(std::make_unique<Et1Driver>(&cluster, log_cfg, cfg));
    drivers.back()->Start();
  }
  auto committed = [&]() {
    uint64_t n = 0;
    for (const auto& d : drivers) n += d->committed();
    return n;
  };
  // Steady state: every Init done, buffers and pools at working size.
  cluster.RunFor(3 * sim::kSecond);
  const uint64_t before = committed();
  g_allocations = 0;
  g_counting = true;
  cluster.RunFor(5 * sim::kSecond);
  g_counting = false;
  const uint64_t txns = committed() - before;
  EXPECT_GT(txns, 300u);
  for (const auto& d : drivers) EXPECT_EQ(d->failed(), 0u);
  return txns == 0 ? 0.0 : static_cast<double>(g_allocations) / txns;
}

TEST(AllocBudgetTest, Et1TransactionStaysWithinItsAllocationBudget) {
  const double per_txn = AllocationsPerTransaction();
  RecordProperty("allocations_per_txn", static_cast<int>(per_txn));
  std::printf("heap allocations per committed transaction: %.1f\n", per_txn);
  // Measured at 65.6 (gcc 12, libstdc++); 285.6 before the write path
  // stopped allocating tree and set nodes per record, regrowing encode
  // buffers and copying update images.
  EXPECT_LE(per_txn, 72.0);
}

}  // namespace
}  // namespace dlog::harness
