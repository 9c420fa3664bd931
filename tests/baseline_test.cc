#include <gtest/gtest.h>

#include <memory>

#include "baseline/duplexed_logger.h"
#include "sim/simulator.h"
#include "tp/bank.h"
#include "tp/engine.h"

namespace dlog::baseline {
namespace {

TEST(DuplexedLoggerTest, AppendForceRead) {
  sim::Simulator sim;
  DuplexedDiskLogger logger(&sim, DuplexedLogConfig{});
  Result<Lsn> l1 = logger.Append(ToBytes("one"));
  Result<Lsn> l2 = logger.Append(ToBytes("two"));
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_EQ(*l1, 1u);
  EXPECT_EQ(*l2, 2u);

  Status forced = Status::Internal("pending");
  logger.Force(2, [&](Status st) { forced = st; });
  sim.Run();
  EXPECT_TRUE(forced.ok());
  EXPECT_EQ(logger.stable_high(), 2u);

  Result<Bytes> read = Status::Internal("pending");
  logger.Read(1, [&](Result<Bytes> r) { read = std::move(r); });
  sim.Run();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, ToBytes("one"));
}

TEST(DuplexedLoggerTest, ForcePaysRotationalLatency) {
  sim::Simulator sim;
  DuplexedLogConfig cfg;
  cfg.disk.rpm = 3600;  // 16.7 ms/rotation: write >= 25 ms
  DuplexedDiskLogger logger(&sim, cfg);
  ASSERT_TRUE(logger.Append(ToBytes("r")).ok());
  sim::Time done_at = 0;
  logger.Force(1, [&](Status) { done_at = sim.Now(); });
  sim.Run();
  EXPECT_GE(done_at, 20 * sim::kMillisecond);
}

TEST(DuplexedLoggerTest, BothDisksReceiveEveryTrack) {
  sim::Simulator sim;
  DuplexedDiskLogger logger(&sim, DuplexedLogConfig{});
  ASSERT_TRUE(logger.Append(ToBytes("mirrored")).ok());
  logger.Force(1, [](Status) {});
  sim.Run();
  EXPECT_TRUE(logger.disk(0).IsWritten(0));
  EXPECT_TRUE(logger.disk(1).IsWritten(0));
  EXPECT_EQ(*logger.disk(0).Peek(0), *logger.disk(1).Peek(0));
}

TEST(DuplexedLoggerTest, GroupCommitMergesConcurrentForces) {
  sim::Simulator sim;
  DuplexedLogConfig cfg;
  cfg.num_disks = 1;
  DuplexedDiskLogger logger(&sim, cfg);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    Result<Lsn> lsn =
        logger.Append(ToBytes(std::string("r").append(std::to_string(i))));
    ASSERT_TRUE(lsn.ok());
    logger.Force(*lsn, [&](Status st) {
      EXPECT_TRUE(st.ok());
      ++completed;
    });
  }
  sim.Run();
  EXPECT_EQ(completed, 10);
  // Far fewer track writes than forces: the second flush groups the
  // remaining nine records.
  EXPECT_LE(logger.tracks_written().value(), 3u);
}

TEST(DuplexedLoggerTest, CrashLosesUnforcedSuffix) {
  sim::Simulator sim;
  DuplexedDiskLogger logger(&sim, DuplexedLogConfig{});
  ASSERT_TRUE(logger.Append(ToBytes("stable")).ok());
  logger.Force(1, [](Status) {});
  sim.Run();
  ASSERT_TRUE(logger.Append(ToBytes("volatile")).ok());
  logger.Crash();
  EXPECT_EQ(logger.End(), 1u);
  EXPECT_EQ(logger.stable_high(), 1u);
}

// The same transaction engine runs unmodified on the baseline logger.
TEST(DuplexedLoggerTest, DrivesTransactionEngine) {
  sim::Simulator sim;
  DuplexedDiskLogger logger(&sim, DuplexedLogConfig{});
  tp::PageDisk disk(1024);
  tp::TransactionEngine engine(&sim, &logger, &disk, tp::EngineConfig{});
  tp::BankDb bank(&engine, tp::BankConfig{});

  Status result = Status::Internal("pending");
  bank.RunEt1(1, 1, 1, 77, [&](Status st) { result = st; });
  sim.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(bank.AccountBalance(1), 77);

  // Crash and recover on the baseline log.
  engine.Crash();
  logger.Crash();
  tp::TransactionEngine recovered(&sim, &logger, &disk, tp::EngineConfig{});
  Status rst = Status::Internal("pending");
  recovered.Recover([&](Status st) { rst = st; });
  sim.Run();
  ASSERT_TRUE(rst.ok());
  tp::BankDb bank_after(&recovered, tp::BankConfig{});
  EXPECT_EQ(bank_after.AccountBalance(1), 77);
}

}  // namespace
}  // namespace dlog::baseline
