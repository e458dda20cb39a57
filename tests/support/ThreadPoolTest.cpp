//===- tests/support/ThreadPoolTest.cpp - TaskPool lifecycle --------------===//
//
// The persistent TaskPool's documented lifecycle rules: tasks run,
// shutdown drains and is idempotent from any thread, submit after
// shutdown is a well-defined refusal, and the destructor shuts down.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>

using namespace cdvs;

namespace {

TEST(TaskPool, RunsSubmittedTasks) {
  TaskPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 100; ++I)
    EXPECT_TRUE(Pool.submit([&Ran] { Ran.fetch_add(1); }));
  Pool.shutdown();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(TaskPool, ShutdownDrainsQueuedTasks) {
  // One worker and a slow first task guarantee the rest are still queued
  // when shutdown starts; drain semantics require them to run anyway.
  TaskPool Pool(1);
  std::atomic<int> Ran{0};
  Pool.submit([&Ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Ran.fetch_add(1);
  });
  for (int I = 0; I < 20; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.shutdown();
  EXPECT_EQ(Ran.load(), 21);
}

TEST(TaskPool, SubmitAfterShutdownReturnsFalse) {
  TaskPool Pool(2);
  Pool.shutdown();
  EXPECT_TRUE(Pool.stopped());
  std::atomic<bool> Ran{false};
  EXPECT_FALSE(Pool.submit([&Ran] { Ran.store(true); }));
  // The refused task must have been dropped, not deferred.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Ran.load());
}

TEST(TaskPool, DoubleShutdownIsNoOp) {
  TaskPool Pool(2);
  std::atomic<int> Ran{0};
  Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.shutdown();
  Pool.shutdown(); // second call: documented no-op
  EXPECT_EQ(Ran.load(), 1);
  EXPECT_TRUE(Pool.stopped());
}

TEST(TaskPool, ConcurrentShutdownIsSafe) {
  // Many threads race shutdown(); exactly one joins the workers, the
  // rest are no-ops. TSan (scripts/check.sh) watches this closely.
  for (int Round = 0; Round < 20; ++Round) {
    TaskPool Pool(4);
    std::atomic<int> Ran{0};
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    std::vector<std::future<void>> Racers;
    for (int I = 0; I < 4; ++I)
      Racers.push_back(
          std::async(std::launch::async, [&Pool] { Pool.shutdown(); }));
    for (auto &F : Racers)
      F.get();
    EXPECT_EQ(Ran.load(), 32);
  }
}

TEST(TaskPool, DestructorShutsDown) {
  std::atomic<int> Ran{0};
  {
    TaskPool Pool(2);
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Ran] { Ran.fetch_add(1); });
    // No explicit shutdown: the destructor must drain and join.
  }
  EXPECT_EQ(Ran.load(), 10);
}

TEST(TaskPool, TasksMaySubmitTasks) {
  TaskPool Pool(2);
  std::promise<bool> Nested;
  Pool.submit([&] {
    bool Ok = Pool.submit([&Nested] { Nested.set_value(true); });
    if (!Ok) // racing shutdown is allowed to drop it; report that
      Nested.set_value(false);
  });
  EXPECT_TRUE(Nested.get_future().get());
  Pool.shutdown();
}

TEST(TaskPool, ZeroMeansOnePerCore) {
  TaskPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), hardwareThreads());
  EXPECT_GE(Pool.numThreads(), 1);
}

TEST(TaskPool, StatsCountSubmissionsAndExecutions) {
  TaskPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 50; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.shutdown();
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.TasksSubmitted, 50);
  EXPECT_EQ(S.TasksExecuted, 50);
  EXPECT_GE(S.TotalWaitSeconds, 0.0);
}

TEST(TaskPool, PeakQueueDepthSeesBackedUpWork) {
  // One worker pinned on a slow task; 20 more submissions must drive
  // the recorded peak to the full backlog.
  TaskPool Pool(1);
  std::promise<void> Release;
  std::shared_future<void> Gate = Release.get_future().share();
  Pool.submit([Gate] { Gate.wait(); });
  std::promise<void> FirstRunning;
  Pool.submit([&FirstRunning] { FirstRunning.set_value(); });
  for (int I = 0; I < 19; ++I)
    Pool.submit([] {});
  // 20 tasks are queued behind the gated one right now.
  EXPECT_GE(Pool.stats().PeakQueueDepth, 20u);
  Release.set_value();
  FirstRunning.get_future().wait();
  Pool.shutdown();
  EXPECT_EQ(Pool.stats().TasksExecuted, 21);
}

} // namespace
