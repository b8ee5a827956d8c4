#include "net/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <string>
#include <thread>

namespace clash::net {
namespace {

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run(): we hold affinity
  loop.call_after(std::chrono::milliseconds(30), [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.call_after(std::chrono::milliseconds(10), [&] { order.push_back(1); });
  loop.call_after(std::chrono::milliseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  CLASH_ASSERT_ON_LOOP(loop);
  const auto id = loop.call_after(std::chrono::milliseconds(5),
                                  [&] { fired = true; });
  loop.cancel_timer(id);
  loop.call_after(std::chrono::milliseconds(20), [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, PostFromAnotherThread) {
  EventLoop loop;
  bool ran = false;
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(loop.post([&] {
      ran = true;
      loop.stop();
    }));
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, PostAfterFinalDrainReturnsFalse) {
  EventLoop loop;
  CLASH_ASSERT_ON_LOOP(loop);
  loop.call_after(std::chrono::milliseconds(1), [&] { loop.stop(); });
  loop.run();
  // The loop has finished: a post can never run, and says so instead of
  // silently dropping the task (which would hang a waiting caller).
  EXPECT_FALSE(loop.post([] {}));
}

TEST(EventLoop, AcceptedPostsAlwaysRunDespiteStopRace) {
  // Every post() that returned true must execute, even when it races
  // with stop(): run() drains the queue once more after exiting.
  for (int round = 0; round < 50; ++round) {
    EventLoop loop;
    std::thread runner([&] { loop.run(); });
    while (!loop.running()) {
      std::this_thread::yield();
    }

    std::atomic<int> executed{0};
    int accepted = 0;
    std::thread stopper([&] { loop.stop(); });
    for (int i = 0; i < 100; ++i) {
      if (loop.post([&] { executed++; })) ++accepted;
    }
    stopper.join();
    runner.join();
    EXPECT_EQ(executed.load(), accepted) << "round " << round;
    // Anything posted after the final drain is refused, not dropped.
    EXPECT_FALSE(loop.post([] {}));
  }
}

TEST(EventLoop, FdReadiness) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string received;
  CLASH_ASSERT_ON_LOOP(loop);  // held before run() and again after it
  loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[16];
    const auto n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) received.assign(buf, std::size_t(n));
    loop.stop();
  });
  loop.call_after(std::chrono::milliseconds(5), [&] {
    [[maybe_unused]] const auto n = ::write(fds[1], "ping", 4);
  });
  loop.run();
  loop.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_EQ(received, "ping");
}

TEST(EventLoop, HandlerMayRemoveItselfAndAnotherFdOfTheSameBatch) {
  EventLoop loop;
  int a[2];
  int b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  // Both fds are readable before the loop starts, so one epoll_wait
  // reports them together; whichever handler runs first unregisters
  // both, and the other must not run (its slot is gone, not dangling).
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  int calls = 0;
  std::string witness = "captured state outlives the removal";
  CLASH_ASSERT_ON_LOOP(loop);
  const auto handler = [&, witness](std::uint32_t) {
    CLASH_ASSERT_ON_LOOP(loop);
    ++calls;
    loop.remove_fd(a[0]);
    loop.remove_fd(b[0]);
    // The running handler's own captures are still alive here.
    EXPECT_EQ(witness, "captured state outlives the removal");
  };
  loop.add_fd(a[0], EPOLLIN, handler);
  loop.add_fd(b[0], EPOLLIN, handler);
  loop.call_after(std::chrono::milliseconds(20), [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(calls, 1);
  for (const int fd : {a[0], a[1], b[0], b[1]}) ::close(fd);
}

TEST(EventLoop, TimerCanRescheduleItself) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    CLASH_ASSERT_ON_LOOP(loop);  // timers fire on the loop thread
    if (++ticks >= 3) {
      loop.stop();
    } else {
      loop.call_after(std::chrono::milliseconds(2), tick);
    }
  };
  CLASH_ASSERT_ON_LOOP(loop);
  loop.call_after(std::chrono::milliseconds(2), tick);
  loop.run();
  EXPECT_EQ(ticks, 3);
}

}  // namespace
}  // namespace clash::net
