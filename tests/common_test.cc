// Foundation types: priorities, ids, RNG, stable priority queue, math.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "common/math_util.h"
#include "common/priority.h"
#include "common/rng.h"
#include "common/stable_priority_queue.h"
#include "common/strf.h"
#include "common/types.h"

namespace mpcp {
namespace {

TEST(Priority, OrderingAndBands) {
  const Priority lo(1), hi(5), base(10);
  EXPECT_LT(lo, hi);
  EXPECT_LT(kPriorityFloor, lo);
  EXPECT_EQ(lo.inGlobalBand(base).urgency(), 11);
  EXPECT_EQ(hi.inGlobalBand(base).urgency(), 15);
  // Every banded priority exceeds every in-band task priority <= base.
  EXPECT_GT(lo.inGlobalBand(base), base);
}

TEST(Ids, DistinctTypesAndValidity) {
  const TaskId t(3);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(TaskId().valid());
  EXPECT_EQ(t.value(), 3);
  const JobId j{t, 7};
  const JobId k{t, 8};
  EXPECT_NE(j, k);
  EXPECT_LT(j, k);
}

TEST(Rng, DeterministicAndDistinctSeeds) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniformInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all values hit
  EXPECT_EQ(rng.uniformInt(5, 5), 5);
  EXPECT_THROW(rng.uniformInt(2, 1), InvariantError);
}

TEST(Rng, Uniform01InRangeAndSpread) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StableQueue, PriorityOrderWithFifoTies) {
  StablePriorityQueue<int> q;
  q.push(1, Priority(5));
  q.push(2, Priority(9));
  q.push(3, Priority(5));
  q.push(4, Priority(9));
  EXPECT_EQ(q.pop(), 2);  // highest priority, earliest
  EXPECT_EQ(q.pop(), 4);  // same priority, later
  EXPECT_EQ(q.pop(), 1);  // lower priority, FIFO
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(StableQueue, RemoveAndContains) {
  StablePriorityQueue<int> q;
  q.push(1, Priority(1));
  q.push(2, Priority(2));
  EXPECT_TRUE(q.contains(1));
  EXPECT_TRUE(q.remove(1));
  EXPECT_FALSE(q.contains(1));
  EXPECT_FALSE(q.remove(1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek(), 2);
  EXPECT_EQ(q.peekPriority(), Priority(2));
}

TEST(StableQueue, PopOnEmptyThrows) {
  StablePriorityQueue<int> q;
  EXPECT_THROW(q.pop(), InvariantError);
  EXPECT_THROW((void)q.peek(), InvariantError);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceilDiv(10, 5), 2);
  EXPECT_EQ(ceilDiv(11, 5), 3);
  EXPECT_EQ(ceilDiv(1, 5), 1);
  EXPECT_EQ(ceilDiv(5, 5), 1);
}

TEST(MathUtil, LcmSaturating) {
  EXPECT_EQ(lcmSaturating(4, 6), 12);
  EXPECT_EQ(lcmSaturating(7, 13), 91);
  const Time huge = kTimeInfinity / 2;
  EXPECT_EQ(lcmSaturating(huge, huge - 1), kTimeInfinity);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    MPCP_CHECK(1 == 2, "the answer is " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the answer is 42"), std::string::npos);
  }
}

/// What strf must reproduce byte for byte: one ostringstream fed every
/// argument in order.
template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

template <typename T>
void expectIntegerLimitsMatchStream() {
  using L = std::numeric_limits<T>;
  for (const T v : {L::min(), L::max(), T{0}, T{1}, static_cast<T>(L::max() / 3),
                    static_cast<T>(L::min() / 3)}) {
    EXPECT_EQ(strf(v), streamed(v)) << "value " << +v;
    EXPECT_EQ(strf("<", v, ">"), streamed("<", v, ">")) << "value " << +v;
  }
}

TEST(Strf, IntegersOfEveryWidthMatchStream) {
  expectIntegerLimitsMatchStream<short>();
  expectIntegerLimitsMatchStream<unsigned short>();
  expectIntegerLimitsMatchStream<int>();
  expectIntegerLimitsMatchStream<unsigned>();
  expectIntegerLimitsMatchStream<long>();
  expectIntegerLimitsMatchStream<unsigned long>();
  expectIntegerLimitsMatchStream<long long>();
  expectIntegerLimitsMatchStream<unsigned long long>();
  expectIntegerLimitsMatchStream<std::int16_t>();
  expectIntegerLimitsMatchStream<std::int32_t>();
  expectIntegerLimitsMatchStream<std::int64_t>();
  expectIntegerLimitsMatchStream<std::uint16_t>();
  expectIntegerLimitsMatchStream<std::uint32_t>();
  expectIntegerLimitsMatchStream<std::uint64_t>();
  expectIntegerLimitsMatchStream<std::size_t>();
  EXPECT_EQ(strf(-42), "-42");
  EXPECT_EQ(strf(Time{-1}), "-1");
}

TEST(Strf, EightBitIntegersStreamAsCharacters) {
  // <iostream> prints int8_t / uint8_t as characters, not numbers.
  for (const std::int8_t v : {std::int8_t{65}, std::int8_t{0}, std::int8_t{-1},
                              std::int8_t{-128}, std::int8_t{127}}) {
    EXPECT_EQ(strf(v), streamed(v)) << +v;
    EXPECT_EQ(strf("[", v, "]"), streamed("[", v, "]")) << +v;
  }
  for (const std::uint8_t v : {std::uint8_t{66}, std::uint8_t{0},
                               std::uint8_t{200}, std::uint8_t{255}}) {
    EXPECT_EQ(strf(v), streamed(v)) << +v;
    EXPECT_EQ(strf("[", v, "]"), streamed("[", v, "]")) << +v;
  }
  EXPECT_EQ(strf(std::int8_t{65}), "A");
  EXPECT_EQ(strf(std::uint8_t{66}), "B");
  EXPECT_EQ(strf(std::int8_t{0}).size(), 1u);  // a NUL byte, not "0"
}

TEST(Strf, BoolAndCharMatchStream) {
  EXPECT_EQ(strf(true), streamed(true));
  EXPECT_EQ(strf(false), streamed(false));
  EXPECT_EQ(strf(true, false), "10");
  for (const char c : {'x', ',', ' ', '\n', '\0', '\xff'}) {
    EXPECT_EQ(strf(c), streamed(c)) << static_cast<int>(c);
    EXPECT_EQ(strf("a", c, 'b'), streamed("a", c, 'b'))
        << static_cast<int>(c);
  }
}

TEST(Strf, StringsMatchStream) {
  const char* cstr = "tau";
  const std::string str = "gcs,";
  const std::string_view view = std::string_view("viewed-text").substr(0, 6);
  EXPECT_EQ(strf(cstr), streamed(cstr));
  EXPECT_EQ(strf(str), streamed(str));
  EXPECT_EQ(strf(view), streamed(view));
  EXPECT_EQ(strf("literal"), streamed("literal"));
  EXPECT_EQ(strf(std::string("temp")), "temp");
  EXPECT_EQ(strf(cstr, str, view, "!"), streamed(cstr, str, view, "!"));
  EXPECT_EQ(strf(""), "");
  EXPECT_EQ(strf(std::string()), "");
  EXPECT_EQ(strf(std::string("a\0b", 3)), std::string("a\0b", 3));
}

TEST(Strf, DoublesMatchStream) {
  for (const double d :
       {0.1, 1e20, -0.0, 0.0, 1.0, -2.5, 1.0 / 3.0, 123456789.0, 1e-7,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(strf(d), streamed(d)) << d;
    EXPECT_EQ(strf("u=", d, ","), streamed("u=", d, ",")) << d;
  }
  EXPECT_EQ(strf(-0.0), "-0");
  EXPECT_EQ(strf(0.1f), streamed(0.1f));
}

TEST(Strf, ManipulatorsApplyToLaterArguments) {
  // report.cc formats utilizations this way.
  EXPECT_EQ(strf(std::fixed, std::setprecision(3), 0.25),
            streamed(std::fixed, std::setprecision(3), 0.25));
  EXPECT_EQ(strf(std::fixed, std::setprecision(3), 0.25), "0.250");
  // A manipulator also changes how later integers and bools print.
  EXPECT_EQ(strf(std::hex, 255, " ", std::setw(4), 7, std::boolalpha, true),
            streamed(std::hex, 255, " ", std::setw(4), 7, std::boolalpha,
                     true));
  EXPECT_EQ(strf(std::hex, 255, std::boolalpha, true), "fftrue");
}

TEST(Strf, StreamableTypesMatchStream) {
  const Priority prio(7);
  const TaskId task(3);
  const ResourceId res(12);
  const ProcessorId proc(1);
  const JobId job{TaskId(4), 9};
  EXPECT_EQ(strf(prio), streamed(prio));
  EXPECT_EQ(strf(kPriorityFloor), streamed(kPriorityFloor));
  EXPECT_EQ(strf(task), streamed(task));
  EXPECT_EQ(strf(TaskId()), streamed(TaskId()));
  EXPECT_EQ(strf(res), streamed(res));
  EXPECT_EQ(strf(proc), streamed(proc));
  EXPECT_EQ(strf(job), streamed(job));
  EXPECT_EQ(strf(job), "J(tau4#9)");
  // Mixed argument kinds in one call, as the simulator's messages do.
  EXPECT_EQ(strf("t=", Time{17}, " job=", job, " on ", proc, " holds ", res,
                 " at ", prio, " u=", 0.25, ' ', true, std::uint8_t{67}),
            streamed("t=", Time{17}, " job=", job, " on ", proc, " holds ",
                     res, " at ", prio, " u=", 0.25, ' ', true,
                     std::uint8_t{67}));
}

}  // namespace
}  // namespace mpcp
