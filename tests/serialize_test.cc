// Text-format load/save for task systems.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/serialize.h"
#include "taskgen/generator.h"
#include "taskgen/paper_examples.h"

namespace mpcp {
namespace {

constexpr const char* kSample = R"(
# demo system
processors 2
resource GBUF
resource LLOG
task control period=100 processor=0
  compute 10
  lock GBUF
  compute 5
  unlock GBUF
  section LLOG 4
  compute 7
end
task sensor period=200 processor=1 phase=3 deadline=150
  compute 30
  suspend 5
  section GBUF 8
  compute 12
end
)";

TEST(Serialize, ParsesSampleSystem) {
  const TaskSystem sys = parseTaskSystemFromString(kSample);
  EXPECT_EQ(sys.processorCount(), 2);
  ASSERT_EQ(sys.tasks().size(), 2u);
  EXPECT_EQ(sys.tasks()[0].name, "control");
  EXPECT_EQ(sys.tasks()[0].wcet, 26);
  EXPECT_EQ(sys.tasks()[1].phase, 3);
  EXPECT_EQ(sys.tasks()[1].relative_deadline, 150);
  EXPECT_TRUE(sys.isGlobal(ResourceId(0)));   // GBUF spans P0/P1
  EXPECT_FALSE(sys.isGlobal(ResourceId(1)));  // LLOG on P0 only
}

TEST(Serialize, RoundTripPreservesEverything) {
  const paper::Example3 ex = paper::makeExample3();
  const std::string text = serializeTaskSystemToString(ex.sys);
  const TaskSystem back = parseTaskSystemFromString(text);
  ASSERT_EQ(back.tasks().size(), ex.sys.tasks().size());
  for (std::size_t i = 0; i < back.tasks().size(); ++i) {
    const Task& a = ex.sys.tasks()[i];
    const Task& b = back.tasks()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.relative_deadline, b.relative_deadline);
    EXPECT_EQ(a.processor, b.processor);
    EXPECT_EQ(a.priority, b.priority);  // RM re-derivation matches
    EXPECT_TRUE(a.body == b.body);
  }
  ASSERT_EQ(back.resources().size(), ex.sys.resources().size());
  for (std::size_t i = 0; i < back.resources().size(); ++i) {
    EXPECT_EQ(back.resources()[i].name, ex.sys.resources()[i].name);
    EXPECT_EQ(back.resources()[i].scope, ex.sys.resources()[i].scope);
  }
}

TEST(Serialize, RoundTripOnGeneratedWorkloads) {
  WorkloadParams p;
  p.suspension_prob = 0.4;
  WorkloadParams wide;  // 16x32, as the wide analysis benchmark loads
  wide.processors = 16;
  wide.tasks_per_processor = 32;
  wide.global_sharing_prob = 0.2;
  for (const WorkloadParams& params : {p, wide}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed * 500 + 3);
      const TaskSystem sys = generateWorkload(params, rng);
      const std::string text = serializeTaskSystemToString(sys);
      const TaskSystem back = parseTaskSystemFromString(text);
      ASSERT_EQ(back.tasks().size(), sys.tasks().size());
      for (std::size_t i = 0; i < back.tasks().size(); ++i) {
        EXPECT_TRUE(back.tasks()[i].body == sys.tasks()[i].body) << seed;
        EXPECT_EQ(back.tasks()[i].priority, sys.tasks()[i].priority) << seed;
        EXPECT_EQ(back.tasks()[i].name, sys.tasks()[i].name) << seed;
      }
      EXPECT_EQ(serializeTaskSystemToString(back), text) << seed;
    }
  }
}

TEST(Serialize, SyncPinsRoundTrip) {
  TaskSystemBuilder b(3);
  const ResourceId g = b.addResource("G");
  b.addTask({.name = "a", .period = 10, .processor = 0,
             .body = Body{}.section(g, 1)});
  b.addTask({.name = "c", .period = 20, .processor = 1,
             .body = Body{}.section(g, 1)});
  b.assignSyncProcessor(g, ProcessorId(2));
  const TaskSystem sys = std::move(b).build();
  const TaskSystem back =
      parseTaskSystemFromString(serializeTaskSystemToString(sys));
  ASSERT_TRUE(back.resource(ResourceId(0)).sync_processor.has_value());
  EXPECT_EQ(back.resource(ResourceId(0)).sync_processor->value(), 2);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  const auto expectError = [](const char* text, const char* fragment) {
    try {
      (void)parseTaskSystemFromString(text);
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expectError("bogus 3\n", "unknown directive");
  expectError("processors 1\ntask t period=10\ncompute 1\nend\n",
              "processor=<index>");
  expectError("processors 1\ntask t processor=0\ncompute 1\nend\n",
              "period=<ticks>");
  expectError(
      "processors 1\ntask t period=10 processor=0\n  frobnicate 3\nend\n",
      "unknown body op");
  expectError(
      "processors 1\ntask t period=10 processor=0\n  lock NOPE\nend\n",
      "unknown resource");
  expectError("processors 1\ntask t period=10 processor=0\n  compute 1\n",
              "not closed");
  expectError("processors 1\nresource A\nresource A\n", "duplicate resource");
  expectError("task t period=x processor=0\nend\n", "bad period");

  // Every fail() site, with its exact message and line number.
  const auto expectErrorAt = [](const std::string& text, int line,
                                const std::string& message) {
    try {
      (void)parseTaskSystemFromString(text);
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()),
                "task-system parse error at line " + std::to_string(line) +
                    ": " + message)
          << text;
    }
  };
  const std::string head = "processors 1\nresource R\n";
  const std::string task = head + "task t period=10 processor=0\n";
  expectErrorAt(task + "  compute\nend\n", 4,
                "'compute' takes 1 argument(s)");
  expectErrorAt(task + "  suspend 1 2\nend\n", 4,
                "'suspend' takes 1 argument(s)");
  expectErrorAt(task + "  lock\nend\n", 4, "'lock' takes 1 argument(s)");
  expectErrorAt(task + "  unlock R R\nend\n", 4,
                "'unlock' takes 1 argument(s)");
  expectErrorAt(task + "  section R\nend\n", 4,
                "'section' takes 2 argument(s)");
  expectErrorAt(task + "  unlock NOPE\nend\n", 4,
                "unknown resource 'NOPE'");
  expectErrorAt(task + "  section NOPE 3\nend\n", 4,
                "unknown resource 'NOPE'");
  expectErrorAt(task + "  compute 1\n  jump 3\nend\n", 5,
                "unknown body op 'jump'");
  expectErrorAt(task + "  compute x\nend\n", 4, "bad duration: 'x'");
  expectErrorAt(task + "  suspend 1.5\nend\n", 4, "bad duration: '1.5'");
  expectErrorAt(task + "  section R 0x3\nend\n", 4, "bad duration: '0x3'");
  expectErrorAt("processors\n", 1, "'processors' takes one count");
  expectErrorAt("processors 1 2\n", 1, "'processors' takes one count");
  expectErrorAt("processors two\n", 1, "bad count: 'two'");
  expectErrorAt("processors 1\noptions allow_nested_global fast\n", 2,
                "unknown option 'fast'");
  expectErrorAt("processors 1\nresource\n", 2, "'resource' takes one name");
  expectErrorAt("processors 1\nresource A B\n", 2,
                "'resource' takes one name");
  expectErrorAt("processors 1\n\nresource A\n\nresource A\n", 5,
                "duplicate resource 'A'");
  expectErrorAt(head + "sync R\n", 3, "'sync' takes: name processor");
  expectErrorAt(head + "sync R 1 2\n", 3, "'sync' takes: name processor");
  expectErrorAt(head + "sync R p1\n", 3, "bad processor: 'p1'");
  expectErrorAt(head + "task\n", 3, "'task' needs a name");
  expectErrorAt(head + "task t period\n", 3,
                "expected key=value, got 'period'");
  expectErrorAt(head + "task t period=\n", 3,
                "expected key=value, got 'period='");
  expectErrorAt(head + "task t =10\n", 3, "expected key=value, got '=10'");
  expectErrorAt(head + "task t =\n", 3, "expected key=value, got '='");
  expectErrorAt(head + "task t period=10 processor=0 color=red\n", 3,
                "unknown task attribute 'color'");
  expectErrorAt(head + "task t period=10=2 processor=0\n", 3,
                "bad period: '10=2'");
  expectErrorAt(head + "task t period=10 phase=a processor=0\n", 3,
                "bad phase: 'a'");
  expectErrorAt(head + "task t period=10 deadline=5s processor=0\n", 3,
                "bad deadline: '5s'");
  expectErrorAt(head + "task t period=10 processor=zero\n", 3,
                "bad processor: 'zero'");
  expectErrorAt(head + "task t period=10 processor=0 priority=hi\n", 3,
                "bad priority: 'hi'");
  expectErrorAt(head + "task t processor=0\n", 3,
                "task needs period=<ticks>");
  expectErrorAt(head + "task t period=10\n", 3,
                "task needs processor=<index>");
  expectErrorAt(head + "frob\n", 3, "unknown directive 'frob'");
  expectErrorAt(head + "end\n", 3, "unknown directive 'end'");
  expectErrorAt(head + "compute 3\n", 3, "unknown directive 'compute'");
  expectErrorAt(task + "  compute 1\n", 4, "task 't' not closed with 'end'");
  expectErrorAt(task + "  compute 1", 4, "task 't' not closed with 'end'");
  expectErrorAt(task + "  compute 1\n\n\n", 6,
                "task 't' not closed with 'end'");
  expectErrorAt("", 0, "missing 'processors' directive");
  expectErrorAt("# only a comment\n\n", 2, "missing 'processors' directive");
  expectErrorAt("resource A\n", 1, "missing 'processors' directive");

  // Body-level invariants surface as parse errors on the op's line.
  const auto expectBodyErrorAt = [](const std::string& text, int line,
                                    const std::string& fragment) {
    try {
      (void)parseTaskSystemFromString(text);
      FAIL() << "expected ConfigError for: " << text;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("task-system parse error at line " +
                               std::to_string(line) + ": ",
                           0),
                0u)
          << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  expectBodyErrorAt(task + "  compute 0\nend\n", 4,
                    "compute duration must be positive, got 0");
  expectBodyErrorAt(task + "  compute -0\nend\n", 4,
                    "compute duration must be positive, got 0");
  expectBodyErrorAt(task + "  suspend -4\nend\n", 4,
                    "suspend duration must be positive, got -4");
  expectBodyErrorAt(task + "  section R -1\nend\n", 4,
                    "compute duration must be positive, got -1");

  // Token edge cases the format has always accepted or rejected.
  const auto parses = [](const std::string& text) {
    return parseTaskSystemFromString(text);
  };
  {  // tabs, vertical tabs, form feeds and \r\n line ends separate tokens
    const TaskSystem sys = parses(
        "processors\t2\r\nresource\vR\r\n"
        "task\tt\tperiod=10\fprocessor=1\r\n\tcompute\t3\r\n"
        "\tsection R 2\r\nend\r\n");
    EXPECT_EQ(sys.processorCount(), 2);
    EXPECT_EQ(sys.tasks()[0].processor.value(), 1);
    EXPECT_EQ(sys.tasks()[0].wcet, 5);
  }
  {  // '#' starts a comment anywhere, also glued to a token
    const TaskSystem sys = parses(
        "processors 1 # count\nresource R#c\n"
        "task t period=10 processor=0 # trailing\n"
        "  compute 3#x\n  #  compute 100\nend # done\n");
    EXPECT_EQ(sys.resources()[0].name, "R");
    EXPECT_EQ(sys.tasks()[0].wcet, 3);
  }
  expectErrorAt(head + "task t period=10#processor=0\n", 3,
                "task needs processor=<index>");
  {  // explicit signs: '+5' is 5 and '-0' is 0
    const TaskSystem sys = parses(
        "processors +1\ntask t period=+10 processor=-0 phase=-0 "
        "deadline=+008\n  compute +5\nend\n");
    EXPECT_EQ(sys.processorCount(), 1);
    EXPECT_EQ(sys.tasks()[0].period, 10);
    EXPECT_EQ(sys.tasks()[0].processor.value(), 0);
    EXPECT_EQ(sys.tasks()[0].phase, 0);
    EXPECT_EQ(sys.tasks()[0].relative_deadline, 8);
    EXPECT_EQ(sys.tasks()[0].wcet, 5);
  }
  expectErrorAt(task + "  compute 12x\nend\n", 4, "bad duration: '12x'");
  expectErrorAt(task + "  compute +\nend\n", 4, "bad duration: '+'");
  expectErrorAt(task + "  compute -\nend\n", 4, "bad duration: '-'");
  expectErrorAt(task + "  compute +-5\nend\n", 4, "bad duration: '+-5'");
  expectErrorAt(task + "  compute --5\nend\n", 4, "bad duration: '--5'");
  expectErrorAt(task + "  compute 1e3\nend\n", 4, "bad duration: '1e3'");
  // A NUL byte is token text, not a separator (what() stops at it).
  expectErrorAt(task + "  compute 5" + std::string(1, '\0') + "\nend\n", 4,
                "bad duration: '5");
  expectErrorAt(task + "  compute 9223372036854775808\nend\n", 4,
                "bad duration: '9223372036854775808'");
  expectErrorAt(task + "  compute 99999999999999999999999\nend\n", 4,
                "bad duration: '99999999999999999999999'");
  expectErrorAt(head + "task t period=-9223372036854775809 processor=0\n",
                3, "bad period: '-9223372036854775809'");
  {  // the int64 extremes themselves parse
    const TaskSystem sys = parses(
        "processors 1\ntask t period=9223372036854775807 processor=0\n"
        "  compute 9223372036854775806\nend\n");
    EXPECT_EQ(sys.tasks()[0].period, 9223372036854775807);
    EXPECT_EQ(sys.tasks()[0].wcet, 9223372036854775806);
  }
  try {  // INT64_MIN parses; the builder then rejects the negative phase
    (void)parses("processors 1\ntask t period=10 processor=0 "
                 "phase=-9223372036854775808\n  compute 1\nend\n");
    FAIL() << "negative phase accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()), "t: phase must be >= 0");
  }
  try {  // sync pins resolve after the whole file is read: no line number
    (void)parses("processors 2\nsync NOPE 1\n");
    FAIL() << "unknown sync pin accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "sync pin references unknown resource 'NOPE'");
  }
}

TEST(Serialize, ExplicitPriorityAttribute) {
  const char* text = R"(
processors 1
task a period=10 processor=0 priority=7
  compute 1
end
task b period=20 processor=0 priority=9
  compute 1
end
)";
  const TaskSystem sys = parseTaskSystemFromString(text);
  // Explicit priorities override RM: b outranks a despite longer period.
  EXPECT_GT(sys.tasks()[1].priority, sys.tasks()[0].priority);
}

}  // namespace
}  // namespace mpcp
