#include "model/serialize.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/strf.h"

namespace mpcp {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ConfigError(strf("task-system parse error at line ", line, ": ",
                         message));
}

/// The C locale's isspace: the token separators of the format.
constexpr bool isSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Splits `line` into views of its tokens, after stripping a '#'
/// comment. (A character loop: string_view::find_first_of is ~3x slower
/// on this format.)
void tokenize(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  line = line.substr(0, line.find('#'));
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && isSpace(line[i])) ++i;
    if (i == line.size()) return;
    const std::size_t start = i;
    while (i < line.size() && !isSpace(line[i])) ++i;
    out.push_back(line.substr(start, i - start));
  }
}

/// A whole decimal int64 with an optional sign: what std::stoll accepts
/// when it must consume the entire token.
std::int64_t parseInt(std::string_view s, int line, const char* what) {
  const bool plus = s.starts_with('+');
  const std::string_view digits = plus ? s.substr(1) : s;
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || end != digits.data() + digits.size() ||
      (plus && digits.starts_with('-'))) {
    fail(line, strf("bad ", what, ": '", s, "'"));
  }
  return value;
}

/// "key=value" -> {key, value}; errors otherwise.
std::pair<std::string_view, std::string_view> splitKeyValue(
    std::string_view tok, int line) {
  const auto eq = tok.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= tok.size()) {
    fail(line, strf("expected key=value, got '", tok, "'"));
  }
  return {tok.substr(0, eq), tok.substr(eq + 1)};
}

TaskSystem parse(std::string_view text) {
  std::optional<int> processors;
  TaskSystemOptions options;
  std::map<std::string, ResourceId, std::less<>> resources;
  std::vector<std::string> resource_order;
  std::vector<std::pair<std::string, int>> sync_pins;  // name, processor

  struct PendingTask {
    TaskSpec spec;
    int decl_line;
  };
  std::vector<PendingTask> tasks;
  PendingTask* open_task = nullptr;

  std::vector<std::string_view> toks;
  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    tokenize(raw, toks);
    if (toks.empty()) continue;
    const std::string_view head = toks[0];

    if (open_task != nullptr) {
      // Inside a task body.
      if (head == "end") {
        open_task = nullptr;
        continue;
      }
      Body& body = open_task->spec.body;
      const auto need = [&](std::size_t n) {
        if (toks.size() != n) {
          fail(line_no, strf("'", head, "' takes ", n - 1, " argument(s)"));
        }
      };
      const auto resource_of = [&](std::string_view name) {
        const auto it = resources.find(name);
        if (it == resources.end()) {
          fail(line_no, strf("unknown resource '", name, "'"));
        }
        return it->second;
      };
      try {
        if (head == "compute") {
          need(2);
          body.compute(parseInt(toks[1], line_no, "duration"));
        } else if (head == "suspend") {
          need(2);
          body.suspend(parseInt(toks[1], line_no, "duration"));
        } else if (head == "lock") {
          need(2);
          body.lock(resource_of(toks[1]));
        } else if (head == "unlock") {
          need(2);
          body.unlock(resource_of(toks[1]));
        } else if (head == "section") {
          need(3);
          body.section(resource_of(toks[1]),
                       parseInt(toks[2], line_no, "duration"));
        } else {
          fail(line_no, strf("unknown body op '", head, "'"));
        }
      } catch (const InvariantError& e) {
        fail(line_no, e.what());  // e.g. non-positive durations
      }
      continue;
    }

    if (head == "processors") {
      if (toks.size() != 2) fail(line_no, "'processors' takes one count");
      processors = static_cast<int>(parseInt(toks[1], line_no, "count"));
    } else if (head == "options") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        if (toks[i] == "allow_nested_global") {
          options.allow_nested_global = true;
        } else {
          fail(line_no, strf("unknown option '", toks[i], "'"));
        }
      }
    } else if (head == "resource") {
      if (toks.size() != 2) fail(line_no, "'resource' takes one name");
      if (resources.count(toks[1]) != 0) {
        fail(line_no, strf("duplicate resource '", toks[1], "'"));
      }
      resources.emplace(toks[1],
                        ResourceId(static_cast<std::int32_t>(
                            resource_order.size())));
      resource_order.emplace_back(toks[1]);
    } else if (head == "sync") {
      if (toks.size() != 3) fail(line_no, "'sync' takes: name processor");
      sync_pins.emplace_back(
          toks[1], static_cast<int>(parseInt(toks[2], line_no, "processor")));
    } else if (head == "task") {
      if (toks.size() < 2) fail(line_no, "'task' needs a name");
      PendingTask pt;
      pt.decl_line = line_no;
      pt.spec.name = toks[1];
      bool have_period = false, have_processor = false;
      for (std::size_t i = 2; i < toks.size(); ++i) {
        const auto [key, value] = splitKeyValue(toks[i], line_no);
        if (key == "period") {
          pt.spec.period = parseInt(value, line_no, "period");
          have_period = true;
        } else if (key == "phase") {
          pt.spec.phase = parseInt(value, line_no, "phase");
        } else if (key == "deadline") {
          pt.spec.relative_deadline = parseInt(value, line_no, "deadline");
        } else if (key == "processor") {
          pt.spec.processor =
              static_cast<int>(parseInt(value, line_no, "processor"));
          have_processor = true;
        } else if (key == "priority") {
          pt.spec.priority = Priority(static_cast<std::int32_t>(
              parseInt(value, line_no, "priority")));
        } else {
          fail(line_no, strf("unknown task attribute '", key, "'"));
        }
      }
      if (!have_period) fail(line_no, "task needs period=<ticks>");
      if (!have_processor) fail(line_no, "task needs processor=<index>");
      tasks.push_back(std::move(pt));
      open_task = &tasks.back();
    } else {
      fail(line_no, strf("unknown directive '", head, "'"));
    }
  }
  if (open_task != nullptr) {
    fail(line_no, strf("task '", open_task->spec.name,
                       "' not closed with 'end'"));
  }
  if (!processors.has_value()) {
    fail(line_no, "missing 'processors' directive");
  }

  TaskSystemBuilder builder(*processors, options);
  for (const std::string& name : resource_order) {
    resources[name] = builder.addResource(name);
  }
  for (const auto& [name, proc] : sync_pins) {
    const auto it = resources.find(name);
    if (it == resources.end()) {
      throw ConfigError(strf("sync pin references unknown resource '", name,
                             "'"));
    }
    builder.assignSyncProcessor(it->second, ProcessorId(proc));
  }
  for (PendingTask& pt : tasks) {
    builder.addTask(std::move(pt.spec));
  }
  return std::move(builder).build();
}

}  // namespace

TaskSystem parseTaskSystem(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.view());
}

TaskSystem parseTaskSystemFromString(const std::string& text) {
  return parse(text);
}

void serializeTaskSystem(std::ostream& out, const TaskSystem& system) {
  out << "# mpcp task system\n";
  out << "processors " << system.processorCount() << "\n";
  if (system.options().allow_nested_global) {
    out << "options allow_nested_global\n";
  }
  for (const ResourceInfo& r : system.resources()) {
    out << "resource " << r.name << "\n";
  }
  for (const ResourceInfo& r : system.resources()) {
    if (r.sync_processor.has_value()) {
      out << "sync " << r.name << " " << r.sync_processor->value() << "\n";
    }
  }
  for (const Task& t : system.tasks()) {
    out << "task " << t.name << " period=" << t.period
        << " processor=" << t.processor.value();
    if (t.phase != 0) out << " phase=" << t.phase;
    if (t.relative_deadline != t.period) {
      out << " deadline=" << t.relative_deadline;
    }
    out << "\n";
    for (const Op& op : t.body.ops()) {
      if (const auto* c = std::get_if<ComputeOp>(&op)) {
        out << "  compute " << c->duration << "\n";
      } else if (const auto* susp = std::get_if<SuspendOp>(&op)) {
        out << "  suspend " << susp->duration << "\n";
      } else if (const auto* l = std::get_if<LockOp>(&op)) {
        out << "  lock " << system.resource(l->resource).name << "\n";
      } else if (const auto* u = std::get_if<UnlockOp>(&op)) {
        out << "  unlock " << system.resource(u->resource).name << "\n";
      }
    }
    out << "end\n";
  }
}

std::string serializeTaskSystemToString(const TaskSystem& system) {
  std::ostringstream os;
  serializeTaskSystem(os, system);
  return os.str();
}

}  // namespace mpcp
