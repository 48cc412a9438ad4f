#include "util/fault.hpp"

#include "util/args.hpp"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <unistd.h>

namespace sm::util {
namespace {

struct Arm {
  FaultPoint point = FaultPoint::CrashBeforeAppend;
  // Trigger: nth > 0 fires once on exactly the nth hit; nth == 0 means a
  // hash trigger that fires on every context-prefix match.
  std::size_t nth = 0;
  std::string hash_prefix;
  std::uint64_t sleep_ms = 30000;
  bool fired = false;  ///< nth arms are one-shot
};

struct State {
  std::mutex mu;
  bool armed_once = false;  ///< lazily arm from env on first hit
  std::vector<Arm> arms;
  std::size_t hits[kNumFaultPoints] = {};
};

State& state() {
  static State s;
  return s;
}

FaultPoint point_from_string(const std::string& name) {
  if (name == "crash-before-append") return FaultPoint::CrashBeforeAppend;
  if (name == "crash-after-append") return FaultPoint::CrashAfterAppend;
  if (name == "torn-write") return FaultPoint::TornWrite;
  if (name == "slow-cell") return FaultPoint::SlowCell;
  throw std::invalid_argument(
      "fault: unknown point '" + name +
      "' (want crash-before-append|crash-after-append|torn-write|slow-cell)");
}

std::size_t parse_positive(const std::string& s, const char* what) {
  // Whole digits only, and no overflow: a count past 2^64 must not wrap.
  const std::size_t v = parse_count(s, std::string("fault: ") + what);
  if (v == 0)
    throw std::invalid_argument(std::string("fault: ") + what +
                                " must be >= 1 in '" + s + "'");
  return v;
}

/// "<point>:<nth|hash=H>[:ms=N]" → Arm. See fault.hpp for the grammar.
Arm parse_arm(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const auto colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 3)
    throw std::invalid_argument("fault: bad arm '" + spec +
                                "' (want point:trigger[:ms=N])");
  Arm arm;
  arm.point = point_from_string(parts[0]);
  if (parts[1].rfind("hash=", 0) == 0) {
    arm.hash_prefix = parts[1].substr(5);
    if (arm.hash_prefix.empty())
      throw std::invalid_argument("fault: empty hash trigger in '" + spec +
                                  "'");
  } else {
    arm.nth = parse_positive(parts[1], "trigger count");
  }
  if (parts.size() == 3) {
    if (parts[2].rfind("ms=", 0) != 0)
      throw std::invalid_argument("fault: bad arm option '" + parts[2] +
                                  "' (want ms=N)");
    arm.sleep_ms = parse_positive(parts[2].substr(3), "ms");
  }
  return arm;
}

std::vector<Arm> parse_spec(const std::string& spec) {
  std::vector<Arm> arms;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string part =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!part.empty()) arms.push_back(parse_arm(part));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return arms;
}

void arm_locked(State& s, const std::string& spec) {
  // Parse fully before installing, so a malformed spec throws without
  // disturbing the schedule or counters already in place.
  auto arms = parse_spec(spec);
  s.arms = std::move(arms);
  for (auto& h : s.hits) h = 0;
  s.armed_once = true;
}

}  // namespace

const char* to_string(FaultPoint p) {
  switch (p) {
    case FaultPoint::CrashBeforeAppend: return "crash-before-append";
    case FaultPoint::CrashAfterAppend: return "crash-after-append";
    case FaultPoint::TornWrite: return "torn-write";
    case FaultPoint::SlowCell: return "slow-cell";
  }
  return "?";
}

void fault_arm(const std::string& spec) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  arm_locked(s, spec);
}

void fault_arm_from_env() {
  const char* env = std::getenv("SM_FAULT");
  fault_arm(env ? env : "");
}

FaultAction fault_hit(FaultPoint p, std::string_view context) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (!s.armed_once) {
    const char* env = std::getenv("SM_FAULT");
    arm_locked(s, env ? env : "");
  }
  const std::size_t hit = ++s.hits[static_cast<std::size_t>(p)];
  FaultAction action;
  for (auto& arm : s.arms) {
    if (arm.point != p) continue;
    bool fire = false;
    if (!arm.hash_prefix.empty()) {
      fire = context.substr(0, arm.hash_prefix.size()) == arm.hash_prefix;
    } else if (!arm.fired && hit == arm.nth) {
      fire = true;
      arm.fired = true;
    }
    if (fire) {
      action.fire = true;
      action.sleep_ms = arm.sleep_ms;
    }
  }
  return action;
}

std::size_t fault_hits(FaultPoint p) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  return s.hits[static_cast<std::size_t>(p)];
}

void fault_crash(FaultPoint) {
  // _exit, not exit or abort: no atexit handlers, no stream flushing, no
  // core dump noise in CI — the same abrupt disappearance a SIGKILL'd
  // worker presents to its supervisor and to the store log.
  ::_exit(kFaultCrashExit);
}

}  // namespace sm::util
