#include "sweep/store.hpp"

#include "core/pipeline.hpp"
#include "netlist/tech.hpp"
#include "util/config_hash.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

#include <chrono>
#include <thread>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace sm::sweep {

std::string describe(const CellRef& cell) {
  std::ostringstream os;
  os << cell.benchmark << " (" << to_string(cell.workload) << ") seed="
     << cell.seed << " M" << cell.split_layer << ' ' << to_string(cell.defense)
     << " attacker=" << to_string(cell.attacker) << " [" << cell.config_hash
     << ']';
  return os.str();
}

std::string cell_config_json(const Grid& grid, const Options& opts,
                             const std::string& benchmark, Workload workload,
                             std::uint64_t seed, Defense defense,
                             int split_layer, Attacker attacker) {
  // Lexicographic keys — the canonical-JSON convention. The "format" tag
  // versions the recipe schema itself: field additions/removals bump it so
  // an old log can never silently satisfy a new recipe. Axis extensions
  // stay *conditional* ("attacker" only when non-proximity, "baseline" only
  // for baseline defenses) so the hash of every recipe expressible before
  // the axis existed is unchanged — the cross-release resume contract
  // pinned by tests/test_store.cpp.
  const core::FlowOptions flow = task_flow(benchmark, workload, seed,
                                           grid.scale);
  util::JsonWriter w;
  w.begin_object();
  if (attacker != Attacker::Proximity)
    w.key("attacker").value(to_string(attacker));
  if (is_baseline(defense)) {
    // The baseline's non-flow recipe constants. Anything here that changed
    // would change the produced layout, so it belongs in the hash.
    const BaselineRecipe r = baseline_recipe(defense);
    w.key("baseline").begin_object();
    switch (defense) {
      case Defense::PlacePerturb:
      case Defense::Random:
      case Defense::GColor:
      case Defense::GType1:
      case Defense::GType2:
        w.key("fraction").value(r.fraction);
        w.key("radius_frac").value(r.radius_frac);
        break;
      case Defense::PinSwap:
        w.key("min_swaps").value(r.min_swaps);
        w.key("swap_divisor").value(r.swap_divisor);
        break;
      case Defense::RoutePerturb:
        w.key("elevate_to").value(flow.lift_layer);
        w.key("fraction").value(r.fraction);
        break;
      case Defense::RouteBlockage:
        w.key("blockages").value(r.blockages);
        w.key("max_layer").value(r.blockage_max_layer);
        w.key("width_divisor").value(r.width_divisor);
        break;
      case Defense::Unprotected:
      case Defense::Proposed:
        break;  // not baselines; unreachable under is_baseline()
    }
    w.end_object();
  }
  w.key("benchmark").value(benchmark);
  w.key("defense").value(to_string(defense));
  w.key("flow").raw(core::canonical_flow_json(flow));
  w.key("format").value("sm-sweep-cell-v1");
  w.key("patterns").value(opts.patterns);
  if (defense == Defense::Proposed) {
    // Randomization exists only inside protect(); hashing it into
    // unprotected cells would invalidate them on randomizer tuning
    // changes that cannot affect their metrics.
    const auto r = task_randomize(seed);
    w.key("randomize").begin_object();
    w.key("check_patterns").value(r.check_patterns);
    w.key("seed").value(r.seed);
    w.key("target_oer").value(r.target_oer);
    w.end_object();
  }
  w.key("scale").value(grid.scale);
  w.key("seed").value(seed);
  w.key("split_layer").value(split_layer);
  w.end_object();
  return w.str();
}

std::vector<CellRef> expand_cells(const Grid& grid, const Options& opts) {
  // Validate every benchmark and split layer before expanding anything — a
  // typo must throw even when another list is empty and no cells would
  // exist, and a bad layer before any layout is routed.
  std::vector<Workload> workload;
  workload.reserve(grid.benchmarks.size());
  for (const auto& bench : grid.benchmarks)
    workload.push_back(workload_of(bench));
  for (const int layer : grid.split_layers)
    if (layer < 1 || layer >= netlist::MetalStack::kNumLayers)
      throw std::invalid_argument("sweep: split layer " +
                                  std::to_string(layer) +
                                  " is not one of M1-M9");

  std::vector<CellRef> cells;
  cells.reserve(grid.combinations());
  std::size_t task_index = 0;
  for (std::size_t bi = 0; bi < grid.benchmarks.size(); ++bi) {
    for (const auto seed : grid.seeds) {
      for (const auto defense : grid.defenses) {
        for (const int split : grid.split_layers) {
          for (const auto attacker : grid.attackers) {
            CellRef c;
            c.task_index = task_index;
            c.benchmark = grid.benchmarks[bi];
            c.seed = seed;
            c.defense = defense;
            c.split_layer = split;
            c.attacker = attacker;
            c.workload = workload[bi];
            c.config_hash = util::config_hash(
                cell_config_json(grid, opts, c.benchmark, c.workload, seed,
                                 defense, c.split_layer, c.attacker));
            cells.push_back(std::move(c));
          }
        }
        ++task_index;
      }
    }
  }
  return cells;
}

std::string to_store_line(const StoreRecord& rec) {
  // Quarantine fields are *conditional* (failed records only) so every
  // healthy record — i.e. every record in every pre-quarantine log — keeps
  // its exact bytes; tests/test_store.cpp pins the round-trip.
  util::JsonWriter w;
  w.begin_object();
  w.key("attacker").value(to_string(rec.row.attacker));
  if (rec.failed) w.key("attempts").value(rec.attempts);
  w.key("benchmark").value(rec.row.benchmark);
  w.key("ccr").value(rec.row.ccr);
  w.key("ccr_protected").value(rec.row.ccr_protected);
  if (!rec.config_json.empty()) w.key("config").raw(rec.config_json);
  w.key("config_hash").value(rec.config_hash);
  w.key("defense").value(to_string(rec.row.defense));
  w.key("els").value(rec.row.els);
  w.key("equiv").value(rec.row.equiv);
  w.key("hd").value(rec.row.hd);
  w.key("oer").value(rec.row.oer);
  w.key("open_sinks").value(rec.row.open_sinks);
  w.key("patterns").value(rec.patterns);
  w.key("scale").value(rec.scale);
  w.key("seed").value(rec.row.seed);
  w.key("split_layer").value(rec.row.split_layer);
  if (rec.failed) w.key("status").value("failed");
  w.key("swaps").value(rec.row.swaps);
  w.key("wall_ms").value(rec.row.wall_ms);
  w.end_object();
  return w.str();
}

namespace {

/// `v` as an int in [lo, hi]. Throws std::invalid_argument for any other
/// number, so a value past int's range is never narrowed into the range.
int int_in(const util::json::Value& v, const char* field, int lo, int hi) {
  const std::int64_t x = v.as_int();
  if (x < lo || x > hi)
    throw std::invalid_argument(std::string("store: ") + field + " " +
                                std::to_string(x) + " is outside " +
                                std::to_string(lo) + ".." + std::to_string(hi));
  return static_cast<int>(x);
}

/// The record a parsed line holds. Throws std::invalid_argument when the
/// JSON is no valid record: not an object, a missing or mistyped field, a
/// value out of range, or an unknown status.
StoreRecord record_from(const util::json::Value& v) {
  if (!v.is_object())
    throw std::invalid_argument("store: record line is not an object");
  StoreRecord rec;
  rec.config_hash = v.at("config_hash").as_string();
  rec.row.benchmark = v.at("benchmark").as_string();
  rec.row.seed = v.at("seed").as_u64();
  rec.row.split_layer = int_in(v.at("split_layer"), "split_layer", 1,
                              netlist::MetalStack::kNumLayers - 1);
  rec.row.defense = defense_from_string(v.at("defense").as_string());
  // Attacker-axis fields are absent from pre-axis logs (whose records are
  // all proximity cells by construction) — default rather than reject, so
  // old stores keep resolving under --resume.
  if (const auto* a = v.find("attacker"))
    rec.row.attacker = attacker_from_string(a->as_string());
  if (const auto* e = v.find("els")) rec.row.els = e->as_double();
  if (const auto* q = v.find("equiv"))
    rec.row.equiv = int_in(*q, "equiv", -1, 2);  // Row::equiv's values
  // Quarantine marker (absent = ok; every pre-quarantine record is ok by
  // construction). Anything but the two known statuses is a torn/foreign
  // line, not a record to guess about.
  if (const auto* s = v.find("status")) {
    const auto& status = s->as_string();
    if (status == "failed")
      rec.failed = true;
    else if (status != "ok")
      throw std::invalid_argument("store: unknown record status '" + status +
                                  "'");
  }
  if (const auto* a = v.find("attempts"))
    rec.attempts = static_cast<std::size_t>(a->as_u64());
  rec.row.ccr = v.at("ccr").as_double();
  rec.row.ccr_protected = v.at("ccr_protected").as_double();
  rec.row.oer = v.at("oer").as_double();
  rec.row.hd = v.at("hd").as_double();
  rec.row.open_sinks = static_cast<std::size_t>(v.at("open_sinks").as_u64());
  rec.row.swaps = static_cast<std::size_t>(v.at("swaps").as_u64());
  rec.row.wall_ms = v.at("wall_ms").as_double();
  rec.patterns = static_cast<std::size_t>(v.at("patterns").as_u64());
  rec.scale = v.at("scale").as_double();
  return rec;
}

}  // namespace

StoreRecord parse_store_line(const std::string& line) {
  return record_from(util::json::parse(line));
}

StoreWriter::StoreWriter(std::string path) : path_(std::move(path)) {
  const bool existed = ::access(path_.c_str(), F_OK) == 0;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0)
    throw std::runtime_error("store: cannot open '" + path_ +
                             "': " + std::strerror(errno));
  if (!existed) {
    // Durability of the file's *existence*: fsync on the data fd makes the
    // records durable, but the directory entry pointing at a brand-new log
    // lives in the parent directory — without syncing that too, a power
    // loss can forget the whole file, fsync'd records and all. Best-effort
    // (some filesystems refuse directory fsync): the failure mode is the
    // pre-fix status quo, not corruption.
    const auto slash = path_.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "."
                            : slash == 0               ? "/"
                                         : path_.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
}

StoreWriter::~StoreWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void StoreWriter::append(const StoreRecord& rec) {
  std::string line = to_store_line(rec);
  line += '\n';
  const std::lock_guard<std::mutex> lock(mu_);
  // Injection points (inert unless SM_FAULT arms them, util/fault.hpp):
  // the append is the durability edge every crash-safety claim is about,
  // so this is where chaos tests make workers hang, die, and tear lines.
  if (const auto slow =
          util::fault_hit(util::FaultPoint::SlowCell, rec.config_hash);
      slow.fire)
    std::this_thread::sleep_for(std::chrono::milliseconds(slow.sleep_ms));
  if (util::fault_hit(util::FaultPoint::CrashBeforeAppend, rec.config_hash)
          .fire)
    util::fault_crash(util::FaultPoint::CrashBeforeAppend);
  const bool tear =
      util::fault_hit(util::FaultPoint::TornWrite, rec.config_hash).fire;
  if (tear) line.resize(line.size() / 2);  // half a record, no newline
  // One write(2) per record: O_APPEND makes concurrent appends (other
  // sweeps and serve workers pointed at the same log) land whole-line, and
  // the fsync makes the record durable before the task is considered
  // complete. EINTR and short writes are retried, not treated as failures.
  std::size_t off = 0;
  while (off < line.size()) {
    const auto n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("store: write to '" + path_ +
                               "' failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  while (::fsync(fd_) != 0) {
    if (errno == EINTR) continue;
    throw std::runtime_error("store: fsync of '" + path_ +
                             "' failed: " + std::strerror(errno));
  }
  if (tear) util::fault_crash(util::FaultPoint::TornWrite);
  if (util::fault_hit(util::FaultPoint::CrashAfterAppend, rec.config_hash)
          .fire)
    util::fault_crash(util::FaultPoint::CrashAfterAppend);
}

namespace {

/// One log line into the merged view — the single merge rule both
/// load_store and StoreReader::poll apply. Returns true if a record
/// landed (new key or overwrite), false for unparsable lines.
bool merge_store_line(const std::string& line, StoreContents& out) {
  ++out.lines;
  util::json::Value v;
  try {
    v = util::json::parse(line);
  } catch (const std::invalid_argument&) {
    // A crash can tear the final line of a log (and a merged store
    // inherits such tails mid-file); the record it would have held
    // was never acknowledged, so skipping is the correct recovery.
    ++out.skipped;
    return false;
  }
  StoreRecord rec;
  try {
    rec = record_from(v);
  } catch (const std::invalid_argument&) {
    // Whole JSON that fails a record check is no crash tail but a foreign
    // or corrupted record: skipped all the same, and counted apart.
    ++out.skipped;
    ++out.rejected;
    return false;
  }
  const auto it = out.records.find(rec.config_hash);
  if (it == out.records.end()) {
    out.records.emplace(rec.config_hash, std::move(rec));
  } else {
    ++out.duplicates;
    // Last-wins, except success is sticky: a quarantine marker only
    // says workers died while the cell was missing, so it never
    // supersedes a completed record, whatever order logs merge in.
    if (!(rec.failed && !it->second.failed)) it->second = std::move(rec);
  }
  return true;
}

}  // namespace

std::size_t StoreReader::poll(StoreContents& into, bool consume_tail) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) return 0;
  const auto size = static_cast<std::uint64_t>(end);
  // Append-only logs never shrink; a smaller file means the log was
  // rotated or replaced under us — start over (keyed merge is idempotent).
  if (size < offset_) offset_ = 0;
  if (size == offset_) return 0;
  in.seekg(static_cast<std::streamoff>(offset_));
  std::string buf(static_cast<std::size_t>(size - offset_), '\0');
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.resize(static_cast<std::size_t>(in.gcount()));
  std::size_t merged = 0;
  std::size_t pos = 0;
  std::size_t consumed = 0;
  while (pos < buf.size()) {
    const auto nl = buf.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = buf.substr(pos, nl - pos);
    pos = nl + 1;
    consumed = pos;
    if (!line.empty() && merge_store_line(line, into)) ++merged;
  }
  if (consume_tail && pos < buf.size()) {
    // The EOF-terminated final line, exactly as std::getline reads it.
    const std::string line = buf.substr(pos);
    consumed = buf.size();
    if (!line.empty() && merge_store_line(line, into)) ++merged;
  }
  offset_ += consumed;
  return merged;
}

StoreContents load_store(const std::vector<std::string>& paths,
                         bool must_exist) {
  StoreContents out;
  for (const auto& path : paths) {
    if (must_exist && !std::ifstream(path))
      throw std::runtime_error("store: cannot read '" + path + "'");
    StoreReader(path).poll(out, /*consume_tail=*/true);
  }
  return out;
}

Materialized materialize(const Grid& grid, const Options& opts,
                         const StoreContents& store) {
  Materialized out;
  const auto cells = expand_cells(grid, opts);
  out.result.rows.reserve(cells.size());
  for (const auto& cell : cells) {
    const auto it = store.records.find(cell.config_hash);
    if (it == store.records.end()) {
      out.missing.push_back(cell);
      continue;
    }
    if (it->second.failed) {
      // Quarantined: every attempt at this cell killed its worker. It is
      // not a row (there are no metrics) and not missing (re-running won't
      // help) — callers report it as the third state, "degraded".
      out.quarantined.push_back(cell);
      continue;
    }
    out.result.rows.push_back(it->second.row);
    ++out.result.resumed_cells;
  }
  // Missing/quarantined cells sort by config hash, not grid order: the
  // stderr listing then depends only on which cells are absent, not on the
  // order the grid flags list them in, and CI byte-diffs it.
  const auto by_hash = [](const CellRef& a, const CellRef& b) {
    return a.config_hash < b.config_hash;
  };
  std::sort(out.missing.begin(), out.missing.end(), by_hash);
  std::sort(out.quarantined.begin(), out.quarantined.end(), by_hash);
  return out;
}

}  // namespace sm::sweep
