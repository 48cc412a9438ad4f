#include "netlist/topo.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace sm::netlist {
namespace {

/// Combinational in-degree: number of input pins whose driver is a
/// combinational cell (ports/DFF drivers do not constrain ordering).
std::vector<int> comb_indegree(const Netlist& nl) {
  std::vector<int> indeg(nl.num_cells(), 0);
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const Cell& c = nl.cell(id);
    for (NetId in : c.inputs) {
      if (in == kInvalidNet) continue;
      const CellId drv = nl.net(in).driver;
      if (nl.is_combinational(drv)) ++indeg[id];
    }
  }
  return indeg;
}

}  // namespace

std::optional<std::vector<CellId>> topological_order(const Netlist& nl) {
  std::vector<int> indeg = comb_indegree(nl);
  std::vector<CellId> order;
  order.reserve(nl.num_cells());
  std::vector<CellId> frontier;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (indeg[id] == 0) frontier.push_back(id);

  while (!frontier.empty()) {
    const CellId id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    // Only combinational cells propagate dependencies downstream.
    if (!nl.is_combinational(id)) continue;
    const NetId out = nl.cell(id).output;
    if (out == kInvalidNet) continue;
    for (const Sink& s : nl.net(out).sinks) {
      if (--indeg[s.cell] == 0) frontier.push_back(s.cell);
    }
  }
  if (order.size() != nl.num_cells()) return std::nullopt;
  return order;
}

bool is_acyclic(const Netlist& nl) { return topological_order(nl).has_value(); }

std::vector<int> levelize(const Netlist& nl) {
  const auto order = topological_order(nl);
  if (!order) throw std::logic_error("levelize: combinational cycle present");
  std::vector<int> level(nl.num_cells(), 0);
  for (const CellId id : *order) {
    int lv = 0;
    for (NetId in : nl.cell(id).inputs) {
      if (in == kInvalidNet) continue;
      const CellId drv = nl.net(in).driver;
      if (nl.is_combinational(drv)) lv = std::max(lv, level[drv] + 1);
    }
    level[id] = lv;
  }
  return level;
}

DynamicTopoOrder::DynamicTopoOrder(const Netlist& nl)
    : comb_(nl.num_cells()),
      pos_(nl.num_cells()),
      succ_(nl.num_cells()),
      mark_(nl.num_cells(), 0) {
  auto order = topological_order(nl);
  if (!order)
    throw std::logic_error("DynamicTopoOrder: combinational cycle present");
  cell_at_ = std::move(*order);
  for (std::size_t i = 0; i < cell_at_.size(); ++i)
    pos_[cell_at_[i]] = static_cast<std::uint32_t>(i);
  for (CellId id = 0; id < nl.num_cells(); ++id)
    comb_[id] = nl.is_combinational(id);
}

bool DynamicTopoOrder::reaches(CellId src, CellId dst) const {
  if (++epoch_ == 0) {  // epoch wrapped: old stamps are ambiguous, reset
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  // Every stored edge climbs the order, so a cell at or above dst's
  // position cannot lead back down to dst; succ_ of a non-combinational
  // cell is empty, so paths stop there.
  const std::uint32_t ub = pos_[dst];
  stack_.clear();
  stack_.push_back(src);
  mark_[src] = epoch_;
  while (!stack_.empty()) {
    const CellId cur = stack_.back();
    stack_.pop_back();
    for (const CellId nxt : succ_[cur]) {
      if (nxt == dst) return true;
      if (pos_[nxt] < ub && mark_[nxt] != epoch_) {
        mark_[nxt] = epoch_;
        stack_.push_back(nxt);
      }
    }
  }
  return false;
}

bool DynamicTopoOrder::would_loop(CellId from, CellId to) const {
  if (!comb_[from]) return false;
  if (from == to) return true;
  if (pos_[from] < pos_[to]) return false;
  return reaches(to, from);
}

void DynamicTopoOrder::add_edge(CellId from, CellId to) {
  if (!comb_[from]) return;  // constrains nothing
  if (from == to || (pos_[to] < pos_[from] && reaches(to, from)))
    throw std::logic_error("DynamicTopoOrder: edge closes a cycle");
  if (pos_[to] < pos_[from]) {
    // reaches() stamped every cell that `to` reaches inside the window
    // [pos(to), pos(from)]. Move them, in their old relative order, past
    // the unstamped cells (`from` among them), which keep theirs. Edges
    // among either group keep their direction, and no edge leads from a
    // stamped cell to an unstamped one inside the window.
    const std::uint32_t lb = pos_[to];
    const std::uint32_t ub = pos_[from];
    std::uint32_t next = lb;
    moved_.clear();
    for (std::uint32_t i = lb; i <= ub; ++i) {
      const CellId c = cell_at_[i];
      if (mark_[c] == epoch_) {
        moved_.push_back(c);
      } else {
        cell_at_[next] = c;
        pos_[c] = next++;
      }
    }
    for (const CellId c : moved_) {
      cell_at_[next] = c;
      pos_[c] = next++;
    }
  }
  succ_[from].push_back(to);
}

void DynamicTopoOrder::remove_edge(CellId from, CellId to) {
  if (!comb_[from]) return;
  auto& v = succ_[from];
  const auto it = std::find(v.rbegin(), v.rend(), to);
  if (it == v.rend())
    throw std::logic_error("DynamicTopoOrder: removing an absent edge");
  v.erase(std::next(it).base());
}

}  // namespace sm::netlist
