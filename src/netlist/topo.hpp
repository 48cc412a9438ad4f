// Topological utilities over the combinational dependency graph.
//
// DFF cells break dependency cycles: a DFF output is available at level 0
// (like a primary input) and a DFF input pin terminates a combinational path
// (like a primary output). The paper's randomizer must never create a
// *combinational* loop, and the proximity attack refuses guesses that would
// close one (loops would let an attacker spot the modifications, per Wang et
// al.). Both ask `DynamicTopoOrder::would_loop` before adding an edge.
#pragma once

#include "netlist/netlist.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace sm::netlist {

/// Cells in combinational evaluation order (ports and DFFs included as
/// sources/sinks). Returns std::nullopt if a combinational cycle exists.
std::optional<std::vector<CellId>> topological_order(const Netlist& nl);

/// True iff the netlist has no combinational cycle.
bool is_acyclic(const Netlist& nl);

/// Combinational depth (level) per cell; sources are level 0.
/// Requires an acyclic netlist (throws std::logic_error otherwise).
std::vector<int> levelize(const Netlist& nl);

/// A topological order of a cell graph kept under edge insertions and
/// removals: the window reordering of A. Marchetti-Spaccamela, U. Nanni
/// and H. Rohnert (IPL 1996), as compared in D. J. Pearce and P. H. J.
/// Kelly, "A Dynamic Topological Sort Algorithm for Directed Acyclic
/// Graphs" (ACM JEA 2007).
///
/// The graph starts empty over `nl`'s cells; callers add the edges they
/// want (a netlist's own driver -> sink-cell edges, or a hypothesis of
/// them). Only edges out of combinational cells constrain the order: a
/// DFF or port output does not depend combinationally on its inputs, so
/// paths stop there, and such edges are not stored (adding or removing
/// one does nothing). Duplicate edges are legal. Invariant: every stored
/// edge points from a lower position to a higher one.
class DynamicTopoOrder {
 public:
  /// Positions from topological_order(nl); throws std::logic_error when
  /// `nl` has a combinational cycle. Caches each cell's combinational flag.
  explicit DynamicTopoOrder(const Netlist& nl);

  /// Would adding from -> to close a combinational cycle, i.e. is `from`
  /// combinational and reachable from `to` (or equal to it)? O(1) when
  /// `from` sits below `to`; otherwise a search over the cells positioned
  /// between the two.
  bool would_loop(CellId from, CellId to) const;

  /// Add from -> to, reordering the cells between the two positions when
  /// `to` sits below `from`. Throws std::logic_error (and changes nothing)
  /// when the edge would close a combinational cycle.
  void add_edge(CellId from, CellId to);

  /// Drop the latest add_edge(from, to). The order stays valid as it is.
  /// Throws std::logic_error when `from` is combinational and no such edge
  /// is stored.
  void remove_edge(CellId from, CellId to);

  /// The cell's current position in the order.
  std::uint32_t position(CellId c) const { return pos_[c]; }

 private:
  /// Depth-first search from `src` over cells positioned below `dst`,
  /// stamping each visited cell with the current epoch. True iff `dst` is
  /// reached (the search stops there).
  bool reaches(CellId src, CellId dst) const;

  std::vector<char> comb_;                 ///< cell is combinational
  std::vector<std::uint32_t> pos_;         ///< cell -> position
  std::vector<CellId> cell_at_;            ///< position -> cell
  std::vector<std::vector<CellId>> succ_;  ///< edges out of comb cells
  mutable std::vector<std::uint32_t> mark_;  ///< visited iff == epoch_
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<CellId> stack_;
  std::vector<CellId> moved_;  ///< add_edge's reorder scratch
};

}  // namespace sm::netlist
