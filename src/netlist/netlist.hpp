// Gate-level netlist graph.
//
// Cells are single-output (the standard-cell abstraction); a Net has exactly
// one driver (a cell output or a primary input port) and a list of sinks
// (cell input pins or primary output ports). Primary I/O is modeled with
// port marker pseudo-cells so every net uniformly has a driving cell.
//
// The randomization defense (sm::core::Randomizer) mutates connectivity via
// reconnect_sink(); everything else treats the netlist as immutable.
#pragma once

#include "netlist/cell_library.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace sm::netlist {

using CellId = std::uint32_t;
using NetId = std::uint32_t;
constexpr CellId kInvalidCell = 0xffffffffU;
constexpr NetId kInvalidNet = 0xffffffffU;

/// A sink: input pin `pin` of cell `cell`.
struct Sink {
  CellId cell = kInvalidCell;
  int pin = 0;
  friend bool operator==(const Sink& a, const Sink& b) noexcept {
    return a.cell == b.cell && a.pin == b.pin;
  }
};

struct Net {
  std::string name;
  CellId driver = kInvalidCell;
  std::vector<Sink> sinks;
};

struct Cell {
  std::string name;
  CellTypeId type = kInvalidCellType;
  std::vector<NetId> inputs;  ///< indexed by pin
  NetId output = kInvalidNet;
};

class Netlist {
 public:
  explicit Netlist(const CellLibrary& lib, std::string name = "top");

  const CellLibrary& library() const { return *lib_; }
  const std::string& name() const { return name_; }

  // ---- construction -------------------------------------------------------
  /// Create a primary input: a port cell driving a fresh net. Returns the net.
  NetId add_primary_input(const std::string& name);
  /// Create a primary output port cell consuming `net`. Returns the port cell.
  CellId add_primary_output(const std::string& name, NetId net);
  /// Create a cell of `type` with all input pins unconnected and a fresh
  /// output net named after the cell.
  CellId add_cell(const std::string& name, CellTypeId type);
  /// Connect input pin `pin` of `cell` to `net` (replacing any prior net).
  void connect_input(CellId cell, int pin, NetId net);

  // ---- mutation (used by the randomizer) ----------------------------------
  /// Re-point input pin `pin` of `cell` from its current net to `new_net`.
  void reconnect_sink(CellId cell, int pin, NetId new_net);

  // ---- access --------------------------------------------------------------
  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_nets() const { return nets_.size(); }
  const Cell& cell(CellId id) const { return cells_.at(id); }
  const Net& net(NetId id) const { return nets_.at(id); }
  const CellType& type_of(CellId id) const { return lib_->type(cells_.at(id).type); }

  const std::vector<CellId>& primary_inputs() const { return pis_; }
  const std::vector<CellId>& primary_outputs() const { return pos_; }
  /// Net driven by the i-th primary input port.
  NetId primary_input_net(std::size_t i) const;
  /// Net consumed by the i-th primary output port.
  NetId primary_output_net(std::size_t i) const;

  bool is_port(CellId id) const { return type_of(id).fn == LogicFn::Port; }
  bool is_dff(CellId id) const { return type_of(id).fn == LogicFn::Dff; }
  /// True for gates that participate in combinational evaluation.
  bool is_combinational(CellId id) const {
    return !is_port(id) && !is_dff(id);
  }

  /// Count of logic gates (excludes port markers; includes DFFs).
  std::size_t num_gates() const;

  /// All cells, ports included (for iteration by id).
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// Find a cell by name; kInvalidCell when absent (linear scan — test use).
  CellId find_cell(const std::string& name) const;

  /// Sanity-check invariants: every input pin connected, driver/sink lists
  /// mutually consistent, arities match. Throws std::logic_error on failure.
  void validate() const;

  /// Deep copy (cells/nets are value types; the library is shared).
  Netlist clone() const { return *this; }

 private:
  NetId add_net(const std::string& name, CellId driver);
  void detach_sink(NetId net, CellId cell, int pin);

  const CellLibrary* lib_;
  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<CellId> pis_;
  std::vector<CellId> pos_;
};

}  // namespace sm::netlist
