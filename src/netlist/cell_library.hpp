// Standard-cell library model (Nangate-45-like).
//
// Each cell type carries the logic function, pin counts, area, input pin
// capacitance, output drive resistance, intrinsic delay, and leakage. Delay
// through a cell is modeled as intrinsic + drive_res * load_cap (a linear
// delay model — sufficient for relative PPA comparisons, which is all the
// paper's Fig. 6 reports).
//
// Two special cell families exist only at the *layout* level:
//   - correction cells (paper Sec. 4): 2-in/2-out OR-modeled cells with pins
//     in M6/M8, power/timing borrowed from BUFX2;
//   - naive-lifting cells: same lifting mechanics without the erroneous arc.
// They are represented by CellClass so layout code can treat them specially
// (overlap-legal, no device-layer footprint).
#pragma once

#include "netlist/tech.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sm::netlist {

/// Boolean function of a cell output, evaluated word-parallel by sm::sim.
enum class LogicFn : std::uint8_t {
  Const0,
  Const1,
  Buf,
  Inv,
  And,
  Nand,
  Or,
  Nor,
  Xor,
  Xnor,
  Aoi21,  ///< !((A & B) | C)
  Oai21,  ///< !((A | B) & C)
  Mux2,   ///< S ? B : A   (inputs: A, B, S)
  Dff,    ///< sequential element; treated as a combinational cut point
  Port,   ///< primary input/output marker
};

/// Layout-level classification.
enum class CellClass : std::uint8_t {
  Standard,    ///< ordinary standard cell, pins in M1
  Correction,  ///< paper's correction cell, pins in M6/M8, overlap-legal
  NaiveLift,   ///< baseline lifting cell, pins in M6/M8, overlap-legal
  PortMarker,  ///< pseudo-cell for chip I/O
};

using CellTypeId = std::uint32_t;
constexpr CellTypeId kInvalidCellType = 0xffffffffU;

struct CellType {
  std::string name;
  LogicFn fn = LogicFn::Buf;
  CellClass cls = CellClass::Standard;
  int num_inputs = 1;
  double area_um2 = 1.0;
  double width_um = 0.8;       ///< footprint width (height is row height)
  double input_cap_ff = 1.0;   ///< per input pin
  double drive_res_kohm = 10.0;
  double intrinsic_delay_ps = 10.0;
  double leakage_nw = 10.0;
  int pin_layer = 1;           ///< metal layer carrying the pins
};

/// Immutable library: the standard Nangate-45-like set plus the paper's
/// custom cells. Lookup by name or id.
class CellLibrary {
 public:
  /// Builds the default library. `correction_pin_layer` configures where the
  /// correction/naive-lift cells expose their pins (M6 for ISCAS-85, M8 for
  /// superblue in the paper).
  explicit CellLibrary(int correction_pin_layer = 6);

  const CellType& type(CellTypeId id) const;
  CellTypeId id_of(const std::string& name) const;  ///< throws if unknown
  std::optional<CellTypeId> find(const std::string& name) const;
  std::size_t size() const { return types_.size(); }

  const MetalStack& metal() const { return stack_; }
  double row_height_um() const { return 1.4; }

  // Frequently used ids, resolved once at construction.
  CellTypeId input_port() const { return input_port_; }
  CellTypeId output_port() const { return output_port_; }
  CellTypeId correction_cell() const { return correction_; }
  CellTypeId naive_lift_cell() const { return naive_lift_; }
  CellTypeId dff() const { return dff_; }

  /// Buffer of a given drive strength (1, 2, 4, 8).
  CellTypeId buffer(int strength) const;

 private:
  CellTypeId add(CellType t);

  std::vector<CellType> types_;
  MetalStack stack_;
  CellTypeId input_port_ = kInvalidCellType;
  CellTypeId output_port_ = kInvalidCellType;
  CellTypeId correction_ = kInvalidCellType;
  CellTypeId naive_lift_ = kInvalidCellType;
  CellTypeId dff_ = kInvalidCellType;
  CellTypeId buf_[4] = {kInvalidCellType, kInvalidCellType, kInvalidCellType,
                        kInvalidCellType};
};

/// Number of inputs the logic function itself requires (Mux2 = 3, etc.).
int fn_arity(LogicFn fn, int declared_inputs);

}  // namespace sm::netlist
