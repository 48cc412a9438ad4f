#include "netlist/cell_library.hpp"

#include <stdexcept>
#include <unordered_map>

namespace sm::netlist {
namespace {

// One shared name->id map per library instance would be cleaner, but the
// library is tiny (a few dozen types); linear scan keeps the class simple.

}  // namespace

CellLibrary::CellLibrary(int correction_pin_layer) {
  // name, fn, inputs, area, width, cap, res, intrinsic, leakage
  auto std_cell = [&](const std::string& name, LogicFn fn, int ins, double area,
                      double width, double cap, double res, double d0,
                      double leak) {
    CellType t;
    t.name = name;
    t.fn = fn;
    t.cls = CellClass::Standard;
    t.num_inputs = ins;
    t.area_um2 = area;
    t.width_um = width;
    t.input_cap_ff = cap;
    t.drive_res_kohm = res;
    t.intrinsic_delay_ps = d0;
    t.leakage_nw = leak;
    t.pin_layer = 1;
    return add(std::move(t));
  };

  // Values approximate NanGate FreePDK45 typical numbers (area in um^2,
  // caps in fF, drive resistance in kOhm, delay in ps, leakage in nW).
  std_cell("INV_X1", LogicFn::Inv, 1, 0.53, 0.38, 1.6, 14.0, 8.0, 12.0);
  std_cell("INV_X2", LogicFn::Inv, 1, 0.80, 0.57, 3.2, 7.0, 8.0, 20.0);
  buf_[0] = std_cell("BUF_X1", LogicFn::Buf, 1, 0.80, 0.57, 1.5, 13.0, 22.0, 15.0);
  buf_[1] = std_cell("BUF_X2", LogicFn::Buf, 1, 1.06, 0.76, 2.2, 7.0, 24.0, 24.0);
  buf_[2] = std_cell("BUF_X4", LogicFn::Buf, 1, 1.60, 1.14, 4.1, 3.6, 26.0, 42.0);
  buf_[3] = std_cell("BUF_X8", LogicFn::Buf, 1, 2.66, 1.90, 8.0, 1.8, 28.0, 80.0);
  std_cell("NAND2_X1", LogicFn::Nand, 2, 0.80, 0.57, 1.6, 13.0, 12.0, 16.0);
  std_cell("NAND3_X1", LogicFn::Nand, 3, 1.06, 0.76, 1.7, 14.5, 16.0, 20.0);
  std_cell("NAND4_X1", LogicFn::Nand, 4, 1.33, 0.95, 1.8, 16.0, 20.0, 24.0);
  std_cell("NOR2_X1", LogicFn::Nor, 2, 0.80, 0.57, 1.7, 15.0, 14.0, 16.0);
  std_cell("NOR3_X1", LogicFn::Nor, 3, 1.06, 0.76, 1.8, 17.0, 19.0, 20.0);
  std_cell("AND2_X1", LogicFn::And, 2, 1.06, 0.76, 1.5, 12.0, 24.0, 20.0);
  std_cell("OR2_X1", LogicFn::Or, 2, 1.06, 0.76, 1.5, 12.0, 25.0, 20.0);
  std_cell("XOR2_X1", LogicFn::Xor, 2, 1.60, 1.14, 2.8, 14.0, 32.0, 30.0);
  std_cell("XNOR2_X1", LogicFn::Xnor, 2, 1.60, 1.14, 2.8, 14.0, 32.0, 30.0);
  std_cell("AOI21_X1", LogicFn::Aoi21, 3, 1.06, 0.76, 1.7, 15.0, 18.0, 22.0);
  std_cell("OAI21_X1", LogicFn::Oai21, 3, 1.06, 0.76, 1.7, 15.0, 18.0, 22.0);
  std_cell("MUX2_X1", LogicFn::Mux2, 3, 1.86, 1.33, 1.9, 14.0, 36.0, 34.0);
  dff_ = std_cell("DFF_X1", LogicFn::Dff, 1, 4.52, 3.23, 1.6, 10.0, 60.0, 110.0);

  {
    CellType t;
    t.name = "SM_PORT_IN";
    t.fn = LogicFn::Port;
    t.cls = CellClass::PortMarker;
    t.num_inputs = 0;
    t.area_um2 = 0.0;
    t.width_um = 0.0;
    t.input_cap_ff = 0.0;
    t.drive_res_kohm = 5.0;  // pad driver
    t.intrinsic_delay_ps = 0.0;
    t.leakage_nw = 0.0;
    input_port_ = add(std::move(t));
  }
  {
    CellType t;
    t.name = "SM_PORT_OUT";
    t.fn = LogicFn::Port;
    t.cls = CellClass::PortMarker;
    t.num_inputs = 1;
    t.area_um2 = 0.0;
    t.width_um = 0.0;
    t.input_cap_ff = 2.0;  // pad load
    t.intrinsic_delay_ps = 0.0;
    t.leakage_nw = 0.0;
    output_port_ = add(std::move(t));
  }
  {
    // Correction cell (paper Sec. 4): modeled as a 2-input-2-output OR gate;
    // power/timing characteristics leveraged from BUF_X2; pins on a high
    // metal layer; no device-layer footprint, so overlap with standard cells
    // is legal. At the netlist level we only need its electrical numbers —
    // the 2-in/2-out structure lives in sm::core::CorrectionPlan.
    CellType t;
    t.name = "SM_CORR";
    t.fn = LogicFn::Or;
    t.cls = CellClass::Correction;
    t.num_inputs = 2;
    t.area_um2 = 0.0;  // no die-area contribution (paper: zero area overhead)
    t.width_um = 1.4;  // BEOL footprint used by overlap legalization
    t.input_cap_ff = 2.2;       // = BUF_X2
    t.drive_res_kohm = 7.0;     // = BUF_X2
    t.intrinsic_delay_ps = 24.0;
    t.leakage_nw = 24.0;
    t.pin_layer = correction_pin_layer;
    correction_ = add(std::move(t));
  }
  {
    // Naive-lifting cell: same lifting mechanics, no erroneous arc.
    CellType t;
    t.name = "SM_LIFT";
    t.fn = LogicFn::Buf;
    t.cls = CellClass::NaiveLift;
    t.num_inputs = 1;
    t.area_um2 = 0.0;
    t.width_um = 1.0;
    t.input_cap_ff = 2.2;
    t.drive_res_kohm = 7.0;
    t.intrinsic_delay_ps = 24.0;
    t.leakage_nw = 24.0;
    t.pin_layer = correction_pin_layer;
    naive_lift_ = add(std::move(t));
  }
}

CellTypeId CellLibrary::add(CellType t) {
  types_.push_back(std::move(t));
  return static_cast<CellTypeId>(types_.size() - 1);
}

const CellType& CellLibrary::type(CellTypeId id) const {
  if (id >= types_.size())
    throw std::out_of_range("CellLibrary::type: bad id " + std::to_string(id));
  return types_[id];
}

std::optional<CellTypeId> CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i].name == name) return static_cast<CellTypeId>(i);
  return std::nullopt;
}

CellTypeId CellLibrary::id_of(const std::string& name) const {
  if (auto id = find(name)) return *id;
  throw std::invalid_argument("CellLibrary: unknown cell type '" + name + "'");
}

CellTypeId CellLibrary::buffer(int strength) const {
  switch (strength) {
    case 1: return buf_[0];
    case 2: return buf_[1];
    case 4: return buf_[2];
    case 8: return buf_[3];
    default:
      throw std::invalid_argument("CellLibrary::buffer: strength must be 1/2/4/8");
  }
}

int fn_arity(LogicFn fn, int declared_inputs) {
  switch (fn) {
    case LogicFn::Const0:
    case LogicFn::Const1:
      return 0;
    case LogicFn::Buf:
    case LogicFn::Inv:
    case LogicFn::Dff:
      return 1;
    case LogicFn::Xor:
    case LogicFn::Xnor:
      return 2;
    case LogicFn::Aoi21:
    case LogicFn::Oai21:
    case LogicFn::Mux2:
      return 3;
    case LogicFn::And:
    case LogicFn::Nand:
    case LogicFn::Or:
    case LogicFn::Nor:
      return declared_inputs;  // n-ary
    case LogicFn::Port:
      return declared_inputs;
  }
  return declared_inputs;
}

}  // namespace sm::netlist
