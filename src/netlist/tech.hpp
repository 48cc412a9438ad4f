// Technology model: a Nangate-45-like 10-metal-layer back end.
//
// The paper uses the NanGate FreePDK45 Open Cell Library with ten metal
// layers; correction cells put their pins on M6 (ISCAS-85) or M8 (superblue)
// and layouts are split after M3..M6. We model each layer's routing pitch,
// preferred direction, and per-micron parasitics — that is all the placer,
// router, STA, and the attacks need.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace sm::netlist {

/// Preferred routing direction of a metal layer (alternating by convention).
enum class Direction : std::uint8_t { Horizontal, Vertical };

struct MetalLayer {
  std::string name;       ///< "M1".."M10"
  int index = 1;          ///< 1-based layer index
  Direction preferred = Direction::Horizontal;
  double pitch_um = 0.19;      ///< track pitch
  double cap_ff_per_um = 0.2;  ///< wire capacitance
  double res_ohm_per_um = 2.0; ///< wire resistance
};

/// The full metal stack. Lower layers are fine-pitch and slow; upper layers
/// are coarse-pitch and fast — this asymmetry is why splitting after higher
/// layers is commercially attractive and why lifting costs wirelength.
class MetalStack {
 public:
  static constexpr int kNumLayers = 10;

  MetalStack();

  const MetalLayer& layer(int index) const;  ///< 1-based
  int num_layers() const { return kNumLayers; }

  /// Capacitance of a via between layer `l` and `l+1` (fF).
  double via_cap_ff(int lower_layer) const;
  /// Resistance of a via between layer `l` and `l+1` (ohm).
  double via_res_ohm(int lower_layer) const;

 private:
  std::array<MetalLayer, kNumLayers> layers_;
};

}  // namespace sm::netlist
