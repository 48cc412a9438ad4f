#include "core/correction.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace sm::core {

using netlist::NetId;
using netlist::Netlist;
using util::Point;
using util::Rect;

namespace {

Point cell_pos(const Netlist& nl, const place::Placement& pl, NetId net,
               const netlist::Sink& wrong_sink) {
  const Point d = pl.of(nl.net(net).driver);
  const Point s = pl.of(wrong_sink.cell);
  return {(d.x + s.x) / 2.0, (d.y + s.y) / 2.0};
}

}  // namespace

CorrectionPlan plan_corrections(const Netlist& erroneous,
                                const SwapLedger& ledger,
                                const place::Placement& pl, int pin_layer) {
  CorrectionPlan plan;
  plan.pin_layer = pin_layer;
  plan.cells.reserve(ledger.entries.size() * 2);
  for (std::size_t e = 0; e < ledger.entries.size(); ++e) {
    const SwapEntry& entry = ledger.entries[e];
    // Cell A taps net_a, which now erroneously drives sink_b.
    CorrectionCell a;
    a.pos = cell_pos(erroneous, pl, entry.net_a, entry.sink_b);
    a.pin_layer = pin_layer;
    a.tapped_net = entry.net_a;
    a.entry = e;
    a.side = 0;
    // Cell B taps net_b, which now erroneously drives sink_a.
    CorrectionCell b;
    b.pos = cell_pos(erroneous, pl, entry.net_b, entry.sink_a);
    b.pin_layer = pin_layer;
    b.tapped_net = entry.net_b;
    b.entry = e;
    b.side = 1;
    const std::size_t ia = plan.cells.size();
    plan.cells.push_back(a);
    plan.cells.push_back(b);
    plan.wires.push_back({ia, ia + 1});      // A.Y -> B.D
    plan.wires.push_back({ia + 1, ia});      // B.Y -> A.D
  }
  legalize_corrections(plan, pl.floorplan.die, 1.4);
  return plan;
}

CorrectionPlan plan_naive_lift(const Netlist& nl,
                               const std::vector<NetId>& nets,
                               const place::Placement& pl, int pin_layer) {
  CorrectionPlan plan;
  plan.pin_layer = pin_layer;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetId n = nets[i];
    const auto& net = nl.net(n);
    double sx = pl.of(net.driver).x, sy = pl.of(net.driver).y;
    int cnt = 1;
    for (const auto& s : net.sinks) {
      sx += pl.of(s.cell).x;
      sy += pl.of(s.cell).y;
      ++cnt;
    }
    CorrectionCell c;
    c.pos = {sx / cnt, sy / cnt};
    c.pin_layer = pin_layer;
    c.tapped_net = n;
    c.entry = i;
    c.side = 0;
    plan.cells.push_back(c);
  }
  legalize_corrections(plan, pl.floorplan.die, 1.4);
  return plan;
}

void legalize_corrections(CorrectionPlan& plan, const Rect& die,
                          double site_um) {
  if (site_um <= 0) site_um = 1.0;
  const int nx = std::max(1, static_cast<int>(die.width() / site_um));
  const int ny = std::max(1, static_cast<int>(die.height() / site_um));
  std::unordered_set<std::int64_t> occupied;
  auto key = [&](int x, int y) {
    return static_cast<std::int64_t>(y) * (nx + 1) + x;
  };
  auto snap = [&](const Point& p, int& ix, int& iy) {
    ix = std::clamp(static_cast<int>((p.x - die.lo.x) / site_um), 0, nx - 1);
    iy = std::clamp(static_cast<int>((p.y - die.lo.y) / site_um), 0, ny - 1);
  };
  for (auto& cell : plan.cells) {
    int ix, iy;
    snap(cell.pos, ix, iy);
    // Spiral outward until a free site is found (the plan never holds more
    // cells than sites for realistic designs; give up gracefully otherwise).
    bool placed = false;
    for (int radius = 0; radius <= std::max(nx, ny) && !placed; ++radius) {
      for (int dy = -radius; dy <= radius && !placed; ++dy) {
        for (int dx = -radius; dx <= radius && !placed; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) != radius) continue;
          const int x = ix + dx, y = iy + dy;
          if (x < 0 || x >= nx || y < 0 || y >= ny) continue;
          if (occupied.count(key(x, y))) continue;
          occupied.insert(key(x, y));
          cell.pos = {die.lo.x + (x + 0.5) * site_um,
                      die.lo.y + (y + 0.5) * site_um};
          placed = true;
        }
      }
    }
  }
}

}  // namespace sm::core
