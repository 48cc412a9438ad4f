#include "place/placer.hpp"

#include "place/fm.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

namespace sm::place {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using util::Point;
using util::Rect;

Floorplan Placer::make_floorplan(const Netlist& nl) const {
  double cell_area = 0.0;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    cell_area += nl.type_of(id).area_um2;
  cell_area = std::max(cell_area, 10.0);
  const double core_area = cell_area / opts_.target_utilization;
  Floorplan fp;
  fp.row_height_um = nl.library().row_height_um();
  const double width = std::sqrt(core_area / kAspectRatio);
  fp.num_rows = std::max(
      1, static_cast<int>(std::ceil(width * kAspectRatio / fp.row_height_um)));
  fp.die = Rect{{0.0, 0.0},
                {width, static_cast<double>(fp.num_rows) * fp.row_height_um}};
  return fp;
}

namespace {

/// Distribute chip ports evenly around the die boundary: PIs on the west and
/// north edges, POs on the east and south edges (stable, deterministic).
void place_ports(const Netlist& nl, Placement& pl) {
  const Rect& die = pl.floorplan.die;
  const auto& pis = nl.primary_inputs();
  const auto& pos_ports = nl.primary_outputs();
  auto along = [&](std::size_t i, std::size_t n, double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                    static_cast<double>(std::max<std::size_t>(n, 1));
  };
  for (std::size_t i = 0; i < pis.size(); ++i) {
    const std::size_t half = (pis.size() + 1) / 2;
    if (i < half)  // west edge, bottom-to-top
      pl.pos[pis[i]] = {die.lo.x, along(i, half, die.lo.y, die.hi.y)};
    else  // north edge, left-to-right
      pl.pos[pis[i]] = {along(i - half, pis.size() - half, die.lo.x, die.hi.x),
                        die.hi.y};
  }
  for (std::size_t i = 0; i < pos_ports.size(); ++i) {
    const std::size_t half = (pos_ports.size() + 1) / 2;
    if (i < half)  // east edge
      pl.pos[pos_ports[i]] = {die.hi.x, along(i, half, die.lo.y, die.hi.y)};
    else  // south edge
      pl.pos[pos_ports[i]] = {
          along(i - half, pos_ports.size() - half, die.lo.x, die.hi.x),
          die.lo.y};
  }
}

struct Region {
  Rect rect;
  std::vector<CellId> cells;
  std::uint64_t seed;
};

}  // namespace

Placement Placer::place(const Netlist& nl) const {
  Placement pl;
  pl.floorplan = make_floorplan(nl);
  pl.pos.assign(nl.num_cells(), pl.floorplan.die.center());
  place_ports(nl, pl);

  std::vector<CellId> movable;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (!nl.is_port(id)) movable.push_back(id);

  std::deque<Region> queue;
  queue.push_back({pl.floorplan.die, std::move(movable), opts_.seed});

  while (!queue.empty()) {
    Region region = std::move(queue.front());
    queue.pop_front();
    const std::size_t n = region.cells.size();
    if (n == 0) continue;

    if (n <= static_cast<std::size_t>(kLeafCells)) {
      // Spread leaf cells on a small grid inside the region.
      const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                                    static_cast<double>(n)))));
      const int rows = (static_cast<int>(n) + cols - 1) / cols;
      for (std::size_t i = 0; i < n; ++i) {
        const int cx = static_cast<int>(i) % cols;
        const int cy = static_cast<int>(i) / cols;
        pl.pos[region.cells[i]] = {
            region.rect.lo.x + region.rect.width() * (cx + 0.5) / cols,
            region.rect.lo.y + region.rect.height() * (cy + 0.5) / rows};
      }
      continue;
    }

    // Split along the longer axis.
    const bool vertical_cut = region.rect.width() >= region.rect.height();

    // Build the FM problem over nets touching this region.
    FmProblem prob;
    prob.balance_tolerance = kFmBalance;
    prob.seed = region.seed;
    prob.max_passes = kFmPasses;
    prob.weight.resize(n);
    std::unordered_map<CellId, std::uint32_t> index;
    index.reserve(n * 2);
    for (std::uint32_t i = 0; i < n; ++i) {
      index[region.cells[i]] = i;
      // Zero-area cells still need weight so balance works.
      prob.weight[i] = std::max(nl.type_of(region.cells[i]).area_um2, 0.2);
    }
    const double cut_coord = vertical_cut ? region.rect.center().x
                                          : region.rect.center().y;
    std::unordered_set<NetId> seen;
    for (const CellId c : region.cells) {
      const auto& cell = nl.cell(c);
      auto consider = [&](NetId net) {
        if (net == netlist::kInvalidNet || !seen.insert(net).second) return;
        std::vector<std::uint32_t> members;
        std::uint32_t e0 = 0, e1 = 0;
        auto add_pin = [&](CellId pin_cell) {
          const auto it = index.find(pin_cell);
          if (it != index.end()) {
            members.push_back(it->second);
          } else {
            const Point& p = pl.pos[pin_cell];
            const double coord = vertical_cut ? p.x : p.y;
            (coord <= cut_coord ? e0 : e1) += 1;
          }
        };
        add_pin(nl.net(net).driver);
        for (const auto& s : nl.net(net).sinks) add_pin(s.cell);
        if (members.size() + std::min<std::uint32_t>(e0 + e1, 1) < 2) return;
        prob.edges.push_back(std::move(members));
        prob.ext0.push_back(e0);
        prob.ext1.push_back(e1);
      };
      consider(cell.output);
      for (const NetId in : cell.inputs) consider(in);
    }

    const FmResult fm = fm_bipartition(prob);

    // Split the rectangle in proportion to the area on each side.
    double w0 = 0, wt = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      wt += prob.weight[i];
      if (fm.side[i] == 0) w0 += prob.weight[i];
    }
    const double frac = std::clamp(wt > 0 ? w0 / wt : 0.5, 0.1, 0.9);

    Region a, b;
    if (vertical_cut) {
      const double cut_x = region.rect.lo.x + region.rect.width() * frac;
      a.rect = {region.rect.lo, {cut_x, region.rect.hi.y}};
      b.rect = {{cut_x, region.rect.lo.y}, region.rect.hi};
    } else {
      const double cut_y = region.rect.lo.y + region.rect.height() * frac;
      a.rect = {region.rect.lo, {region.rect.hi.x, cut_y}};
      b.rect = {{region.rect.lo.x, cut_y}, region.rect.hi};
    }
    a.cells.reserve(n / 2 + 1);
    b.cells.reserve(n / 2 + 1);
    for (std::uint32_t i = 0; i < n; ++i)
      (fm.side[i] == 0 ? a : b).cells.push_back(region.cells[i]);
    // Update position estimates for terminal propagation in other regions.
    for (const CellId c : a.cells) pl.pos[c] = a.rect.center();
    for (const CellId c : b.cells) pl.pos[c] = b.rect.center();
    a.seed = region.seed * 2862933555777941757ULL + 3037000493ULL;
    b.seed = a.seed + 0x9e3779b97f4a7c15ULL;
    queue.push_back(std::move(a));
    queue.push_back(std::move(b));
  }

  legalize_rows(nl, pl);
  force_refine(nl, pl, kForceIterations, kForceAlpha);
  detailed_place(nl, pl, opts_.detailed_passes, opts_.seed ^ 0xd37aULL);
  legalize_rows(nl, pl);
  return pl;
}

double force_refine(const Netlist& nl, Placement& pl, int iterations,
                    double alpha) {
  if (iterations <= 0) return total_hpwl(nl, pl);

  // Jacobi iteration of the quadratic star model: each cell moves toward
  // the centroid of its nets' centroids, with decaying step size; the row
  // legalizer re-spreads after every step. No HPWL rollback on purpose —
  // quadratic placement does not minimize HPWL, and the long-edge drag is
  // exactly the physical behaviour the erroneous-netlist defense exploits.
  for (int iter = 0; iter < iterations; ++iter) {
    const double step = alpha / (1.0 + 0.5 * iter);
    // Accumulate centroid targets from the current positions.
    std::vector<double> sx(nl.num_cells(), 0.0), sy(nl.num_cells(), 0.0);
    std::vector<double> cnt(nl.num_cells(), 0.0);
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      const auto& net = nl.net(n);
      // Every pin of the net attracts every other pin; use the net centroid
      // as the shared target. Weighting the pull by the net's current
      // extent approximates the bound-to-bound quadratic model: long nets
      // dominate, which is what physically drags a gate across the die when
      // one of its connections is (erroneously) remote.
      double cx = pl.pos[net.driver].x, cy = pl.pos[net.driver].y;
      int pins = 1;
      for (const auto& s : net.sinks) {
        cx += pl.pos[s.cell].x;
        cy += pl.pos[s.cell].y;
        ++pins;
      }
      cx /= pins;
      cy /= pins;
      const double w = std::max(net_hpwl(nl, pl, n), 1.0);
      auto pull = [&](CellId c) {
        sx[c] += w * cx;
        sy[c] += w * cy;
        cnt[c] += w;
      };
      pull(net.driver);
      for (const auto& s : net.sinks) pull(s.cell);
    }
    for (CellId id = 0; id < nl.num_cells(); ++id) {
      if (nl.type_of(id).cls != netlist::CellClass::Standard) continue;
      if (cnt[id] == 0) continue;
      const double tx = sx[id] / cnt[id];
      const double ty = sy[id] / cnt[id];
      pl.pos[id].x += step * (tx - pl.pos[id].x);
      pl.pos[id].y += step * (ty - pl.pos[id].y);
    }
    legalize_rows(nl, pl);
  }
  return total_hpwl(nl, pl);
}

void legalize_rows(const Netlist& nl, Placement& pl) {
  const Floorplan& fp = pl.floorplan;
  struct Item {
    CellId cell;
    double x, y, width;
  };
  std::vector<Item> items;
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    const auto& t = nl.type_of(id);
    if (t.cls != netlist::CellClass::Standard) continue;  // ports stay fixed
    items.push_back({id, pl.pos[id].x, pl.pos[id].y, std::max(t.width_um, 0.2)});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.x < b.x || (a.x == b.x && a.cell < b.cell);
  });

  std::vector<double> cursor(static_cast<std::size_t>(fp.num_rows), fp.die.lo.x);
  const int rows = fp.num_rows;
  struct Placed {
    CellId cell;
    double x, width;
  };
  std::vector<std::vector<Placed>> row_members(
      static_cast<std::size_t>(fp.num_rows));
  for (const Item& it : items) {
    const int want = std::clamp(
        static_cast<int>((it.y - fp.die.lo.y) / fp.row_height_um), 0, rows - 1);
    int best_row = -1;
    double best_cost = std::numeric_limits<double>::max();
    double best_x = 0;
    // Examine a window of rows around the desired one; widen until the
    // whole row range has been covered.
    for (int radius = 4;; radius *= 4) {
      for (int r = std::max(0, want - radius);
           r <= std::min(rows - 1, want + radius); ++r) {
        // Clamp the desired x so right-edge cells can still enter the row.
        const double want_x =
            std::min(it.x, fp.die.hi.x - it.width);
        const double x = std::max(cursor[static_cast<std::size_t>(r)], want_x);
        if (x + it.width > fp.die.hi.x + 1e-9) continue;  // row full
        const double cost =
            std::abs(x - it.x) + std::abs(fp.row_y(r) - it.y) * 1.5;
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_x = x;
        }
      }
      if (best_row >= 0 || radius >= rows) break;
    }
    if (best_row < 0) {
      // No row can honor the desired x (right-edge congestion). Fall back to
      // gap-free packing: place at the cursor of the best row that still has
      // physical space, preferring rows close to the desired y.
      for (int r = 0; r < rows; ++r) {
        const double x = cursor[static_cast<std::size_t>(r)];
        if (x + it.width > fp.die.hi.x + 1e-9) continue;
        const double cost =
            std::abs(x - it.x) + std::abs(fp.row_y(r) - it.y) * 1.5;
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_x = x;
        }
      }
    }
    if (best_row < 0) {
      // Total cell width exceeds row capacity (utilization ~1); keep the
      // layout legal-ish by dropping into the emptiest row at its cursor.
      best_row = 0;
      for (int r = 1; r < rows; ++r)
        if (cursor[static_cast<std::size_t>(r)] <
            cursor[static_cast<std::size_t>(best_row)])
          best_row = r;
      best_x = cursor[static_cast<std::size_t>(best_row)];
    }
    pl.pos[it.cell] = {best_x + it.width / 2, fp.row_y(best_row)};
    cursor[static_cast<std::size_t>(best_row)] = best_x + it.width;
    row_members[static_cast<std::size_t>(best_row)].push_back(
        {it.cell, best_x, it.width});
  }

  // Squeeze pass: cells that were dumped past the die edge (all cursors
  // pegged right) are pushed back left into earlier gaps. Right-to-left so
  // each cell only needs to respect its right neighbor.
  for (auto& members : row_members) {
    double allowed_hi = fp.die.hi.x;
    for (std::size_t k = members.size(); k-- > 0;) {
      auto& m = members[k];
      if (m.x + m.width > allowed_hi) {
        m.x = std::max(fp.die.lo.x, allowed_hi - m.width);
        pl.pos[m.cell].x = m.x + m.width / 2;
      }
      allowed_hi = m.x;
    }
  }
}

double detailed_place(const Netlist& nl, Placement& pl, int passes,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  // Incident nets per cell (inputs + output, deduplicated).
  std::vector<std::vector<NetId>> cell_nets(nl.num_cells());
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    auto& v = cell_nets[id];
    const auto& c = nl.cell(id);
    if (c.output != netlist::kInvalidNet) v.push_back(c.output);
    for (const NetId in : c.inputs)
      if (in != netlist::kInvalidNet &&
          std::find(v.begin(), v.end(), in) == v.end())
        v.push_back(in);
  }

  std::vector<CellId> movable;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (nl.type_of(id).cls == netlist::CellClass::Standard) movable.push_back(id);
  if (movable.size() < 2) return total_hpwl(nl, pl);

  auto cost_of = [&](CellId a, CellId b) {
    double sum = 0;
    for (const NetId n : cell_nets[a]) sum += net_hpwl(nl, pl, n);
    for (const NetId n : cell_nets[b]) {
      // Avoid double counting shared nets.
      if (std::find(cell_nets[a].begin(), cell_nets[a].end(), n) ==
          cell_nets[a].end())
        sum += net_hpwl(nl, pl, n);
    }
    return sum;
  };

  // Spatial bucket grid so each cell can find a swap partner near the
  // centroid of its connected pins (random distant swaps almost never help).
  const Rect& die = pl.floorplan.die;
  const int gw = std::max(1, static_cast<int>(std::sqrt(
                                 static_cast<double>(movable.size()) / 4.0)));
  auto bucket_of = [&](const Point& p) {
    const int bx = std::clamp(
        static_cast<int>((p.x - die.lo.x) / std::max(die.width(), 1e-9) * gw), 0,
        gw - 1);
    const int by = std::clamp(
        static_cast<int>((p.y - die.lo.y) / std::max(die.height(), 1e-9) * gw),
        0, gw - 1);
    return by * gw + bx;
  };

  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::vector<CellId>> grid(static_cast<std::size_t>(gw * gw));
    for (const CellId c : movable)
      grid[static_cast<std::size_t>(bucket_of(pl.pos[c]))].push_back(c);

    std::vector<CellId> order = movable;
    rng.shuffle(order);
    for (const CellId a : order) {
      // Centroid of the other pins on a's nets.
      double sx = 0, sy = 0;
      int cnt = 0;
      for (const NetId n : cell_nets[a]) {
        const auto& net = nl.net(n);
        if (net.driver != a) {
          sx += pl.pos[net.driver].x;
          sy += pl.pos[net.driver].y;
          ++cnt;
        }
        for (const auto& s : net.sinks)
          if (s.cell != a) {
            sx += pl.pos[s.cell].x;
            sy += pl.pos[s.cell].y;
            ++cnt;
          }
      }
      if (cnt == 0) continue;
      const Point want{sx / cnt, sy / cnt};
      const auto& bucket = grid[static_cast<std::size_t>(bucket_of(want))];
      if (bucket.empty()) continue;
      const CellId b =
          bucket[static_cast<std::size_t>(rng.below(bucket.size()))];
      if (a == b) continue;
      const double before = cost_of(a, b);
      std::swap(pl.pos[a], pl.pos[b]);
      const double after = cost_of(a, b);
      if (after >= before - 1e-12) std::swap(pl.pos[a], pl.pos[b]);  // revert
    }
  }
  return total_hpwl(nl, pl);
}

}  // namespace sm::place
