#include "attack/crouting.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

namespace sm::attack {

using core::SplitView;

namespace {

/// Search-window half-widths in microns, one per reported column.
constexpr std::array<double, 3> kBboxes = {15.0, 30.0, 45.0};

}  // namespace

CRoutingResult crouting_attack(const SplitView& view) {
  CRoutingResult result;

  struct P {
    double x, y;
    netlist::NetId net;
    std::size_t frag;
  };
  std::vector<P> pins;
  for (std::size_t fi = 0; fi < view.fragments.size(); ++fi)
    for (const auto& v : view.fragments[fi].vpins)
      pins.push_back({v.pos.x, v.pos.y, view.fragments[fi].net, fi});
  result.num_vpins = pins.size();
  if (pins.empty()) {
    result.failed = true;
    result.candidate_list_size.assign(kBboxes.size(), 0.0);
    result.match_in_list.assign(kBboxes.size(), 0.0);
    return result;
  }

  // Bucket grid sized by the largest bbox for neighborhood queries.
  const double bmax =
      *std::max_element(kBboxes.begin(), kBboxes.end());
  const double cell = std::max(bmax, 1.0);
  auto bucket = [&](double x, double y) {
    return std::make_pair(static_cast<long>(std::floor(x / cell)),
                          static_cast<long>(std::floor(y / cell)));
  };
  std::map<std::pair<long, long>, std::vector<std::size_t>> grid;
  for (std::size_t i = 0; i < pins.size(); ++i)
    grid[bucket(pins[i].x, pins[i].y)].push_back(i);

  result.candidate_list_size.assign(kBboxes.size(), 0.0);
  result.match_in_list.assign(kBboxes.size(), 0.0);
  std::vector<std::size_t> has_partner(kBboxes.size(), 0);
  std::vector<double> cand_sum(kBboxes.size(), 0.0);
  std::size_t with_counterpart = 0;

  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto [bx, by] = bucket(pins[i].x, pins[i].y);
    std::vector<std::size_t> cand(kBboxes.size(), 0);
    std::vector<bool> matched(kBboxes.size(), false);
    bool counterpart_exists = false;
    for (long dy = -1; dy <= 1; ++dy) {
      for (long dx = -1; dx <= 1; ++dx) {
        const auto it = grid.find({bx + dx, by + dy});
        if (it == grid.end()) continue;
        for (const std::size_t j : it->second) {
          if (j == i) continue;
          // A candidate partner must belong to a *different* fragment: two
          // vpins of one fragment are already connected in the FEOL.
          if (pins[j].frag == pins[i].frag) continue;
          const double d = std::max(std::abs(pins[i].x - pins[j].x),
                                    std::abs(pins[i].y - pins[j].y));
          const bool same_net = pins[j].net == pins[i].net;
          for (std::size_t b = 0; b < kBboxes.size(); ++b) {
            if (d <= kBboxes[b]) {
              ++cand[b];
              if (same_net) matched[b] = true;
            }
          }
          if (same_net) counterpart_exists = true;
        }
      }
    }
    // Counterparts can also sit outside the grid neighborhood.
    if (!counterpart_exists) {
      for (std::size_t j = 0; j < pins.size() && !counterpart_exists; ++j)
        if (j != i && pins[j].frag != pins[i].frag &&
            pins[j].net == pins[i].net)
          counterpart_exists = true;
    }
    if (counterpart_exists) ++with_counterpart;
    for (std::size_t b = 0; b < kBboxes.size(); ++b) {
      cand_sum[b] += static_cast<double>(cand[b]);
      if (counterpart_exists && matched[b]) ++has_partner[b];
    }
  }

  for (std::size_t b = 0; b < kBboxes.size(); ++b) {
    result.candidate_list_size[b] =
        cand_sum[b] / static_cast<double>(pins.size());
    result.match_in_list[b] =
        with_counterpart == 0
            ? 0.0
            : static_cast<double>(has_partner[b]) /
                  static_cast<double>(with_counterpart);
  }
  return result;
}

}  // namespace sm::attack
