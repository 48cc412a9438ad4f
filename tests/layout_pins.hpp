// Literal pins of a routed layout, shared by the suites that pin one.
//
// A pin moves when a route, a task or the task order moves: vias per
// boundary (V12..V910), overflowed gcells, failed nets, the net-task count,
// an FNV-1a hash over every route's success flag and segment endpoints
// (the recipe of RouterPins in test_route.cpp), and one over every task's
// net, minimum layer and terminals in order. The router connects a net's
// terminals nearest-first, so a terminal order change rarely moves a route;
// the task hash catches it.
#pragma once

#include "core/protect.hpp"
#include "util/config_hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sm::testing {

struct LayoutPin {
  std::array<std::uint64_t, 9> vias;  ///< V12..V910
  std::size_t overflowed_gcells, failed_nets, num_net_tasks;
  std::uint64_t routes_hash, tasks_hash;
};

inline std::uint64_t routes_hash(const route::RoutingResult& res) {
  std::string text;
  auto put = [&](const util::GridPoint& g) {
    text += std::to_string(g.x) + "," + std::to_string(g.y) + "," +
            std::to_string(g.layer) + ";";
  };
  for (const auto& r : res.routes) {
    text += r.success ? "ok:" : "failed:";
    for (const auto& seg : r.segments) {
      put(seg.a);
      put(seg.b);
    }
    text += "\n";
  }
  return util::fnv1a64(text);
}

inline std::uint64_t tasks_hash(const std::vector<route::RouteTask>& tasks) {
  std::string text;
  char buf[80];
  for (const auto& t : tasks) {
    text += std::to_string(t.net) + "@" + std::to_string(t.min_layer) + ":";
    for (const auto& term : t.terminals) {
      std::snprintf(buf, sizeof buf, "%.17g,%.17g,%d;", term.pos.x,
                    term.pos.y, term.layer);
      text += buf;
    }
    text += "\n";
  }
  return util::fnv1a64(text);
}

inline void expect_layout_pinned(const core::LayoutResult& layout,
                                 const LayoutPin& pin) {
  const auto& stats = layout.routing.stats;
  for (std::size_t l = 1; l <= 9; ++l)
    EXPECT_EQ(stats.vias[l], pin.vias[l - 1]) << "V" << l << l + 1;
  EXPECT_EQ(stats.overflowed_gcells, pin.overflowed_gcells);
  EXPECT_EQ(stats.failed_nets, pin.failed_nets);
  EXPECT_EQ(layout.num_net_tasks, pin.num_net_tasks);
  EXPECT_EQ(routes_hash(layout.routing), pin.routes_hash);
  EXPECT_EQ(tasks_hash(layout.tasks), pin.tasks_hash);
}

}  // namespace sm::testing
