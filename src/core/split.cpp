#include "core/split.hpp"

#include <cstdint>
#include <stdexcept>

namespace sm::core {

using netlist::NetId;
using netlist::Netlist;
using route::RouteGrid;
using util::GridPoint;

std::size_t SplitView::num_vpins() const {
  std::size_t n = 0;
  for (const auto& f : fragments) n += f.vpins.size();
  return n;
}

std::vector<std::size_t> SplitView::open_driver_fragments() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fragments.size(); ++i)
    if (fragments[i].has_driver && !fragments[i].vpins.empty()) out.push_back(i);
  return out;
}

std::vector<std::size_t> SplitView::open_sink_fragments() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < fragments.size(); ++i)
    if (!fragments[i].has_driver && !fragments[i].sinks.empty()) out.push_back(i);
  return out;
}

namespace {

/// FEOL connectivity of one net at a time: its route segments expand into
/// grid nodes (layers <= split only), and union-find joins adjacent ones.
/// Component ids count up in the order the walk first touches a node. The
/// per-node state sits in flat arrays over the FEOL layers, stamped with
/// the net that wrote it, so one builder serves every net of a split and a
/// net costs O(its nodes), whatever the grid.
class FragmentBuilder {
 public:
  static constexpr std::uint32_t npos = static_cast<std::uint32_t>(-1);

  FragmentBuilder(const RouteGrid& grid, int split)
      : grid_(&grid), split_(split),
        node_(static_cast<std::size_t>(grid.nx()) *
              static_cast<std::size_t>(grid.ny()) *
              static_cast<std::size_t>(split)) {}

  /// Start a new net: every node and component of the previous one is
  /// forgotten.
  void reset() {
    ++stamp_;
    parent_.clear();
    vpin_nodes_.clear();
  }

  void add_segment(const route::RouteSegment& seg) {
    GridPoint cur = seg.a;
    for (;;) {
      GridPoint nxt = cur;
      bool done = (cur == seg.b);
      if (!done) {
        if (cur.x != seg.b.x) nxt.x += (seg.b.x > cur.x) ? 1 : -1;
        else if (cur.y != seg.b.y) nxt.y += (seg.b.y > cur.y) ? 1 : -1;
        else nxt.layer += (seg.b.layer > cur.layer) ? 1 : -1;
      }
      const bool cur_feol = cur.layer <= split_;
      const bool nxt_feol = nxt.layer <= split_;
      if (cur_feol) touch(cur);
      if (!done) {
        if (cur_feol && nxt_feol) {
          link(cur, nxt);
        } else if (cur_feol != nxt_feol) {
          // Crossing the split boundary: the FEOL-side node is a vpin.
          const GridPoint& feol_side = cur_feol ? cur : nxt;
          vpin_nodes_.push_back(grid_->index(feol_side));
        }
        // Remember lateral wire direction at the split layer for dangling
        // hints (both nodes are touched by now, so their stamps are this
        // net's).
        if (cur_feol && nxt_feol && cur.layer == split_ &&
            nxt.layer == split_) {
          const auto dx = static_cast<std::int8_t>(nxt.x - cur.x);
          const auto dy = static_cast<std::int8_t>(nxt.y - cur.y);
          for (const std::size_t idx : {grid_->index(cur), grid_->index(nxt)}) {
            node_[idx].dx = dx;
            node_[idx].dy = dy;
          }
        }
      }
      if (done) break;
      cur = nxt;
    }
  }

  /// Components of the current net; ids are below this.
  std::size_t num_components() const { return parent_.size(); }

  /// Component id of a FEOL node of the current net; npos if the net's FEOL
  /// part does not hold the node.
  std::uint32_t component_of(const GridPoint& g) {
    if (g.layer > split_) return npos;
    const Node& n = node_[grid_->index(g)];
    return n.stamp == stamp_ ? find(n.comp) : npos;
  }

  /// Call `emit(component, vpin)` for every vpin, in the order the walk
  /// crossed the split. The walk touched every vpin's node.
  template <class Emit>
  void for_each_vpin(Emit&& emit) {
    for (const auto nidx : vpin_nodes_) {
      const Node& n = node_[nidx];
      VPin v;
      v.grid = grid_->at(nidx);
      v.pos = grid_->to_um(v.grid);
      v.dir_dx = n.dx;
      v.dir_dy = n.dy;
      emit(find(n.comp), v);
    }
  }

 private:
  /// A FEOL grid node's state, valid for the net whose stamp it carries.
  struct Node {
    std::uint32_t stamp = 0;
    std::uint32_t comp = 0;
    std::int8_t dx = 0;  ///< last split-layer wire direction through it
    std::int8_t dy = 0;
  };

  std::uint32_t touch(const GridPoint& g) {
    Node& n = node_[grid_->index(g)];
    if (n.stamp != stamp_) {
      n = {stamp_, static_cast<std::uint32_t>(parent_.size()), 0, 0};
      parent_.push_back(n.comp);
    }
    return n.comp;
  }
  void link(const GridPoint& a, const GridPoint& b) {
    const std::uint32_t ra = find(touch(a));
    const std::uint32_t rb = find(touch(b));
    if (ra != rb) parent_[ra] = rb;
  }
  std::uint32_t find(std::uint32_t c) {
    while (parent_[c] != c) {
      parent_[c] = parent_[parent_[c]];
      c = parent_[c];
    }
    return c;
  }

  const RouteGrid* grid_;
  int split_;
  std::vector<Node> node_;  ///< by node index; FEOL layers only
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> parent_;  ///< union-find over components
  std::vector<std::size_t> vpin_nodes_;
};

}  // namespace

SplitView split_layout(const Netlist& nl, const place::Placement& pl,
                       const route::RoutingResult& routing,
                       const std::vector<route::RouteTask>& tasks,
                       std::size_t num_net_tasks, int split_layer) {
  if (split_layer < 1 || split_layer >= routing.grid.layers())
    throw std::invalid_argument("split_layout: bad split layer");
  SplitView view;
  view.split_layer = split_layer;

  FragmentBuilder fb(routing.grid, split_layer);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot;  // component -> index into frags, or kNone
  std::vector<Fragment> frags;
  for (std::size_t ti = 0; ti < num_net_tasks && ti < routing.routes.size();
       ++ti) {
    const auto& r = routing.routes[ti];
    if (!r.success || r.net == netlist::kInvalidNet) continue;
    const auto& net = nl.net(r.net);

    fb.reset();
    for (const auto& seg : r.segments) fb.add_segment(seg);

    // Map terminals to components via their pin-layer grid nodes.
    slot.assign(fb.num_components(), kNone);
    frags.clear();
    auto frag_for = [&](std::uint32_t comp) -> Fragment& {
      if (slot[comp] == kNone) {
        slot[comp] = frags.size();
        frags.emplace_back().net = r.net;
      }
      return frags[slot[comp]];
    };

    const GridPoint drv =
        routing.grid.snap(pl.of(net.driver), nl.type_of(net.driver).pin_layer);
    const std::uint32_t drv_comp = fb.component_of(drv);
    if (drv_comp != FragmentBuilder::npos) {
      Fragment& f = frag_for(drv_comp);
      f.has_driver = true;
      f.anchor = pl.of(net.driver);
    }
    for (const auto& s : net.sinks) {
      const GridPoint pin =
          routing.grid.snap(pl.of(s.cell), nl.type_of(s.cell).pin_layer);
      const std::uint32_t comp = fb.component_of(pin);
      if (comp == FragmentBuilder::npos) continue;
      Fragment& f = frag_for(comp);
      f.sinks.push_back(s);
      if (!f.has_driver && f.sinks.size() == 1) f.anchor = pl.of(s.cell);
    }
    fb.for_each_vpin([&](std::uint32_t comp, const VPin& v) {
      frag_for(comp).vpins.push_back(v);
    });
    // Fragments leave in component order, not in the order found above.
    for (std::size_t comp = 0; comp < slot.size(); ++comp) {
      if (slot[comp] == kNone) continue;
      Fragment& f = frags[slot[comp]];
      // A fragment with neither driver nor sink was found through a vpin.
      if (!f.has_driver && f.sinks.empty()) f.anchor = f.vpins.front().pos;
      view.fragments.push_back(std::move(f));
    }
  }
  (void)tasks;
  return view;
}

}  // namespace sm::core
