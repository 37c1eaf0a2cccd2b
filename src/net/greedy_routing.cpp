#include "net/greedy_routing.hpp"

#include <limits>

#include "geom/segment.hpp"
#include "net/node.hpp"

namespace imobif::net {

bool GreedyRouting::usable(NodeId id) const {
  // Dead neighbors linger in tables until their HELLOs time out; skipping
  // them here models the (eventual) table purge without waiting for it,
  // which is what makes local route repair effective.
  const Node* node = medium_.find_node(id);
  return node != nullptr && node->alive();
}

NodeId GreedyRouting::next_hop(const Node& self, NodeId dest) {
  const geom::Vec2 dest_pos = medium_.true_position(dest);
  const double self_dist = geom::distance(self.position(), dest_pos);

  NodeId best = kInvalidNode;
  double best_dist = self_dist;
  for (const NeighborInfo& nb : self.neighbors().snapshot(self.now())) {
    if (nb.id == self.id() || !usable(nb.id)) continue;
    if (nb.id == dest) return dest;  // destination in range: done
    const double d = geom::distance(nb.position, dest_pos);
    if (d < best_dist) {
      best_dist = d;
      best = nb.id;
    }
  }
  return best;
}

NodeId LineBiasedGreedyRouting::next_hop(const Node& self, NodeId dest) {
  const geom::Vec2 dest_pos = medium_.true_position(dest);
  const double self_dist = geom::distance(self.position(), dest_pos);
  const geom::Segment line{self.position(), dest_pos};

  NodeId best = kInvalidNode;
  double best_score = std::numeric_limits<double>::infinity();
  for (const NeighborInfo& nb : self.neighbors().snapshot(self.now())) {
    if (nb.id == self.id() || !usable(nb.id)) continue;
    if (nb.id == dest) return dest;
    const double d = geom::distance(nb.position, dest_pos);
    if (d >= self_dist) continue;  // keep greedy progress guarantee
    const double score = d + line_weight_ * line.distance_to(nb.position);
    if (score < best_score) {
      best_score = score;
      best = nb.id;
    }
  }
  return best;
}

std::vector<NodeId> greedy_path_oracle(const Medium& medium, NodeId source,
                                       NodeId dest) {
  std::vector<NodeId> path{source};
  const geom::Vec2 dest_pos = medium.true_position(dest);
  const Node* dest_node = medium.find_node(dest);
  NodeId current = source;
  // Greedy progress is strictly decreasing in distance, so the path length
  // is bounded; the cap guards against degenerate configurations.
  const std::size_t cap = medium.node_count() + 1;
  while (current != dest && path.size() <= cap) {
    const Node* cur = medium.find_node(current);
    const geom::Vec2 cur_pos = cur->position();
    // A live destination in range ends the walk immediately, exactly like
    // the in-network protocol's "destination is my neighbor" case.
    if (dest_node->alive() &&
        util::Meters{geom::distance(cur_pos, dest_pos)} <=
            medium.comm_range()) {
      path.push_back(dest);
      return path;
    }
    const double cur_dist = geom::distance(cur_pos, dest_pos);
    NodeId best = kInvalidNode;
    double best_dist = cur_dist;
    // Candidates come from the grid, not a scan of every node. The query
    // radius carries a relative pad so the grid's squared-distance cut
    // can never exclude a point the exact linear check below admits; ties
    // in remaining distance break to the lowest id, which reproduces the
    // historical ascending-id scan winner under any visit order.
    medium.grid().for_each_in_range(
        cur_pos, medium.comm_range().value() * (1.0 + 1e-9),
        [&](NodeId cand, geom::Vec2 cand_pos) {
          if (cand == current || cand == dest) return;
          if (util::Meters{geom::distance(cur_pos, cand_pos)} >
              medium.comm_range()) {
            return;
          }
          const Node* node = medium.find_node(cand);
          if (node == nullptr || !node->alive()) return;
          const double d = geom::distance(cand_pos, dest_pos);
          const bool better =
              best == kInvalidNode
                  ? d < best_dist
                  : d < best_dist || (!(best_dist < d) && cand < best);
          if (better) {
            best_dist = d;
            best = cand;
          }
        });
    if (best == kInvalidNode) return {};  // dead end
    path.push_back(best);
    current = best;
  }
  return current == dest ? path : std::vector<NodeId>{};
}

}  // namespace imobif::net
