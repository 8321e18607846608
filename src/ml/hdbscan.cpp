#include "ml/hdbscan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "common/error.hpp"
#include "ml/cluster_metrics.hpp"
#include "ml/linalg.hpp"

namespace aks::ml {

namespace {

/// An edge of the mutual-reachability MST.
struct MstEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double weight = 0.0;
};

/// A node of the single-linkage dendrogram. Leaves are points 0..n-1;
/// internal nodes are n..2n-2, each merging two children at `distance`.
struct LinkageNode {
  std::size_t left = 0;
  std::size_t right = 0;
  double distance = 0.0;
  std::size_t size = 0;
};

/// Edge of the condensed tree: `child` is either a point (< n) or a
/// condensed cluster id (>= n-offset encoding handled by caller).
struct CondensedEdge {
  std::size_t parent_cluster = 0;
  bool child_is_cluster = false;
  std::size_t child = 0;       // point index or cluster id
  double lambda = 0.0;         // 1 / distance at which the child departed
  std::size_t child_size = 1;  // points under the child
};

std::vector<double> core_distances(const common::Matrix& dist,
                                   std::size_t min_samples) {
  const std::size_t n = dist.rows();
  std::vector<double> core(n);
  std::vector<double> row(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = dist.row(i);
    row.assign(r.begin(), r.end());
    // The point itself (distance 0) counts as its own first neighbour,
    // matching the reference implementation's kth-neighbour convention.
    std::nth_element(row.begin(),
                     row.begin() + static_cast<std::ptrdiff_t>(min_samples),
                     row.end());
    core[i] = row[min_samples];
  }
  return core;
}

std::vector<MstEdge> prim_mst(const common::Matrix& dist,
                              const std::vector<double>& core) {
  const std::size_t n = dist.rows();
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> from(n, 0);
  std::vector<MstEdge> edges;
  edges.reserve(n - 1);

  std::size_t current = 0;
  in_tree[0] = true;
  for (std::size_t added = 1; added < n; ++added) {
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      const double mr =
          std::max({dist(current, j), core[current], core[j]});
      if (mr < best[j]) {
        best[j] = mr;
        from[j] = current;
      }
    }
    std::size_t next = 0;
    double next_weight = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best[j] < next_weight) {
        next_weight = best[j];
        next = j;
      }
    }
    edges.push_back({from[next], next, next_weight});
    in_tree[next] = true;
    current = next;
  }
  return edges;
}

std::vector<LinkageNode> single_linkage(std::vector<MstEdge> edges,
                                        std::size_t n) {
  std::sort(edges.begin(), edges.end(),
            [](const MstEdge& a, const MstEdge& b) { return a.weight < b.weight; });
  // Union-find where each set points at its current dendrogram node.
  std::vector<std::size_t> parent(2 * n - 1);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::vector<std::size_t> set_node(2 * n - 1);
  std::iota(set_node.begin(), set_node.end(), std::size_t{0});
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  std::vector<LinkageNode> nodes(2 * n - 1);
  for (std::size_t i = 0; i < n; ++i) nodes[i].size = 1;
  std::size_t next_node = n;
  for (const auto& edge : edges) {
    const std::size_t ra = find(edge.a);
    const std::size_t rb = find(edge.b);
    const std::size_t na = set_node[ra];
    const std::size_t nb = set_node[rb];
    nodes[next_node].left = na;
    nodes[next_node].right = nb;
    nodes[next_node].distance = edge.weight;
    nodes[next_node].size = nodes[na].size + nodes[nb].size;
    parent[ra] = rb;
    set_node[rb] = next_node;
    ++next_node;
  }
  return nodes;
}

/// Collects the leaf points of a dendrogram subtree.
void collect_points(const std::vector<LinkageNode>& nodes, std::size_t node,
                    std::size_t n, std::vector<std::size_t>& out) {
  if (node < n) {
    out.push_back(node);
    return;
  }
  collect_points(nodes, nodes[node].left, n, out);
  collect_points(nodes, nodes[node].right, n, out);
}

}  // namespace

Hdbscan::Hdbscan(HdbscanOptions options) : options_(options) {
  AKS_CHECK(options_.min_cluster_size >= 2,
            "min_cluster_size must be at least 2");
  AKS_CHECK(options_.min_samples >= 0, "min_samples must be non-negative");
}

void Hdbscan::fit(const common::Matrix& x) {
  const std::size_t n = x.rows();
  AKS_CHECK(n >= 2, "HDBSCAN needs at least 2 points, got " << n);
  const auto mcs = static_cast<std::size_t>(options_.min_cluster_size);
  const std::size_t min_samples =
      options_.min_samples > 0 ? static_cast<std::size_t>(options_.min_samples)
                               : mcs;
  AKS_CHECK(min_samples < n, "min_samples " << min_samples
            << " must be smaller than the number of points " << n);

  // Steps 1-4: distances -> core distances -> MST -> dendrogram.
  const common::Matrix dist = pairwise_distances(x);
  const auto core = core_distances(dist, min_samples);
  const auto mst = prim_mst(dist, core);
  const auto dendrogram = single_linkage(mst, n);
  const std::size_t root = 2 * n - 2;

  // Step 5: condense. Clusters get sequential ids; id 0 is the root
  // cluster containing everything.
  std::vector<CondensedEdge> condensed;
  std::vector<double> birth_lambda{0.0};  // per cluster id
  std::vector<std::size_t> cluster_parent{0};
  std::size_t next_cluster = 1;

  // Iterative DFS over (dendrogram node, owning condensed cluster).
  std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
  std::vector<std::size_t> scratch;
  while (!stack.empty()) {
    const auto [node, cluster] = stack.back();
    stack.pop_back();
    if (node < n) {
      // Singleton reaching its own leaf: departs at infinite density; use
      // the lambda of its final merge (handled by caller edges); points
      // reaching here individually get lambda of their merge distance.
      condensed.push_back({cluster, false, node,
                           std::numeric_limits<double>::infinity(), 1});
      continue;
    }
    const auto& dn = dendrogram[node];
    const double lambda =
        dn.distance > 0.0 ? 1.0 / dn.distance
                          : std::numeric_limits<double>::infinity();
    const std::size_t left_size =
        dendrogram[dn.left].size;
    const std::size_t right_size = dendrogram[dn.right].size;

    const bool left_big = left_size >= mcs;
    const bool right_big = right_size >= mcs;
    if (left_big && right_big) {
      // A true split: two new condensed clusters are born.
      for (const std::size_t child : {dn.left, dn.right}) {
        const std::size_t id = next_cluster++;
        birth_lambda.push_back(lambda);
        cluster_parent.push_back(cluster);
        condensed.push_back(
            {cluster, true, id, lambda, dendrogram[child].size});
        stack.emplace_back(child, id);
      }
    } else if (left_big || right_big) {
      // The small side's points fall out of `cluster` at this lambda.
      const std::size_t big = left_big ? dn.left : dn.right;
      const std::size_t small = left_big ? dn.right : dn.left;
      scratch.clear();
      collect_points(dendrogram, small, n, scratch);
      for (const std::size_t p : scratch) {
        condensed.push_back({cluster, false, p, lambda, 1});
      }
      stack.emplace_back(big, cluster);
    } else {
      // Both sides are too small: every point departs here.
      scratch.clear();
      collect_points(dendrogram, node, n, scratch);
      for (const std::size_t p : scratch) {
        condensed.push_back({cluster, false, p, lambda, 1});
      }
    }
  }

  // Step 6: stabilities and Excess-of-Mass selection.
  std::vector<double> stability(next_cluster, 0.0);
  for (const auto& edge : condensed) {
    double lambda = edge.lambda;
    if (!std::isfinite(lambda)) {
      // Points that never depart contribute at the largest finite lambda
      // seen in their cluster; approximate with birth lambda (their
      // contribution is then zero), the conservative choice.
      lambda = birth_lambda[edge.parent_cluster];
    }
    stability[edge.parent_cluster] +=
        static_cast<double>(edge.child_size) *
        (lambda - birth_lambda[edge.parent_cluster]);
  }

  // Children lists over the cluster tree.
  std::vector<std::vector<std::size_t>> children(next_cluster);
  for (std::size_t c = 1; c < next_cluster; ++c) {
    children[cluster_parent[c]].push_back(c);
  }

  // Process leaves-to-root (ids increase downward, so reverse order works).
  std::vector<bool> selected(next_cluster, false);
  std::vector<double> subtree_stability(next_cluster, 0.0);
  for (std::size_t c = next_cluster; c-- > 1;) {
    double child_sum = 0.0;
    for (const std::size_t ch : children[c]) child_sum += subtree_stability[ch];
    if (children[c].empty() || stability[c] >= child_sum) {
      selected[c] = true;
      subtree_stability[c] = stability[c];
    } else {
      subtree_stability[c] = child_sum;
    }
  }
  // Keep only the outermost selected clusters: BFS from the root and
  // deselect everything below a selected ancestor.
  std::vector<std::pair<std::size_t, bool>> frontier{{0, false}};
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const auto [c, under_selected] = frontier[i];
    if (under_selected) selected[c] = false;
    for (const std::size_t ch : children[c]) {
      frontier.emplace_back(ch, under_selected || selected[c]);
    }
  }
  if (options_.allow_single_cluster) {
    double child_sum = 0.0;
    for (const std::size_t ch : children[0]) child_sum += subtree_stability[ch];
    if (stability[0] > child_sum) {
      std::fill(selected.begin(), selected.end(), false);
      selected[0] = true;
    }
  } else {
    selected[0] = false;
  }

  // Step 7: labels. A point belongs to the innermost selected ancestor of
  // the condensed cluster it departed from.
  std::vector<int> cluster_label(next_cluster, -1);
  int next_label = 0;
  stabilities_.clear();
  for (std::size_t c = 0; c < next_cluster; ++c) {
    if (selected[c]) {
      cluster_label[c] = next_label++;
      stabilities_.push_back(stability[c]);
    }
  }
  auto resolve_label = [&](std::size_t cluster) {
    std::size_t cur = cluster;
    while (true) {
      if (selected[cur]) return cluster_label[cur];
      if (cur == 0) return -1;
      cur = cluster_parent[cur];
    }
  };

  labels_.assign(n, -1);
  probabilities_.assign(n, 0.0);
  std::vector<double> point_lambda(n, 0.0);
  std::vector<double> max_lambda(next_cluster, 0.0);
  for (const auto& edge : condensed) {
    if (edge.child_is_cluster) continue;
    const int label = resolve_label(edge.parent_cluster);
    labels_[edge.child] = label;
    if (std::isfinite(edge.lambda)) {
      point_lambda[edge.child] = edge.lambda;
    }
  }
  for (const auto& edge : condensed) {
    if (edge.child_is_cluster || labels_[edge.child] < 0) continue;
    if (std::isfinite(edge.lambda)) {
      auto& m = max_lambda[edge.parent_cluster];
      m = std::max(m, edge.lambda);
    }
  }
  for (const auto& edge : condensed) {
    if (edge.child_is_cluster || labels_[edge.child] < 0) continue;
    const double m = max_lambda[edge.parent_cluster];
    probabilities_[edge.child] =
        m > 0.0 ? std::min(1.0, point_lambda[edge.child] / m) : 1.0;
  }

  num_clusters_ = static_cast<std::size_t>(next_label);
  fitted_ = true;
}

std::vector<std::size_t> Hdbscan::medoid_rows(const common::Matrix& x) const {
  AKS_CHECK(fitted_, "HDBSCAN used before fit");
  return ml::medoid_rows(x, labels_, num_clusters_);
}

}  // namespace aks::ml
