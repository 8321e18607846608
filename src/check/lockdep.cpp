#include "check/lockdep.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

#include "common/json.hpp"

namespace aks::check::lockdep {

namespace {

// Per-thread held stack. Plain POD so thread exit during static teardown
// never runs a destructor that could touch freed registry state.
struct HeldStack {
  std::uint32_t ids[kMaxHeld];
  std::uint32_t depth = 0;       // entries tracked in ids[]
  std::uint32_t overflow = 0;    // holds past kMaxHeld (counted, untracked)
};
thread_local HeldStack tl_held;

std::atomic<bool> g_enabled{true};

// Process-global recording state. The internal mutex is a *raw* std::mutex
// — instrumenting it would recurse — and is only ever a leaf: nothing is
// acquired while it is held.
struct Registry {
  std::mutex mutex;
  std::vector<std::string> names;                    // by class id
  std::map<std::string, std::uint32_t> ids;
  // First-observation held stacks per edge, keyed (from, to).
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::string>>
      witnesses;
  // Held-while-blocking occurrences, keyed (blocked-on id, held-id bitmask).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> violations;
  // Edge counts and per-class acquisition counts, lock-free on the hot path.
  std::array<std::array<std::atomic<std::uint64_t>, kMaxClasses>, kMaxClasses>
      edge_counts{};
  std::array<std::atomic<std::uint64_t>, kMaxClasses> acquisitions{};

  Registry() {
    // Any binary can dump its final lock-order graph at exit.
    // getenv: read-only queries of variables no aks code ever writes.
    if (std::getenv("AKS_LOCKDEP_OUT") != nullptr) {  // NOLINT(concurrency-mt-unsafe)
      std::atexit([] {
        const char* path = std::getenv("AKS_LOCKDEP_OUT");  // NOLINT(concurrency-mt-unsafe)
        if (path == nullptr) return;
        std::ofstream out(path);
        if (out) write_json(capture(), out);
      });
    }
  }
};

// Intentionally leaked: the AKS_LOCKDEP_OUT atexit dump and instrumentation
// from late static destructors must outlive it. (std::atexit inside the
// constructor body registers *before* the static's own destructor would —
// teardown is LIFO, so a function-local static here would be torn down
// before the dump handler runs. A leaked object has no destructor to race.)
Registry& registry() {
  static Registry* const r = new Registry;
  return *r;
}

std::vector<std::string> held_names_locked(Registry& reg,
                                           const HeldStack& held) {
  std::vector<std::string> names;
  names.reserve(held.depth);
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    const std::uint32_t id = held.ids[i];
    names.push_back(id < reg.names.size() ? reg.names[id] : std::string{});
  }
  return names;
}

void record_edge(Registry& reg, std::uint32_t from, std::uint32_t to) {
  if (reg.edge_counts[from][to].fetch_add(1, std::memory_order_relaxed) == 0) {
    // First observation: capture the held stack as the edge's witness.
    std::lock_guard lock(reg.mutex);
    reg.witnesses.emplace(std::make_pair(from, to),
                          held_names_locked(reg, tl_held));
  }
}

/// Writes `s` as a quoted JSON string.
void write_json_string(const std::string& s, std::ostream& out) {
  out << '"' << common::json_escape(s) << '"';
}

/// Tarjan strongly-connected components over the edge graph. Returns the
/// SCC index per class (kMaxClasses for unvisited).
struct SccState {
  std::vector<std::uint32_t> component;
  std::vector<std::vector<std::uint32_t>> members;  // per component, sorted
};

SccState find_sccs(const std::vector<std::vector<std::uint32_t>>& adj) {
  const std::size_t n = adj.size();
  SccState scc;
  scc.component.assign(n, static_cast<std::uint32_t>(n));
  std::vector<std::uint32_t> index(n, 0), lowlink(n, 0);
  std::vector<bool> visited(n, false), on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 1;

  // Iterative Tarjan: frame = (node, next edge position).
  struct Frame {
    std::uint32_t node;
    std::size_t edge = 0;
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (visited[root]) continue;
    std::vector<Frame> frames{{root, 0}};
    visited[root] = true;
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < adj[f.node].size()) {
        const std::uint32_t next = adj[f.node][f.edge++];
        if (!visited[next]) {
          visited[next] = true;
          index[next] = lowlink[next] = next_index++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back({next, 0});
        } else if (on_stack[next]) {
          lowlink[f.node] = std::min(lowlink[f.node], index[next]);
        }
        continue;
      }
      const std::uint32_t node = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().node] =
            std::min(lowlink[frames.back().node], lowlink[node]);
      }
      if (lowlink[node] == index[node]) {
        std::vector<std::uint32_t> members;
        std::uint32_t popped;
        do {
          popped = stack.back();
          stack.pop_back();
          on_stack[popped] = false;
          scc.component[popped] =
              static_cast<std::uint32_t>(scc.members.size());
          members.push_back(popped);
        } while (popped != node);
        std::sort(members.begin(), members.end());
        scc.members.push_back(std::move(members));
      }
    }
  }
  return scc;
}

/// A concrete closed walk inside an SCC, starting/ending at its smallest
/// member — the human-readable shape of the deadlock potential.
std::vector<std::uint32_t> representative_cycle(
    const std::vector<std::vector<std::uint32_t>>& adj,
    const std::vector<std::uint32_t>& members, std::uint32_t component,
    const SccState& scc) {
  const std::uint32_t start = members.front();
  // DFS restricted to the component, looking for a path back to `start`.
  std::vector<std::uint32_t> path{start};
  std::vector<std::size_t> edge_pos{0};
  std::vector<bool> on_path(adj.size(), false);
  on_path[start] = true;
  while (!path.empty()) {
    const std::uint32_t node = path.back();
    bool advanced = false;
    while (edge_pos.back() < adj[node].size()) {
      const std::uint32_t next = adj[node][edge_pos.back()++];
      if (scc.component[next] != component) continue;
      if (next == start && path.size() > 0) return path;
      if (on_path[next]) continue;
      path.push_back(next);
      edge_pos.push_back(0);
      on_path[next] = true;
      advanced = true;
      break;
    }
    if (!advanced && path.back() == node) {
      on_path[node] = false;
      path.pop_back();
      edge_pos.pop_back();
    }
  }
  return {start};  // unreachable for a genuine SCC; defensive
}

}  // namespace

std::uint32_t register_class(const char* name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  const auto it = reg.ids.find(name);
  if (it != reg.ids.end()) return it->second;
  // Last slot is reserved for the overflow class once the table fills, so
  // ids stay in range no matter how many classes a process invents.
  std::string effective = name;
  if (reg.names.size() + 1 >= kMaxClasses) {
    effective = "lockdep.overflow";
    const auto overflow = reg.ids.find(effective);
    if (overflow != reg.ids.end()) return overflow->second;
  }
  const auto id = static_cast<std::uint32_t>(reg.names.size());
  reg.names.push_back(effective);
  reg.ids.emplace(std::move(effective), id);
  return id;
}

std::string class_name(std::uint32_t cls) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  return cls < reg.names.size() ? reg.names[cls] : std::string{};
}

void on_acquire(std::uint32_t cls) {
  if (!g_enabled.load(std::memory_order_relaxed) || cls >= kMaxClasses) return;
  Registry& reg = registry();
  reg.acquisitions[cls].fetch_add(1, std::memory_order_relaxed);
  HeldStack& held = tl_held;
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    record_edge(reg, held.ids[i], cls);
  }
  if (held.depth < kMaxHeld) {
    held.ids[held.depth++] = cls;
  } else {
    ++held.overflow;
  }
}

void on_release(std::uint32_t cls) {
  if (cls >= kMaxClasses) return;
  HeldStack& held = tl_held;
  if (held.overflow > 0) {
    --held.overflow;
    return;
  }
  // Locks usually release LIFO; tolerate out-of-order unlocks by removing
  // the most recent hold of the class.
  for (std::uint32_t i = held.depth; i > 0; --i) {
    if (held.ids[i - 1] == cls) {
      for (std::uint32_t j = i; j < held.depth; ++j) {
        held.ids[j - 1] = held.ids[j];
      }
      --held.depth;
      return;
    }
  }
}

void on_wait_block(std::uint32_t cls) {
  if (!g_enabled.load(std::memory_order_relaxed) || cls >= kMaxClasses) return;
  const HeldStack& held = tl_held;
  std::uint64_t other_mask = 0;
  for (std::uint32_t i = 0; i < held.depth; ++i) {
    if (held.ids[i] != cls) other_mask |= std::uint64_t{1} << held.ids[i];
  }
  if (other_mask == 0) return;
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  ++reg.violations[{cls, other_mask}];
}

std::vector<std::uint32_t> held_by_this_thread() {
  const HeldStack& held = tl_held;
  return {held.ids, held.ids + held.depth};
}

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void reset() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (auto& row : reg.edge_counts) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
  for (auto& acq : reg.acquisitions) acq.store(0, std::memory_order_relaxed);
  reg.witnesses.clear();
  reg.violations.clear();
  tl_held = HeldStack{};
}

Report capture() {
  Registry& reg = registry();
  Report report;
  std::lock_guard lock(reg.mutex);
  const std::size_t n = reg.names.size();

  report.classes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClassInfo info;
    info.id = static_cast<std::uint32_t>(i);
    info.name = reg.names[i];
    info.acquisitions = reg.acquisitions[i].load(std::memory_order_relaxed);
    report.classes.push_back(std::move(info));
  }

  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t from = 0; from < n; ++from) {
    for (std::uint32_t to = 0; to < n; ++to) {
      const std::uint64_t count =
          reg.edge_counts[from][to].load(std::memory_order_relaxed);
      if (count == 0) continue;
      adj[from].push_back(to);
      EdgeInfo edge;
      edge.from = from;
      edge.to = to;
      edge.from_name = reg.names[from];
      edge.to_name = reg.names[to];
      edge.count = count;
      const auto witness = reg.witnesses.find({from, to});
      if (witness != reg.witnesses.end()) edge.witness = witness->second;
      report.edges.push_back(std::move(edge));
    }
  }

  const SccState scc = find_sccs(adj);
  for (std::uint32_t c = 0; c < scc.members.size(); ++c) {
    const auto& members = scc.members[c];
    const bool self_loop =
        members.size() == 1 &&
        reg.edge_counts[members[0]][members[0]].load(
            std::memory_order_relaxed) > 0;
    if (members.size() < 2 && !self_loop) continue;
    CycleInfo cycle;
    cycle.classes = members.size() == 1
                        ? std::vector<std::uint32_t>{members[0]}
                        : representative_cycle(adj, members, c, scc);
    for (const std::uint32_t id : cycle.classes) {
      cycle.names.push_back(reg.names[id]);
    }
    report.cycles.push_back(std::move(cycle));
  }
  std::sort(report.cycles.begin(), report.cycles.end(),
            [](const CycleInfo& a, const CycleInfo& b) {
              return a.classes < b.classes;
            });

  for (const auto& [key, count] : reg.violations) {
    ViolationInfo violation;
    violation.blocked_on =
        key.first < n ? reg.names[key.first] : std::string{};
    for (std::uint32_t id = 0; id < kMaxClasses; ++id) {
      if ((key.second >> id) & 1u) {
        violation.held.push_back(id < n ? reg.names[id] : std::string{});
      }
    }
    violation.count = count;
    report.held_while_blocking.push_back(std::move(violation));
  }
  return report;
}

void write_dot(const Report& report, std::ostream& out) {
  // Edges inside any reported cycle render red so the inversion is visible
  // at a glance in large graphs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hot;
  for (const CycleInfo& cycle : report.cycles) {
    for (std::size_t i = 0; i < cycle.classes.size(); ++i) {
      hot.emplace_back(cycle.classes[i],
                       cycle.classes[(i + 1) % cycle.classes.size()]);
    }
  }
  out << "digraph lockdep {\n  rankdir=LR;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const ClassInfo& cls : report.classes) {
    out << "  \"" << cls.name << "\" [label=\"" << cls.name << "\\n"
        << cls.acquisitions << " acq\"];\n";
  }
  for (const EdgeInfo& edge : report.edges) {
    const bool cyclic =
        std::find(hot.begin(), hot.end(),
                  std::make_pair(edge.from, edge.to)) != hot.end();
    out << "  \"" << edge.from_name << "\" -> \"" << edge.to_name
        << "\" [label=\"" << edge.count << "\"";
    if (cyclic) out << ", color=red, penwidth=2";
    out << "];\n";
  }
  out << "}\n";
}

void write_json(const Report& report, std::ostream& out) {
  out << "{\n  \"classes\": [";
  for (std::size_t i = 0; i < report.classes.size(); ++i) {
    const ClassInfo& cls = report.classes[i];
    out << (i == 0 ? "" : ",") << "\n    {\"id\": " << cls.id
        << ", \"name\": ";
    write_json_string(cls.name, out);
    out << ", \"acquisitions\": " << cls.acquisitions << "}";
  }
  out << "\n  ],\n  \"edges\": [";
  for (std::size_t i = 0; i < report.edges.size(); ++i) {
    const EdgeInfo& edge = report.edges[i];
    out << (i == 0 ? "" : ",") << "\n    {\"from\": ";
    write_json_string(edge.from_name, out);
    out << ", \"to\": ";
    write_json_string(edge.to_name, out);
    out << ", \"count\": " << edge.count << ", \"witness\": [";
    for (std::size_t w = 0; w < edge.witness.size(); ++w) {
      if (w != 0) out << ", ";
      write_json_string(edge.witness[w], out);
    }
    out << "]}";
  }
  out << "\n  ],\n  \"cycles\": [";
  for (std::size_t i = 0; i < report.cycles.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    [";
    const CycleInfo& cycle = report.cycles[i];
    for (std::size_t c = 0; c < cycle.names.size(); ++c) {
      if (c != 0) out << ", ";
      write_json_string(cycle.names[c], out);
    }
    out << "]";
  }
  out << "\n  ],\n  \"held_while_blocking\": [";
  for (std::size_t i = 0; i < report.held_while_blocking.size(); ++i) {
    const ViolationInfo& violation = report.held_while_blocking[i];
    out << (i == 0 ? "" : ",") << "\n    {\"blocked_on\": ";
    write_json_string(violation.blocked_on, out);
    out << ", \"held\": [";
    for (std::size_t h = 0; h < violation.held.size(); ++h) {
      if (h != 0) out << ", ";
      write_json_string(violation.held[h], out);
    }
    out << "], \"count\": " << violation.count << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace aks::check::lockdep
