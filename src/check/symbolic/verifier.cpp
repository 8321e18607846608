#include "check/symbolic/verifier.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/error.hpp"

namespace aks::check::symbolic {

namespace {

Point base_point(const WitnessShape& shape) {
  Point p{};
  p[sym_index(Sym::batch)] = shape.batch;
  p[sym_index(Sym::m)] = shape.m;
  p[sym_index(Sym::k)] = shape.k;
  p[sym_index(Sym::n)] = shape.n;
  return p;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Tile origins a concrete launch assigns along one schedule dimension:
/// multiples of pitch covering [0, extent), extended to the padded launch
/// edge when the dimension is unguarded. Capped — the witness search scans
/// structured small shapes, not exhaustive launches.
std::vector<std::int64_t> origins_of(const ScheduleDim& dim,
                                     std::int64_t extent,
                                     std::int64_t cap) {
  const std::int64_t p = dim.pitch;
  std::int64_t tiles = ceil_div(std::max<std::int64_t>(extent, 1), p);
  if (!dim.guarded) tiles = ceil_div(tiles, dim.wg) * dim.wg;
  tiles = std::min(tiles, cap);
  std::vector<std::int64_t> origins;
  origins.reserve(static_cast<std::size_t>(tiles));
  for (std::int64_t t = 0; t < tiles; ++t) origins.push_back(t * p);
  return origins;
}

bool region_active(const AccessRegion& region, const Point& point) {
  for (const AffineExpr& pre : region.preconditions) {
    if (pre.eval(point) < 0) return false;
  }
  return true;
}

/// One work-item's concrete access rectangle.
struct ConcreteRect {
  std::int64_t ro, co;          // the item's tile origins
  std::int64_t rb, re, cb, ce;  // [rb, re) x [cb, ce)
};

std::vector<ConcreteRect> concrete_items(const AccessSummary& s,
                                         const AccessRegion& region,
                                         const WitnessShape& shape,
                                         std::int64_t origin_cap) {
  Point p = base_point(shape);
  const auto row_origins =
      origins_of(s.schedule[0], s.schedule[0].extent.eval(p), origin_cap);
  const auto col_origins =
      origins_of(s.schedule[1], s.schedule[1].extent.eval(p), origin_cap);
  std::vector<ConcreteRect> items;
  for (const std::int64_t ro : row_origins) {
    for (const std::int64_t co : col_origins) {
      p[sym_index(s.schedule[0].origin)] = ro;
      p[sym_index(s.schedule[1].origin)] = co;
      if (!region_active(region, p)) continue;
      const auto [rb, re] = region.rows.eval(p);
      if (rb >= re) continue;
      const auto [cb, ce] = region.cols.eval(p);
      if (cb >= ce) continue;
      items.push_back({ro, co, rb, re, cb, ce});
    }
  }
  return items;
}

bool concrete_oob(const AccessSummary& s, const AccessRegion& region,
                  const WitnessShape& shape) {
  const BufferModel* buffer = s.find_buffer(region.buffer);
  const Point base = base_point(shape);
  const std::int64_t rows = buffer->rows.eval(base);
  const std::int64_t cols = buffer->cols.eval(base);
  for (const auto& item : concrete_items(s, region, shape, /*origin_cap=*/64)) {
    if (item.rb < 0 || item.re > rows || item.cb < 0 || item.ce > cols) {
      return true;
    }
  }
  return false;
}

bool rects_overlap(const ConcreteRect& a, const ConcreteRect& b) {
  return a.rb < b.re && b.rb < a.re && a.cb < b.ce && b.cb < a.ce;
}

/// True when two *distinct* work-items touch a common cell through the two
/// regions at `shape`.
bool concrete_overlap(const AccessSummary& s, const AccessRegion& first,
                      const AccessRegion& second, const WitnessShape& shape) {
  const auto items_a = concrete_items(s, first, shape, /*origin_cap=*/16);
  const auto items_b = concrete_items(s, second, shape, /*origin_cap=*/16);
  for (const auto& a : items_a) {
    for (const auto& b : items_b) {
      if (a.ro == b.ro && a.co == b.co) continue;  // same work-item
      if (rects_overlap(a, b)) return true;
    }
  }
  return false;
}

/// True when an out-of-range item along schedule dim `dim_index` performs a
/// non-empty access at `shape` (the tail-unguarded condition).
bool concrete_tail(const AccessSummary& s, std::size_t dim_index,
                   const WitnessShape& shape) {
  const std::int64_t extent =
      s.schedule[dim_index].extent.eval(base_point(shape));
  for (const auto& region : s.regions) {
    for (const auto& item :
         concrete_items(s, region, shape, /*origin_cap=*/64)) {
      const std::int64_t origin = dim_index == 0 ? item.ro : item.co;
      if (origin >= extent) return true;
    }
  }
  return false;
}

std::optional<WitnessShape> find_oob_witness(
    const AccessSummary& s, const AccessRegion& region,
    const std::vector<WitnessShape>& candidates) {
  for (const auto& shape : candidates) {
    if (concrete_oob(s, region, shape)) return shape;
  }
  return std::nullopt;
}

std::optional<WitnessShape> find_overlap_witness(
    const AccessSummary& s, const AccessRegion& first,
    const AccessRegion& second, const std::vector<WitnessShape>& candidates) {
  for (const auto& shape : candidates) {
    if (concrete_overlap(s, first, second, shape)) return shape;
  }
  return std::nullopt;
}

/// Proof that the region's `ext` along `dim` stays inside the owning item's
/// [origin, origin + pitch) footprint — the slicing property that makes
/// distinct items' accesses disjoint. Empty regions are trivially sliced.
bool extent_sliced(const Extent& ext, const ScheduleDim& dim,
                   const ShapeDomain& domain) {
  if (ext.end.empty()) return true;
  const AffineExpr origin = AffineExpr::sym(dim.origin);
  if (!prove_nonneg(ext.begin - origin, domain)) return false;
  for (const AffineExpr& end : ext.end) {
    if (prove_nonneg(origin + dim.pitch - end, domain)) return true;
  }
  return false;
}

std::string extent_str(const Extent& ext) {
  if (ext.end.empty()) return "[empty)";
  std::string end = ext.end[0].to_string();
  for (std::size_t i = 1; i < ext.end.size(); ++i) {
    end = "min(" + end + ", " + ext.end[i].to_string() + ")";
  }
  return "[" + ext.begin.to_string() + ", " + end + ")";
}

std::string region_str(const AccessRegion& region) {
  return std::string(region.is_write ? "write" : "read") + " of " +
         region.buffer + " rows " + extent_str(region.rows) + " cols " +
         extent_str(region.cols);
}

}  // namespace

Verdict parse_verdict(std::string_view name) {
  for (const Verdict v : {Verdict::safe, Verdict::unsafe, Verdict::unknown}) {
    if (to_string(v) == name) return v;
  }
  AKS_FAIL("unknown verdict '" << name << "'");
}

std::string WitnessShape::to_string() const {
  std::ostringstream os;
  os << "m=" << m << " k=" << k << " n=" << n;
  if (batch != 1) os << " batch=" << batch;
  return os.str();
}

Diagnostic SymbolicFinding::to_diagnostic(const std::string& kernel) const {
  return {.kind = kind,
          .kernel = kernel,
          .buffer = buffer,
          .index = 0,
          .group_a = kNoGroup,
          .group_b = kNoGroup,
          .message = "[" + rule + "] " + message};
}

ShapeDomain domain_of(const AccessSummary& summary) {
  ShapeDomain domain;
  domain.add_symbol(Sym::m, 1);
  domain.add_symbol(Sym::k, 1);
  domain.add_symbol(Sym::n, 1);
  if (summary.batched) {
    domain.add_symbol(Sym::batch, 1);
    domain.add_symbol(Sym::batch_idx, 0, AffineExpr::sym(Sym::batch) - 1);
  }
  for (const auto& dim : summary.schedule) {
    AffineExpr hi = dim.extent - 1;
    // Unguarded schedules let origins run to the padded launch edge:
    // max origin <= extent - 1 + (wg - 1) * pitch.
    if (!dim.guarded) hi = hi + static_cast<std::int64_t>(dim.wg - 1) * dim.pitch;
    domain.add_symbol(dim.origin, 0, hi);
    domain.add_congruence(dim.origin, dim.pitch, 0);
  }
  return domain;
}

std::vector<WitnessShape> witness_candidates(const AccessSummary& summary) {
  AKS_CHECK(summary.schedule.size() == 2,
            "access summary needs a 2-D tile schedule");
  const auto dim_values = [](const ScheduleDim& dim) {
    const std::int64_t p = dim.pitch;
    const std::int64_t wg = dim.wg;
    std::vector<std::int64_t> values{1, p, p + 1, p * wg, p * wg + p,
                                     p * (wg + 1)};
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  };
  const auto ms = dim_values(summary.schedule[0]);
  const auto ns = dim_values(summary.schedule[1]);
  std::vector<std::int64_t> ks{1, 7, 8};
  for (const int width : summary.staged_vector_widths) {
    ks.push_back(width);
    ks.push_back(width + 1);
  }
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
  const std::vector<std::int64_t> batches =
      summary.batched ? std::vector<std::int64_t>{1, 2}
                      : std::vector<std::int64_t>{1};

  std::vector<WitnessShape> shapes;
  for (const auto m : ms) {
    for (const auto k : ks) {
      for (const auto n : ns) {
        for (const auto b : batches) {
          shapes.push_back({.m = m, .k = k, .n = n, .batch = b});
        }
      }
    }
  }
  return shapes;
}

std::vector<SymbolicFinding> check_capacity(const AccessSummary& summary,
                                            const perf::DeviceSpec& device) {
  std::vector<SymbolicFinding> findings;
  const auto add = [&](std::string_view rule, const std::string& message) {
    findings.push_back({.rule = std::string(rule),
                        .kind = DiagnosticKind::invalid_config,
                        .verdict = Verdict::unsafe,
                        .buffer = {},
                        .message = "on " + device.name + ": " + message,
                        .witness = {}});
  };
  if (summary.work_group_size > device.max_work_group_size) {
    std::ostringstream os;
    os << "work-group size " << summary.work_group_size
       << " exceeds device limit " << device.max_work_group_size;
    add(kRuleCapacityWg, os.str());
  }
  if (summary.local_memory_bytes > device.local_memory_bytes) {
    std::ostringstream os;
    os << "work-group commits " << summary.local_memory_bytes
       << " bytes of local memory; device has " << device.local_memory_bytes;
    add(kRuleCapacityLocalMem, os.str());
  }
  std::vector<int> widths = summary.staged_vector_widths;
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  for (const int width : widths) {
    if (!vector_tail_ok(width, device.vector_width)) {
      std::ostringstream os;
      os << "staged access width " << width
         << " does not tile into native vector width " << device.vector_width;
      add(kRuleCapacityVector, os.str());
    }
  }
  return findings;
}

VerifyResult verify_access_summary(const AccessSummary& summary) {
  AKS_CHECK(summary.schedule.size() == 2,
            "access summary needs a 2-D tile schedule");
  VerifyResult result;
  const ShapeDomain domain = domain_of(summary);
  const auto candidates = witness_candidates(summary);

  const auto add_finding = [&](std::string_view rule, DiagnosticKind kind,
                               const std::string& buffer, std::string message,
                               const std::optional<WitnessShape>& witness) {
    SymbolicFinding finding;
    finding.rule = std::string(rule);
    finding.kind = kind;
    finding.buffer = buffer;
    if (witness) {
      finding.verdict = Verdict::unsafe;
      finding.witness = *witness;
      finding.message =
          std::move(message) + "; counterexample " + witness->to_string();
    } else {
      finding.verdict = Verdict::unknown;
      finding.message = std::move(message) +
                        "; no counterexample found, escalate to checked replay";
    }
    result.findings.push_back(std::move(finding));
  };

  // --- Bounds: every region inside its buffer's rows x cols extents. ---
  for (const auto& region : summary.regions) {
    const BufferModel* buffer = summary.find_buffer(region.buffer);
    AKS_CHECK(buffer != nullptr,
              "region references unknown buffer '" << region.buffer << "'");
    ShapeDomain local = domain;
    for (const AffineExpr& pre : region.preconditions) {
      // Best effort: an unabsorbed precondition merely widens the domain,
      // which stays sound (harder to prove, never wrong).
      local.absorb_constraint(pre);
    }
    const std::pair<const Extent*, const AffineExpr*> axes[] = {
        {&region.rows, &buffer->rows}, {&region.cols, &buffer->cols}};
    for (const auto& [ext, size] : axes) {
      if (ext->end.empty()) continue;  // empty region accesses nothing
      bool proved = prove_nonneg(ext->begin, local);
      if (proved) {
        proved = false;
        for (const AffineExpr& end : ext->end) {
          if (prove_nonneg(*size - end, local)) {
            proved = true;
            break;
          }
        }
      }
      if (!proved) {
        add_finding(kRuleOob, DiagnosticKind::out_of_bounds, buffer->name,
                    region_str(region) + " not provably inside " +
                        buffer->rows.to_string() + " x " +
                        buffer->cols.to_string(),
                    find_oob_witness(summary, region, candidates));
        break;
      }
    }
  }

  // --- Races: write slicing, batch slicing, and read/write separation. ---
  for (const auto& region : summary.regions) {
    if (!region.is_write) continue;
    const BufferModel* buffer = summary.find_buffer(region.buffer);
    const bool sliced =
        extent_sliced(region.rows, summary.schedule[0], domain) &&
        extent_sliced(region.cols, summary.schedule[1], domain);
    if (!sliced) {
      add_finding(kRuleOverlapWw, DiagnosticKind::write_write_race,
                  buffer->name,
                  region_str(region) +
                      " is not sliced to the item's tile footprint",
                  find_overlap_witness(summary, region, region, candidates));
    }
    if (summary.batched && !buffer->batch_sliced) {
      // Two batch entries address the same unsliced buffer: any non-empty
      // write overlaps itself across entries, no search needed.
      const WitnessShape witness{.m = summary.schedule[0].pitch,
                                 .k = 1,
                                 .n = summary.schedule[1].pitch,
                                 .batch = 2};
      const bool nonempty =
          !concrete_items(summary, region, witness, 4).empty();
      add_finding(kRuleOverlapWw, DiagnosticKind::write_write_race,
                  buffer->name,
                  "batched launch writes " + buffer->name +
                      " without per-entry slicing",
                  nonempty ? std::optional<WitnessShape>(witness)
                           : std::nullopt);
    }
    for (const auto& other : summary.regions) {
      if (other.is_write || other.buffer != region.buffer) continue;
      const bool read_sliced =
          extent_sliced(other.rows, summary.schedule[0], domain) &&
          extent_sliced(other.cols, summary.schedule[1], domain);
      if (!read_sliced) {
        add_finding(kRuleOverlapRw, DiagnosticKind::read_write_race,
                    buffer->name,
                    region_str(other) + " overlaps " + region_str(region) +
                        " of other work-items",
                    find_overlap_witness(summary, region, other, candidates));
      }
    }
  }

  // --- Tail: padded out-of-range items of unguarded schedules. ---
  for (std::size_t d = 0; d < summary.schedule.size(); ++d) {
    const ScheduleDim& dim = summary.schedule[d];
    if (dim.guarded || dim.wg <= 1) continue;
    // Witness layout: one real tile along this dimension, so the padded
    // launch contains wg - 1 out-of-range items.
    WitnessShape witness{.m = summary.schedule[0].pitch,
                         .k = 1,
                         .n = summary.schedule[1].pitch,
                         .batch = 1};
    if (concrete_tail(summary, d, witness)) {
      add_finding(kRuleTail, DiagnosticKind::tail_unguarded, {},
                  std::string("unguarded ") + (d == 0 ? "row" : "column") +
                      " schedule accesses memory from padded items",
                  witness);
    }
  }

  // --- Verdict aggregation. ---
  for (const auto& finding : result.findings) {
    if (finding.verdict == Verdict::unsafe) {
      result.verdict = Verdict::unsafe;
      break;
    }
    result.verdict = Verdict::unknown;
  }
  if (result.verdict == Verdict::safe) {
    result.precondition = "M >= 1 && K >= 1 && N >= 1";
    if (summary.batched) result.precondition += " && Batch >= 1";
  } else if (result.verdict == Verdict::unknown) {
    const auto count = static_cast<std::ptrdiff_t>(
        std::min<std::size_t>(candidates.size(), 8));
    result.replay_candidates.assign(candidates.begin(),
                                    candidates.begin() + count);
  }
  return result;
}

}  // namespace aks::check::symbolic
