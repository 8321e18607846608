// The serving workloads: SelectionService in front of the paper's trained
// selector (serve_hot) and in front of an OnlineTuner with a persistent
// store (serve_churn). Clients run in a closed loop, one per hardware
// thread, each waiting for its reply before the next request. Both run the
// same session: resolve one model graph with select_batch(), as a framework
// does at graph build, then run inference steps of one select() per layer.
// serve_hot's graphs are all warm; serve_churn's keep arriving new.
#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/pruning.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/extract.hpp"
#include "dataset/lowering.hpp"
#include "dataset/networks.hpp"
#include "perfmodel/cost_model.hpp"
#include "serve/selection_service.hpp"
#include "store/selection_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace gemm = aks::gemm;
namespace serve = aks::serve;

namespace {

using Configs = std::vector<gemm::KernelConfig>;
using Shapes = std::vector<gemm::GemmShape>;

/// Starts `clients` threads running body(client, start_ns, deadline_ns)
/// together and joins them.
template <typename Body>
void run_clients(std::size_t clients, double seconds, Body&& body) {
  std::atomic<std::size_t> ready{0};
  std::atomic<std::int64_t> start{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      std::int64_t t0 = 0;
      while ((t0 = start.load()) == 0) std::this_thread::yield();
      body(c, t0, t0 + static_cast<std::int64_t>(seconds * 1e9));
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start.store(now_ns());
  for (auto& t : threads) t.join();
}

/// Shapes of one network's graph at one batch size, as a framework lowers
/// it before picking kernels for every layer at once.
Shapes lowered_graph(const aks::data::Network& network, int batch) {
  Shapes shapes;
  for (const auto& lowered : aks::data::lower_network(network, {batch})) {
    shapes.push_back(lowered.shape);
  }
  return shapes;
}

// Inference steps a session runs on its graph after resolving it, one
// select() per layer each. aks_tune serve makes as many passes over the
// shapes it serves (--repeats, default 20).
constexpr int kStepsPerSession = 20;

// One select() call in kTimedEvery is client-timed; the others run
// untimed, so the clock reads (tens of ns each on a VM) stay a small share
// of the measured throughput. Completions are attributed to the slot of
// the next timed call.
constexpr std::uint64_t kTimedEvery = 8;

// Throughput is recorded per fixed time slot of the window and reported as
// the mean and the median of the slot rates; a short stall of the machine
// moves the median less than the mean.
constexpr std::int64_t kSlotNs = 100'000'000;

/// Completed calls per kSlotNs slot since a common start.
class SlotCounts {
 public:
  SlotCounts() = default;
  SlotCounts(std::int64_t start, double seconds)
      : start_(start),
        counts_(static_cast<std::size_t>(seconds * 1e9) / kSlotNs + 2, 0) {}
  void add(std::int64_t at, std::uint64_t n = 1) {
    const auto slot = static_cast<std::size_t>((at - start_) / kSlotNs);
    if (slot < counts_.size()) counts_[slot] += n;
  }
  /// Calls per second in each whole slot of the window, all clients summed.
  [[nodiscard]] static std::vector<double> rates(
      const std::vector<SlotCounts>& all, double seconds) {
    const auto whole = static_cast<std::size_t>(seconds * 1e9) / kSlotNs;
    std::vector<double> out;
    for (std::size_t i = 0; i < whole; ++i) {
      std::uint64_t n = 0;
      for (const SlotCounts& c : all) n += c.counts_[i];
      out.push_back(static_cast<double>(n) * 1e9 / kSlotNs);
    }
    return out;
  }

 private:
  std::int64_t start_ = 0;
  std::vector<std::uint64_t> counts_;
};

// Where client time goes. Each session phase is timed as a whole, two clock
// reads per phase, not per call; the rest of client time (draws, loop,
// clock reads) is "other".
enum Phase : std::size_t {
  kLower,
  kColdBatch,
  kWarmBatch,
  kSteps,
  kFlush,
  kPhases
};
constexpr std::array<const char*, kPhases> kPhaseNames = {
    "lower", "cold_batch", "warm_batch", "steps", "flush"};

/// What one client measured in the session loop.
struct Client {
  LatencyHistogram select_ns;
  SlotCounts select_slots;
  std::array<std::int64_t, kPhases> phase_ns{};
  /// From the start of the window to the end of the client's last session.
  std::int64_t client_ns = 0;
  std::uint64_t selects = 0;
  std::uint64_t batches = 0;
  std::uint64_t sessions = 0;
  std::uint64_t wrong = 0;
};

/// Runs the inference steps of a session on its resolved graph and returns
/// their end time. Every kTimedEvery-th select() is client-timed.
std::int64_t run_steps(serve::SelectionService& service, const Shapes& shapes,
                       const Configs& answers, Client& me) {
  Span steps_span("client.steps");
  const std::int64_t start = now_ns();
  std::uint64_t untimed = 0;
  for (int step = 0; step < kStepsPerSession; ++step) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (++me.selects % kTimedEvery != 0) {
        if (!(service.select(shapes[i]) == answers[i])) ++me.wrong;
        ++untimed;
        continue;
      }
      const std::int64_t t0 = now_ns();
      gemm::KernelConfig answer;
      {
        Span span("serve.select");
        answer = service.select(shapes[i]);
      }
      const std::int64_t t1 = now_ns();
      me.select_ns.add(t1 - t0);
      me.select_slots.add(t1, untimed + 1);
      untimed = 0;
      if (!(answer == answers[i])) ++me.wrong;
    }
  }
  const std::int64_t end = now_ns();
  me.select_slots.add(end, untimed);
  me.phase_ns[kSteps] += end - start;
  return end;
}

/// Records the share of client time each session phase took, all clients
/// summed, as share.<phase>.
template <typename C>
void record_client_time(const std::vector<C>& clients, Report& report) {
  std::array<double, kPhases> phase_ns{};
  double client_ns = 0.0;
  for (const Client& me : clients) {
    client_ns += static_cast<double>(me.client_ns);
    for (std::size_t p = 0; p < kPhases; ++p) {
      phase_ns[p] += static_cast<double>(me.phase_ns[p]);
    }
  }
  double other = 1.0;
  for (std::size_t p = 0; p < kPhases; ++p) {
    const double share = phase_ns[p] / std::max(1.0, client_ns);
    report.value(std::string("share.") + kPhaseNames[p], share);
    other -= share;
  }
  report.value("share.other", other);
}

/// Geomean, as a percentage, of the dataset score of the configuration the
/// service now serves for every corpus row.
double served_pct_of_optimal(serve::SelectionService& service,
                             const aks::data::PerfDataset& dataset) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < dataset.num_shapes(); ++r) {
    const auto config = service.select(dataset.shapes()[r].shape);
    ratios.push_back(dataset.scores()(r, gemm::config_index(config)));
  }
  return 100.0 * aks::common::geometric_mean(ratios);
}

void record_service_stats(const serve::ServiceStats& stats, Report& report) {
  const auto hits = static_cast<double>(stats.hits);
  const auto misses = static_cast<double>(stats.misses);
  report.value("serve.misses", misses);
  report.value("serve.hit_ratio", hits / std::max(1.0, hits + misses));
  report.value("serve.coalesced_waits",
               static_cast<double>(stats.coalesced_waits));
  report.value("serve.duplicate_sweeps",
               static_cast<double>(stats.duplicate_sweeps));
  report.value("serve.warmup_s", stats.warmup_seconds);
  report.value("serve.batch_dedup_ratio",
               static_cast<double>(stats.batch_dedup) /
                   std::max(1.0, static_cast<double>(stats.batch_shapes)));
  if (stats.duplicate_sweeps != 0) {
    report.fail(std::to_string(stats.duplicate_sweeps) + " duplicate sweeps");
  }
  if (stats.warmup_failures != 0) {
    report.fail(std::to_string(stats.warmup_failures) + " warm-up failures");
  }
}


// ---------------------------------------------------------------- serve_hot

// Sessions whose spans the traced run keeps whole: one in N per client.
constexpr std::uint64_t kHotSampleEvery = 512;

struct HotStack {
  aks::data::PerfDataset dataset;
  std::unique_ptr<aks::select::KernelSelector> selector;
  std::unique_ptr<serve::SelectionService> service;
};

struct Graph {
  Shapes shapes;
  Configs expected;
  std::vector<std::array<double, 3>> features;
};

struct HotClient : Client {
  LatencyHistogram batch_ns_per_shape;
};

}  // namespace

void run_serve_hot(const Options& options, Report& report) {
  const std::size_t clients = client_count();
  // The benchmark's own buffers come first; peak_rss_mb leaves them out.
  std::vector<HotClient> results(clients);
  // The deployed pipeline: DecisionTree prune at budget 8, DecisionTree
  // selector trained on the shipped dataset, served with the 172-row corpus
  // warmed. The seed draws the sessions' graphs.
  auto stack = report.timed_setup([&] {
    auto s = std::make_unique<HotStack>();
    s->dataset = aks::data::build_paper_dataset();
    aks::select::PipelineOptions pipeline_options;
    pipeline_options.num_configs = kBudget;
    s->selector = aks::select::run_pipeline(s->dataset, pipeline_options)
                      .selector;
    s->service = std::make_unique<serve::SelectionService>(*s->selector);
    for (const auto& row : s->dataset.shapes()) {
      static_cast<void>(s->service->select(row.shape));
    }
    return s;
  });
  const auto& selector = *stack->selector;
  serve::SelectionService& service = *stack->service;

  // The graphs the corpus was extracted from: every paper network at each
  // of its extraction batch sizes. All their shapes are warm.
  std::vector<Graph> graphs;
  const aks::data::ExtractionOptions extraction;
  for (const auto& network : aks::data::paper_networks()) {
    for (const int batch : extraction.batches_for(network.name)) {
      Graph g{lowered_graph(network, batch), {}, {}};
      for (const auto& shape : g.shapes) {
        g.expected.push_back(selector.select_config(shape));
        g.features.push_back({static_cast<double>(shape.m),
                              static_cast<double>(shape.k),
                              static_cast<double>(shape.n)});
      }
      graphs.push_back(std::move(g));
    }
  }

  if (options.trace) enable_tracing(kHotSampleEvery);
  run_clients(
      clients, options.seconds,
      [&](std::size_t c, std::int64_t start, std::int64_t deadline) {
        HotClient& me = results[c];
        me.select_slots = SlotCounts(start, options.seconds);
        aks::common::Rng rng(derive_seed(options.seed, 100 + c));
        std::int64_t end = start;
        while (end < deadline) {
          begin_request((static_cast<std::uint64_t>(c) << 48) | me.sessions);
          Span session_span("client.session");
          const Graph& g = graphs[rng.uniform_index(graphs.size())];
          const std::int64_t t0 = now_ns();
          Configs answers;
          {
            Span span("serve.select_batch");
            answers = service.select_batch(g.shapes);
          }
          const std::int64_t t1 = now_ns();
          me.phase_ns[kWarmBatch] += t1 - t0;
          me.batch_ns_per_shape.add(
              (t1 - t0) / static_cast<std::int64_t>(g.shapes.size()));
          ++me.batches;
          if (answers != g.expected) ++me.wrong;
          end = run_steps(service, g.shapes, g.expected, me);
          if (tracing() && me.sessions % kHotSampleEvery == 0) {
            // The cost the cache competes with: the selector itself on the
            // same graph, outside the client-timed calls.
            for (const auto& f : g.features) {
              Span span("selector.predict");
              static_cast<void>(selector.select(f));
            }
          }
          ++me.sessions;
        }
        me.client_ns = end - start;
      });

  std::size_t own_bytes = 0;
  for (const HotClient& me : results) {
    own_bytes += me.select_ns.bytes() + me.batch_ns_per_shape.bytes();
  }
  report.mark_peak_rss(own_bytes);
  std::uint64_t operations = 0;
  std::uint64_t wrong = 0;
  std::vector<SlotCounts> slots;
  for (const HotClient& me : results) {
    slots.push_back(me.select_slots);
    report.histogram("select_ns").merge(me.select_ns);
    report.histogram("batch_ns_per_shape").merge(me.batch_ns_per_shape);
    operations += me.selects + me.batches;
    wrong += me.wrong;
  }
  for (std::uint64_t i = 0; i < wrong; ++i) {
    report.fail("serve_hot answer differs from selector.select(shape)");
  }
  report.attempted(operations);
  report.samples("select_slot_rate", SlotCounts::rates(slots, options.seconds));
  record_client_time(results, report);
  report.value("pct_of_optimal",
               served_pct_of_optimal(service, stack->dataset));
  record_service_stats(service.stats(), report);
}

// -------------------------------------------------------------- serve_churn

namespace {

// A never-seen (network, batch) graph arrives every kArrivalNs; other
// sessions reuse graphs that already arrived. A clock, not the clients'
// pace, keeps the number of cold graphs, and with it the growth of cache
// and store, the same on every commit. The period is a free choice within
// two limits: a 10 s run sees 1250 arrivals, more than the 1000 a p99 cold
// latency needs (ten beyond it), and the pool of arrivals, every network at
// batch sizes 1 to kLongestRunNs / kArrivalNs / networks, lasts the longest
// run run.py allows.
constexpr std::int64_t kArrivalNs = 8'000'000;
constexpr std::int64_t kLongestRunNs = 60'000'000'000;
// Client 0 flushes the store at its first session boundary after
// kFlushIntervalNs. A flush rescans the whole journal, so a clock, not a
// session count, keeps the flush work the same whatever client 0's pace.
// A free choice: every 10 arrivals gives 125 flushes a 10 s run, enough
// for a p90 flush time (ten beyond it); a p99 would need a journal rescan
// at every arrival.
constexpr std::int64_t kFlushIntervalNs = 10 * kArrivalNs;
constexpr std::uint64_t kChurnSampleEvery = 64;
// The tuner times candidates on the R9 Nano TimingModel as aks_tune serve
// does: 3% lognormal jitter, seed 42, best of 5 runs.
constexpr double kTimingNoise = 0.03;
constexpr std::uint64_t kTimingSeed = 42;
constexpr int kTrialIterations = 5;

struct ChurnStack {
  aks::data::PerfDataset dataset;
  std::unique_ptr<aks::perf::TimingModel> timing;
  std::unique_ptr<aks::select::OnlineTuner> tuner;
  std::unique_ptr<aks::store::SelectionStore> store;
  std::unique_ptr<serve::SelectionService> service;
  double load_ms = 0.0;
  double warm_start_ms = 0.0;
};

/// An OnlineTuner over the DecisionTree-pruned candidates behind the
/// service, warm-started from the journal.
std::unique_ptr<ChurnStack> build_churn_stack(
    const std::filesystem::path& journal) {
  const auto device = aks::perf::DeviceSpec::amd_r9_nano();
  auto s = std::make_unique<ChurnStack>();
  s->dataset = aks::data::build_paper_dataset();
  const auto split = s->dataset.split(0.8, 1);
  const auto candidates =
      aks::select::DecisionTreePruner().prune(split.train, kBudget);
  s->timing = std::make_unique<aks::perf::TimingModel>(device, kTimingNoise,
                                                       kTimingSeed);
  s->tuner = std::make_unique<aks::select::OnlineTuner>(
      candidates, [timing = s->timing.get()](const gemm::KernelConfig& config,
                                             const gemm::GemmShape& shape) {
        Span span("perfmodel.best_of");
        return timing->best_of(config, shape, kTrialIterations);
      });
  std::int64_t t = now_ns();
  s->store = std::make_unique<aks::store::SelectionStore>(journal);
  s->load_ms = seconds_between(t, now_ns()) * 1e3;
  s->service = std::make_unique<serve::SelectionService>(*s->tuner);
  t = now_ns();
  s->service->warm_start(*s->store, device);
  s->warm_start_ms = seconds_between(t, now_ns()) * 1e3;
  return s;
}

struct ChurnClient : Client {
  std::vector<double> cold_graph_us;
  std::vector<double> flush_ms;
  std::uint64_t records_flushed = 0;
};

}  // namespace

void run_serve_churn(const Options& options, Report& report) {
  const auto device = aks::perf::DeviceSpec::amd_r9_nano();
  const std::filesystem::path dir =
      std::filesystem::path(options.scratch_dir) / "serve_churn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path journal = dir / "selections.journal";

  // The benchmark's own buffers come first; peak_rss_mb leaves them out.
  const std::size_t clients = client_count();
  std::vector<ChurnClient> results(clients);
  // Arrival order of (network, batch) graphs: the networks take turns, so
  // the mix of graph sizes is the same for every seed, and each network's
  // batch sizes are drawn without replacement.
  const auto networks = aks::data::paper_networks();
  const auto pool_batches = static_cast<int>(
      kLongestRunNs / kArrivalNs /
      static_cast<std::int64_t>(networks.size()) + 1);
  std::vector<std::vector<int>> batches(networks.size());
  aks::common::Rng order_rng(derive_seed(options.seed, 3));
  for (auto& order : batches) {
    for (int b = 1; b <= pool_batches; ++b) order.push_back(b);
    order_rng.shuffle(order);
  }
  std::vector<std::pair<std::size_t, int>> arrivals;
  for (std::size_t i = 0; i < networks.size() * batches[0].size(); ++i) {
    const std::size_t n = i % networks.size();
    arrivals.emplace_back(n, batches[n][i / networks.size()]);
  }
  std::atomic<std::size_t> arrived{0};
  // The answers of each graph's cold resolution, published for the later
  // sessions that reuse the graph to compare against.
  std::vector<Configs> first_answers(arrivals.size());
  std::vector<std::atomic<bool>> published(arrivals.size());

  {
    // Input: the journal of an earlier process that tuned the corpus.
    auto earlier = build_churn_stack(journal);
    for (const auto& row : earlier->dataset.shapes()) {
      static_cast<void>(earlier->service->select(row.shape));
    }
    earlier->store->flush();
  }
  std::vector<double> load_ms;
  std::vector<double> warm_start_ms;
  auto stack = report.timed_setup([&] {
    auto s = build_churn_stack(journal);
    load_ms.push_back(s->load_ms);
    warm_start_ms.push_back(s->warm_start_ms);
    return s;
  });
  report.samples("store.load_ms", load_ms);
  report.samples("store.warm_start_ms", warm_start_ms);
  serve::SelectionService& service = *stack->service;
  aks::store::SelectionStore& store = *stack->store;

  if (options.trace) enable_tracing(kChurnSampleEvery);
  run_clients(
      clients, options.seconds,
      [&](std::size_t c, std::int64_t start, std::int64_t deadline) {
        ChurnClient& me = results[c];
        me.select_slots = SlotCounts(start, options.seconds);
        aks::common::Rng rng(derive_seed(options.seed, 200 + c));
        std::int64_t last_flush = start;
        std::int64_t end = start;
        while (end < deadline) {
          // 1. A due arrival if there is one, else a graph already seen.
          const auto due = std::min<std::size_t>(
              arrivals.size(),
              1 + static_cast<std::size_t>((now_ns() - start) / kArrivalNs));
          std::size_t g = arrived.load();
          bool cold = false;
          if (g < due && arrived.compare_exchange_strong(g, g + 1)) {
            cold = true;
          } else {
            g = rng.uniform_index(std::max<std::size_t>(1, arrived.load()));
          }
          begin_request((static_cast<std::uint64_t>(c) << 48) | me.sessions);
          Span session_span("client.session");
          // 2. Lower the graph.
          const std::int64_t t_lower = now_ns();
          const Shapes shapes =
              lowered_graph(networks[arrivals[g].first], arrivals[g].second);
          // 3. Resolve it in one wave.
          const std::int64_t t0 = now_ns();
          me.phase_ns[kLower] += t0 - t_lower;
          Configs answers;
          {
            Span span("serve.select_batch");
            answers = service.select_batch(shapes);
          }
          const std::int64_t t1 = now_ns();
          me.phase_ns[cold ? kColdBatch : kWarmBatch] += t1 - t0;
          ++me.batches;
          if (cold) {
            me.cold_graph_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
            first_answers[g] = answers;
            published[g].store(true, std::memory_order_release);
          } else if (published[g].load(std::memory_order_acquire) &&
                     answers != first_answers[g]) {
            ++me.wrong;
          }
          // 4. Inference steps: one select() per layer, all hits.
          end = run_steps(service, shapes, answers, me);
          ++me.sessions;
          if (c == 0 && end - last_flush >= kFlushIntervalNs) {
            last_flush = end;
            {
              Span span("store.flush");
              me.records_flushed += store.flush();
            }
            end = now_ns();
            me.flush_ms.push_back(seconds_between(last_flush, end) * 1e3);
            me.phase_ns[kFlush] += end - last_flush;
          }
        }
        me.client_ns = end - start;
      });

  std::size_t own_bytes =
      arrivals.capacity() * sizeof(arrivals[0]) +
      first_answers.capacity() * sizeof(Configs) +
      published.capacity() * sizeof(std::atomic<bool>) +
      networks.size() * batches[0].capacity() * sizeof(int);
  for (const Configs& answers : first_answers) {
    own_bytes += answers.capacity() * sizeof(gemm::KernelConfig);
  }
  for (const ChurnClient& me : results) {
    own_bytes += me.select_ns.bytes() +
                 (me.cold_graph_us.capacity() + me.flush_ms.capacity()) *
                     sizeof(double);
  }
  report.mark_peak_rss(own_bytes);
  std::uint64_t operations = 0;
  std::vector<SlotCounts> slots;
  std::vector<double> cold_graph_us;
  std::vector<double> flush_ms;
  std::uint64_t records_flushed = 0;
  std::uint64_t inconsistent = 0;
  for (ChurnClient& me : results) {
    report.histogram("select_ns").merge(me.select_ns);
    slots.push_back(me.select_slots);
    operations += me.selects + me.batches + me.flush_ms.size();
    cold_graph_us.insert(cold_graph_us.end(), me.cold_graph_us.begin(),
                         me.cold_graph_us.end());
    flush_ms.insert(flush_ms.end(), me.flush_ms.begin(), me.flush_ms.end());
    records_flushed += me.records_flushed;
    inconsistent += me.wrong;
  }
  for (std::uint64_t i = 0; i < inconsistent; ++i) {
    report.fail("serve_churn answer differs from the first answer served");
  }
  report.samples("select_slot_rate", SlotCounts::rates(slots, options.seconds));
  report.samples("cold_graph_us", cold_graph_us);
  report.samples("store.flush_ms", flush_ms);
  record_client_time(results, report);

  // The journal must hold exactly what was served, both as the flushes
  // appended it and after compaction rewrote it. A shape served differently
  // in two graphs cannot match the store twice.
  const std::uint64_t fingerprint = device.fingerprint();
  std::uint64_t lookups = 0;
  const auto check_journal = [&](const char* stage) {
    const aks::store::SelectionStore reloaded(journal);
    for (std::size_t g = 0; g < arrived.load(); ++g) {
      const Shapes shapes =
          lowered_graph(networks[arrivals[g].first], arrivals[g].second);
      for (std::size_t i = 0; i < shapes.size(); ++i, ++lookups) {
        const auto record = reloaded.lookup(fingerprint, shapes[i]);
        if (!record ||
            record->config_index != gemm::config_index(first_answers[g][i])) {
          report.fail(std::string("journal after ") + stage +
                      " differs from the served decision");
        }
      }
    }
  };
  records_flushed += store.flush();
  check_journal("flush");
  const std::int64_t c0 = now_ns();
  store.compact();
  report.value("store.compact_ms", seconds_between(c0, now_ns()) * 1e3);
  check_journal("compact");
  report.value("store.records_flushed", static_cast<double>(records_flushed));
  report.value("store.journal_bytes",
               static_cast<double>(std::filesystem::file_size(journal)));
  const auto write_failures = store.stats().write_failures;
  report.value("store.write_failures", static_cast<double>(write_failures));
  if (write_failures != 0) report.fail("store write failures");
  report.attempted(operations + 2 + lookups);

  report.value("pct_of_optimal",
               served_pct_of_optimal(service, stack->dataset));
  record_service_stats(service.stats(), report);
  report.value("tuner.sweeps",
               static_cast<double>(stack->tuner->cache_misses()));
}

}  // namespace perfbench
