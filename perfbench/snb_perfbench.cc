// One SNB-Interactive benchmark workload, end to end, in one process.
//
//   snb_perfbench --workload interactive|lookups [--seconds S]
//                 [--datagen-seed N] [--mix-seed N] [--trace 0|1]
//                 [--spans-out PATH] [--update-spin-ns N]
//
// The process generates the dataset from --datagen-seed, bulk-loads it into
// a default-constructed store::GraphStore, builds the operation schedule
// from --mix-seed and replays it through driver::RunWorkload into a
// driver::StoreConnector, exactly as examples/benchmark_run wires them (the
// metrics registry and the sampling profiler stay on). Set-up runs at least
// three times and for at least kSetupBudgetS seconds, and reports the
// median. Replays then take turns for --seconds:
// two unthrottled (acceleration 0: throughput, CPU per op), one throttled
// at the workload's fixed acceleration (open-loop latency, timed from each
// operation's due time to its completion).
//
// Every driver operation passes through RecordingConnector, the only place
// this program times operations. With --trace 1 it keeps one span per
// driver operation (lane, type, due time, Execute begin/end), the set-up
// steps and the single-threaded layer probes are spanned too, and the
// per-layer metrics come from those spans; --spans-out writes them as CSV
// at exit. Without --trace the end-to-end metrics are printed instead.
//
// Output checks fail the run (`"correct": false`) with a named reason:
// every operation succeeds, the store's entity counts equal the bulk plus
// stream totals after each replay that writes, the walk-read count repeats
// exactly across read-only passes, recorded replays see exactly the
// schedule's updates and reads, and recorded lanes conserve time against
// the driver's own wall clock.
// The last stdout line is the JSON result; everything else is commentary.
//
// --update-spin-ns busy-waits in RecordingConnector before every update.
// It exists for perfbench/selftest.py, which checks that the benchmark
// notices a slower write path.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "driver/connectors.h"
#include "driver/driver.h"
#include "driver/query_mix.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "queries/short_queries.h"
#include "queries/update_queries.h"
#include "store/graph_store.h"

namespace {

using namespace snb;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void SpinNs(int64_t ns) {
  int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

/// Nearest-rank percentile; `values` is sorted in place. NaN when empty.
double Percentile(std::vector<double>& values, double pct) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// ---- Workloads --------------------------------------------------------------

constexpr uint32_t kPartitions = 4;
constexpr int kMinSetupRepetitions = 3;
/// Set-up repeats until it has taken this long, so that a small data set
/// reports the median of many repetitions.
constexpr double kSetupBudgetS = 3.0;

/// One benchmark workload. Why each exists is recorded in
/// perfbench/README.md.
struct WorkloadSpec {
  const char* name;
  double scale_factor;
  /// Table 4 frequencies divided by 10 and log-scaled, as benchmark_run.
  bool interactive_mix;
  bool include_updates;
  /// Complex reads restricted to the 1-hop templates Q2/Q7/Q8/Q13, one of
  /// each per virtual update of the read-only schedule.
  bool one_hop_reads_only;
  /// Set-up applies the whole update stream serially before any replay;
  /// replays then never write, so they can repeat on the same store.
  bool apply_stream_in_setup;
  driver::ShortReadWalkConfig walk;
  /// Acceleration of the throttled replays, as a share of the unthrottled
  /// rate measured on a 4-vCPU x86-64 VM: about half on `lookups`, a
  /// quarter on `interactive`, where at half its open-loop p50 spread
  /// 0.19-0.23 of the median across runs (0.09 at a quarter).
  double fixed_acceleration;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"interactive", 0.2, true, true, false, false, {0.5, 0.08}, 1.35e6},
    {"lookups", 1.0, false, false, true, true, {1.0, 0.01}, 7.0e3},
};

driver::QueryMixConfig MakeMix(const WorkloadSpec& spec,
                               const datagen::Dataset& dataset,
                               uint64_t mix_seed) {
  driver::QueryMixConfig mix;
  mix.seed = mix_seed;
  mix.include_updates = spec.include_updates;
  if (spec.interactive_mix) {
    for (auto& f : mix.frequencies) f = std::max<uint32_t>(1, f / 10);
    mix.frequency_scale =
        driver::FrequencyLogScale(dataset.stats.num_persons);
  }
  if (spec.one_hop_reads_only) {
    for (auto& f : mix.frequencies) f = std::numeric_limits<uint32_t>::max();
    for (int q : {2, 7, 8, 13}) mix.frequencies[q - 1] = 1;
  }
  return mix;
}

// ---- Spans ------------------------------------------------------------------

/// One driver operation as RecordingConnector saw it.
struct OpSpan {
  uint16_t op = 0;  // obs::OpType
  util::TimestampMs due = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// A set-up step or a probe, timed on the main thread.
struct StepSpan {
  std::string name;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

obs::OpType OpTypeOf(const driver::Operation& op) {
  switch (op.type) {
    case driver::OperationType::kComplexRead:
      return obs::ComplexOp(op.query_id);
    case driver::OperationType::kShortRead:
      return obs::ShortOp(op.query_id);
    case driver::OperationType::kUpdate:
      break;
  }
  return obs::UpdateOp(op.update_kind == 0 ? 1 : op.update_kind);
}

bool IsUpdate(uint16_t op) {
  return op >= static_cast<uint16_t>(obs::UpdateOp(1)) &&
         op <= static_cast<uint16_t>(obs::UpdateOp(8));
}

/// The connector the driver sees: forwards to StoreConnector and, when
/// recording, keeps one OpSpan per operation in its lane's vector (lanes
/// are the driver's partition threads, numbered in order of first call).
class RecordingConnector : public driver::Connector {
 public:
  RecordingConnector(driver::Connector* inner, bool record,
                     int64_t update_spin_ns, size_t expected_ops)
      : inner_(inner),
        record_(record),
        update_spin_ns_(update_spin_ns),
        generation_(next_generation_.fetch_add(1) + 1) {
    if (record_) {
      for (auto& lane : lanes_) lane.reserve(expected_ops / kPartitions * 2);
    }
  }
  RecordingConnector(const RecordingConnector&) = delete;
  RecordingConnector& operator=(const RecordingConnector&) = delete;

  util::Status Execute(const driver::Operation& op) override {
    if (update_spin_ns_ > 0 && op.type == driver::OperationType::kUpdate) {
      SpinNs(update_spin_ns_);
    }
    if (!record_) return inner_->Execute(op);
    int64_t begin = NowNs();
    util::Status status = inner_->Execute(op);
    int64_t end = NowNs();
    uint32_t lane = ThisLane();
    if (lane < kPartitions) {
      lanes_[lane].push_back({static_cast<uint16_t>(OpTypeOf(op)),
                              op.due_time, begin, end});
    } else {
      overflow_lanes_.fetch_add(1, std::memory_order_relaxed);
    }
    return status;
  }

  const std::array<std::vector<OpSpan>, kPartitions>& lanes() const {
    return lanes_;
  }
  uint64_t overflow_lanes() const { return overflow_lanes_.load(); }

 private:
  uint32_t ThisLane() {
    thread_local uint64_t tls_generation = 0;
    thread_local uint32_t tls_lane = 0;
    if (tls_generation != generation_) {
      tls_generation = generation_;
      tls_lane = next_lane_.fetch_add(1);
    }
    return tls_lane;
  }

  driver::Connector* inner_;
  bool record_;
  int64_t update_spin_ns_;
  uint64_t generation_;
  std::atomic<uint32_t> next_lane_{0};
  std::atomic<uint64_t> overflow_lanes_{0};
  std::array<std::vector<OpSpan>, kPartitions> lanes_;
  static inline std::atomic<uint64_t> next_generation_{0};
};

// ---- Checks -----------------------------------------------------------------

/// Failed output checks, each with a named reason.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& reason) {
    if (!ok) {
      failures.push_back(reason);
      std::printf("CHECK FAILED: %s\n", reason.c_str());
    }
  }
};

struct EntityCounts {
  uint64_t persons = 0, knows = 0, forums = 0, memberships = 0,
           messages = 0, likes = 0;

  bool operator==(const EntityCounts&) const = default;
  std::string ToString() const {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "persons=%llu knows=%llu forums=%llu memberships=%llu "
                  "messages=%llu likes=%llu",
                  (unsigned long long)persons, (unsigned long long)knows,
                  (unsigned long long)forums,
                  (unsigned long long)memberships,
                  (unsigned long long)messages, (unsigned long long)likes);
    return buf;
  }
};

EntityCounts BulkCounts(const schema::SocialNetwork& bulk) {
  return {bulk.persons.size(),     bulk.knows.size(),
          bulk.forums.size(),      bulk.memberships.size(),
          bulk.messages.size(),    bulk.likes.size()};
}

EntityCounts WithStream(EntityCounts counts,
                        const std::vector<datagen::UpdateOperation>& stream) {
  using K = datagen::UpdateKind;
  for (const datagen::UpdateOperation& u : stream) {
    switch (u.kind) {
      case K::kAddPerson: ++counts.persons; break;
      case K::kAddFriendship: ++counts.knows; break;
      case K::kAddForum: ++counts.forums; break;
      case K::kAddForumMembership: ++counts.memberships; break;
      case K::kAddPost:
      case K::kAddComment: ++counts.messages; break;
      case K::kAddLikePost:
      case K::kAddLikeComment: ++counts.likes; break;
    }
  }
  return counts;
}

EntityCounts StoreCounts(const store::GraphStore& store) {
  return {store.NumPersons(),     store.NumKnowsEdges(),
          store.NumForums(),      store.NumMemberships(),
          store.NumMessages(),    store.NumLikes()};
}

void ExpectCounts(Checks& checks, const store::GraphStore& store,
                  const EntityCounts& expected, const std::string& when) {
  EntityCounts actual = StoreCounts(store);
  checks.Expect(actual == expected, "store_counts after " + when +
                                        ": store has " + actual.ToString() +
                                        ", expected " + expected.ToString());
}

// ---- Set-up -------------------------------------------------------------------

struct Setup {
  std::unique_ptr<schema::Dictionaries> dictionaries;
  std::unique_ptr<datagen::Dataset> dataset;
  std::unique_ptr<store::GraphStore> store;
  driver::Workload workload;
  double datagen_s = 0, bulk_load_s = 0, apply_stream_s = 0,
         build_workload_s = 0;
  double Total() const {
    return datagen_s + bulk_load_s + apply_stream_s + build_workload_s;
  }
};

/// Per-kind serial ApplyUpdate latencies (index = datagen::UpdateKind).
using ApplyTimes = std::array<std::vector<double>, 9>;

std::unique_ptr<store::GraphStore> BulkLoaded(const datagen::Dataset& dataset,
                                              Checks& checks) {
  auto store = std::make_unique<store::GraphStore>();
  util::Status status = store->BulkLoad(dataset.bulk);
  checks.Expect(status.ok(), "bulk_load: " + status.ToString());
  return store;
}

/// Applies the whole stream serially; returns seconds, fills `times` (ns).
double ApplyStream(store::GraphStore& store, const datagen::Dataset& dataset,
                   Checks& checks, ApplyTimes* times) {
  int64_t start = NowNs();
  uint64_t failed = 0;
  for (const datagen::UpdateOperation& u : dataset.updates) {
    int64_t begin = NowNs();
    if (!queries::ApplyUpdate(store, u).ok()) ++failed;
    if (times != nullptr) {
      (*times)[static_cast<size_t>(u.kind)].push_back(
          static_cast<double>(NowNs() - begin));
    }
  }
  checks.Expect(failed == 0, "apply_stream: " + std::to_string(failed) +
                                 " updates failed");
  return static_cast<double>(NowNs() - start) / 1e9;
}

Setup RunSetup(const WorkloadSpec& spec, uint64_t datagen_seed,
               uint64_t mix_seed, Checks& checks,
               std::vector<StepSpan>* steps) {
  Setup s;
  auto step = [&](const char* name, auto&& fn) {
    int64_t begin = NowNs();
    fn();
    int64_t end = NowNs();
    if (steps != nullptr) steps->push_back({name, begin, end});
    return static_cast<double>(end - begin) / 1e9;
  };
  s.datagen_s = step("datagen.generate", [&] {
    datagen::DatagenConfig config =
        datagen::DatagenConfig::ForScaleFactor(spec.scale_factor);
    config.seed = datagen_seed;
    s.dictionaries = std::make_unique<schema::Dictionaries>(config.seed);
    s.dataset = std::make_unique<datagen::Dataset>(
        datagen::Generate(config, *s.dictionaries));
  });
  s.bulk_load_s = step("store.bulk_load",
                       [&] { s.store = BulkLoaded(*s.dataset, checks); });
  EntityCounts bulk = BulkCounts(s.dataset->bulk);
  ExpectCounts(checks, *s.store, bulk, "bulk load");
  if (spec.apply_stream_in_setup) {
    s.apply_stream_s = step("store.apply_stream", [&] {
      ApplyStream(*s.store, *s.dataset, checks, nullptr);
    });
    ExpectCounts(checks, *s.store, WithStream(bulk, s.dataset->updates),
                 "stream apply");
  }
  s.build_workload_s = step("driver.build_workload", [&] {
    s.workload = driver::BuildWorkload(*s.dataset, *s.dictionaries,
                                       MakeMix(spec, *s.dataset, mix_seed));
  });
  return s;
}

// ---- Replays ------------------------------------------------------------------

struct ReplayResult {
  bool warmup = false;
  bool throttled = false;
  bool traced = false;
  driver::DriverReport report;
  double cpu_s = 0;
  uint64_t walk_reads = 0;
  // From spans (recorded replays only).
  std::vector<double> latency_ms;     // end - deadline (throttled)
  std::vector<double> start_late_ms;  // begin - deadline (throttled)
  double outside_frac = 0, lane_skew = 0, busy_s = 0;
  /// Share of lanes x driver wall time that no span window covers.
  double unaccounted_frac = 0;
  std::map<uint16_t, std::vector<double>> exec_us;  // per obs::OpType
  /// Traced replays: every span with its lane and deadline (0 unthrottled).
  struct Exported {
    OpSpan span;
    uint32_t lane;
    int64_t deadline_ns;
  };
  std::vector<Exported> spans;
};

/// Lane-time accounting. A lane's busy time is the sum of its Execute
/// spans; its outside time is the rest of the span window (first begin to
/// last end over all lanes): the gaps between its spans, clamped at zero,
/// its lead-in and its tail. Both are checked against the driver's own
/// elapsed time, which the spans do not define: lanes x that wall time
/// must exceed outside + busy by no more than the driver's thread start-up
/// and join, and never fall short of it (spans that overlap or lie outside
/// the driver's run).
void AccountLanes(const RecordingConnector& rec, ReplayResult& r,
                  Checks& checks, int replay) {
  int64_t window_begin = std::numeric_limits<int64_t>::max();
  int64_t window_end = std::numeric_limits<int64_t>::min();
  for (const auto& lane : rec.lanes()) {
    if (lane.empty()) continue;
    window_begin = std::min(window_begin, lane.front().begin_ns);
    window_end = std::max(window_end, lane.back().end_ns);
  }
  if (window_end <= window_begin) return;
  double outside_total = 0, busy_total = 0, busy_max = 0;
  for (const auto& lane : rec.lanes()) {
    double busy = 0, outside = 0;
    int64_t cursor = window_begin;
    for (const OpSpan& s : lane) {
      outside += static_cast<double>(std::max<int64_t>(0, s.begin_ns - cursor));
      busy += static_cast<double>(s.end_ns - s.begin_ns);
      cursor = s.end_ns;
    }
    outside += static_cast<double>(window_end - cursor);
    outside_total += outside;
    busy_total += busy;
    busy_max = std::max(busy_max, busy);
  }
  double lane_time = kPartitions * r.report.elapsed_seconds * 1e9;
  // Thread start-up and join take well under a millisecond per lane; the
  // tolerance leaves room for a scheduler stall of the host.
  constexpr double kTolerance = 0.02;
  double unaccounted = (lane_time - outside_total - busy_total) / lane_time;
  checks.Expect(unaccounted >= 0 && unaccounted <= kTolerance,
                "lane_time_conservation in replay " + std::to_string(replay) +
                    ": lanes x driver wall time exceeds outside + busy by " +
                    std::to_string(unaccounted * 100) + "%");
  r.unaccounted_frac = unaccounted;
  r.outside_frac = outside_total / lane_time;
  r.lane_skew = busy_max / (busy_total / kPartitions);
  r.busy_s = busy_total / 1e9;
}

ReplayResult Replay(const WorkloadSpec& spec, const Setup& setup,
                    store::GraphStore& store, bool throttled, bool traced,
                    int64_t update_spin_ns, Checks& checks, int replay) {
  const std::vector<driver::Operation>& ops = setup.workload.operations;
  obs::MetricsRegistry metrics;
  driver::StoreConnector connector(&store, &setup.dataset->updates,
                                   setup.dictionaries.get(), &metrics,
                                   spec.walk);
  bool record = traced || throttled;
  RecordingConnector rec(&connector, record, update_spin_ns, ops.size());
  driver::DriverConfig config;
  config.num_partitions = kPartitions;
  config.acceleration = throttled ? spec.fixed_acceleration : 0.0;
  config.metrics = &metrics;

  ReplayResult r;
  r.throttled = throttled;
  r.traced = traced;
  double cpu_before = CpuSeconds();
  r.report = driver::RunWorkload(ops, rec, config);
  r.cpu_s = CpuSeconds() - cpu_before;
  driver::PublishStoreMetrics(store, &metrics);
  r.walk_reads = connector.short_reads_executed();

  std::string tag = "replay " + std::to_string(replay);
  checks.Expect(r.report.operations_failed == 0,
                "error_rate in " + tag + ": " +
                    std::to_string(r.report.operations_failed) +
                    " failed ops, first: " + r.report.first_error);
  checks.Expect(r.report.operations_executed == ops.size(),
                "ops_executed in " + tag + ": " +
                    std::to_string(r.report.operations_executed) + " of " +
                    std::to_string(ops.size()));
  if (!record) return r;

  checks.Expect(rec.overflow_lanes() == 0,
                "lane_count in " + tag + ": more lanes than partitions");
  AccountLanes(rec, r, checks, replay);
  // The latency clock is anchored on the Execute calls themselves, never
  // before RunWorkload (the driver partitions the schedule before its own
  // throttle clock starts). The driver starts no operation before its
  // deadline, so every begin - offset(due) lies at or after the driver's
  // clock start; the smallest of them is the anchor, i.e. the schedule is
  // placed so that the most punctual operation started exactly on time.
  util::TimestampMs base_due = ops.front().due_time;
  auto offset_ns = [&](util::TimestampMs due) {
    return static_cast<int64_t>(static_cast<double>(due - base_due) * 1e6 /
                                spec.fixed_acceleration);
  };
  int64_t anchor = std::numeric_limits<int64_t>::max();
  for (const auto& lane : rec.lanes()) {
    for (const OpSpan& s : lane) {
      anchor = std::min(anchor, s.begin_ns - offset_ns(s.due));
    }
  }
  uint64_t spans = 0, update_spans = 0;
  for (uint32_t lane = 0; lane < kPartitions; ++lane) {
    for (const OpSpan& s : rec.lanes()[lane]) {
      ++spans;
      if (IsUpdate(s.op)) ++update_spans;
      int64_t deadline = throttled ? anchor + offset_ns(s.due) : 0;
      if (traced) r.spans.push_back({s, lane, deadline});
      r.exec_us[s.op].push_back(static_cast<double>(s.end_ns - s.begin_ns) /
                                1e3);
      if (throttled) {
        r.latency_ms.push_back(static_cast<double>(s.end_ns - deadline) /
                               1e6);
        r.start_late_ms.push_back(
            static_cast<double>(s.begin_ns - deadline) / 1e6);
      }
    }
  }
  checks.Expect(spans == ops.size(), "span_count in " + tag + ": " +
                                         std::to_string(spans) + " spans for " +
                                         std::to_string(ops.size()) + " ops");
  // Layer separation: updates reach the store only where the schedule has
  // them (none on `lookups`), and every other span is a read.
  checks.Expect(update_spans == setup.workload.num_updates,
                "span_types in " + tag + ": " + std::to_string(update_spans) +
                    " update spans for " +
                    std::to_string(setup.workload.num_updates) +
                    " scheduled updates");
  return r;
}

// ---- Layer probes (single thread, loaded store) -------------------------------

struct Probes {
  double apply_stream_s = 0;
  std::array<double, 9> apply_p50_us{};  // index = UpdateKind
  std::array<double, 15> complex_p50_us{};
  std::array<double, 8> short_p50_ns{};
  double read_lock_ns = 0;
};

/// Probes each layer once on a fresh store that holds the whole network:
/// the serial stream apply that builds it, then complex reads through a
/// walk-less StoreConnector, short reads, and snapshot pins.
Probes RunProbes(const Setup& setup,
                 uint64_t mix_seed, Checks& checks,
                 std::vector<StepSpan>* steps) {
  Probes p;
  const datagen::Dataset& dataset = *setup.dataset;
  auto span = [&](std::string name, int64_t begin) {
    steps->push_back({std::move(name), begin, NowNs()});
  };

  int64_t begin = NowNs();
  std::unique_ptr<store::GraphStore> store = BulkLoaded(dataset, checks);
  span("probe.bulk_load", begin);
  ApplyTimes apply;
  begin = NowNs();
  p.apply_stream_s = ApplyStream(*store, dataset, checks, &apply);
  span("probe.apply_stream", begin);
  for (size_t k = 1; k <= 8; ++k) {
    p.apply_p50_us[k] = Percentile(apply[k], 50) / 1e3;
  }

  // Complex reads with curated parameters from the interactive mix, so
  // every workload probes all 14 templates on its own data.
  WorkloadSpec interactive = kWorkloads[0];
  driver::Workload mix = driver::BuildWorkload(
      dataset, *setup.dictionaries, MakeMix(interactive, dataset, mix_seed));
  driver::StoreConnector no_walk(&*store, &dataset.updates,
                                 setup.dictionaries.get(), nullptr,
                                 driver::ShortReadWalkConfig{0.0, 0.0});
  std::array<std::vector<double>, 15> complex_us;
  constexpr size_t kPerQuery = 25;
  constexpr int64_t kQueryBudgetNs = 300'000'000;
  std::array<int64_t, 15> spent{};
  for (const driver::Operation& op : mix.operations) {
    if (op.type != driver::OperationType::kComplexRead) continue;
    if (complex_us[op.query_id].size() >= kPerQuery ||
        spent[op.query_id] >= kQueryBudgetNs) {
      continue;
    }
    begin = NowNs();
    util::Status status = no_walk.Execute(op);
    int64_t end = NowNs();
    checks.Expect(status.ok(), "probe Q" + std::to_string(op.query_id) +
                                   ": " + status.ToString());
    steps->push_back({"probe.Q" + std::to_string(op.query_id), begin, end});
    complex_us[op.query_id].push_back(static_cast<double>(end - begin) / 1e3);
    spent[op.query_id] += end - begin;
  }
  for (int q = 1; q <= 14; ++q) {
    p.complex_p50_us[q] = Percentile(complex_us[q], 50);
  }

  // Short reads over an even sample of persons and their recent messages.
  std::vector<schema::PersonId> persons;
  {
    auto pin = store->ReadLock();
    std::vector<schema::PersonId> all = store->PersonIds(pin);
    size_t stride = std::max<size_t>(1, all.size() / 256);
    for (size_t i = 0; i < all.size(); i += stride) persons.push_back(all[i]);
  }
  std::vector<schema::MessageId> messages;
  for (schema::PersonId person : persons) {
    for (const auto& m : queries::ShortQuery2RecentMessages(*store, person, 2)) {
      messages.push_back(m.message_id);
    }
  }
  std::array<std::vector<double>, 8> short_ns;
  auto time_call = [&](int q, auto&& call) {
    int64_t t = NowNs();
    call();
    short_ns[q].push_back(static_cast<double>(NowNs() - t));
  };
  begin = NowNs();
  for (int pass = 0; pass < 3; ++pass) {
    for (schema::PersonId person : persons) {
      time_call(1, [&] { queries::ShortQuery1PersonProfile(*store, person); });
      time_call(2, [&] { queries::ShortQuery2RecentMessages(*store, person); });
      time_call(3, [&] { queries::ShortQuery3Friends(*store, person); });
    }
    for (schema::MessageId message : messages) {
      time_call(4,
                [&] { queries::ShortQuery4MessageContent(*store, message); });
      time_call(5,
                [&] { queries::ShortQuery5MessageCreator(*store, message); });
      time_call(6, [&] { queries::ShortQuery6MessageForum(*store, message); });
      time_call(7,
                [&] { queries::ShortQuery7MessageReplies(*store, message); });
    }
  }
  span("probe.short_reads", begin);
  for (int q = 1; q <= 7; ++q) p.short_p50_ns[q] = Percentile(short_ns[q], 50);

  // Snapshot pin acquire + release, in batches to amortise the clock.
  begin = NowNs();
  std::vector<double> batch_ns;
  constexpr int kPinsPerBatch = 2000;
  for (int b = 0; b < 50; ++b) {
    int64_t t = NowNs();
    for (int i = 0; i < kPinsPerBatch; ++i) {
      auto pin = store->ReadLock();
    }
    batch_ns.push_back(static_cast<double>(NowNs() - t) / kPinsPerBatch);
  }
  span("probe.read_lock", begin);
  p.read_lock_ns = Percentile(batch_ns, 50);
  return p;
}

// ---- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool WriteSpans(const std::string& path, const std::vector<StepSpan>& steps,
                const std::vector<ReplayResult>& replays) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind,name,replay,lane,deadline_ns,begin_ns,end_ns\n");
  for (const StepSpan& s : steps) {
    std::fprintf(f, "step,%s,,,,%lld,%lld\n", s.name.c_str(),
                 (long long)s.begin_ns, (long long)s.end_ns);
  }
  for (size_t i = 0; i < replays.size(); ++i) {
    for (const ReplayResult::Exported& e : replays[i].spans) {
      std::fprintf(f, "op,%s,%zu,%u,%lld,%lld,%lld\n",
                   obs::OpTypeName(static_cast<obs::OpType>(e.span.op)), i,
                   e.lane, (long long)e.deadline_ns,
                   (long long)e.span.begin_ns, (long long)e.span.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

struct Options {
  std::string workload;
  uint64_t datagen_seed = 0x5eedULL;
  uint64_t mix_seed = 0x5eedULL;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  int64_t update_spin_ns = 0;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--datagen-seed") {
      o->datagen_seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--mix-seed") {
      o->mix_seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(v);
    } else if (flag == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (flag == "--spans-out") {
      o->spans_out = v;
    } else if (flag == "--update-spin-ns") {
      o->update_spin_ns = std::atoll(v);
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload interactive|lookups "
                 "[--seconds S] [--datagen-seed N] [--mix-seed N] "
                 "[--trace 0|1] [--spans-out PATH] [--update-spin-ns N]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;

  obs::ProvenanceSection prov = obs::BuildProvenance();
  std::printf("workload %s: SF %.2f, %u partitions (%s), fixed acceleration "
              "%.6g, datagen seed %#llx, mix seed %#llx, nproc %u\n",
              spec.name, spec.scale_factor, kPartitions,
              driver::ExecutionModeName(driver::ExecutionMode::kSequentialForum),
              spec.fixed_acceleration, (unsigned long long)opt.datagen_seed,
              (unsigned long long)opt.mix_seed,
              std::thread::hardware_concurrency());
  std::printf("build: git %s, %s, %s, simd %d, sanitizer %s\n",
              prov.git_sha.c_str(), prov.compiler.c_str(),
              prov.build_type.c_str(), prov.simd ? 1 : 0,
              prov.sanitizer.c_str());

  Checks checks;
  std::vector<StepSpan> steps;
  std::vector<StepSpan>* step_log = opt.trace ? &steps : nullptr;

  // Set-up, repeated; the last one is kept for the replays.
  Setup setup;
  std::vector<double> setup_s, datagen_s, bulk_s, build_s;
  double setup_total_s = 0;
  for (int i = 0; i < kMinSetupRepetitions || setup_total_s < kSetupBudgetS;
       ++i) {
    setup = Setup();  // Free the previous dataset before generating again.
    setup = RunSetup(spec, opt.datagen_seed, opt.mix_seed, checks, step_log);
    setup_s.push_back(setup.Total());
    setup_total_s += setup.Total();
    datagen_s.push_back(setup.datagen_s);
    bulk_s.push_back(setup.bulk_load_s);
    build_s.push_back(setup.build_workload_s);
    std::printf("setup %d: %.3f s (datagen %.3f, bulk load %.3f, stream "
                "apply %.3f, build workload %.3f)\n",
                i, setup.Total(), setup.datagen_s, setup.bulk_load_s,
                setup.apply_stream_s, setup.build_workload_s);
  }
  const datagen::Dataset& dataset = *setup.dataset;
  EntityCounts full = WithStream(BulkCounts(dataset.bulk), dataset.updates);
  std::printf("dataset: %llu persons, %llu messages, %zu stream updates, "
              "%.1f CSV-MB; schedule: %zu driver ops (%llu updates, %llu "
              "complex reads)\n",
              (unsigned long long)dataset.stats.num_persons,
              (unsigned long long)dataset.stats.NumMessages(),
              dataset.updates.size(), dataset.stats.csv_bytes / 1e6,
              setup.workload.operations.size(),
              (unsigned long long)setup.workload.num_updates,
              (unsigned long long)setup.workload.num_complex_reads);

  // Measured replays on the sampled, metered program, as benchmark_run
  // ships it. Replay 0 warms the process up (its first pass over fresh
  // memory costs several times the CPU of later ones) and counts only for
  // the checks. Then two unthrottled replays and one throttled replay take
  // turns; with --trace the first unthrottled replay of each turn stays
  // untraced, so traced and untraced throughput come from the same run.
  obs::prof::Enable();
  std::vector<ReplayResult> replays;
  std::unique_ptr<store::GraphStore> store = std::move(setup.store);
  double store_bytes_per_input_byte = 0;
  int64_t measure_start = NowNs();
  for (int i = 0;
       i <= 3 ||
       static_cast<double>(NowNs() - measure_start) / 1e9 < opt.seconds;
       ++i) {
    int turn = (i - 1) % 3;
    bool throttled = i > 0 && turn == 2;
    bool traced = opt.trace && i > 0 && turn > 0;
    if (i > 0 && !spec.apply_stream_in_setup) {
      store.reset();  // One store at a time, as in benchmark_run.
      store = BulkLoaded(dataset, checks);
    }
    ReplayResult r = Replay(spec, setup, *store, throttled, traced,
                            opt.update_spin_ns, checks, i);
    r.warmup = i == 0;
    if (!spec.apply_stream_in_setup) {
      ExpectCounts(checks, *store, full, "replay " + std::to_string(i));
    }
    if (i == 0) {
      store_bytes_per_input_byte =
          static_cast<double>(store->ComputeStorageBreakdown().Total()) /
          static_cast<double>(dataset.stats.csv_bytes);
    }
    double executed = static_cast<double>(
        std::max<uint64_t>(1, r.report.operations_executed));
    std::printf("replay %d (%s%s%s): %llu ops in %.3f s, %.0f ops/s, "
                "%.2f us CPU/op, %llu walk reads\n",
                i, throttled ? "throttled" : "unthrottled",
                traced ? ", traced" : "", i == 0 ? ", warm-up" : "",
                (unsigned long long)r.report.operations_executed,
                r.report.elapsed_seconds, r.report.ops_per_second,
                r.cpu_s * 1e6 / executed, (unsigned long long)r.walk_reads);
    if (throttled || traced) {
      std::printf("  lanes x driver wall time outside the span window: "
                  "%.4f%%\n",
                  r.unaccounted_frac * 100);
    }
    if (throttled) {
      std::vector<double> lat = r.latency_ms;
      size_t n = lat.size();
      std::printf("  open-loop latency over %zu ops: p50 %.4f ms, p99 %.4f "
                  "ms\n",
                  n, Percentile(lat, 50), Percentile(lat, 99));
    }
    replays.push_back(std::move(r));
  }
  if (spec.apply_stream_in_setup) {
    for (const ReplayResult& r : replays) {
      checks.Expect(r.walk_reads == replays[0].walk_reads,
                    "walk_reads: " + std::to_string(r.walk_reads) +
                        " differs from the first pass's " +
                        std::to_string(replays[0].walk_reads));
    }
    ExpectCounts(checks, *store, full, "read-only replays");
  }

  uint64_t attempted = replays.size() * setup.workload.operations.size();
  uint64_t failed = 0;
  for (const ReplayResult& r : replays) {
    failed += r.report.operations_failed;
  }

  // Aggregates over replays of one kind: the median of per-replay values.
  auto over = [&](auto pick, auto keep) {
    std::vector<double> v;
    for (const ReplayResult& r : replays) {
      if (keep(r)) v.push_back(pick(r));
    }
    return v;
  };
  auto unthrottled_untraced = [](const ReplayResult& r) {
    return !r.warmup && !r.throttled && !r.traced;
  };
  auto throttled = [](const ReplayResult& r) { return r.throttled; };
  auto pct_of = [](auto member, double pct) {
    return [member, pct](const ReplayResult& r) {
      std::vector<double> v = r.*member;
      return Percentile(v, pct);
    };
  };
  std::vector<double> ops_s = over(
      [](const ReplayResult& r) { return r.report.ops_per_second; },
      unthrottled_untraced);
  std::vector<double> cpu_us = over(
      [](const ReplayResult& r) {
        return r.cpu_s * 1e6 /
               static_cast<double>(r.report.operations_executed);
      },
      unthrottled_untraced);
  size_t latency_samples = 0;
  for (const ReplayResult& r : replays) {
    if (r.throttled) latency_samples += r.latency_ms.size();
  }
  std::printf("%zu unthrottled and %zu throttled replays; %zu latency "
              "samples\n",
              ops_s.size(), over(pct_of(&ReplayResult::latency_ms, 50),
                                 throttled).size(),
              latency_samples);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"throughput_ops_s", Median(ops_s), "ops/s"},
        {"cpu_us_per_op", Median(cpu_us), "us"},
        {"op_p50_ms",
         Median(over(pct_of(&ReplayResult::latency_ms, 50), throttled)),
         "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"store_bytes_per_input_byte", store_bytes_per_input_byte, "ratio"},
    };
  } else {
    auto traced_unthrottled = [](const ReplayResult& r) {
      return r.traced && !r.throttled;
    };
    auto field = [](double ReplayResult::*member) {
      return [member](const ReplayResult& r) { return r.*member; };
    };
    std::vector<double> traced_ops_s = over(
        [](const ReplayResult& r) { return r.report.ops_per_second; },
        traced_unthrottled);
    std::printf("throughput_ops_s untraced %.0f vs traced %.0f\n",
                Median(ops_s), Median(traced_ops_s));
    // In-replay Execute time per operation type, for the commentary and
    // the span file; the gated per-layer set below is defined on every
    // workload.
    std::map<uint16_t, std::vector<double>> exec_us;
    for (const ReplayResult& r : replays) {
      if (!traced_unthrottled(r)) continue;
      for (const auto& [op, v] : r.exec_us) {
        exec_us[op].insert(exec_us[op].end(), v.begin(), v.end());
      }
    }
    std::vector<double> all_exec;
    for (auto& [op, v] : exec_us) {
      all_exec.insert(all_exec.end(), v.begin(), v.end());
      size_t n = v.size();
      double p50 = Percentile(v, 50), p99 = Percentile(v, 99);
      std::printf("  sut.%-10s %8zu spans  p50 %9.2f us  p99 %9.2f us\n",
                  obs::OpTypeName(static_cast<obs::OpType>(op)), n, p50, p99);
    }
    Probes probes = RunProbes(setup, opt.mix_seed, checks, &steps);
    metrics = {
        {"datagen.generate_s", Median(datagen_s), "s"},
        {"driver.build_workload_s", Median(build_s), "s"},
        {"store.bulk_load_s", Median(bulk_s), "s"},
        {"store.apply_stream_s", probes.apply_stream_s, "s"},
        {"driver.outside_frac",
         Median(over(field(&ReplayResult::outside_frac), traced_unthrottled)),
         "fraction"},
        {"driver.lane_skew",
         Median(over(field(&ReplayResult::lane_skew), traced_unthrottled)),
         "ratio"},
        {"driver.start_late_p50_ms",
         Median(over(pct_of(&ReplayResult::start_late_ms, 50), throttled)),
         "ms"},
        {"driver.start_late_p99_ms",
         Median(over(pct_of(&ReplayResult::start_late_ms, 99), throttled)),
         "ms"},
        {"driver.op_p99_ms",
         Median(over(pct_of(&ReplayResult::latency_ms, 99), throttled)),
         "ms"},
        {"driver.on_time_pct",
         Median(over(
             [](const ReplayResult& r) {
               return r.report.compliance.on_time_fraction * 100.0;
             },
             throttled)),
         "%"},
        {"driver.traced_throughput_ops_s", Median(traced_ops_s), "ops/s"},
        {"driver.untraced_throughput_ops_s", Median(ops_s), "ops/s"},
        {"sut.op_p50_us", Percentile(all_exec, 50), "us"},
        {"sut.op_p99_us", Percentile(all_exec, 99), "us"},
        {"sut.busy_s",
         Median(over(field(&ReplayResult::busy_s), traced_unthrottled)), "s"},
        {"connector.walk_reads", static_cast<double>(replays[0].walk_reads),
         "count"},
        {"store.read_lock_ns", probes.read_lock_ns, "ns"},
    };
    for (int q = 1; q <= 14; ++q) {
      metrics.push_back({"queries.Q" + std::to_string(q) + ".p50_us",
                         probes.complex_p50_us[q], "us"});
    }
    for (int q = 1; q <= 7; ++q) {
      metrics.push_back({"queries.S" + std::to_string(q) + ".p50_ns",
                         probes.short_p50_ns[q], "ns"});
    }
    for (int k = 1; k <= 8; ++k) {
      metrics.push_back({"store.U" + std::to_string(k) + ".apply_p50_us",
                         probes.apply_p50_us[k], "us"});
    }
  }

  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    checks.Expect(std::isfinite(m.value),
                  "metric " + m.name + " has no samples");
  }
  if (opt.trace && !opt.spans_out.empty()) {
    if (!WriteSpans(opt.spans_out, steps, replays)) {
      checks.Expect(false, "spans_out: cannot write " + opt.spans_out);
    } else {
      std::printf("wrote spans to %s\n", opt.spans_out.c_str());
    }
  }
  PrintResult(checks.failures.empty(), attempted, failed, metrics);
  return 0;
}
