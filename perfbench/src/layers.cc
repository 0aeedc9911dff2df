// The traced run: the same workload and seed, with the calls into each
// layer's public functions timed from here and the layers' own counters
// read back. Every probe runs on every workload, over that workload's
// rows, index configuration and queries, so the per-layer table has the
// same rows everywhere; README.md names the end-to-end metric each one
// should move, and on which workload.
//
// The index probe runs twice on one unsharded tree: as the workload
// configures it (rowq off), then with rowq codes attached (index.rowq_*),
// so both workloads measure the rowq tier on the query path.
//
// Exact work counters (index.*, shard.series_ed) are deterministic at a
// fixed thread count: every probe that reads them runs twice at one
// thread and fails the run if the two passes differ.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/distance.h"
#include "index/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "quant/lbd.h"
#include "quant/rowq.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace sv = sofa::service;

namespace {

constexpr std::size_t kProbeQueries = 40;   // queries per probe pass
constexpr std::size_t kKernelQueries = 4;   // queries per kernel sweep
constexpr std::size_t kProbeInserts = 1200; // in-process Compactor::Insert
constexpr std::size_t kDeleteEvery = 5;     // one Delete per this many

template <class F>
double TimeMs(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return MsBetween(start, Clock::now());
}

// Checks probe answers against the oracle, counting each as attempted.
class Checker {
 public:
  // Until SetLiveness, the live rows are the base ids [0, base_rows).
  Checker(Oracle* oracle, std::size_t k, std::size_t base_rows,
          RunResult* result)
      : oracle_(oracle), k_(k), result_(result), base_(base_rows, base_rows) {}
  void SetLiveness(const LiveSet* live) { live_ = live; }
  void operator()(std::size_t q, const std::vector<sofa::Neighbor>& answer) {
    ++result_->attempted;
    const std::string why =
        oracle_->Check(q, answer, k_, live_ != nullptr ? *live_ : base_);
    if (!why.empty()) {
      result_->Fail(why);
    }
  }
  void Status(bool ok) {
    if (!ok) {
      ++result_->attempted;
      ++result_->failed;
    }
  }

 private:
  Oracle* oracle_;
  std::size_t k_;
  RunResult* result_;
  LiveSet base_;
  const LiveSet* live_ = nullptr;
};

// ------------------------------------------------------------- kernels

void ProbeKernels(const sofa::Dataset& base, const sofa::Dataset& queries,
                  const sofa::quant::SummaryScheme& scheme,
                  const sofa::quant::RowQuant& rowq, RunResult* out) {
  const std::size_t n = base.size();
  const std::size_t length = base.length();
  const std::size_t word_length = scheme.word_length();
  std::vector<std::uint8_t> words(n * word_length);
  {
    auto scratch = scheme.NewScratch();
    std::vector<float> values(word_length);
    for (std::size_t i = 0; i < n; ++i) {
      scheme.Symbolize(base.row(i), &words[i * word_length], scratch.get(),
                       values.data());
    }
  }
  double sink = 0.0;
  double l2_ms = 0.0;
  double lbd_ms = 0.0;
  double rowq_ms = 0.0;
  std::vector<float> query_values(word_length);
  sofa::AlignedVector<float> padded(rowq.quantizer().padded_length());
  for (std::size_t q = 0; q < kKernelQueries; ++q) {
    const float* query = queries.row(q);
    l2_ms += TimeMs([&] {
      for (std::size_t i = 0; i < n; ++i) {
        sink += sofa::SquaredEuclidean(query, base.row(i), length);
      }
    });
    scheme.Project(query, query_values.data());
    lbd_ms += TimeMs([&] {
      for (std::size_t i = 0; i < n; ++i) {
        sink += sofa::quant::LbdSquared(scheme.table(), scheme.weights(),
                                        query_values.data(),
                                        &words[i * word_length]);
      }
    });
    rowq.quantizer().PadQuery(query, padded.data());
    rowq_ms += TimeMs([&] {
      for (std::size_t i = 0; i < n; ++i) {
        sink += sofa::quant::RowqLowerBoundSquared(
            padded.data(), rowq.quantizer().mins(),
            rowq.quantizer().deltas(), rowq.code(i),
            rowq.quantizer().padded_length());
      }
    });
  }
  const double rows = static_cast<double>(n * kKernelQueries);
  out->Add("core.l2_ns_per_row", l2_ms * 1e6 / rows, "ns");
  out->Add("quant.lbd_ns_per_row", lbd_ms * 1e6 / rows, "ns");
  out->Add("quant.rowq_ns_per_row", rowq_ms * 1e6 / rows, "ns");
  Log("kernels on %s (checksum %.6g)", sofa::DispatchLevelName(), sink);
}

// --------------------------------------------------------------- index

using Profile = sofa::index::QueryProfile;

bool SameWork(const Profile& a, const Profile& b) {
  return a.nodes_visited == b.nodes_visited &&
         a.nodes_pruned == b.nodes_pruned &&
         a.leaves_collected == b.leaves_collected &&
         a.leaves_abandoned == b.leaves_abandoned &&
         a.series_lbd_checked == b.series_lbd_checked &&
         a.series_lbd_pruned == b.series_lbd_pruned &&
         a.series_ed_computed == b.series_ed_computed &&
         a.rowq_checked == b.rowq_checked && a.rowq_pruned == b.rowq_pruned;
}

// Timings and summed one-thread work counters over kProbeQueries queries.
struct IndexProbe {
  std::vector<double> parallel_ms;  // at `threads` threads
  std::vector<double> single_ms;    // at one thread
  Profile total;
};

IndexProbe ProbeIndex(const sofa::index::TreeIndex& tree,
                      const sofa::Dataset& queries, std::size_t k,
                      std::size_t threads, Checker* check, RunResult* out) {
  const sofa::index::QueryEngine engine(&tree);
  IndexProbe probe;
  for (std::size_t q = 0; q < kProbeQueries; ++q) {
    std::vector<sofa::Neighbor> answer;
    probe.parallel_ms.push_back(TimeMs([&] {
      answer = engine.Search(queries.row(q), k, 0.0, nullptr, threads);
    }));
    (*check)(q, answer);
    Profile first;
    Profile second;
    probe.single_ms.push_back(TimeMs([&] {
      answer = engine.Search(queries.row(q), k, 0.0, &first, 1);
    }));
    (*check)(q, answer);
    engine.Search(queries.row(q), k, 0.0, &second, 1);
    if (!SameWork(first, second)) {
      out->Fail("query " + std::to_string(q) +
                ": one-thread work counters differ between two passes");
    }
    probe.total.Merge(first);
  }
  return probe;
}

// --------------------------------------------------------------- shard

void ProbeShards(const sofa::shard::ShardedIndex& sharded,
                 const sofa::Dataset& queries, std::size_t k,
                 std::size_t threads, double single_series_ed, Checker* check,
                 RunResult* out) {
  std::vector<double> search_ms;
  std::vector<double> overhead_ms;
  std::vector<double> merge_us;
  double series_ed = 0.0;
  for (std::size_t q = 0; q < kProbeQueries; ++q) {
    const float* query = queries.row(q);
    Profile first;
    std::vector<sofa::Neighbor> answer;
    const double ms = TimeMs([&] {
      answer = sharded.SearchKnn(query, k, 0.0, &first, threads);
    });
    search_ms.push_back(ms);
    (*check)(q, answer);
    Profile second;
    sharded.SearchKnn(query, k, 0.0, &second, threads);
    if (!SameWork(first, second)) {
      out->Fail("query " + std::to_string(q) +
                ": sharded work counters differ between two passes");
    }
    series_ed += static_cast<double>(first.series_ed_computed);

    // The slowest shard's own one-thread search (scatter runs one task
    // per shard), and the gather alone over the per-shard answers.
    double slowest = 0.0;
    std::vector<std::vector<sofa::Neighbor>> lists(sharded.num_shards());
    for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
      const sofa::shard::Shard& shard = sharded.shard(s);
      const sofa::index::QueryEngine engine(shard.tree.get());
      slowest = std::max(slowest, TimeMs([&] {
                           lists[s] = engine.Search(query, k, 0.0, nullptr, 1);
                         }));
      for (sofa::Neighbor& n : lists[s]) {
        n.id = (*shard.global_ids)[n.id];
      }
    }
    overhead_ms.push_back(ms - slowest);
    std::vector<sofa::Neighbor> merged;
    merge_us.push_back(1e3 * TimeMs([&] {
                         merged = sofa::shard::MergeNeighborLists(
                             std::move(lists), k);
                       }));
    (*check)(q, merged);
  }
  series_ed /= static_cast<double>(kProbeQueries);
  out->Add("shard.search_ms_p50", Percentile(search_ms, 50.0), "ms");
  out->Add("shard.scatter_overhead_ms", Percentile(overhead_ms, 50.0), "ms");
  out->Add("shard.merge_us", Percentile(merge_us, 50.0), "us");
  out->Add("shard.series_ed", series_ed, "count");
  out->Add("shard.series_ed_vs_single",
           single_series_ed > 0.0 ? series_ed / single_series_ed : 0.0,
           "ratio");
}

// ------------------------------------------------- service, obs and net

// Self time of every span: its duration minus the part of it that its
// children cover (children may run in parallel, so their union counts).
void AddSelfTimes(const sofa::obs::TraceRecord& record,
                  std::map<std::string, double>* self_ms) {
  for (std::size_t i = 0; i < record.spans.size(); ++i) {
    const sofa::obs::TraceSpan& span = record.spans[i];
    std::vector<std::pair<double, double>> children;
    for (const sofa::obs::TraceSpan& child : record.spans) {
      if (child.parent == static_cast<int>(i)) {
        children.emplace_back(std::max(child.start_ms, span.start_ms),
                              std::min(child.end_ms, span.end_ms));
      }
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double reach = span.start_ms;
    for (const auto& [start, end] : children) {
      covered += std::max(0.0, end - std::max(start, reach));
      reach = std::max(reach, end);
    }
    (*self_ms)[span.name] += span.end_ms - span.start_ms - covered;
  }
}

void ProbeService(sv::SearchService* service,
                  const std::function<std::vector<sofa::Neighbor>(
                      const float*)>& engine_call,
                  const sofa::Dataset& queries, std::size_t k,
                  std::size_t threads, Checker* check, RunResult* out) {
  std::vector<double> overhead_ms;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::map<std::string, double> self_ms;
  for (std::size_t q = 0; q < kProbeQueries; ++q) {
    std::vector<sofa::Neighbor> direct;
    const double engine_ms =
        TimeMs([&] { direct = engine_call(queries.row(q)); });
    (*check)(q, direct);
    sv::SearchResponse plain;
    plain_ms.push_back(TimeMs(
        [&] { plain = service->Search(MakeRequest(queries, q, k)); }));
    check->Status(plain.status == sofa::StatusCode::kOk);
    (*check)(q, plain.neighbors);
    overhead_ms.push_back(plain_ms.back() - engine_ms);

    sv::SearchRequest request = MakeRequest(queries, q, k);
    request.collect_trace = true;
    sv::SearchResponse traced;
    traced_ms.push_back(
        TimeMs([&] { traced = service->Search(std::move(request)); }));
    check->Status(traced.status == sofa::StatusCode::kOk);
    (*check)(q, traced.neighbors);
    if (traced.trace != nullptr) {
      AddSelfTimes(*traced.trace, &self_ms);
    }
  }
  // A burst with the throughput phases' window outstanding.
  std::deque<std::pair<std::size_t, std::future<sv::SearchResponse>>> burst;
  for (std::size_t i = 0; i < 2 * kProbeQueries; ++i) {
    const std::size_t q = i % kProbeQueries;
    burst.emplace_back(q, service->Submit(MakeRequest(queries, q, k)));
    if (burst.size() >= 8 * threads || i + 1 == 2 * kProbeQueries) {
      while (!burst.empty()) {
        sv::SearchResponse response = burst.front().second.get();
        check->Status(response.status == sofa::StatusCode::kOk);
        (*check)(burst.front().first, response.neighbors);
        burst.pop_front();
      }
    }
  }
  const sv::MetricsSnapshot m = service->Metrics();
  const double n = static_cast<double>(kProbeQueries);
  out->Add("service.overhead_ms_p50", Percentile(overhead_ms, 50.0), "ms");
  for (const char* span : {"admission", "scatter", "shard_scan",
                           "buffer_scan", "merge", "search"}) {
    out->Add(std::string("service.") + span + "_ms", self_ms[span] / n, "ms");
  }
  out->Add("service.batch_size_mean",
           m.throughput_batches == 0
               ? 0.0
               : static_cast<double>(m.throughput_queries) /
                     static_cast<double>(m.throughput_batches),
           "count");
  out->Add("service.latency_mode_queries",
           static_cast<double>(m.latency_queries), "count");
  out->Add("obs.trace_overhead_ms",
           Percentile(traced_ms, 50.0) - Percentile(plain_ms, 50.0), "ms");
}

void ProbeNet(sv::SearchService* service, std::uint16_t port,
              const sofa::Dataset& queries, std::size_t k, Checker* check,
              RunResult* out) {
  sofa::net::SofaClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    out->Fail("cannot connect to the loopback server");
    return;
  }
  std::vector<double> overhead_ms;
  std::map<std::string, double> span_ms;
  for (std::size_t q = 0; q < kProbeQueries; ++q) {
    sv::SearchResponse local;
    const double local_ms = TimeMs(
        [&] { local = service->Search(MakeRequest(queries, q, k)); });
    check->Status(local.status == sofa::StatusCode::kOk);
    sv::SearchResponse remote;
    bool ok = false;
    const double remote_ms = TimeMs([&] {
      ok = client.Search(MakeRequest(queries, q, k), &remote).ok();
    });
    check->Status(ok && remote.status == sofa::StatusCode::kOk);
    (*check)(q, remote.neighbors);
    overhead_ms.push_back(remote_ms - local_ms);

    sv::SearchRequest request = MakeRequest(queries, q, k);
    request.collect_trace = true;
    sofa::net::WireTrace wire;
    ok = client.Search(request, &remote, nullptr, nullptr, &wire).ok();
    check->Status(ok && remote.status == sofa::StatusCode::kOk);
    (*check)(q, remote.neighbors);
    for (const sofa::obs::TraceSpan& span : wire.joined.spans) {
      span_ms[span.name] += span.end_ms - span.start_ms;
    }
  }
  const double n = static_cast<double>(kProbeQueries);
  out->Add("net.rtt_overhead_ms_p50", Percentile(overhead_ms, 50.0), "ms");
  for (const char* span :
       {"serialize", "send", "server_queue", "receive", "decode"}) {
    out->Add(std::string("net.") + span + "_ms", span_ms[span] / n, "ms");
  }
}

// ------------------------------------------------------ ingest, persist

// Bytes this process has handed to write(2) so far (/proc/self/io wchar).
double BytesWritten() {
  std::ifstream io("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (io >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0.0;
}

void ProbeDurable(const RunOptions& options, const Inputs& inputs,
                  std::shared_ptr<const sofa::shard::ShardedIndex> sharded,
                  sofa::ThreadPool* pool, Oracle* oracle, RunResult* out) {
  const WorkloadSpec& spec = *options.spec;
  const std::string dir = ScratchDir(spec, options.seed);
  std::string error;
  std::unique_ptr<DurableStack> stack =
      StartDurable(dir, std::move(sharded), pool, &error);
  if (stack == nullptr) {
    out->Fail(error);
    return;
  }
  // Acknowledged mutations are tallied in `tally`; `live` lists the live
  // ids that deletes pick from.
  LiveSet tally(inputs.base.size(), inputs.base.size() + inputs.holdout.size());
  sofa::Rng rng(options.seed ^ 0xde1e7eULL);
  std::vector<std::uint32_t> live(inputs.base.size());
  for (std::size_t id = 0; id < live.size(); ++id) {
    live[id] = static_cast<std::uint32_t>(id);
  }
  std::vector<double> insert_ms;
  double pending_max = 0.0;
  const double written_before = BytesWritten();
  const std::size_t inserts = std::min(kProbeInserts, inputs.holdout.size());
  std::size_t inserted = 0;
  for (std::size_t i = 0; i < inserts; ++i) {
    const Clock::time_point sent = Clock::now();
    const sofa::StatusOr<std::uint32_t> id = stack->compactor->Insert(
        inputs.holdout.row(inserted), inputs.holdout.length());
    const double ms = MsBetween(sent, Clock::now());
    ++out->attempted;
    if (!id.ok()) {
      ++out->failed;
      continue;
    }
    const std::uint32_t want =
        static_cast<std::uint32_t>(inputs.base.size() + inserted);
    if (*id != want) {
      out->Fail("insert acknowledged as id " + std::to_string(*id) +
                ", expected " + std::to_string(want));
    }
    insert_ms.push_back(ms);
    tally.Insert(want);
    live.push_back(want);
    ++inserted;
    if (i % kDeleteEvery == 0) {
      const std::size_t slot = rng.Below(live.size());
      ++out->attempted;
      if (stack->compactor->Delete(live[slot]).ok()) {
        tally.Delete(live[slot]);
        live[slot] = live.back();
        live.pop_back();
      } else {
        ++out->failed;
      }
    }
    pending_max = std::max(
        pending_max, static_cast<double>(stack->compactor->Metrics().pending));
  }
  const double flush_ms = TimeMs([&] { stack->compactor->Flush(); });
  const sofa::ingest::IngestMetrics metrics = stack->compactor->Metrics();
  const double written = BytesWritten() - written_before;
  const double wal_fsyncs = static_cast<double>(
      stack->registry.GetCounter("sofa_wal_fsync_total")->Value());
  const double commit_ms_p50 =
      stack->registry.GetHistogram("sofa_persist_commit_ms")
          ->data()
          .Percentile(50.0);
  stack.reset();

  sofa::ingest::RecoverStats replay;
  double load_s = 0.0;
  const Clock::time_point restart = Clock::now();
  stack = RecoverDurable(dir, pool, spec.rowq, &replay, &error, &load_s);
  const double restart_s = SecondsSince(restart);
  if (stack == nullptr) {
    out->Fail(error);
    std::filesystem::remove_all(dir);
    return;
  }
  CheckLiveTally(stack->service.get(), inputs, tally, out);
  Checker check(oracle, spec.k, inputs.base.size(), out);
  check.SetLiveness(&tally);
  for (std::size_t q = 0; q < kProbeQueries; ++q) {
    const sv::SearchResponse response =
        stack->service->Search(MakeRequest(inputs.queries, q, spec.k));
    check.Status(response.status == sofa::StatusCode::kOk);
    check(q, response.neighbors);
  }
  stack.reset();
  std::filesystem::remove_all(dir);

  const double row_bytes =
      static_cast<double>(inserted * inputs.holdout.length() * sizeof(float));
  out->Add("ingest.insert_ms_p50", Percentile(insert_ms, 50.0), "ms");
  out->Add("ingest.compactions", static_cast<double>(metrics.compactions),
           "count");
  out->Add("ingest.flush_s", flush_ms / 1e3, "s");
  out->Add("ingest.wal_fsyncs", wal_fsyncs, "count");
  out->Add("ingest.pending_rows_max", pending_max, "count");
  out->Add("persist.commit_ms_p50", commit_ms_p50, "ms");
  out->Add("persist.bytes_per_user_byte",
           row_bytes > 0.0 ? written / row_bytes : 0.0, "ratio");
  out->Add("persist.load_s", load_s, "s");
  out->Add("ingest.replay_s", restart_s - load_s, "s");
}

}  // namespace

RunResult RunLayers(const RunOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  sofa::ThreadPool pool(options.threads);
  const Inputs inputs = MakeInputs(spec, options.seed, &pool);
  RunResult result;

  // sfa, index build and rowq codes, as the workload sets them up.
  Engine engine = BuildEngine(spec, inputs.base, &pool);
  sofa::index::BuildStats build;
  const auto add_build = [&build](const sofa::index::TreeIndex& tree) {
    build.symbolize_seconds += tree.build_stats().symbolize_seconds;
    build.partition_seconds += tree.build_stats().partition_seconds;
    build.tree_seconds += tree.build_stats().tree_seconds;
  };
  if (engine.tree != nullptr) {
    add_build(*engine.tree);
  } else {
    for (std::size_t s = 0; s < engine.sharded->num_shards(); ++s) {
      add_build(*engine.sharded->shard(s).tree);
    }
  }
  std::shared_ptr<const sofa::quant::RowQuant> rowq;
  const double rowq_ms =
      TimeMs([&] { rowq = sofa::quant::RowQuant::Build(inputs.base); });
  result.Add("sfa.train_s", engine.train_seconds, "s");
  result.Add("index.build_symbolize_s", build.symbolize_seconds, "s");
  result.Add("index.build_partition_s", build.partition_seconds, "s");
  result.Add("index.build_tree_s", build.tree_seconds, "s");
  result.Add("quant.rowq_build_s", rowq_ms / 1e3, "s");

  ProbeKernels(inputs.base, inputs.queries, *engine.scheme, *rowq, &result);

  Oracle oracle(inputs.base, &inputs.holdout, inputs.queries, 8 * spec.k,
                options.threads);
  Checker check(&oracle, spec.k, inputs.base.size(), &result);
  Log("brute-force truth ready");

  // One unsharded tree (the workload's own on hf-single) and hash shards
  // (the workload's own where it is sharded) over the same rows.
  std::unique_ptr<sofa::index::TreeIndex> probe_tree;
  sofa::index::TreeIndex* tree = engine.tree.get();
  if (tree == nullptr) {
    probe_tree = std::make_unique<sofa::index::TreeIndex>(
        &inputs.base, engine.scheme.get(), sofa::index::IndexConfig{}, &pool);
    tree = probe_tree.get();
  }
  const IndexProbe plain = ProbeIndex(*tree, inputs.queries, spec.k,
                                      options.threads, &check, &result);
  const double n = static_cast<double>(kProbeQueries);
  const double single_series_ed = plain.total.series_ed_computed / n;
  result.Add("index.search_ms_p50", Percentile(plain.parallel_ms, 50.0), "ms");
  result.Add("index.search_1t_ms_p50", Percentile(plain.single_ms, 50.0),
             "ms");
  result.Add("index.nodes_visited", plain.total.nodes_visited / n, "count");
  result.Add("index.leaves_collected", plain.total.leaves_collected / n,
             "count");
  result.Add("index.leaves_abandoned", plain.total.leaves_abandoned / n,
             "count");
  result.Add("index.series_lbd_checked", plain.total.series_lbd_checked / n,
             "count");
  result.Add("index.series_lbd_pruned", plain.total.series_lbd_pruned / n,
             "count");
  result.Add("index.series_ed", single_series_ed, "count");
  result.Add("index.lbd_prune_ratio", plain.total.SeriesPruningRatio(),
             "ratio");
  std::shared_ptr<const sofa::shard::ShardedIndex> sharded = engine.sharded;
  if (sharded == nullptr) {
    sofa::shard::ShardingConfig config;
    config.num_shards = 4;
    config.assignment = sofa::shard::ShardAssignment::kHash;
    config.enable_rowq = spec.rowq;
    sharded = sofa::shard::ShardedIndex::Build(inputs.base, config,
                                               engine.scheme, &pool);
  }
  ProbeShards(*sharded, inputs.queries, spec.k, options.threads,
              single_series_ed, &check, &result);
  Log("index and shard probes done");

  // The workload's own serving path: its service, the engine call under
  // it, and a TCP server in front of it.
  {
    std::unique_ptr<sv::SearchService> service = MakeService(engine, &pool);
    sofa::net::SofaServer server(service.get(), nullptr);
    if (!server.Start().ok()) {
      result.Fail("cannot start the server");
      return result;
    }
    const std::size_t k = spec.k;
    const std::function<std::vector<sofa::Neighbor>(const float*)>
        engine_call = [&](const float* query) {
          return engine.tree != nullptr
                     ? sofa::index::QueryEngine(engine.tree.get())
                           .Search(query, k)
                     : engine.sharded->SearchKnn(query, k);
        };
    ProbeService(service.get(), engine_call, inputs.queries, k,
                 options.threads, &check, &result);
    ProbeNet(service.get(), server.port(), inputs.queries, k, &check,
             &result);
  }
  Log("service and net probes done");

  // The rowq tier on the same unsharded tree (attached only now, after the
  // service probes that serve the workload's own rowq-off tree).
  tree->AttachRowQuant(rowq);
  const IndexProbe quantized = ProbeIndex(*tree, inputs.queries, spec.k,
                                          options.threads, &check, &result);
  result.Add("index.rowq_search_1t_ms_p50",
             Percentile(quantized.single_ms, 50.0), "ms");
  result.Add("index.rowq_checked", quantized.total.rowq_checked / n, "count");
  result.Add("index.rowq_pruned", quantized.total.rowq_pruned / n, "count");
  result.Add("index.rowq_series_ed", quantized.total.series_ed_computed / n,
             "count");
  Log("rowq index probe done");

  ProbeDurable(options, inputs, sharded, &pool, &oracle, &result);
  Log("ingest and persist probes done");
  Log("ISA dispatch tier %s, %zu threads", sofa::DispatchLevelName(),
      options.threads);
  return result;
}

}  // namespace perfbench
