#include "workloads.h"

#include <unistd.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "ingest/compactor.h"
#include "obs/registry.h"
#include "oracle.h"
#include "persist/generation_store.h"
#include "quant/rowq.h"
#include "service/snapshot.h"
#include "sfa/mcb.h"

namespace perfbench {

namespace sv = sofa::service;

namespace {

// Share of --seconds spent in the one-outstanding latency phase (the rest runs the fixed window), the fewest latency
// samples a run takes, so that ten lie beyond its p99, and the untimed
// warm-up queries before it.
constexpr double kLatencyShare = 0.55;
constexpr std::size_t kMinLatencySamples = 1000;
constexpr std::size_t kWarmupQueries = 50;
// Outstanding requests of the throughput phase, per hardware thread.
constexpr std::size_t kWindowPerThread = 8;

// The traced run's durable stack: compaction threshold in pending rows
// per shard, and the WAL's group-commit size (the WalConfig default).
constexpr std::size_t kCompactThreshold = 256;
constexpr std::size_t kWalSyncEvery = 64;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"hf-single", "SCEDC", 310000, 2000, 800, 10, 0, false},
      {"lf-sharded", "ISC_EHB_DepthPhases", 100000, 2000, 1000, 10, 4, false},
  };
  return specs;
}

// One received answer, kept for the check after its phase.
struct Answer {
  std::uint32_t query = 0;
  std::vector<sofa::Neighbor> neighbors;
};

void CheckAnswers(Oracle* oracle, const std::vector<Answer>& answers,
                  std::size_t k, RunResult* result) {
  const LiveSet all(oracle->candidates(), oracle->candidates());
  for (const Answer& a : answers) {
    const std::string why = oracle->Check(a.query, a.neighbors, k, all);
    if (!why.empty()) {
      result->Fail(why);
    }
  }
}

// Closed loop, one request outstanding, cycling over the queries until
// `seconds` have passed and at least `min_samples` were sent.
std::vector<double> LatencyPhase(sv::SearchService* service,
                                 const sofa::Dataset& queries, std::size_t k,
                                 double seconds, std::size_t min_samples,
                                 std::vector<Answer>* answers,
                                 RunResult* result) {
  std::vector<double> latency_ms;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < min_samples || SecondsSince(start) < seconds;
       ++i) {
    const std::size_t q = i % queries.size();
    sv::SearchRequest request = MakeRequest(queries, q, k);
    const Clock::time_point sent = Clock::now();
    sv::SearchResponse response = service->Search(std::move(request));
    const double ms = MsBetween(sent, Clock::now());
    ++result->attempted;
    if (response.status != sofa::StatusCode::kOk) {
      ++result->failed;
      continue;
    }
    latency_ms.push_back(ms);
    answers->push_back(
        Answer{static_cast<std::uint32_t>(q), std::move(response.neighbors)});
  }
  return latency_ms;
}

// Closed loop with `window` Submit futures outstanding, cycling over the
// queries for `seconds`; returns completed queries per second.
double ThroughputPhase(sv::SearchService* service,
                       const sofa::Dataset& queries, std::size_t k,
                       double seconds, std::size_t window,
                       std::vector<Answer>* answers, RunResult* result) {
  std::deque<std::pair<std::uint32_t, std::future<sv::SearchResponse>>>
      in_flight;
  std::size_t next = 0;
  bool issuing = true;
  std::uint64_t completed = 0;
  const Clock::time_point start = Clock::now();
  while (issuing || !in_flight.empty()) {
    while (issuing && in_flight.size() < window) {
      in_flight.emplace_back(static_cast<std::uint32_t>(next),
                             service->Submit(MakeRequest(queries, next, k)));
      next = (next + 1) % queries.size();
      issuing = SecondsSince(start) < seconds;
    }
    sv::SearchResponse response = in_flight.front().second.get();
    const std::uint32_t q = in_flight.front().first;
    in_flight.pop_front();
    ++result->attempted;
    if (response.status != sofa::StatusCode::kOk) {
      ++result->failed;
      continue;
    }
    ++completed;
    answers->push_back(Answer{q, std::move(response.neighbors)});
  }
  return static_cast<double>(completed) / SecondsSince(start);
}

void AddLatencyMetrics(const std::vector<double>& latency_ms,
                       RunResult* result) {
  if (!TailResolved(latency_ms.size(), 99.0)) {
    result->Fail("too few latency samples for a p99: " +
                 std::to_string(latency_ms.size()));
  }
  result->Add("search_ms_p50", Percentile(latency_ms, 50.0), "ms");
  result->Add("search_ms_p95", Percentile(latency_ms, 95.0), "ms");
  result->AddDetail("search_p99", Percentile(latency_ms, 99.0), "ms");
  result->AddDetail("search_samples", latency_ms.size(), "count");
}

// In-process service, latency phase then throughput phase, every answer
// checked against brute force.
RunResult RunInProcess(const RunOptions& options, const Inputs& inputs,
                       sofa::ThreadPool* pool) {
  const WorkloadSpec& spec = *options.spec;
  RunResult result;
  const Clock::time_point setup_start = Clock::now();
  Engine engine = BuildEngine(spec, inputs.base, pool);
  std::unique_ptr<sv::SearchService> service = MakeService(engine, pool);
  const double setup_s = SecondsSince(setup_start);
  Log("set-up %.3f s (train %.3f s, build %.3f s)", setup_s,
      engine.train_seconds, engine.build_seconds);

  Oracle oracle(inputs.base, nullptr, inputs.queries, 4 * spec.k,
                options.threads);
  Log("brute-force truth ready");

  std::vector<Answer> answers;
  RunResult warmup;
  LatencyPhase(service.get(), inputs.queries, spec.k, 0.0, kWarmupQueries,
               &answers, &warmup);
  answers.clear();
  const std::vector<double> latency_ms =
      LatencyPhase(service.get(), inputs.queries, spec.k,
                   kLatencyShare * options.seconds, kMinLatencySamples,
                   &answers, &result);
  const double qps = ThroughputPhase(
      service.get(), inputs.queries, spec.k,
      (1.0 - kLatencyShare) * options.seconds,
      kWindowPerThread * options.threads, &answers, &result);
  const sv::MetricsSnapshot m = service->Metrics();
  Log("latency phase: %zu queries, p50 %.3f ms; throughput phase %.1f QPS "
      "(%llu queries in %llu cross-query batches)",
      latency_ms.size(), Percentile(latency_ms, 50.0), qps,
      static_cast<unsigned long long>(m.throughput_queries),
      static_cast<unsigned long long>(m.throughput_batches));
  CheckAnswers(&oracle, answers, spec.k, &result);
  Log("checked %zu answers", answers.size());

  result.Add("setup_s", setup_s, "s");
  AddLatencyMetrics(latency_ms, &result);
  result.Add("qps", qps, "1/s");
  result.Add("peak_rss_mib", PeakRssMib(), "MiB");
  result.AddDetail("latency_mode", 1e3 / Mean(latency_ms), "qps");
  return result;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  sofa::ThreadPool* pool) {
  sofa::datagen::GenerateOptions options;
  options.count = spec.base_rows + spec.holdout_rows;
  options.num_queries = spec.queries;
  options.seed = seed;
  sofa::LabeledDataset all =
      sofa::datagen::MakeDatasetByName(spec.dataset, options, pool);
  const std::size_t length = all.data.length();
  Inputs inputs(length);
  // One copy of the rows: the held-out tail is copied out, then the
  // generated rows are cut to the base and moved.
  inputs.holdout = sofa::Dataset(spec.holdout_rows, length);
  if (spec.holdout_rows > 0) {
    std::memcpy(inputs.holdout.mutable_data(),
                all.data.row(spec.base_rows),
                spec.holdout_rows * length * sizeof(float));
  }
  all.data.Resize(spec.base_rows);
  inputs.base = std::move(all.data);
  inputs.queries = std::move(all.queries);
  return inputs;
}

Engine BuildEngine(const WorkloadSpec& spec, const sofa::Dataset& base,
                   sofa::ThreadPool* pool) {
  Engine engine;
  Clock::time_point start = Clock::now();
  engine.scheme = sofa::sfa::TrainSfa(base, sofa::sfa::SfaConfig{}, pool);
  engine.train_seconds = SecondsSince(start);
  start = Clock::now();
  if (spec.shards == 0) {
    engine.tree = std::make_unique<sofa::index::TreeIndex>(
        &base, engine.scheme.get(), sofa::index::IndexConfig{}, pool);
    if (spec.rowq) {
      engine.tree->AttachRowQuant(sofa::quant::RowQuant::Build(base));
    }
  } else {
    sofa::shard::ShardingConfig config;
    config.num_shards = spec.shards;
    config.assignment = sofa::shard::ShardAssignment::kHash;
    config.enable_rowq = spec.rowq;
    engine.sharded =
        sofa::shard::ShardedIndex::Build(base, config, engine.scheme, pool);
  }
  engine.build_seconds = SecondsSince(start);
  return engine;
}

std::unique_ptr<sv::SearchService> MakeService(const Engine& engine,
                                               sofa::ThreadPool* pool) {
  return std::make_unique<sv::SearchService>(
      engine.tree != nullptr ? sv::WrapIndex(engine.tree.get())
                             : sv::WrapShardedIndex(engine.sharded),
      pool);
}

sv::SearchRequest MakeRequest(const sofa::Dataset& queries, std::size_t q,
                              std::size_t k) {
  sv::SearchRequest request;
  request.query.assign(queries.row(q), queries.row(q) + queries.length());
  request.k = k;
  return request;
}

std::string ScratchDir(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::string dir = ".bench_data/" + spec.name + "-" +
                          std::to_string(seed) + "-" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

static sofa::ingest::IngestConfig DurableIngestConfig(
    const std::string& dir, sofa::persist::GenerationStore* store,
    sofa::obs::Registry* registry) {
  sofa::ingest::IngestConfig config;
  config.compact_threshold = kCompactThreshold;
  config.wal_dir = dir + "/wal";
  config.wal.sync_every = kWalSyncEvery;
  config.store = store;
  config.registry = registry;
  return config;
}

DurableStack::~DurableStack() {
  compactor.reset();
  service.reset();
  store.reset();
}

std::unique_ptr<DurableStack> StartDurable(
    const std::string& dir,
    std::shared_ptr<const sofa::shard::ShardedIndex> sharded,
    sofa::ThreadPool* pool, std::string* error) {
  auto stack = std::make_unique<DurableStack>();
  sv::ServiceConfig config;
  config.registry = &stack->registry;
  stack->service = std::make_unique<sv::SearchService>(
      sv::WrapShardedIndex(sharded), pool, config);
  stack->store = sofa::persist::GenerationStore::Open(dir + "/generations",
                                                      &stack->registry);
  if (stack->store == nullptr) {
    *error = "cannot open the generation store";
    return nullptr;
  }
  stack->compactor = std::make_unique<sofa::ingest::Compactor>(
      stack->service.get(), sharded,
      DurableIngestConfig(dir, stack->store.get(), &stack->registry));
  stack->compactor->Recover();  // a fresh directory: nothing to replay
  if (!stack->compactor->PersistNow().ok()) {
    *error = "cannot persist the base generation";
    return nullptr;
  }
  return stack;
}

std::unique_ptr<DurableStack> RecoverDurable(
    const std::string& dir, sofa::ThreadPool* pool, bool rowq,
    sofa::ingest::RecoverStats* replay, std::string* error,
    double* load_seconds) {
  auto stack = std::make_unique<DurableStack>();
  const Clock::time_point start = Clock::now();
  stack->store = sofa::persist::GenerationStore::Open(dir + "/generations",
                                                      &stack->registry);
  if (stack->store != nullptr) {
    stack->loaded = stack->store->LoadLatest(pool, rowq);
  }
  if (!stack->loaded.has_value()) {
    *error = "no generation loads after the restart";
    return nullptr;
  }
  *load_seconds = SecondsSince(start);
  sv::ServiceConfig config;
  config.registry = &stack->registry;
  stack->service = std::make_unique<sv::SearchService>(
      sv::WrapShardedIndex(stack->loaded->sharded), pool, config);
  const sofa::ingest::RecoveredBase base =
      sofa::ingest::MakeRecoveredBase(*stack->loaded);
  stack->compactor = std::make_unique<sofa::ingest::Compactor>(
      stack->service.get(), stack->loaded->sharded,
      DurableIngestConfig(dir, stack->store.get(), &stack->registry), &base);
  *replay = stack->compactor->Recover();
  if (!replay->ok) {
    *error = "WAL recovery refused";
    return nullptr;
  }
  return stack;
}

void CheckLiveTally(sv::SearchService* service, const Inputs& inputs,
                    const LiveSet& live, RunResult* result) {
  // An exact search for as many neighbors as ids were ever allocated
  // returns every live row exactly once.
  const std::size_t ids = live.ids();
  ++result->attempted;
  const sv::SearchResponse response =
      service->Search(MakeRequest(inputs.queries, 0, ids));
  if (response.status != sofa::StatusCode::kOk) {
    ++result->failed;
    return;
  }
  std::vector<bool> seen(ids, false);
  for (const sofa::Neighbor& n : response.neighbors) {
    if (n.id >= seen.size() || seen[n.id] || !live.Live(n.id)) {
      result->Fail("recovered collection returns a dead or repeated id " +
                   std::to_string(n.id));
      return;
    }
    seen[n.id] = true;
  }
  const std::size_t want = live.count();
  if (response.neighbors.size() != want) {
    result->Fail("recovered live rows " +
                 std::to_string(response.neighbors.size()) +
                 ", acknowledged mutations leave " + std::to_string(want));
  }
}

RunResult RunWorkload(const RunOptions& options) {
  sofa::ThreadPool pool(options.threads);
  const Inputs inputs = MakeInputs(*options.spec, options.seed, &pool);
  Log("generated %zu + %zu rows, %zu queries of %s", inputs.base.size(),
      inputs.holdout.size(), inputs.queries.size(),
      options.spec->dataset.c_str());
  return RunInProcess(options, inputs, &pool);
}

}  // namespace perfbench
