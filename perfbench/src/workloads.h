// The perfbench workloads and the shared set-up they run on.
//
//   hf-single   SCEDC (high-frequency), one TreeIndex, rowq off, larger
//               than the last-level cache;
//   lf-sharded  ISC_EHB_DepthPhases (low-frequency), 4 hash shards, rowq
//               off, fits in cache.
//
// RunWorkload is the untraced run (end-to-end metrics); RunLayers the
// traced run over the same inputs (per-layer metrics, see layers.cc).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/dataset.h"
#include "index/tree_index.h"
#include "ingest/compactor.h"
#include "obs/registry.h"
#include "oracle.h"
#include "persist/generation_store.h"
#include "service/search_service.h"
#include "sfa/sfa_scheme.h"
#include "shard/sharded_index.h"
#include "util/thread_pool.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string dataset;       // datagen registry name
  std::size_t base_rows;     // indexed at set-up
  std::size_t holdout_rows;  // generated beside them, inserted by the
                             // traced run's ingest probe
  std::size_t queries;       // distinct queries, replayed in rounds
  std::size_t k;
  std::size_t shards;  // 0 = one TreeIndex
  bool rowq;
};

/// The spec of a workload name, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::size_t threads = 1;  // nproc: service pool and client bound
};

/// The generated inputs: base rows, held-out rows, queries.
struct Inputs {
  explicit Inputs(std::size_t length)
      : base(length), holdout(length), queries(length) {}
  sofa::Dataset base;
  sofa::Dataset holdout;
  sofa::Dataset queries;
};
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  sofa::ThreadPool* pool);

/// An index over the base rows, built through the public API: one tree,
/// or hash shards, each with or without rowq codes.
struct Engine {
  std::shared_ptr<const sofa::sfa::SfaScheme> scheme;
  std::unique_ptr<sofa::index::TreeIndex> tree;  // single-index workloads
  std::shared_ptr<const sofa::shard::ShardedIndex> sharded;  // sharded ones
  double train_seconds = 0.0;
  double build_seconds = 0.0;
};
Engine BuildEngine(const WorkloadSpec& spec, const sofa::Dataset& base,
                   sofa::ThreadPool* pool);

/// The in-memory service over an engine, as every workload configures it.
std::unique_ptr<sofa::service::SearchService> MakeService(
    const Engine& engine, sofa::ThreadPool* pool);

/// A k-NN request for query row `q`.
sofa::service::SearchRequest MakeRequest(const sofa::Dataset& queries,
                                         std::size_t q, std::size_t k);

/// A fresh, empty scratch directory for one run's WAL and generations,
/// under .bench_data/ in the working directory.
std::string ScratchDir(const WorkloadSpec& spec, std::uint64_t seed);

/// The durable serving stack over one data directory: generation store,
/// service, and compactor with its WAL.
struct DurableStack {
  DurableStack() = default;
  ~DurableStack();  // stops compactor, service, store in order
  DurableStack(const DurableStack&) = delete;
  DurableStack& operator=(const DurableStack&) = delete;

  sofa::obs::Registry registry;
  std::optional<sofa::persist::LoadedGeneration> loaded;  // after restart
  std::unique_ptr<sofa::persist::GenerationStore> store;
  std::unique_ptr<sofa::service::SearchService> service;
  std::unique_ptr<sofa::ingest::Compactor> compactor;
};

/// Serves `sharded` durably from the empty `dir`: opens the store,
/// attaches the compactor and persists the base generation. Null (and
/// `error` set) on failure.
std::unique_ptr<DurableStack> StartDurable(
    const std::string& dir,
    std::shared_ptr<const sofa::shard::ShardedIndex> sharded,
    sofa::ThreadPool* pool, std::string* error);

/// Restarts from `dir`: newest generation, then WAL tail replay.
/// `load_seconds` receives the LoadLatest time alone.
std::unique_ptr<DurableStack> RecoverDurable(
    const std::string& dir, sofa::ThreadPool* pool, bool rowq,
    sofa::ingest::RecoverStats* replay, std::string* error,
    double* load_seconds);

/// Checks that `service` holds exactly the rows of `live`.
void CheckLiveTally(sofa::service::SearchService* service,
                    const Inputs& inputs, const LiveSet& live,
                    RunResult* result);

RunResult RunWorkload(const RunOptions& options);
RunResult RunLayers(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
