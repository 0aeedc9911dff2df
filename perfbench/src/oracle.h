// The benchmark's own ground truth: a double-precision scalar scan that
// calls no SOFA kernel or index, and the per-answer property check every
// workload applies to every k-NN answer it receives.
//
// Candidates are identified by global id: ids [0, base.size()) are the
// base rows, ids base.size() + j the j-th held-out row (the row the ingest
// probe inserts j-th; the compactor assigns ids in insertion order, which
// the probe verifies at each acknowledgment).

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/neighbor.h"

namespace perfbench {

/// Relative distance tolerance of every check: reported float distances
/// may differ from the double-precision truth by this much (relative to
/// max(distance, 1)); ids may differ from brute-force order only between
/// rows whose distances lie within it of each other.
constexpr double kRelTolerance = 1e-4;

/// The rows an answer may and must consider, by global id: ids below
/// `live` at construction, plus whatever Insert and Delete record.
class LiveSet {
 public:
  LiveSet(std::size_t live, std::size_t ids);

  void Insert(std::uint32_t id);
  void Delete(std::uint32_t id);
  bool Live(std::uint32_t id) const {
    return id < live_.size() && live_[id];
  }
  std::size_t count() const { return count_; }
  std::size_t ids() const { return live_.size(); }

 private:
  std::vector<bool> live_;
  std::size_t count_;
};

class Oracle {
 public:
  struct Candidate {
    double distance = 0.0;
    std::uint32_t id = 0;
  };

  /// Ranks, for every query, the `depth` nearest of base ∪ extra rows in
  /// double precision on `threads` threads. `extra` may be null.
  Oracle(const sofa::Dataset& base, const sofa::Dataset* extra,
         const sofa::Dataset& queries, std::size_t depth,
         std::size_t threads);

  /// Euclidean distance of query `q` to row `id`, in double precision.
  double Distance(std::size_t q, std::uint32_t id) const;

  /// Checks one answer to query `q` against the truth under `live`;
  /// returns "" when it passes, else the first violated property. Not
  /// thread-safe (it may deepen the cached ranking).
  std::string Check(std::size_t q, const std::vector<sofa::Neighbor>& answer,
                    std::size_t k, const LiveSet& live);

  std::size_t candidates() const { return base_.size() + extra_size(); }

 private:
  std::size_t extra_size() const {
    return extra_ == nullptr ? 0 : extra_->size();
  }
  const float* Row(std::uint32_t id) const;
  /// The `depth` nearest candidates of each query in [begin, end), in one
  /// pass over the rows.
  std::vector<std::vector<Candidate>> Rank(std::size_t begin, std::size_t end,
                                           std::size_t depth) const;
  /// Ranked prefix of query q, at least `need` entries deep when the
  /// collection has them (extends a truncated prefix on demand).
  const std::vector<Candidate>& Ranked(std::size_t q, std::size_t need);

  const sofa::Dataset& base_;
  const sofa::Dataset* extra_;
  std::vector<double> queries_;  // row-major, converted once
  std::size_t length_;
  std::vector<std::vector<Candidate>> ranked_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
