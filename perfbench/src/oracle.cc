#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <thread>
#include <unordered_set>

namespace perfbench {

namespace {

// Queries per pass over the rows: each row is read from memory once per
// block, not once per query.
constexpr std::size_t kQueryBlock = 8;

// Squared Euclidean distance in double precision of a query (already in
// double) to a float row. Eight fixed partial sums, added in a fixed order
// at the end; every term is exact in double.
double SquaredDistance(const double* q, const float* r, std::size_t n) {
  double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) {
      const double d = q[i + j] - static_cast<double>(r[i + j]);
      s[j] += d * d;
    }
  }
  for (; i < n; ++i) {
    const double d = q[i] - static_cast<double>(r[i]);
    s[0] += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

bool CandidateLess(const Oracle::Candidate& a, const Oracle::Candidate& b) {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

double Tolerance(double distance) {
  return kRelTolerance * std::max(distance, 1.0);
}

}  // namespace

LiveSet::LiveSet(std::size_t live, std::size_t ids)
    : live_(ids, false), count_(live) {
  std::fill(live_.begin(), live_.begin() + live, true);
}

void LiveSet::Insert(std::uint32_t id) {
  count_ += live_[id] ? 0 : 1;
  live_[id] = true;
}

void LiveSet::Delete(std::uint32_t id) {
  count_ -= live_[id] ? 1 : 0;
  live_[id] = false;
}

Oracle::Oracle(const sofa::Dataset& base, const sofa::Dataset* extra,
               const sofa::Dataset& queries, std::size_t depth,
               std::size_t threads)
    : base_(base),
      extra_(extra),
      queries_(queries.data(), queries.data() + queries.size() * queries.length()),
      length_(queries.length()),
      ranked_(queries.size()) {
  const std::size_t blocks = (queries.size() + kQueryBlock - 1) / kQueryBlock;
  threads = std::max<std::size_t>(1, std::min(threads, blocks));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads, blocks, depth] {
      for (std::size_t b = t; b < blocks; b += threads) {
        const std::size_t begin = b * kQueryBlock;
        const std::size_t end = std::min(ranked_.size(), begin + kQueryBlock);
        std::vector<std::vector<Candidate>> block = Rank(begin, end, depth);
        for (std::size_t q = begin; q < end; ++q) {
          ranked_[q] = std::move(block[q - begin]);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

const float* Oracle::Row(std::uint32_t id) const {
  return id < base_.size() ? base_.row(id) : extra_->row(id - base_.size());
}

double Oracle::Distance(std::size_t q, std::uint32_t id) const {
  return std::sqrt(
      SquaredDistance(&queries_[q * length_], Row(id), length_));
}

std::vector<std::vector<Oracle::Candidate>> Oracle::Rank(
    std::size_t begin, std::size_t end, std::size_t depth) const {
  depth = std::min(depth, candidates());
  // Per query, a max-heap of the best `depth` squared distances so far.
  using Heap = std::priority_queue<Candidate, std::vector<Candidate>,
                                   decltype(&CandidateLess)>;
  std::vector<Heap> heaps(end - begin, Heap(&CandidateLess));
  for (std::uint32_t id = 0; id < candidates(); ++id) {
    const float* row = Row(id);
    for (std::size_t q = begin; q < end; ++q) {
      Heap& heap = heaps[q - begin];
      const Candidate c{SquaredDistance(&queries_[q * length_], row, length_),
                        id};
      if (heap.size() < depth) {
        heap.push(c);
      } else if (CandidateLess(c, heap.top())) {
        heap.pop();
        heap.push(c);
      }
    }
  }
  std::vector<std::vector<Candidate>> ranked(end - begin);
  for (std::size_t b = 0; b < ranked.size(); ++b) {
    Heap& heap = heaps[b];
    ranked[b].resize(heap.size());
    for (std::size_t i = heap.size(); i-- > 0;) {
      ranked[b][i] = heap.top();
      ranked[b][i].distance = std::sqrt(ranked[b][i].distance);
      heap.pop();
    }
  }
  return ranked;
}

const std::vector<Oracle::Candidate>& Oracle::Ranked(std::size_t q,
                                                     std::size_t need) {
  std::vector<Candidate>& ranked = ranked_[q];
  if (ranked.size() < need && ranked.size() < candidates()) {
    ranked = std::move(Rank(q, q + 1, std::max(need, 2 * ranked.size()))[0]);
  }
  return ranked;
}

std::string Oracle::Check(std::size_t q,
                          const std::vector<sofa::Neighbor>& answer,
                          std::size_t k, const LiveSet& live) {
  if (answer.size() != k) {
    return "query " + std::to_string(q) + ": " +
           std::to_string(answer.size()) + " neighbors, want " +
           std::to_string(k);
  }
  std::unordered_set<std::uint32_t> ids;
  for (std::size_t i = 0; i < k; ++i) {
    const sofa::Neighbor& n = answer[i];
    if (!ids.insert(n.id).second) {
      return "query " + std::to_string(q) + ": duplicate id " +
             std::to_string(n.id);
    }
    if (i > 0 && n.distance < answer[i - 1].distance) {
      return "query " + std::to_string(q) + ": distances not ascending";
    }
    if (!live.Live(n.id)) {
      return "query " + std::to_string(q) + ": id " + std::to_string(n.id) +
             " is not live";
    }
    const double truth = Distance(q, n.id);
    if (std::abs(n.distance - truth) > Tolerance(truth)) {
      return "query " + std::to_string(q) + ": id " + std::to_string(n.id) +
             " reported at " + std::to_string(n.distance) + ", is " +
             std::to_string(truth);
    }
  }

  // Brute-force top-k over the live rows.
  std::vector<Candidate> truth;
  std::size_t walked = 0;
  while (truth.size() < k) {
    const std::vector<Candidate>& ranked = Ranked(q, walked + 1);
    if (walked >= ranked.size()) {
      return "query " + std::to_string(q) + ": fewer than k live rows";
    }
    if (live.Live(ranked[walked].id)) {
      truth.push_back(ranked[walked]);
    }
    ++walked;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const double d = answer[i].distance;
    if (std::abs(d - truth[i].distance) > Tolerance(truth[i].distance)) {
      return "query " + std::to_string(q) + ": rank " + std::to_string(i) +
             " distance " + std::to_string(d) + ", brute force " +
             std::to_string(truth[i].distance);
    }
    if (answer[i].id != truth[i].id &&
        std::abs(truth[i].distance - d) > Tolerance(d)) {
      return "query " + std::to_string(q) + ": rank " + std::to_string(i) +
             " id " + std::to_string(answer[i].id) + ", brute force " +
             std::to_string(truth[i].id);
    }
  }
  // No live row strictly inside the answer's radius is missing.
  const double kth = answer[k - 1].distance;
  for (const Candidate& c : truth) {
    if (c.distance < kth - Tolerance(kth) && ids.count(c.id) == 0) {
      return "query " + std::to_string(q) + ": missed id " +
             std::to_string(c.id) + " at " + std::to_string(c.distance);
    }
  }
  return "";
}

}  // namespace perfbench
