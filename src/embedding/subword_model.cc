#include "embedding/subword_model.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/thread_annotations.h"

namespace d3l {

Vec WordEmbeddingModel::EmbedAll(const std::vector<std::string>& words) const {
  Vec acc(dim(), 0.0f);
  if (words.empty()) return acc;
  for (const std::string& w : words) {
    AddInPlace(&acc, Embed(w));
  }
  for (float& x : acc) x = static_cast<float>(x / static_cast<double>(words.size()));
  return acc;
}

SubwordHashModel::SubwordHashModel(SubwordModelOptions options)
    : options_(options),
      buckets_(std::make_unique_for_overwrite<float[]>(options_.num_buckets *
                                                       options_.dim)) {
  // Every component is a pure function of (seed, bucket, component), so
  // disjoint bucket ranges fill independently and the table is bit-identical
  // whatever the thread count. Threads also fault the fresh pages in
  // parallel (the table is deliberately not zero-filled first).
  const size_t dim = options_.dim;
  const auto fill = [this, dim](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const uint64_t bucket_key = HashCombine(options_.seed, b);
      for (size_t j = 0; j < dim; ++j) {
        buckets_[b * dim + j] =
            static_cast<float>(GaussianFromKey(HashCombine(bucket_key, j)));
      }
    }
  };
  // Small tables are not worth a thread start.
  constexpr size_t kMinComponentsPerThread = size_t{1} << 16;
  const size_t n = options_.num_buckets;
  const size_t n_threads = std::min<size_t>(
      std::max(1u, std::thread::hardware_concurrency()),
      std::max<size_t>(1, n * dim / kMinComponentsPerThread));
  const size_t per_thread = (n + n_threads - 1) / n_threads;
  std::vector<std::jthread> workers;  // joined on scope exit, throw or not
  for (size_t t = 1; t < n_threads; ++t) {
    workers.emplace_back(fill, std::min(n, t * per_thread),
                         std::min(n, (t + 1) * per_thread));
  }
  fill(0, std::min(n, per_thread));
}

void SubwordHashModel::AccumulateBucket(uint64_t bucket, Vec* acc) const {
  const float* v = &buckets_[bucket * options_.dim];
  for (size_t j = 0; j < options_.dim; ++j) {
    (*acc)[j] += v[j];
  }
}

Vec SubwordHashModel::Embed(std::string_view word) const {
  Vec acc(options_.dim, 0.0f);
  if (word.empty()) return acc;

  // Boundary-marked word, as fastText does ("<word>").
  std::string marked;
  marked.reserve(word.size() + 2);
  marked += '<';
  marked.append(word);
  marked += '>';

  // Whole-word bucket.
  AccumulateBucket(HashString(marked, options_.seed) % options_.num_buckets, &acc);

  // Character n-gram buckets.
  for (size_t n = options_.min_ngram; n <= options_.max_ngram; ++n) {
    if (marked.size() < n) break;
    for (size_t i = 0; i + n <= marked.size(); ++i) {
      uint64_t h = HashBytes(marked.data() + i, n, options_.seed ^ n);
      AccumulateBucket(h % options_.num_buckets, &acc);
    }
  }
  Normalize(&acc);
  return acc;
}

std::shared_ptr<const SubwordHashModel> SharedSubwordModel(
    const SubwordModelOptions& options) {
  // Weak registry: expired entries are reaped on every lookup, so the table
  // stays as small as the number of distinct option sets currently alive.
  // Construction happens under the lock on purpose — the table build is the
  // expensive part, and racing callers would otherwise each build one.
  struct Registry {
    Mutex mu;
    std::vector<std::pair<SubwordModelOptions, std::weak_ptr<const SubwordHashModel>>>
        entries D3L_GUARDED_BY(mu);
  };
  static Registry registry;

  MutexLock lock(registry.mu);
  for (size_t i = 0; i < registry.entries.size();) {
    auto& [opts, weak] = registry.entries[i];
    std::shared_ptr<const SubwordHashModel> model = weak.lock();
    if (model == nullptr) {
      registry.entries[i] = std::move(registry.entries.back());
      registry.entries.pop_back();
      continue;
    }
    if (opts == options) return model;
    ++i;
  }
  auto model = std::make_shared<const SubwordHashModel>(options);
  registry.entries.emplace_back(options, model);
  return model;
}

const Vec& CachingEmbedder::Embed(const std::string& word) {
  auto it = cache_.find(word);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(word, model_->Embed(word)).first->second;
}

}  // namespace d3l
